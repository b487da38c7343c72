//! Trace tooling: `generate`, `analyze`, `compare`, `tune-cache`,
//! `ycsb`, `dataset` — commands that make or characterize workloads and
//! never touch a store.

use gadget_analysis::{
    key_sequence, stack_distances, ttl_distribution, unique_sequences, working_set,
    working_set_series,
};
use gadget_types::OpType;
use gadget_ycsb::{CoreWorkload, YcsbConfig};

use crate::plan::{load_config, load_trace};
use crate::Flags;

/// A YCSB core workload by letter.
pub(crate) fn core_workload(letter: &str) -> Result<CoreWorkload, String> {
    match letter {
        "A" | "a" => Ok(CoreWorkload::A),
        "B" | "b" => Ok(CoreWorkload::B),
        "C" | "c" => Ok(CoreWorkload::C),
        "D" | "d" => Ok(CoreWorkload::D),
        "F" | "f" => Ok(CoreWorkload::F),
        other => Err(format!("unknown YCSB workload {other} (A, B, C, D, F)")),
    }
}

pub(crate) fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let config = load_config(flags)?;
    let out = flags.required("out")?;
    let stats = config
        .write_trace(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} accesses ({} input events, {} distinct state keys) to {out}",
        stats.total, stats.input_events, stats.distinct_keys
    );
    Ok(())
}

pub(crate) fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let trace = load_trace(trace_path)?;
    let stats = trace.stats();
    println!("accesses: {}", stats.total);
    println!(
        "composition: get={:.3} put={:.3} merge={:.3} delete={:.3}",
        stats.ratio(OpType::Get),
        stats.ratio(OpType::Put),
        stats.ratio(OpType::Merge),
        stats.ratio(OpType::Delete)
    );
    println!("distinct state keys: {}", stats.distinct_keys);
    if let Some(amp) = stats.event_amplification() {
        println!("event amplification: {amp:.2}");
    }
    if let Some(amp) = stats.key_amplification() {
        println!("keyspace amplification: {amp:.2}");
    }

    let keys = key_sequence(&trace);
    let sd = stack_distances(&keys, None);
    println!(
        "temporal locality: mean stack distance {:.1} ({} cold accesses)",
        sd.mean, sd.cold_accesses
    );
    let seqs = unique_sequences(&keys, 10);
    println!(
        "spatial locality: {} unique sequences (len 1..=10)",
        seqs.total()
    );
    let ws = working_set_series(&keys, 100);
    println!(
        "working set: peak {} keys, final {}",
        working_set::peak(&ws),
        ws.last().map(|p| p.size).unwrap_or(0)
    );
    let ttl = ttl_distribution(&keys, None);
    println!(
        "TTL steps: p50={} p90={} p99.9={} max={} (accessed-once fraction {:.2})",
        ttl.percentile(50.0),
        ttl.percentile(90.0),
        ttl.percentile(99.9),
        ttl.max(),
        ttl.accessed_once_fraction()
    );
    Ok(())
}

pub(crate) fn cmd_compare(flags: &Flags) -> Result<(), String> {
    use gadget_analysis::{ks_test, rank_normalize, wasserstein_distance};
    let (a, b) = (
        load_trace(flags.required("a")?)?,
        load_trace(flags.required("b")?)?,
    );
    let (ka, kb) = (key_sequence(&a), key_sequence(&b));

    println!("{:>24} | {:>12} | {:>12}", "metric", "trace A", "trace B");
    println!("{}", "-".repeat(56));
    let row = |name: &str, va: String, vb: String| {
        println!("{name:>24} | {va:>12} | {vb:>12}");
    };
    row("accesses", a.len().to_string(), b.len().to_string());
    row(
        "get ratio",
        format!("{:.3}", a.stats().ratio(OpType::Get)),
        format!("{:.3}", b.stats().ratio(OpType::Get)),
    );
    row(
        "delete ratio",
        format!("{:.3}", a.stats().ratio(OpType::Delete)),
        format!("{:.3}", b.stats().ratio(OpType::Delete)),
    );
    let (sa, sb) = (stack_distances(&ka, None), stack_distances(&kb, None));
    row(
        "mean stack distance",
        format!("{:.1}", sa.mean),
        format!("{:.1}", sb.mean),
    );
    row(
        "unique seqs (<=10)",
        unique_sequences(&ka, 10).total().to_string(),
        unique_sequences(&kb, 10).total().to_string(),
    );
    let (ta, tb) = (ttl_distribution(&ka, None), ttl_distribution(&kb, None));
    row(
        "p50 TTL steps",
        ta.percentile(50.0).to_string(),
        tb.percentile(50.0).to_string(),
    );

    let (ra, rb) = (rank_normalize(&ka), rank_normalize(&kb));
    let ks = ks_test(&ra, &rb);
    println!();
    println!(
        "key distributions: KS D = {:.4}, p = {:.4} ({}), Wasserstein = {:.5}",
        ks.d,
        ks.p_value,
        if ks.rejects(0.001) {
            "different"
        } else {
            "compatible"
        },
        wasserstein_distance(&ra, &rb)
    );
    Ok(())
}

pub(crate) fn cmd_tune_cache(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let target: f64 = flags.optional_parse("hit-rate")?.unwrap_or(0.9);
    if !(0.0..1.0).contains(&target) {
        return Err("--hit-rate must be in [0, 1)".to_string());
    }
    let trace = load_trace(trace_path)?;
    let keys = key_sequence(&trace);
    let summary = stack_distances(&keys, None);
    match gadget_analysis::recommend_capacity(&summary, target) {
        Some(capacity) => println!(
            "smallest LRU capacity for a {:.0}% hit rate: {capacity} keys              (miss ratio there: {:.4})",
            target * 100.0,
            summary.miss_ratio(capacity)
        ),
        None => println!(
            "unreachable: cold misses alone exceed {:.0}% of accesses",
            (1.0 - target) * 100.0
        ),
    }
    for capacity in [16u64, 256, 4_096, 65_536] {
        println!(
            "  miss ratio @ {capacity:>6} keys: {:.4}",
            summary.miss_ratio(capacity)
        );
    }
    Ok(())
}

pub(crate) fn cmd_ycsb(flags: &Flags) -> Result<(), String> {
    let workload = core_workload(flags.required("workload")?)?;
    let records: u64 = flags.optional_parse("records")?.unwrap_or(1_000);
    let ops: u64 = flags.optional_parse("ops")?.unwrap_or(100_000);
    let out = flags.required("out")?;
    let trace = YcsbConfig::core(workload, records, ops).generate();
    trace
        .save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} YCSB accesses to {out}", trace.len());
    Ok(())
}

pub(crate) fn cmd_dataset(flags: &Flags) -> Result<(), String> {
    let name = flags.required("name")?;
    let events: u64 = flags.optional_parse("events")?.unwrap_or(100_000);
    let seed: u64 = flags.optional_parse("seed")?.unwrap_or(42);
    let out = flags.required("out")?;
    let spec = gadget_datasets::DatasetSpec { events, seed };
    let dataset = gadget_datasets::by_name(name, spec)
        .ok_or_else(|| format!("unknown dataset {name} (borg, taxi, azure)"))?;
    gadget_datasets::save_events_csv(&dataset, out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} {} events ({} distinct keys, {:.1} ev/s) to {out}",
        dataset.events.len(),
        dataset.name,
        dataset.distinct_keys,
        dataset.arrival_rate()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::dispatch;
    use crate::tests::{strs, ycsb};
    use gadget_kv::testutil::TestDir;
    use gadget_types::Trace;

    #[test]
    fn compare_subcommand_runs() {
        let dir = TestDir::new("cli-trace-compare");
        let pa = dir.path("a.gdt");
        let pb = dir.path("b.gdt");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::Aggregation,
            gadget_core::GeneratorConfig {
                events: 500,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        cfg.run().save(&pa).unwrap();
        ycsb("A", 100, 1_000, &pb);
        dispatch(&strs(&[
            "compare",
            "--a",
            pa.to_str().unwrap(),
            "--b",
            pb.to_str().unwrap(),
        ]))
        .unwrap();
    }

    /// `generate` writes while it drives and produces the golden trace
    /// files `gadget-core` pins for its fixture configs.
    #[test]
    fn generate_writes_the_golden_traces() {
        let dir = TestDir::new("cli-generate-golden");
        let fixtures =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures");
        for name in ["disordered", "borg"] {
            let out = dir.path(name);
            let config = fixtures.join(format!("{name}.json"));
            dispatch(&strs(&[
                "generate",
                "--config",
                config.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            let golden = std::fs::read(fixtures.join(format!("{name}.gdt"))).unwrap();
            assert!(
                std::fs::read(&out).unwrap() == golden,
                "{name}: bytes differ"
            );
        }
    }

    #[test]
    fn ycsb_subcommand_writes_trace() {
        let dir = TestDir::new("cli-ycsb");
        let out = dir.path("ycsb.gdt");
        ycsb("A", 100, 1_000, &out);
        let trace = Trace::load(&out).unwrap();
        assert_eq!(trace.stats().total, 1_000);
    }
}
