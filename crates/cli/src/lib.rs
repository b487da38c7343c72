//! The `gadget` command-line harness.
//!
//! Mirrors the paper artifact's user interface: JSON config files describe
//! a workload (source + operator, §A.4.1); subcommands generate traces
//! offline, replay them against a chosen store, run online, analyze trace
//! characteristics, and produce YCSB baselines.
//!
//! ```text
//! gadget generate --config cfg.json --out trace.gdt
//! gadget replay   --trace trace.gdt --store rocksdb-class [--rate R] [--ops N]
//! gadget online   --config cfg.json --store faster-class
//! gadget analyze  --trace trace.gdt
//! gadget ycsb     --workload A --records 1000 --ops 100000 --out trace.gdt
//! gadget stores
//! ```
//!
//! Every subcommand is a module that parses [`Flags`]. The ones that
//! measure a store (`replay`, `online`, `concurrent`, `drive`,
//! `observe`) parse into a [`plan::RunPlan`] and hand it to
//! [`plan::execute`], the one place a store is opened, observed, run
//! against and reported on; `sweep`, `crash` and `serve` reuse its
//! store, observe and output legs.

use std::collections::HashMap;

mod concurrent;
mod crash;
mod drive;
mod observe;
mod observing;
mod online;
mod outputs;
mod plan;
mod replay;
mod reports;
mod serve;
mod stores;
mod sweep;
mod traces;

/// Parsed command-line flags: `--key value` pairs after the subcommand.
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses flags from an argument list.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                return Err(format!("expected a --flag, found {}", args[i]));
            };
            if i + 1 >= args.len() {
                return Err(format!("--{key} requires a value"));
            }
            values.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        }
        Ok(Flags { values })
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Canonical `key=value` rendering of all flags, sorted by key.
    /// Digested into a run report's `config_digest`, so the same
    /// invocation always produces the same digest regardless of flag
    /// order.
    pub fn canonical(&self) -> String {
        let mut pairs: Vec<_> = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        pairs.sort();
        pairs.join(" ")
    }

    /// An optional parsed flag.
    pub fn optional_parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} got an unparsable value {v}")),
        }
    }
}

/// Top-level dispatch. Returns an error message for the user on failure.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    // Bare-flags form (`gadget --config c.json --metrics out.json`): the
    // observability sweep, for parity with the paper artifact's default
    // invocation.
    if cmd.starts_with("--") {
        let flags = Flags::parse(args)?;
        return observe::cmd_observe(&flags);
    }
    // `report` takes positional file arguments (`report compare a b`),
    // which the strict `--key value` parser would reject.
    if cmd == "report" {
        return reports::cmd_report(&args[1..]);
    }
    // `trace` likewise (`trace merge client.json server.json`).
    if cmd == "trace" {
        return reports::cmd_trace(&args[1..]);
    }
    let flags = Flags::parse(&args[1..])?;
    match cmd.as_str() {
        "generate" => traces::cmd_generate(&flags),
        "replay" => replay::cmd_replay(&flags),
        "sweep" => sweep::cmd_sweep(&flags),
        "online" => online::cmd_online(&flags),
        "observe" => observe::cmd_observe(&flags),
        "analyze" => traces::cmd_analyze(&flags),
        "compare" => traces::cmd_compare(&flags),
        "concurrent" => concurrent::cmd_concurrent(&flags),
        "tune-cache" => traces::cmd_tune_cache(&flags),
        "dataset" => traces::cmd_dataset(&flags),
        "ycsb" => traces::cmd_ycsb(&flags),
        "serve" => serve::cmd_serve(&flags),
        "drive" => drive::cmd_drive(&flags),
        "reshard" => serve::cmd_reshard(&flags),
        "crash" => crash::cmd_crash(&flags),
        // Hidden: the re-exec'd half of `crash` (see cmd_crash_child).
        "crash-child" => crash::cmd_crash_child(&flags),
        "checkpoint" => serve::cmd_checkpoint(&flags),
        "restore" => serve::cmd_restore(&flags),
        "stop" => serve::cmd_stop(&flags),
        "stores" => stores::cmd_stores(),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}\n{}", usage())),
    }
}

/// Usage text.
pub fn usage() -> String {
    "usage: gadget <subcommand> [--flag value]...\n\
     subcommands:\n\
     \x20 generate --config <json> --out <trace>         generate a state-access trace (offline mode)\n\
     \x20 replay   --trace <trace> --store <label>       replay a trace against a store\n\
     \x20          [--dir <path>] [--rate <ops/s>] [--ops <n>] [--batch-size <n>]\n\
     \x20          [--arrival closed|constant|poisson]    open-loop pacing (intended-time latency; needs --rate)\n\
     \x20          [--arrival-seed <n>]                   arrival-schedule seed (poisson)\n\
     \x20          [--shards <n>] [--replay-threads <n>]  keyspace-sharded store / shard-affine threads\n\
     \x20          [--reshard-at <frac>:<from>:<to>]      live shard split/migration mid-replay (needs --shards)\n\
     \x20          [--metrics <json>] [--every <ops>]\n\
     \x20          [--metrics-addr <host:port>]           live Prometheus scrape endpoint during the run\n\
     \x20          [--trace-out <json>]                   span timeline (Chrome/Perfetto) + tail attribution\n\
     \x20          [--report-out <json>]                  versioned run report (provenance + histograms)\n\
     \x20 online   --config <json> --store <label>       generate and issue requests on the fly\n\
     \x20          [--shards <n>] [--batch-size <n>] [--metrics <json>] [--every <ops>] [--trace <json>]\n\
     \x20          [--metrics-addr <host:port>] [--report-out <json>]\n\
     \x20 sweep    --backend <label> [--trace <trace>]    latency-throughput curve with knee detection\n\
     \x20          [--arrival constant|poisson] [--seed <n>]  open-loop arrival schedule (default poisson)\n\
     \x20          [--rates <r1,r2,..>]                   explicit ladder, or geometric + bisection:\n\
     \x20          [--start-rate <ops/s>] [--max-rate <ops/s>] [--growth <x>] [--refine <n>]\n\
     \x20          [--ops-per-step <n>] [--sustainable-fraction <0..1>] [--p99-bound-ms <ms>]\n\
     \x20          [--report-out <json>] [--metrics-addr <host:port>]  SweepReport / live per-step metrics\n\
     \x20 report   show <report.json>                    summarize one run or sweep report\n\
     \x20 report   compare <baseline.json> <candidate.json>  statistical regression verdict (KS + W1);\n\
     \x20          compare <candidate.json> --baseline <dir>  ...against the newest matching baseline;\n\
     \x20                                                 sweep reports gate the whole curve + knee shift\n\
     \x20          [--tolerance <pct>] [--rate-tolerance <pct>] [--knee-tolerance <pct>] [--out <json>]\n\
     \x20          [--allow-topology-change]              tolerate mismatched partition-map digests\n\
     \x20 observe  --config <json> --metrics <json>      run the workload on every store, sampling\n\
     \x20          [--stores <a,b,..>] [--every <ops>]    internal metrics into a JSON time series\n\
     \x20 analyze  --trace <trace>                       characterize a trace (composition, locality, TTL)\n\
     \x20 compare  --a <trace> --b <trace>                side-by-side fidelity report (paper 6.1)\n\
     \x20 concurrent --traces <a.gdt,b.gdt> --store <label>  co-located operators (paper 6.4)\n\
     \x20          [--rate <ops/s>] [--ops <n>] [--batch-size <n>] [--shards <n>] [--replay-threads <n>]\n\
     \x20          [--metrics-addr <host:port>] [--report-out <json>]  one report per trace (suffixed -0, -1, ...)\n\
     \x20 tune-cache --trace <trace> --hit-rate <0..1>   recommend an LRU capacity (paper 8)\n\
     \x20 dataset  --name <borg|taxi|azure> --events <n> --out <events.csv>\n\
     \x20 ycsb     --workload <A|B|C|D|F> --records <n> --ops <n> --out <trace>\n\
     \x20 serve    --backend <mem|lsm|hashlog|btree|label>  serve any store over TCP (gadget-server)\n\
     \x20          [--addr <host:port>] [--dir <path>] [--shards <n>]\n\
     \x20          [--metrics-addr <host:port>]           Prometheus text scrape endpoint\n\
     \x20          [--trace-out <json>]                   server-side span timeline, written on drain\n\
     \x20 drive    --addr <host:port> --trace <trace>    fan a trace across many client connections\n\
     \x20          [--connections <n>] [--churn <0..1>] [--segment-ops <n>] [--seed <n>]\n\
     \x20          [--rate <ops/s>] [--arrival constant|poisson] [--arrival-seed <n>]\n\
     \x20          [--ops <n>] [--batch-size <n>] [--report-out <json>]\n\
     \x20          [--trace-out <json>]                   client span timeline + wire trace contexts\n\
     \x20                                                 (latency decomposition lands in the report)\n\
     \x20          [--reshard-at <frac>:<from>:<to>]      live reshard on the server mid-drive\n\
     \x20 trace    merge <client.json> <server.json>     clock-align + join the two span timelines\n\
     \x20          [--out <merged.json>] [--check]        one Perfetto file; --check gates nesting and\n\
     \x20                                                 segment-sum consistency (CI smoke)\n\
     \x20 reshard  --addr <host:port> --from <n> --to <n>  fire one live shard split/migration now\n\
     \x20          [--at-op <n>]                          op index recorded on the event\n\
     \x20 crash    --store <lsm|hashlog|btree|mem>       crash-recovery harness: re-exec a replay as a\n\
     \x20          [--kill-at-frac <0..1>] [--seed <n>]   child, abort it mid-run, recover, and measure\n\
     \x20          [--trace <trace>] [--ops <n>]          the loss window (acknowledged writes missing\n\
     \x20          [--batch-size <n>] [--shards <n>]      from the recovered state) and recovery time\n\
     \x20          [--checkpoint-at-frac <0..1>]          checkpoint mid-run; recover from it, not the WAL\n\
     \x20          [--torn-tail truncate|garble]          damage the WAL tail before recovery\n\
     \x20          [--crashes <n>] [--dir <path>]         repeated crash/recover cycles (seeded kill points)\n\
     \x20          [--report-out <json>]                  run report with a `recovery` section\n\
     \x20 checkpoint --addr <host:port> --out <dir>      checkpoint a served store (dir is server-local)\n\
     \x20 restore  --addr <host:port> --from <dir>       restore a served store from a checkpoint\n\
     \x20 stop     --addr <host:port>                    ask a running server to drain and exit\n\
     \x20 stores                                         list available store labels"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    static LOAD: std::sync::RwLock<()> = std::sync::RwLock::new(());

    /// Tests that measure latency (report compare's KS gate) and tests
    /// that saturate cores (the loopback drive) are perturbed by anything
    /// else running a store; they hold this for themselves alone.
    pub(crate) fn timing_lock() -> std::sync::RwLockWriteGuard<'static, ()> {
        LOAD.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Every other test that runs a workload holds this: such tests may
    /// overlap each other, but not a [`timing_lock`] holder.
    pub(crate) fn load_lock() -> std::sync::RwLockReadGuard<'static, ()> {
        LOAD.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `gadget ycsb` into `out`.
    pub(crate) fn ycsb(workload: &str, records: u64, ops: u64, out: &std::path::Path) {
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            workload,
            "--records",
            &records.to_string(),
            "--ops",
            &ops.to_string(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
    }

    /// Writes a small synthetic workload config to `path`.
    pub(crate) fn write_config(
        path: &std::path::Path,
        kind: gadget_core::OperatorKind,
        events: u64,
    ) {
        let cfg = gadget_core::GadgetConfig::synthetic(
            kind,
            gadget_core::GeneratorConfig {
                events,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        std::fs::write(path, serde_json::to_string(&cfg).unwrap()).unwrap();
    }

    #[test]
    fn flags_parse_pairs() {
        let f = Flags::parse(&strs(&["--a", "1", "--b", "x"])).unwrap();
        assert_eq!(f.required("a").unwrap(), "1");
        assert_eq!(f.optional("b"), Some("x"));
        assert_eq!(f.optional("c"), None);
        assert_eq!(f.optional_parse::<u64>("a").unwrap(), Some(1));
        assert!(f.required("zz").is_err());
        assert!(f.optional_parse::<u64>("b").is_err());
    }

    #[test]
    fn flags_reject_bad_shapes() {
        assert!(Flags::parse(&strs(&["positional"])).is_err());
        assert!(Flags::parse(&strs(&["--dangling"])).is_err());
    }

    #[test]
    fn misspelled_config_key_is_an_error() {
        let dir = gadget_kv::testutil::TestDir::new("cli-config-typo");
        let path = dir.path("typo.json");
        write_config(&path, gadget_core::OperatorKind::TumblingIncr, 100);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("\"window_length\"", "\"window_lenght\""),
        )
        .unwrap();
        let flags = Flags::parse(&strs(&["--config", path.to_str().unwrap()])).unwrap();
        let err = crate::plan::load_config(&flags).unwrap_err();
        assert!(err.contains("unknown field `window_lenght`"), "got: {err}");
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }
}
