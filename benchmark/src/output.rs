//! What a run prints: a table for people, then, as the last line of
//! standard output, one JSON object for the driver.

use serde::Value;

use crate::host;
use crate::spec::{self, Workload};
use crate::stats;
use crate::workload::{Options, Outcome};

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and declared unit.
pub fn result_json(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let unit = spec::unit_of(m.name).unwrap_or("");
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.failed == 0)),
        (
            "attempted".to_string(),
            Value::UInt(outcome.attempted.max(1) as u128),
        ),
        ("failed".to_string(), Value::UInt(outcome.failed as u128)),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
}

/// Fails if the metrics reported are not exactly the declared set of
/// the mode, in order: a missing row is a bug in the benchmark.
pub fn check_declared(outcome: &Outcome, traced: bool) -> Result<(), String> {
    let declared = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    if got != want {
        let missing: Vec<&&str> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<&&str> = got.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "reported metrics differ from the declared ones (missing {missing:?}, undeclared {extra:?})"
        ));
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    Ok(())
}

/// Prints the header, the notes and one table row per metric.
pub fn print_report(w: &Workload, o: &Options, outcome: &Outcome) {
    println!(
        "# gadget-benchmark workload={} seed={} seconds={} trace={} mode={}",
        w.name,
        o.seed,
        o.seconds,
        u8::from(o.traced),
        if o.quick {
            "quick (op counts / 50: NOT comparable with full runs)"
        } else {
            "full"
        }
    );
    println!("# why: {}", w.why);
    println!(
        "# host: nproc={} kernel={} data_fs={}; flush policy: WAL on, wal_sync=false; latencies are this sandbox's (loopback, page-cache-backed files), not a device's or a network's",
        host::nproc(),
        host::kernel(),
        host::fs_type(&host::out_dir()),
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "{:<34} {:>8} {:>16} {:>16} {:>16} {:>4}",
        "metric", "unit", "value", "q1", "q3", "n"
    );
    for m in &outcome.metrics {
        let (q1, q3) = stats::quartiles(&m.values);
        println!(
            "{:<34} {:>8} {:>16.4} {:>16.4} {:>16.4} {:>4}",
            m.name,
            spec::unit_of(m.name).unwrap_or(""),
            m.value,
            q1,
            q3,
            m.values.len()
        );
    }
    println!(
        "# attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
}
