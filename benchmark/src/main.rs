//! The repo's cost ledger: four workloads, end-to-end and per-layer,
//! measured from outside the program through its public API only.
//!
//! ```text
//! gadget-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
//! gadget-benchmark [--runs <n>] [--out <set.json>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
//! gadget-benchmark agree <set-a.json> <set-b.json>
//! ```
//!
//! With `--workload`, runs that workload once and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Without it, runs the whole set, each workload
//! in a fresh process; `--trace 1` there adds a traced run per workload
//! and seed. Exits non-zero on any model mismatch.

mod agree;
mod host;
mod layers;
mod output;
mod set;
mod spec;
mod stats;
mod stores;
mod sut;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Fault, Options};

/// `run_seconds` of `BENCHMARK.json`: what a full run measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// `--seconds` default of a `--quick` run.
const QUICK_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  gadget-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
  gadget-benchmark [--runs <n>] [--out <set.json>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
  gadget-benchmark agree <set-a.json> <set-b.json>";

/// The flags of the run forms, parsed.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    inject: Option<Fault>,
    runs: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.to_string()),
            "--seed" => flags.seed = Some(number(flag, value()?)?),
            "--seconds" => {
                let seconds: f64 = number(flag, value()?)?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--runs" => flags.runs = Some(number(flag, value()?)?),
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--quick" => flags.quick = true,
            // Self-test hook: a store that loses acknowledged writes, or
            // a restart that forgets them, must fail the run.
            "--inject" => {
                flags.inject = Some(match value()? {
                    "loss" => Fault::Loss,
                    "wipe" => Fault::Wipe,
                    other => return Err(format!("--inject takes loss or wipe, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // A flag the selected form would ignore is a mistake, not a no-op.
    let stray = match flags.workload {
        Some(_) if flags.runs.is_some() => Some("--runs needs the set form (no --workload)"),
        Some(_) if flags.out.is_some() => Some("--out needs the set form (no --workload)"),
        None if flags.inject.is_some() => Some("--inject needs --workload"),
        _ => None,
    };
    match stray {
        Some(message) => Err(message.to_string()),
        None => Ok(flags),
    }
}

impl Flags {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn run_workload(name: &str, flags: &Flags) -> Result<bool, String> {
    let workloads = spec::workloads(flags.quick)?;
    let w = workloads.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
        format!("unknown workload {name} (known: {})", names.join(", "))
    })?;
    let o = Options {
        seed: flags.seed.unwrap_or(42),
        seconds: flags.seconds(),
        traced: flags.trace,
        quick: flags.quick,
        fault: flags.inject.unwrap_or(Fault::None),
    };
    if o.fault == Fault::Wipe && !matches!(w.stack, spec::Stack::ReplayLsm(_)) {
        return Err(format!(
            "--inject wipe needs an LSM workload, {name} has no directory"
        ));
    }
    let outcome = workload::run(w, &o)?;
    output::check_declared(&outcome, o.traced)?;
    output::print_report(w, &o, &outcome);
    let line = serde_json::to_string(&output::result_json(&outcome)).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(outcome.failed == 0)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        let [_, a, b] = args.as_slice() else {
            return Err(USAGE.to_string());
        };
        return agree::agree(a.as_ref(), b.as_ref());
    }
    let flags = parse_flags(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some(name) = &flags.workload {
        return run_workload(name, &flags);
    }
    let o = set::SetOptions {
        seed: flags.seed.unwrap_or(42),
        seconds: flags.seconds(),
        runs: flags.runs.unwrap_or(1),
        traced: flags.trace,
        quick: flags.quick,
        out: flags
            .out
            .unwrap_or_else(|| host::out_dir().join("set.json")),
    };
    set::run_set(&o).map(|()| true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gadget-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
