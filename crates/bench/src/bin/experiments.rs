//! Regenerates the paper's tables and figures (see DESIGN.md §5 for the
//! index): `experiments <name>` runs one, `experiments all` runs the
//! whole suite in order, the equivalent of the paper artifact's
//! `runAllExprs.sh`. Scale flags (`--events`, `--ops`, `--full`, ...)
//! follow the name.

use gadget_bench::experiments::*;
use gadget_bench::Scale;

/// A table or figure: its name and what regenerates it.
type Experiment = (&'static str, fn(&Scale));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("table2", table2::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("table3", table3::run),
    ("fig7", fig7::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("ext_external", ext_external::run),
    ("ext_cache_tuning", ext_cache_tuning::run),
    ("ext_sweep", ext_sweep::run),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: experiments <name>|all [--events N] [--ops N] [--seed N] [--full]\n\
         \x20      [--metrics PATH] [--trace PATH] [--batch-size N] [--reports DIR] [--no-reports]\n\
         experiments: {}",
        names.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().cloned().unwrap_or_default();
    let run_one = EXPERIMENTS.iter().find(|(n, _)| *n == name);
    if name != "all" && run_one.is_none() {
        eprintln!("unknown experiment `{name}`\n{}", usage());
        std::process::exit(1);
    }
    let scale = match Scale::parse(&args[1..]) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(1);
        }
    };
    if let Some((_, run)) = run_one {
        run(&scale);
        return;
    }
    println!("running the full Gadget evaluation suite");
    println!(
        "scale: {} events / {} ops (use --events/--ops/--full to change)\n",
        scale.events, scale.ops
    );
    let t0 = std::time::Instant::now();
    for (_, run) in EXPERIMENTS {
        run(&scale);
    }
    println!(
        "\nfull suite completed in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
