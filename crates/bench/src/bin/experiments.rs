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

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "all" {
        let scale = Scale::from_args();
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
    } else if let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        run(&Scale::from_args());
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "usage: experiments <name>|all [--events N] [--ops N] [--full] ...\n\
             unknown experiment `{name}`; one of: {}",
            names.join(", ")
        );
        std::process::exit(1);
    }
}
