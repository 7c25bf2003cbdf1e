//! `repro <id|all> [--scale tiny|small|standard]` — regenerates one table
//! or figure of the evaluation (see EXPERIMENTS.md), or every one of them
//! with `all` (the source of the numbers recorded there).

use std::process::ExitCode;
use zmesh_amr::datasets::Scale;
use zmesh_bench::experiments as e;

/// An experiment's id and the function that prints its rows.
type Experiment = (&'static str, fn(Scale));

/// Every experiment by id, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 18] = [
    ("t1_datasets", e::t1_datasets::run),
    ("f2_smoothness", e::f2_smoothness::run),
    ("f2b_locality", e::f2b_locality::run),
    ("f3_sz_ratio", e::f3_sz_ratio::run),
    ("f4_zfp_ratio", e::f4_zfp_ratio::run),
    ("f5_rate_distortion", e::f5_rate_distortion::run),
    ("t6_error_bound", e::t6_error_bound::run),
    ("f7_overhead", e::f7_overhead::run),
    ("f8_amortization", e::f8_amortization::run),
    ("f9_timeseries", e::f9_timeseries::run),
    ("f10_threads", e::f10_threads::run),
    ("f11_precision", e::f11_precision::run),
    ("a9_ablation", e::a9_ablation::run),
    ("a10_sensitivity", e::a10_sensitivity::run),
    ("a11_layouts", e::a11_layouts::run),
    ("t12_lossless", e::t12_lossless::run),
    ("a13_uniform", e::a13_uniform::run),
    ("a14_entropy", e::a14_entropy::run),
];

fn main() -> ExitCode {
    let id = std::env::args().nth(1).unwrap_or_default();
    let scale = zmesh_bench::scale_from_args();
    if id == "all" {
        println!("# zMesh reproduction — full evaluation (scale: {scale:?})");
        for (_, run) in EXPERIMENTS {
            run(scale);
        }
        return ExitCode::SUCCESS;
    }
    match EXPERIMENTS.iter().find(|(name, _)| *name == id) {
        Some((_, run)) => {
            run(scale);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("repro: unknown experiment {id:?}");
            eprintln!("usage: repro <id|all> [--scale tiny|small|standard]");
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!("ids: all, {}", ids.join(", "));
            ExitCode::from(2)
        }
    }
}
