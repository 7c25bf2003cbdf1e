//! `zmesh` — command-line front end for the zMesh reproduction.
//!
//! ```text
//! zmesh generate <preset> -o data.zmd [--scale tiny|small|standard] [--mode leaf|all]
//! zmesh pack data.zmd -o data.zms [--policy baseline|zorder|hilbert] [--codec sz|zfp]
//!                                 [--rel-eb 1e-4 | --abs-eb X] [--chunk-kb 64]
//!                                 [--parity none|xor[:W]|rs:K,M] [--window-bytes N]
//! zmesh unpack data.zms -o restored.zmd [--field <name>] [--salvage] [--salvage-fill nan|zero]
//! zmesh query data.zms --field <name> --bbox x0,y0:x1,y1 [--level L] [--salvage] [-o out.csv]
//! zmesh scrub data.zms
//! zmesh repair data.zms -o repaired.zms [--replica copy.zms] [--from-raw data.zmd]
//! zmesh info <file.zmd | file.zms> [--stats]
//! zmesh verify original.zmd restored.zmd [--rel-eb 1e-4]
//! ```
//!
//! Exit codes: 0 success, 2 usage, 3 I/O, 4 corrupt input, 5 verification
//! failure, 6 recoverable damage, 7 torn store (see [`error::CliError`]).

mod args;
mod commands;
mod error;

use error::CliError;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        print_usage();
        return Err(CliError::Usage("missing subcommand".into()));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "generate" => commands::generate(rest),
        "pack" => commands::pack(rest),
        "unpack" => commands::unpack(rest),
        "query" => commands::query(rest),
        "scrub" => commands::scrub(rest),
        "repair" => commands::repair(rest),
        "info" => commands::info(rest),
        "verify" => commands::verify(rest),
        "serve" => commands::serve(rest),
        "bench-serve" => commands::bench_serve(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(CliError::Usage(format!("unknown subcommand {other:?}")))
        }
    }
}

fn print_usage() {
    eprintln!(
        "zmesh — AMR reordering for better lossy compression\n\n\
         usage:\n\
         \x20 zmesh generate <preset> -o data.zmd [--scale tiny|small|standard] [--mode leaf|all]\n\
         \x20 zmesh pack data.zmd -o data.zms [--policy baseline|zorder|hilbert] [--codec sz|zfp]\n\
         \x20                                 [--rel-eb 1e-4 | --abs-eb X] [--chunk-kb 64]\n\
         \x20                                 [--parity none|xor[:W]|rs:K,M] [--window-bytes N]\n\
         \x20 zmesh unpack data.zms -o restored.zmd [--field <name>] [--salvage] [--salvage-fill nan|zero]\n\
         \x20 zmesh query data.zms --field <name> --bbox x0,y0:x1,y1 [--level L[,L...]] [--salvage] [-o out.csv]\n\
         \x20 zmesh scrub data.zms\n\
         \x20 zmesh repair data.zms -o repaired.zms [--replica copy.zms] [--from-raw data.zmd]\n\
         \x20 zmesh info <file.zmd | file.zms> [--stats]\n\
         \x20 zmesh verify original.zmd restored.zmd [--rel-eb 1e-4]\n\
         \x20 zmesh serve <dir> [--addr 127.0.0.1:0] [--workers 4] [--queue 64] [--cache-mb 64]\n\
         \x20                   [--idle-timeout 10] [--max-requests 1000] [--fault-plan SPEC]\n\
         \x20 zmesh bench-serve [dir] [--clients 4] [--requests 200] [--workers 4] [--zipf 1.1]\n\
         \x20                        [--seed N] [--cache-mb 64] [--no-keepalive] [-o BENCH_serve.json]\n\n\
         exit codes: 0 ok, 2 usage, 3 i/o, 4 corrupt input, 5 verify failure, 6 recoverable damage, 7 torn store\n\
         presets: {}",
        zmesh_amr::datasets::names().join(", ")
    );
}
