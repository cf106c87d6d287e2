//! The repository's benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! benchmark suite [--seed N] [--seconds S] [--twice]        every workload, untraced then traced
//! benchmark compare A.json B.json                           verdict per (metric, workload)
//! benchmark spec                                            print BENCHMARK.json
//! ```
//!
//! `benchmark/run.sh` builds this package and forwards its arguments;
//! `README.md` beside it explains the workloads, the metrics and the
//! estimators.

mod adapter;
mod campaign;
mod compare;
mod host;
mod json;
mod run;
mod scenario;
mod spec;
mod stats;
mod suite;
mod trace;
mod wedge;

use run::RunArgs;
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where results, sidecars, traces and scratch directories go, relative to
/// the checkout root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      benchmark suite [--seed <n>] [--seconds <s>] [--twice]\n\
         \x20      benchmark compare <a.json> <b.json>\n\
         \x20      benchmark spec\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs of the one-run and suite forms.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    twice: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: adapter::reference_seed(),
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        twice: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                flags.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                flags.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("bad --seconds `{v}`")),
                };
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}`")),
                }
            }
            "--twice" => flags.twice = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    // The campaign executor re-enters this executable as its worker.
    if let Some(code) = adapter::campaign_worker_exit_code() {
        return ExitCode::from(code as u8);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
        Some("compare") => match (args.get(1), args.get(2), args.get(3)) {
            (Some(a), Some(b), None) => compare::main(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        Some("suite") => match parse_flags(&args[1..]) {
            Ok(f) if f.workload.is_none() => {
                suite::main(f.seed, f.seconds, f.twice, &PathBuf::from(OUT_DIR))
            }
            Ok(_) => usage(),
            Err(e) => {
                eprintln!("benchmark: {e}");
                usage()
            }
        },
        _ => {
            let flags = match parse_flags(&args) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return usage();
                }
            };
            let Some(workload) = flags.workload.as_deref().and_then(Workload::from_name) else {
                eprintln!("benchmark: --workload must name one of the five workloads");
                return usage();
            };
            let result = run::run(&RunArgs {
                workload,
                seed: flags.seed,
                seconds: flags.seconds,
                trace: flags.trace,
                out: PathBuf::from(OUT_DIR),
            });
            // The driver reads the last line of standard output.
            println!("{}", result.compact());
            ExitCode::SUCCESS
        }
    }
}
