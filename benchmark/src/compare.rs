//! `benchmark compare A.json B.json`: the benchmark's own bounds applied
//! per (metric, workload) to two result sets — A the parent, B the change.
//!
//! Each end-to-end cell is improved, unchanged, regressed or unresolved
//! (the spread recorded with either value is wider than the bound, so the
//! two runs cannot tell).  Metrics with unit `count` repeat exactly for a
//! seed and are compared for equality.  A combined score is never formed.

use crate::json::Json;
use crate::spec::{Better, Workload, COUNT, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `b` against `a`: how much worse `b` is as a share of `a`, held against
/// `bound`; `spread` is the wider of the two values' recorded spreads.
pub fn verdict(a: f64, b: f64, spread: f64, bound: f64, better: Better) -> Verdict {
    let worse = worse(a, b, better);
    if !worse.is_finite() || spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn metric<'a>(
    results: &'a Json,
    workload: Workload,
    group: &str,
    name: &str,
) -> Option<&'a Json> {
    results
        .get("workloads")?
        .get(workload.name())?
        .get(group)?
        .get(name)
}

fn value(m: Option<&Json>, key: &str) -> Option<f64> {
    m?.get(key)?.as_f64()
}

/// Print the verdict of every cell; `true` when no cell regressed, no
/// count differs and nothing failed in `b`.
pub fn report(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    let mut tally = [0usize; 4];
    println!(
        "{:<24} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for w in Workload::ALL {
        for m in &END_TO_END {
            let (ma, mb) = (
                metric(a, w, "end_to_end", m.name),
                metric(b, w, "end_to_end", m.name),
            );
            let (Some(va), Some(vb)) = (value(ma, "value"), value(mb, "value")) else {
                println!("{:<24} {:<22} missing from a result set", w.name(), m.name);
                ok = false;
                continue;
            };
            let spread = value(ma, "spread")
                .unwrap_or(0.0)
                .max(value(mb, "spread").unwrap_or(0.0));
            let v = verdict(va, vb, spread, m.bound, m.better);
            tally[v as usize] += 1;
            ok &= v != Verdict::Regressed;
            println!(
                "{:<24} {:<22} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                w.name(),
                m.name,
                va,
                vb,
                worse(va, vb, m.better) * 100.0,
                m.bound * 100.0,
                v.label()
            );
        }
        let failed = b
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .and_then(|ws| ws.get("failed"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if failed > 0.0 {
            println!("{:<24} failed_share > 0 in B: regressed", w.name());
            ok = false;
        }
    }
    let mut counts_differ = 0;
    for w in Workload::ALL {
        for m in PER_LAYER.iter().filter(|m| m.unit == COUNT) {
            let va = value(metric(a, w, "per_layer", m.name), "value");
            let vb = value(metric(b, w, "per_layer", m.name), "value");
            if va != vb {
                println!(
                    "{:<24} {:<38} count differs: {va:?} vs {vb:?}",
                    w.name(),
                    m.name
                );
                counts_differ += 1;
            }
        }
    }
    println!(
        "improved {} · unchanged {} · regressed {} · unresolved {} · counts differing {}",
        tally[Verdict::Improved as usize],
        tally[Verdict::Unchanged as usize],
        tally[Verdict::Regressed as usize],
        tally[Verdict::Unresolved as usize],
        counts_differ
    );
    ok && counts_differ == 0
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            if report(&a, &b) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_for_a_lower_is_better_metric() {
        let v = |a, b, spread| verdict(a, b, spread, 0.1, Better::Lower);
        assert_eq!(v(10.0, 10.5, 0.0), Verdict::Unchanged);
        assert_eq!(v(10.0, 9.5, 0.0), Verdict::Unchanged);
        assert_eq!(v(10.0, 11.5, 0.0), Verdict::Regressed);
        assert_eq!(v(10.0, 8.5, 0.0), Verdict::Improved);
        // Exactly on the bound is still inside it.
        assert_eq!(v(10.0, 11.0, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn verdicts_for_a_higher_is_better_metric() {
        let v = |a, b| verdict(a, b, 0.0, 0.1, Better::Higher);
        assert_eq!(v(160.0, 150.0), Verdict::Unchanged);
        assert_eq!(v(160.0, 140.0), Verdict::Regressed);
        assert_eq!(v(160.0, 180.0), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        // Neither an apparent regression nor an apparent gain counts when
        // the runs themselves scatter by more than the bound.
        for b in [10.2, 12.0, 8.0] {
            assert_eq!(
                verdict(10.0, b, 0.15, 0.1, Better::Lower),
                Verdict::Unresolved
            );
        }
        assert_eq!(
            verdict(10.0, 12.0, 0.05, 0.1, Better::Lower),
            Verdict::Regressed
        );
        // A zero or missing parent value cannot be judged either.
        assert_eq!(
            verdict(0.0, 1.0, 0.0, 0.1, Better::Lower),
            Verdict::Unresolved
        );
    }
}
