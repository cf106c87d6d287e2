//! The names the benchmark is made of: five workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root is this table as the driver
//! reads it (`benchmark spec` prints it); a unit test holds the two equal.
//! The runner emits exactly these names — a per-layer metric whose layer
//! does no work on a workload reads 0 there.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WedgeSteady,
    WedgeShard4Serial,
    WedgeShard4Threaded,
    ScenarioRarefiedQuick,
    CampaignMachSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WedgeSteady,
        Workload::WedgeShard4Serial,
        Workload::WedgeShard4Threaded,
        Workload::ScenarioRarefiedQuick,
        Workload::CampaignMachSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WedgeSteady => "wedge-steady",
            Workload::WedgeShard4Serial => "wedge-shard4-serial",
            Workload::WedgeShard4Threaded => "wedge-shard4-threaded",
            Workload::ScenarioRarefiedQuick => "scenario-rarefied-quick",
            Workload::CampaignMachSweep => "campaign-mach-sweep",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::WedgeSteady => "settled Mach-4 wedge on the single-domain engine: sort and collide are ~75% of the step, so kernel work must show here and shard work must not",
            Workload::WedgeShard4Serial => "same snapshot at 4 shards on one thread: exchange, k-way merge and repartition dominate the difference to wedge-steady",
            Workload::WedgeShard4Threaded => "same snapshot at 4 shards on min(nproc,4) workers: fork-join per phase with the coordinator-side exchange as the serial term",
            Workload::ScenarioRarefiedQuick => "what a user runs: cold wedge-rarefied at QUICK scale under supervision, checkpoints, sentinel and goldens; L2-resident, collide does little",
            Workload::CampaignMachSweep => "fleet level: the 4-point Mach sweep on process-isolated workers, journal fsyncs and spawn cost, two engines contending for the cores",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Regression bound of the timing metrics.  On the recording host (2
/// shared vCPUs) ten runs of one workload scatter by 2-9 % between their
/// quartiles and the median of ten moves by up to 10 % within the hour;
/// the bound is three times the widest scatter, so an innocent change is
/// not rejected for the neighbours' load.
const TIMING_BOUND: f64 = 0.25;

/// Measured with tracing off, on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "steps/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "ns_per_particle_step",
        unit: "ns",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "time_to_solution_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// A metric of one layer, from the traced run.  No bound: it explains an
/// end-to-end change, it does not gate one.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Unit of the metrics that repeat exactly for a given seed;
/// `benchmark compare` holds them to equality.
pub const COUNT: &str = "count";

pub const PER_LAYER: [PerLayer; 66] = [
    // datapar: the primitives at the settled snapshot's size and keys.
    lower("datapar.rank_full_ns_per_key", "ns"),
    lower("datapar.rank_incremental_ns_per_key", "ns"),
    lower("datapar.scan_add_ns_per_elem", "ns"),
    lower("datapar.apply_perm_ns_per_elem", "ns"),
    lower("datapar.segment_bounds_ns_per_elem", "ns"),
    lower("datapar.pack_indices_ns_per_elem", "ns"),
    // rng / kinetics / geom kernels.
    lower("rng.next_bits_ns", "ns"),
    lower("kinetics.collide_pair_ns", "ns"),
    lower("geom.classifier_build_ms", "ms"),
    // core: the step, timed from outside, and the engine's own buckets.
    lower("core.step_ms_p50", "ms"),
    lower("core.step_ms_p90", "ms"),
    lower("core.step_ms_max", "ms"),
    lower("core.substep.move_ns", "ns"),
    lower("core.substep.sort_ns", "ns"),
    lower("core.substep.select_ns", "ns"),
    lower("core.substep.collide_ns", "ns"),
    lower("core.substep.sample_ns", "ns"),
    lower("core.unattributed_ns", "ns"),
    higher("core.sort.incremental_share", "fraction"),
    lower("core.sort.mover_fraction", "fraction"),
    higher("core.move.free_dispatch_share", "fraction"),
    lower("core.candidates_per_step", COUNT),
    lower("core.collisions_per_step", COUNT),
    lower("core.steps_traced", COUNT),
    lower("core.flow_particles", COUNT),
    lower("core.sample.overhead_frac", "fraction"),
    lower("core.state_hash_ms", "ms"),
    lower("core.diagnostics_ms", "ms"),
    // core.shard: what decomposition costs and what threads buy back.
    lower("core.shard.tax_frac", "fraction"),
    lower("core.shard.tax_frac_1", "fraction"),
    lower("core.shard.tax_frac_2", "fraction"),
    higher("core.shard.threaded_over_serial", "ratio"),
    lower("core.shard.serial_fraction_est", "fraction"),
    higher("core.shard.workers", COUNT),
    lower("core.shard.imbalance_max_over_mean", "ratio"),
    lower("core.shard.particles_per_shard_max", COUNT),
    lower("core.shard.repartitions", COUNT),
    lower("core.shard.canonical_merge_ms", "ms"),
    lower("core.shard.partition_setup_ms", "ms"),
    // core.snapshot / state: checkpoint cost.
    lower("core.snapshot.save_ms", "ms"),
    lower("core.snapshot.resume_ms", "ms"),
    lower("core.snapshot.resume_shard4_ms", "ms"),
    lower("core.snapshot.bytes", COUNT),
    lower("core.snapshot.bytes_per_particle", "B"),
    lower("state.atomic_write_ms", "ms"),
    lower("state.store_save_prune_ms", "ms"),
    lower("state.find_latest_valid_ms", "ms"),
    higher("state.checksum_mb_per_s", "MB/s"),
    // core.sentinel / flowfield.
    lower("core.sentinel.arm_ms", "ms"),
    lower("core.sentinel.check_ms", "ms"),
    lower("flowfield.wedge_metrics_ms", "ms"),
    // scenarios: supervision and the campaign executor.
    lower("scenarios.supervision_overhead_frac", "fraction"),
    lower("scenarios.warm_start_s", "s"),
    lower("scenarios.checkpoints_written", COUNT),
    lower("scenarios.sentinel_checks", COUNT),
    lower("scenarios.campaign.per_run_overhead_s", "s"),
    lower("scenarios.campaign.worker_wall_sum_s", "s"),
    higher("scenarios.campaign.parallel_efficiency", "fraction"),
    lower("scenarios.campaign.warm_makespan_s", "s"),
    higher("scenarios.campaign.cache_saved_steps", COUNT),
    lower("scenarios.campaign.noop_resume_s", "s"),
    // baselines: the plain single-threaded run of the same problem.
    lower("baselines.serial_ns_per_particle_step", "ns"),
    higher("baselines.parallel_over_serial", "ratio"),
    // harness: what the benchmark itself costs.
    lower("harness.trace_overhead_frac", "fraction"),
    lower("harness.settle_s", "s"),
    lower("harness.self_time_frac", "fraction"),
];

/// `BENCHMARK.json`, exactly the keys the driver reads.
pub fn benchmark_json() -> Json {
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj().with("name", w.name()).with("why", w.why()))
        .collect::<Vec<_>>();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.label())
                .with("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.label())
        })
        .collect::<Vec<_>>();
    Json::obj()
        .with(
            "command",
            vec![Json::from("bash"), Json::from("benchmark/run.sh")],
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(is_name(n), "bad name `{n}`");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(is_unit(u), "bad unit `{u}`");
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn bounds_fit_the_contract() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
    }

    /// Every metric and workload named in `BENCHMARK.json` is one the
    /// runner emits, and the other way round: the checked-in file must be
    /// exactly what `benchmark spec` prints.
    #[test]
    fn benchmark_json_matches_the_runner() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json());
        let keys: Vec<&str> = on_disk.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
