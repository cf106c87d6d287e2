//! The checkpoint/restart contract, system level: snapshots round-trip
//! bit-exactly over arbitrary simulation states, damaged or mismatched
//! snapshots are rejected with typed errors, and save-at-N/resume-to-M
//! equals straight-to-M by full state hash — including across rayon
//! thread counts, which a subprocess test pins the same way the pipeline
//! determinism test does.

use dsmc_engine::config::WallModel;
use dsmc_engine::{BodySpec, RngMode, SimConfig, Simulation, StateError};
use dsmc_scenarios::campaign::load_journal;
use dsmc_scenarios::{
    campaign, run_campaign, CampaignOptions, CampaignSpec, RunSpec, RunStatus, Scale, Sleeper,
};
use integration_tests::{subprocess_hash, tmp_dir, wedge_dirty_cfg};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Save at `n`, resume, run both arms to `m`, demand hash equality with a
/// third simulation that never stopped.
fn check_resume_equals_straight(cfg: SimConfig, n: usize, m: usize) {
    assert!(n <= m);
    let mut straight = Simulation::new(cfg.clone());
    straight.run(m);
    let mut a = Simulation::new(cfg.clone());
    a.run(n);
    let bytes = a.save_state();
    let mut b = Simulation::resume(cfg, &bytes, 1).expect("own snapshot resumes");
    a.run(m - n);
    b.run(m - n);
    assert_eq!(
        a.state_hash(),
        straight.state_hash(),
        "interrupted-but-not-resumed arm diverged (save_state perturbed the run?)"
    );
    assert_eq!(
        b.state_hash(),
        straight.state_hash(),
        "resumed arm diverged from the uninterrupted run"
    );
    // Hash equality is the contract; spot-check it is not vacuous.
    assert_eq!(b.particles().x, straight.particles().x);
    assert_eq!(b.particles().rng, straight.particles().rng);
    assert_eq!(b.segment_bounds(), straight.segment_bounds());
    assert_eq!(b.diagnostics(), straight.diagnostics());
}

#[test]
fn resume_equals_straight_on_the_empty_tunnel() {
    check_resume_equals_straight(SimConfig::small_test(), 17, 45);
}

#[test]
fn resume_equals_straight_on_the_dirty_wedge() {
    check_resume_equals_straight(wedge_dirty_cfg(7), 25, 60);
}

#[test]
fn resume_equals_straight_across_a_plunger_withdrawal() {
    // small_test withdraws every ~9-10 steps; straddle several cycles so
    // the refill path (the sweep's key-less fallback) is crossed by the
    // resumed arm too.
    check_resume_equals_straight(SimConfig::small_test(), 5, 40);
}

#[test]
fn resume_mid_sampling_window_reduces_to_the_same_fields() {
    let cfg = wedge_dirty_cfg(3);
    let mut straight = Simulation::new(cfg.clone());
    straight.run(20);
    straight.begin_sampling();
    straight.run(30);

    let mut a = Simulation::new(cfg.clone());
    a.run(20);
    a.begin_sampling();
    a.run(12); // checkpoint lands mid-window
    let mut b = Simulation::resume(cfg, &a.save_state(), 1).expect("resume");
    b.run(18);
    assert_eq!(b.state_hash(), straight.state_hash());

    let fs = straight.finish_sampling();
    let fb = b.finish_sampling();
    assert_eq!(fs.steps, fb.steps);
    assert_eq!(fs.density, fb.density);
    assert_eq!(fs.t_trans, fb.t_trans);
    let ss = straight.finish_surface_sampling().expect("wedge facets");
    let sb = b.finish_surface_sampling().expect("wedge facets");
    assert_eq!(ss.cp, sb.cp);
    assert_eq!(ss.ch, sb.ch);
    assert_eq!(ss.force_x, sb.force_x);
}

/// A journal as `run_campaign` writes it, for the decoder fuzz below:
/// three runs — one seeded with overrides, its duplicate, one at two
/// shards — whose worker executable does not exist, so each primary
/// burns its two attempts and the journal holds quarantine and duplicate
/// records with their error text.
fn campaign_journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let dir = tmp_dir("fuzz_journal");
        let mut opts = CampaignOptions::new(dir.clone());
        opts.worker_exe = Some(dir.join("no-such-worker"));
        opts.max_attempts = 2;
        opts.sleeper = Sleeper::recording().0;
        let run = RunSpec::new("wedge-paper", "a")
            .seeded(3)
            .set("settle", 20.0)
            .set("average", 20.0);
        let spec = CampaignSpec {
            name: "fuzz".into(),
            scale: Scale::Quick,
            runs: vec![
                run.clone(),
                RunSpec {
                    label: "b".into(),
                    ..run
                },
                RunSpec::new("wedge-rarefied", "c").sharded(2),
            ],
        };
        let report = run_campaign(&spec, &opts).expect("the campaign itself runs");
        assert_eq!(report.count(RunStatus::Quarantined), 2);
        assert_eq!(report.count(RunStatus::Skipped), 1);
        let bytes = std::fs::read(dir.join("campaign.journal")).expect("journal written");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// Flip `flip[k]` into byte `at[k] % len` of `bytes`' body for the first
/// `n` lanes, then re-seal the trailing checksum so the decoder behind it
/// sees the damage.
fn mutate_and_reseal(bytes: &mut [u8], n: usize, at: &[u64; 5], flip: &[u8; 5]) {
    let body = bytes.len() - 8;
    for k in 0..n {
        bytes[(at[k] % body as u64) as usize] ^= flip[k];
    }
    let seal = dsmc_state::fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&seal.to_le_bytes());
}

proptest! {
    /// Encode → decode equality over random simulation states: any seed,
    /// any stopping step (including 0 — a freshly initialised, sorted
    /// state), both rng modes.
    #[test]
    fn prop_snapshot_round_trips(seed in 1u64..=60, steps in 0usize..=25, dirty in any::<bool>()) {
        let mut cfg = wedge_dirty_cfg(seed);
        cfg.rng_mode = if dirty { RngMode::DirtyBits } else { RngMode::Explicit };
        let mut sim = Simulation::new(cfg.clone());
        sim.run(steps);
        let bytes = sim.save_state();
        let mut back = Simulation::resume(cfg, &bytes, 1).expect("round trip");
        prop_assert_eq!(back.state_hash(), sim.state_hash());
        prop_assert_eq!(&back.particles().x, &sim.particles().x);
        prop_assert_eq!(&back.particles().u, &sim.particles().u);
        prop_assert_eq!(&back.particles().perm, &sim.particles().perm);
        prop_assert_eq!(&back.particles().rng, &sim.particles().rng);
        prop_assert_eq!(&back.particles().cell, &sim.particles().cell);
        prop_assert_eq!(back.segment_bounds(), sim.segment_bounds());
    }

    /// Corruption anywhere in the container must be rejected with an
    /// error, never a panic or a silently-wrong simulation.
    #[test]
    fn prop_corruption_is_rejected(at_permille in 0u64..1000, bit in 0u8..8) {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(5);
        let mut bytes = sim.save_state();
        let at = (bytes.len() - 1) * at_permille as usize / 1000;
        bytes[at] ^= 1 << bit;
        prop_assert!(Simulation::resume(SimConfig::small_test(), &bytes, 1).is_err());
    }

    /// Truncation at any length must be rejected.
    #[test]
    fn prop_truncation_is_rejected(keep_permille in 0u64..1000) {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(5);
        let bytes = sim.save_state();
        let keep = bytes.len() * keep_permille as usize / 1000;
        prop_assert!(keep < bytes.len());
        prop_assert!(Simulation::resume(SimConfig::small_test(), &bytes[..keep], 1).is_err());
    }

    /// The decoders never panic on input that passes the checksum: one to
    /// three bytes of a valid snapshot (open sampling window included)
    /// flipped and the trailer re-sealed, resumed at one to three shards
    /// and stepped three times; the same for one to three bytes of the
    /// snapshot's header fields alone (bytes 8..24: version, fingerprint,
    /// section count); one to three resealed bytes of a real campaign
    /// journal through `load_journal`; and text built from the campaign
    /// formats' own tokens through the spec and worker-result parsers.
    /// Each input is a typed `Err` or a clean run.
    #[test]
    fn prop_decoders_never_panic(
        n_edits in 1usize..=3,
        at in proptest::array::uniform5(any::<u64>()),
        flip in proptest::array::uniform5(1u8..=255),
        shards in 1usize..=3,
        tokens in proptest::collection::vec(any::<usize>(), 0..40),
        header_at in proptest::array::uniform5(8u64..24),
        journal_at in proptest::array::uniform5(any::<u64>()),
    ) {
        let cfg = SimConfig::small_test();
        let mut sim = Simulation::new(cfg.clone());
        sim.run(4);
        sim.begin_sampling();
        sim.run(5);
        let snapshot = sim.save_state();
        let mut bytes = snapshot.clone();
        mutate_and_reseal(&mut bytes, n_edits, &at, &flip);
        if let Ok(mut resumed) = Simulation::resume(cfg.clone(), &bytes, shards) {
            resumed.run(3);
        }

        let mut header = snapshot;
        mutate_and_reseal(&mut header, n_edits, &header_at, &flip);
        if let Ok(mut resumed) = Simulation::resume(cfg, &header, shards) {
            resumed.run(3);
        }

        let mut journal = campaign_journal().to_vec();
        mutate_and_reseal(&mut journal, n_edits, &journal_at, &flip);
        let path = tmp_dir("fuzz_journal_case").with_extension("journal");
        std::fs::write(&path, &journal).expect("write the mutated journal");
        let _ = load_journal(&path);
        let _ = std::fs::remove_file(&path);

        let vocab: Vec<&str> = TEXT_VOCAB.split('|').collect();
        let text: String = tokens.iter().map(|&t| vocab[t % vocab.len()]).collect();
        let _ = CampaignSpec::parse(&text);
        let _ = campaign::parse_result(&text);
    }
}

/// The vocabulary of the campaign spec and worker-result formats, plus
/// the separators and values that make their parsers branch, `|`-separated.
const TEXT_VOCAB: &str = "name|scale|quick|full|[run]|scenario|wedge-paper|label|seed|shards|\
    set |mach|metric |outcome|completed|passed|true|state_hash|recoveries|resumed_step|\
    wall_seconds|0x|=| = |\n|#|-|0|7|ffff|18446744073709551616|1e999|NaN|.|é| ";

#[test]
fn config_fingerprint_mismatches_are_typed() {
    let mut sim = Simulation::new(SimConfig::small_test());
    sim.run(5);
    let bytes = sim.save_state();
    // Every physics-bearing field must flip the fingerprint.
    let mutations: Vec<(&str, SimConfig)> = vec![
        ("seed", {
            let mut c = SimConfig::small_test();
            c.seed ^= 1;
            c
        }),
        ("mach", {
            let mut c = SimConfig::small_test();
            c.mach = 3.9;
            c
        }),
        ("body", {
            let mut c = SimConfig::small_test();
            c.body = BodySpec::Plate { x0: 6.0, h: 2.0 };
            c
        }),
        ("walls", {
            let mut c = SimConfig::small_test();
            c.walls = WallModel::Diffuse { t_wall: 1.0 };
            c
        }),
        ("rng_mode", {
            let mut c = SimConfig::small_test();
            c.rng_mode = RngMode::DirtyBits;
            c
        }),
        ("n_per_cell", {
            let mut c = SimConfig::small_test();
            c.n_per_cell = 11.0;
            c
        }),
        ("jitter_bits", {
            let mut c = SimConfig::small_test();
            c.jitter_bits = 5;
            c
        }),
    ];
    for (what, cfg) in mutations {
        assert!(
            matches!(
                Simulation::resume(cfg, &bytes, 1),
                Err(StateError::FingerprintMismatch { .. })
            ),
            "changing {what} must be a fingerprint mismatch"
        );
    }
}

#[test]
fn snapshot_is_not_an_empty_blob() {
    // Guard against a refactor that silently stops serialising a column:
    // the snapshot must be at least the ten 2-or-4-byte columns wide.
    let mut sim = Simulation::new(SimConfig::small_test());
    sim.run(3);
    let bytes = sim.save_state();
    let floor = sim.n_particles() * (7 * 4 + 2 + 4 + 4);
    assert!(
        bytes.len() > floor,
        "snapshot {} bytes < column floor {floor}",
        bytes.len()
    );
}

const SUBPROCESS_SAVE_AT: usize = 20;
const SUBPROCESS_RUN_TO: usize = 50;

/// Helper for the cross-thread-count test below: under the parent's
/// pinned `RAYON_NUM_THREADS`, prove save-at-N/resume-to-M equals
/// straight-to-M in-process, then print the straight run's hash so the
/// parent can also demand it is thread-count invariant.
#[test]
#[ignore = "helper: spawned by resume_bit_identity_across_thread_counts"]
fn helper_resume_then_print_hash() {
    let cfg = wedge_dirty_cfg(13);
    let mut straight = Simulation::new(cfg.clone());
    straight.run(SUBPROCESS_RUN_TO);
    let mut a = Simulation::new(cfg.clone());
    a.run(SUBPROCESS_SAVE_AT);
    let mut b = Simulation::resume(cfg, &a.save_state(), 1).expect("resume");
    b.run(SUBPROCESS_RUN_TO - SUBPROCESS_SAVE_AT);
    assert_eq!(
        b.state_hash(),
        straight.state_hash(),
        "resume diverged in-process"
    );
    println!("RESUME_HASH={:#018x}", b.state_hash());
}

/// Save-at-N/resume-to-M must equal straight-to-M under every thread
/// count, and produce the same bits across thread counts.  Thread count
/// is fixed at rayon pool spin-up, so each count gets its own subprocess
/// (this same test binary, filtered to the helper above).
#[test]
fn resume_bit_identity_across_thread_counts() {
    let hash = |threads| {
        subprocess_hash(
            "helper_resume_then_print_hash",
            "RESUME_HASH",
            &[("RAYON_NUM_THREADS", threads)],
        )
    };
    assert_eq!(
        hash("1"),
        hash("4"),
        "resumed trajectory depends on the thread count"
    );
}
