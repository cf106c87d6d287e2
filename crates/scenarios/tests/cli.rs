//! The `scenarios` bin refuses flags it would otherwise drop: a flag that
//! means nothing to the run it is given to exits 1 before anything runs,
//! instead of running (and passing) without it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh temporary directory for one test's artifacts and spec files.
fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dsmc_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temporary dir");
    d
}

fn scenarios(args: &[&str], artifacts: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .env("DSMC_ARTIFACTS", artifacts)
        .output()
        .expect("spawn scenarios")
}

fn assert_refused(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{flag} was not refused: {stderr}"
    );
    assert!(
        stderr.contains(flag),
        "the refusal does not name {flag}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{flag}: something ran before the refusal: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Each supervisor flag without `--supervise` exits 1: a plain run would
/// neither inject the fault nor keep the checkpoints it asks for.
#[test]
fn supervisor_flags_without_supervise_are_refused() {
    let dir = fresh_dir("supervisor_flags");
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 temp path");
    for (flag, value) in [
        ("--ckpt-dir", ckpt),
        ("--keep", "2"),
        ("--max-recoveries", "1"),
        ("--sentinel-every", "5"),
        ("--die-at-step", "5"),
        ("--truncate-ckpt-at-step", "5"),
        ("--flip-ckpt-at-step", "5"),
        ("--chaos-seed", "3"),
    ] {
        let out = scenarios(&["relax-box", "--quick", flag, value], &dir);
        assert_refused(&out, flag);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `campaign run --spec` takes its seeds and shard counts from the spec
/// file; `--shards` and `--seed` there would be silently ignored.
#[test]
fn campaign_spec_refuses_sweep_only_flags() {
    let dir = fresh_dir("campaign_spec");
    let spec = dir.join("one.spec");
    std::fs::write(
        &spec,
        "name = cli-probe\nscale = quick\n[run]\nscenario = relax-box\nlabel = only\n",
    )
    .expect("write spec");
    let spec = spec.to_str().expect("utf-8 temp path");
    let journal = dir.join("journal");
    let journal = journal.to_str().expect("utf-8 temp path");
    for (flag, value) in [("--shards", "2"), ("--seed", "3")] {
        let args = [
            "campaign",
            "run",
            "--spec",
            spec,
            "--dir",
            journal,
            "--max-attempts",
            "1",
            flag,
            value,
        ];
        assert_refused(&scenarios(&args, &dir), flag);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
