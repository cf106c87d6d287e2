//! The artifact directory: where every report, figure and checkpoint a
//! run leaves behind is written (`DSMC_ARTIFACTS`, default `artifacts`).

use dsmc_engine::StateError;
use std::path::PathBuf;

/// The artifact directory, created if missing.
pub fn dir() -> std::io::Result<PathBuf> {
    let dir = std::env::var("DSMC_ARTIFACTS").unwrap_or_else(|_| "artifacts".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p)?;
    Ok(p)
}

/// Atomically write one artifact and log its path: a kill mid-write
/// leaves the previous file (or none), never a torn one for the CI
/// parsers and warm starts that read these back.
pub fn write(name: &str, bytes: &[u8]) -> Result<PathBuf, StateError> {
    let path = dir()?.join(name);
    dsmc_state::store::atomic_write(&path, bytes)?;
    println!("  wrote {}", path.display());
    Ok(path)
}

/// [`write()`], downgrading an I/O failure to a warning: a full artifact
/// volume must not turn a finished, passing run into a crash (nor kill a
/// long run at a checkpoint — older checkpoints remain usable).
pub fn record(name: &str, bytes: &[u8]) {
    if let Err(e) = write(name, bytes) {
        eprintln!("warning: artifact {name} not written: {e}");
    }
}
