//! Simulation configuration.

use dsmc_fixed::Rounding;
use dsmc_geom::{Body, Cylinder, FlatPlate, ForwardStep, NoBody, Wedge};
use dsmc_kinetics::MolecularModel;
use std::sync::Arc;

/// Why a [`SimConfig`] was rejected by [`SimConfig::try_validated`].
///
/// Every variant names the offending field, so a supervisor or service
/// front-end can report (and log) exactly what to fix instead of crashing
/// a worker with a panic or — worse — feeding NaN through the fixed-point
/// conversions and producing a silently-garbage run.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A floating-point field is NaN or infinite.
    NotFinite {
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field is finite but outside its admissible range.
    OutOfRange {
        /// Field name.
        field: &'static str,
        /// The constraint that failed, human-readable.
        why: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The tunnel grid is below the 4×2 minimum.
    TunnelTooSmall {
        /// Requested width in cells.
        w: u32,
        /// Requested height in cells.
        h: u32,
    },
    /// The tunnel grid exceeds the Q8.23 position range.
    TunnelTooLarge {
        /// Requested width in cells.
        w: u32,
        /// Requested height in cells.
        h: u32,
    },
    /// The reservoir cannot buffer one plunger refill.
    ReservoirTooSmall {
        /// Reservoir capacity in particles.
        capacity: f64,
        /// One refill's demand in particles.
        refill: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotFinite { field, value } => {
                write!(f, "{field} must be finite (got {value})")
            }
            ConfigError::OutOfRange { field, why, value } => {
                write!(f, "{field} {why} (got {value})")
            }
            ConfigError::TunnelTooSmall { w, h } => {
                write!(f, "tunnel too small: {w}×{h} (need at least 4×2 cells)")
            }
            ConfigError::TunnelTooLarge { w, h } => write!(
                f,
                "tunnel {w}×{h} exceeds the Q8.23 position range (w < 250, h < 128)"
            ),
            ConfigError::ReservoirTooSmall { capacity, refill } => write!(
                f,
                "reservoir ({capacity:.0}) cannot buffer one plunger refill ({refill:.0}); \
                 increase reservoir_cells"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which body sits in the test section.
#[derive(Clone, Debug, PartialEq)]
pub enum BodySpec {
    /// Empty tunnel (uniform flow / relaxation studies).
    None,
    /// The paper's wedge: leading edge `x0`, base length, ramp angle (deg).
    Wedge {
        /// Leading-edge station in cells.
        x0: f64,
        /// Base length in cells.
        base: f64,
        /// Ramp angle in degrees.
        angle_deg: f64,
    },
    /// Rectangular forward step.
    Step {
        /// Upstream face station.
        x0: f64,
        /// Downstream face station.
        x1: f64,
        /// Step height.
        h: f64,
    },
    /// Thin vertical plate.
    Plate {
        /// Plate station.
        x0: f64,
        /// Plate height.
        h: f64,
    },
    /// Circular cylinder (blunt body with a detached bow shock).
    Cylinder {
        /// Centre x-station.
        cx: f64,
        /// Centre height above the lower wall.
        cy: f64,
        /// Radius.
        r: f64,
    },
}

impl BodySpec {
    /// Instantiate the geometry object.
    pub fn build(&self) -> Arc<dyn Body> {
        match *self {
            BodySpec::None => Arc::new(NoBody),
            BodySpec::Wedge {
                x0,
                base,
                angle_deg,
            } => Arc::new(Wedge::new(x0, base, angle_deg)),
            BodySpec::Step { x0, x1, h } => Arc::new(ForwardStep::new(x0, x1, h)),
            BodySpec::Plate { x0, h } => Arc::new(FlatPlate::new(x0, h)),
            BodySpec::Cylinder { cx, cy, r } => Arc::new(Cylinder::new(cx, cy, r)),
        }
    }
}

// What Q8.23 positions (range [−256, 256)) allow of the grid.  The tunnel
// width leaves room for one step's advance past the downstream edge; the
// height is halved because the wall reflection forms `2·h − y`
// (`Tunnel::enforce_walls`); the reservoir strip's height is itself a
// coordinate bound (`Fx::from_int(res.h)`, the wrap span).
const MAX_TUNNEL_W: u32 = 249;
const MAX_TUNNEL_H: u32 = 127;
const MAX_RES_ROWS: u32 = 255;

// The rank has one arm: every grid validation admits must fit its cell
// field.
const _: () = assert!(
    MAX_TUNNEL_W * MAX_TUNNEL_H + MAX_RES_ROWS * ResLayout::MAX_W
        <= 1 << dsmc_datapar::MAX_CELL_BITS
);

/// Geometry of the reservoir region: its own small periodic box, at most
/// [`ResLayout::MAX_W`] cells wide so a large reservoir grows in rows
/// ([`SimConfig::try_validated`] bounds those by the Q8.23 range).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResLayout {
    /// Box width in cells (≤ 64).
    pub w: u32,
    /// Box height in cells.
    pub h: u32,
}

impl ResLayout {
    /// Widest the box gets.
    pub const MAX_W: u32 = 64;

    /// Layout covering at least `cells` unit cells.
    pub fn for_cells(cells: u32) -> Self {
        let cells = cells.max(1);
        let w = cells.min(Self::MAX_W);
        Self {
            w,
            h: cells.div_ceil(w),
        }
    }

    /// Total cells in the box (≥ the requested count).
    pub fn total(&self) -> u32 {
        self.w * self.h
    }

    /// Cell index inside the box for a box-frame position.
    #[inline]
    pub fn cell(&self, x: dsmc_fixed::Fx, y: dsmc_fixed::Fx) -> u32 {
        let ix = x.floor_int();
        let iy = y.floor_int();
        debug_assert!(ix >= 0 && (ix as u32) < self.w && iy >= 0 && (iy as u32) < self.h);
        iy as u32 * self.w + ix as u32
    }
}

/// Tunnel-wall interaction model.
///
/// The paper implements specular (inviscid) walls and names "no slip
/// adiabatic and isothermal walls" as future work; the diffuse model is
/// that extension: particles striking the top/bottom walls are re-emitted
/// with a half-space Maxwellian at the wall temperature and zero mean
/// tangential velocity (full accommodation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WallModel {
    /// Specular reflection (the paper's inviscid walls; default).
    Specular,
    /// Fully accommodating diffuse re-emission at wall temperature
    /// `t_wall` in units of the freestream temperature.
    Diffuse {
        /// Wall temperature / freestream temperature.
        t_wall: f64,
    },
}

/// How a simulation drives its per-shard phase work.
///
/// Both modes produce **bitwise-identical** trajectories (see
/// `tests/tests/shard_exec.rs`): every per-shard phase (move, sort,
/// collide, sample) touches only shard-private state plus exact
/// integer-atomic accumulators, and every cross-shard reduction happens on
/// the coordinator in shard-index order at the existing phase barriers.
/// The choice is therefore a pure execution knob, *excluded* from
/// [`SimConfig::fingerprint`] so checkpoints stay portable between modes.
/// Every [`crate::Simulation`] resolves its executor from it and its
/// shard count; one shard resolves to one worker either way.
///
/// Which threads a step's primitives run on is one rule: the rayon thread
/// count (`RAYON_NUM_THREADS`) sizes the pool that one-shard, `Serial` and
/// one-worker runs fork every primitive above 16 k elements into;
/// `Threaded` workers that are at least as many as the pool's threads
/// never enter it and run their shards' primitives inline.
///
/// The textual form — `serial`, `auto` (one worker per core) or a worker
/// count ≥ 1 — is the one grammar of `scenarios --exec-threads` and the
/// campaign worker argv: [`std::str::FromStr`] reads it and
/// [`std::fmt::Display`] writes it back.  No environment variable selects
/// it: the [`Default`] depends on the host's core count alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Step every shard on the coordinator thread, in shard order — the
    /// executable specification the threaded path is pinned against.
    /// Worker panics unwind normally.
    Serial,
    /// Fan each per-shard phase out over scoped worker threads
    /// (`std::thread::scope`), joining at the phase barriers.  Worker
    /// panics are caught and surfaced as a typed `ShardExecError` carrying
    /// the shard id.
    Threaded {
        /// Worker-thread count; `0` means "one per available core",
        /// clamped to the shard count either way.
        workers: usize,
    },
}

impl ExecMode {
    /// Resolve the worker count this mode uses for `n_shards` shards:
    /// `Serial` is one worker (the coordinator); `Threaded` resolves
    /// `workers == 0` to the available core count, then clamps to
    /// `[1, n_shards]` — a worker per shard is the maximum useful width.
    pub fn resolved_workers(&self, n_shards: usize) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Threaded { workers } => {
                let w = if *workers == 0 {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                } else {
                    *workers
                };
                w.clamp(1, n_shards.max(1))
            }
        }
    }
}

impl Default for ExecMode {
    /// `Threaded` with one worker per core on a multi-core host, `Serial`
    /// on a single-core one (where fan-out could only add overhead).
    fn default() -> Self {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            ExecMode::Threaded { workers: 0 }
        } else {
            ExecMode::Serial
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(v: &str) -> Result<Self, String> {
        let v = v.trim();
        if v.eq_ignore_ascii_case("serial") {
            return Ok(ExecMode::Serial);
        }
        if v.eq_ignore_ascii_case("auto") {
            return Ok(ExecMode::Threaded { workers: 0 });
        }
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(ExecMode::Threaded { workers: n }),
            _ => Err(format!(
                "wants `serial`, `auto` or a worker count >= 1, got `{v}`"
            )),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Serial => f.write_str("serial"),
            ExecMode::Threaded { workers: 0 } => f.write_str("auto"),
            ExecMode::Threaded { workers } => write!(f, "{workers}"),
        }
    }
}

/// Where the per-particle random bits come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RngMode {
    /// One explicit xorshift32 stream per particle (default: reproducible,
    /// well distributed).
    Explicit,
    /// The paper's frugal mode: "a quick but dirty random number in the low
    /// order bits of a physical state quantity".  Saves the per-particle
    /// generator state and its update at the cost of weaker randomness;
    /// `tests/tests/cross_impl.rs::dirty_bits_macroscopics_match_explicit`
    /// holds the macroscopic flow to the explicit streams' result.
    DirtyBits,
}

/// Full configuration of a [`crate::Simulation`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Tunnel width in unit cells (98 in the paper's runs).
    pub tunnel_w: u32,
    /// Tunnel height in unit cells (64 in the paper's runs).
    pub tunnel_h: u32,
    /// Body in the test section.
    pub body: BodySpec,
    /// Freestream Mach number.
    pub mach: f64,
    /// Most probable thermal speed in cells/step.
    pub c_m: f64,
    /// Freestream mean free path in cells; `0.0` = near-continuum (every
    /// candidate pair collides).
    pub lambda: f64,
    /// Freestream number density in particles per (full) cell.
    pub n_per_cell: f64,
    /// Number of unit cells in the reservoir strip.
    pub reservoir_cells: u32,
    /// Initial reservoir population per reservoir cell (defaults to
    /// `n_per_cell` via [`SimConfig::validated`]; may exceed it to buffer
    /// the plunger's batched demand).
    pub reservoir_fill: f64,
    /// Plunger trigger station in cells: the piston face advances with the
    /// freestream and snaps back after sweeping this far.
    pub plunger_trigger: f64,
    /// Bits of random jitter in the sort key ("a random number less than
    /// the scale factor is added" so partner pairings decorrelate between
    /// steps).
    pub jitter_bits: u32,
    /// Halving/rounding policy (the paper's fix is stochastic rounding).
    pub rounding: Rounding,
    /// Randomness source for the step loop.
    pub rng_mode: RngMode,
    /// Per-shard phase execution for the sharded engine (serial coordinator
    /// vs scoped worker threads); bit-identical outputs either way.
    pub exec: ExecMode,
    /// Molecular interaction model (the paper: Maxwell molecules).
    pub model: MolecularModel,
    /// Tunnel-wall interaction (the paper: specular; diffuse is the
    /// future-work extension).
    pub walls: WallModel,
    /// Master seed; every run with the same config and seed is bit-identical.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's headline configuration at full scale: 98×64 grid, 30°
    /// wedge of base 25 at x = 20, ~75 particles per cell (512k total with
    /// the reservoir), Mach 4.
    pub fn paper(lambda: f64) -> Self {
        Self {
            tunnel_w: 98,
            tunnel_h: 64,
            body: BodySpec::Wedge {
                x0: 20.0,
                base: 25.0,
                angle_deg: 30.0,
            },
            mach: 4.0,
            c_m: dsmc_kinetics::FreeStream::DEFAULT_CM,
            lambda,
            n_per_cell: 75.0,
            reservoir_cells: 600,
            reservoir_fill: 75.0,
            plunger_trigger: 4.0,
            jitter_bits: 8,
            rounding: Rounding::Stochastic,
            rng_mode: RngMode::Explicit,
            exec: ExecMode::default(),
            model: MolecularModel::Maxwell,
            walls: WallModel::Specular,
            seed: 0xD5_4C_19_89,
        }
    }

    /// A scaled-down wedge configuration that runs a full shock study in
    /// seconds (used by examples and integration tests).
    pub fn small_wedge(lambda: f64) -> Self {
        let mut c = Self::paper(lambda);
        c.tunnel_w = 64;
        c.tunnel_h = 40;
        c.body = BodySpec::Wedge {
            x0: 14.0,
            base: 16.0,
            angle_deg: 30.0,
        };
        c.n_per_cell = 40.0;
        c.reservoir_cells = 200;
        c.reservoir_fill = 40.0;
        c
    }

    /// A tiny empty-tunnel configuration for unit tests.
    pub fn small_test() -> Self {
        Self {
            tunnel_w: 16,
            tunnel_h: 12,
            body: BodySpec::None,
            mach: 4.0,
            c_m: 0.08,
            lambda: 0.5,
            n_per_cell: 10.0,
            reservoir_cells: 48,
            reservoir_fill: 10.0,
            plunger_trigger: 3.0,
            jitter_bits: 6,
            rounding: Rounding::Stochastic,
            rng_mode: RngMode::Explicit,
            exec: ExecMode::default(),
            model: MolecularModel::Maxwell,
            walls: WallModel::Specular,
            seed: 1,
        }
    }

    /// Validate and normalise (fills defaulted fields, checks ranges).
    ///
    /// Panics with a descriptive message on nonsense configurations — the
    /// library's contract is that a validated config cannot crash the step
    /// loop.  Services and supervisors that must survive a bad config use
    /// [`SimConfig::try_validated`] instead; this is the same check.
    pub fn validated(self) -> Self {
        self.try_validated()
            .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"))
    }

    /// Validate and normalise, reporting problems as a typed
    /// [`ConfigError`] instead of panicking.
    ///
    /// Checks, in order: every float field (including enum payloads) is
    /// finite; the tunnel grid fits the 4×2 minimum and the Q8.23 position
    /// range (w < 250, h < 128); density, thermal speed, Mach and mean free
    /// path are in range; the reservoir strip fits the same position range
    /// (< 256 rows of 64 cells); the plunger trigger and jitter width are
    /// admissible; and the reservoir can buffer one plunger refill.  A `reservoir_fill ≤ 0`
    /// (but finite) is normalised to `n_per_cell`, not rejected.
    pub fn try_validated(mut self) -> Result<Self, ConfigError> {
        // Finiteness first: every later range check (and the fixed-point
        // conversions in the engine) may assume real numbers.
        let finite = |field: &'static str, value: f64| {
            if value.is_finite() {
                Ok(())
            } else {
                Err(ConfigError::NotFinite { field, value })
            }
        };
        finite("mach", self.mach)?;
        finite("c_m", self.c_m)?;
        finite("lambda", self.lambda)?;
        finite("n_per_cell", self.n_per_cell)?;
        finite("reservoir_fill", self.reservoir_fill)?;
        finite("plunger_trigger", self.plunger_trigger)?;
        match self.body {
            BodySpec::None => {}
            BodySpec::Wedge {
                x0,
                base,
                angle_deg,
            } => {
                finite("body.x0", x0)?;
                finite("body.base", base)?;
                finite("body.angle_deg", angle_deg)?;
            }
            BodySpec::Step { x0, x1, h } => {
                finite("body.x0", x0)?;
                finite("body.x1", x1)?;
                finite("body.h", h)?;
            }
            BodySpec::Plate { x0, h } => {
                finite("body.x0", x0)?;
                finite("body.h", h)?;
            }
            BodySpec::Cylinder { cx, cy, r } => {
                finite("body.cx", cx)?;
                finite("body.cy", cy)?;
                finite("body.r", r)?;
            }
        }
        if let MolecularModel::PowerLaw { alpha } = self.model {
            finite("model.alpha", alpha)?;
        }
        if let WallModel::Diffuse { t_wall } = self.walls {
            finite("walls.t_wall", t_wall)?;
            if t_wall <= 0.0 {
                return Err(ConfigError::OutOfRange {
                    field: "walls.t_wall",
                    why: "must be a positive temperature ratio",
                    value: t_wall,
                });
            }
        }
        let range = |field: &'static str, value: f64, ok: bool, why: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(ConfigError::OutOfRange { field, why, value })
            }
        };
        if self.tunnel_w < 4 || self.tunnel_h < 2 {
            return Err(ConfigError::TunnelTooSmall {
                w: self.tunnel_w,
                h: self.tunnel_h,
            });
        }
        if self.tunnel_w > MAX_TUNNEL_W || self.tunnel_h > MAX_TUNNEL_H {
            return Err(ConfigError::TunnelTooLarge {
                w: self.tunnel_w,
                h: self.tunnel_h,
            });
        }
        range(
            "n_per_cell",
            self.n_per_cell,
            self.n_per_cell >= 1.0,
            "needs at least ~1 particle per cell",
        )?;
        range("mach", self.mach, self.mach >= 0.0, "must be non-negative")?;
        // The engine's time-step scale: `FreeStream::new` asserts this
        // same window, so enforce it here where it is a typed error (a
        // zero or negative c_m is the "zero/negative dt" failure mode).
        range(
            "c_m",
            self.c_m,
            self.c_m > 0.0 && self.c_m < 0.5,
            "must be in (0, 0.5) cells/step",
        )?;
        range(
            "lambda",
            self.lambda,
            self.lambda >= 0.0,
            "must be non-negative (0 = near-continuum)",
        )?;
        range(
            "reservoir_cells",
            self.reservoir_cells as f64,
            self.reservoir_cells >= 1
                && ResLayout::for_cells(self.reservoir_cells).h <= MAX_RES_ROWS,
            "must be in [1, 16320]: the reservoir must exist, and its 64-wide strip must stay \
             under 256 rows (the Q8.23 position range)",
        )?;
        range(
            "plunger_trigger",
            self.plunger_trigger,
            self.plunger_trigger >= 1.0 && self.plunger_trigger < self.tunnel_w as f64 / 2.0,
            "must be in [1, tunnel_w/2)",
        )?;
        range(
            "jitter_bits",
            self.jitter_bits as f64,
            self.jitter_bits <= 12,
            "beyond 12 bits is wasteful",
        )?;
        if self.reservoir_fill <= 0.0 {
            self.reservoir_fill = self.n_per_cell;
        }
        let fs = dsmc_kinetics::FreeStream::new(self.mach, self.c_m, self.lambda);
        // Soft check of the eq.-(4) constraint; a violating config is
        // physically questionable but numerically safe, so warn only.
        if !(fs.time_step_constraint_ok() || self.lambda == 0.0) {
            eprintln!(
                "cm-dsmc warning: P∞ = {:.3} > 1/3 violates the one-collision-per-step \
                 assumption behind the selection rule (paper eq. 4); reduce c_m or \
                 increase λ∞ for quantitative work",
                fs.p_inf()
            );
        }
        // The reservoir must be able to supply one plunger refill.
        let refill = self.n_per_cell * self.plunger_trigger * self.tunnel_h as f64;
        let res_cap = self.reservoir_fill * self.reservoir_cells as f64;
        if res_cap < refill {
            return Err(ConfigError::ReservoirTooSmall {
                capacity: res_cap,
                refill,
            });
        }
        Ok(self)
    }

    /// The freestream state implied by this configuration.
    pub fn freestream(&self) -> dsmc_kinetics::FreeStream {
        dsmc_kinetics::FreeStream::new(self.mach, self.c_m, self.lambda)
    }

    /// Canonical 64-bit fingerprint of every field that influences a
    /// trajectory.
    ///
    /// Snapshots store this value and [`crate::Simulation::resume`]
    /// refuses a snapshot whose fingerprint differs from the offered
    /// configuration's: restoring particle state under different physics
    /// would not crash, it would *silently* produce a run that is neither
    /// the old trajectory nor a valid new one.  Floats are hashed by bit
    /// pattern, enums by a stable discriminant plus their payloads, so
    /// any two configs that could diverge hash differently.  Fingerprint
    /// the *validated* config (validation normalises defaulted fields).
    pub fn fingerprint(&self) -> u64 {
        let mut h = dsmc_state::Fnv64::new();
        h.u32(self.tunnel_w);
        h.u32(self.tunnel_h);
        match self.body {
            BodySpec::None => h.u32(0),
            BodySpec::Wedge {
                x0,
                base,
                angle_deg,
            } => {
                h.u32(1);
                h.f64(x0);
                h.f64(base);
                h.f64(angle_deg);
            }
            BodySpec::Step { x0, x1, h: sh } => {
                h.u32(2);
                h.f64(x0);
                h.f64(x1);
                h.f64(sh);
            }
            BodySpec::Plate { x0, h: ph } => {
                h.u32(3);
                h.f64(x0);
                h.f64(ph);
            }
            BodySpec::Cylinder { cx, cy, r } => {
                h.u32(4);
                h.f64(cx);
                h.f64(cy);
                h.f64(r);
            }
        }
        h.f64(self.mach);
        h.f64(self.c_m);
        h.f64(self.lambda);
        h.f64(self.n_per_cell);
        h.u32(self.reservoir_cells);
        h.f64(self.reservoir_fill);
        h.f64(self.plunger_trigger);
        h.u32(self.jitter_bits);
        h.u32(match self.rounding {
            Rounding::Truncate => 0,
            Rounding::Stochastic => 1,
            Rounding::PaperLiteral => 2,
        });
        h.u32(match self.rng_mode {
            RngMode::Explicit => 0,
            RngMode::DirtyBits => 1,
        });
        // ExecMode is deliberately *excluded*: Serial and Threaded shard
        // execution are pinned bit-identical by the shard_exec suite, so a
        // checkpoint is portable between any worker counts.
        match self.model {
            MolecularModel::Maxwell => h.u32(0),
            MolecularModel::HardSphere => h.u32(1),
            MolecularModel::PowerLaw { alpha } => {
                h.u32(2);
                h.f64(alpha);
            }
        }
        match self.walls {
            WallModel::Specular => h.u32(0),
            WallModel::Diffuse { t_wall } => {
                h.u32(1);
                h.f64(t_wall);
            }
        }
        h.u64(self.seed);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_validates() {
        let c = SimConfig::paper(0.5).validated();
        assert_eq!(c.tunnel_w, 98);
        assert_eq!(c.tunnel_h, 64);
        // ~6100 free cells × 75 ≈ 460k flow particles, as in the paper.
        let body = c.body.build();
        let mut free = 0.0;
        for iy in 0..c.tunnel_h {
            for ix in 0..c.tunnel_w {
                free += body.free_volume_fraction(ix, iy);
            }
        }
        let n_flow = free * c.n_per_cell;
        assert!(
            (430_000.0..480_000.0).contains(&n_flow),
            "flow population {n_flow}"
        );
    }

    #[test]
    fn near_continuum_config() {
        let c = SimConfig::paper(0.0).validated();
        assert_eq!(c.freestream().p_inf(), 1.0);
    }

    #[test]
    fn reservoir_default_fill() {
        let mut c = SimConfig::small_test();
        c.reservoir_fill = 0.0;
        let c = c.validated();
        assert_eq!(c.reservoir_fill, c.n_per_cell);
    }

    #[test]
    #[should_panic(expected = "reservoir")]
    fn undersized_reservoir_rejected() {
        let mut c = SimConfig::small_test();
        c.reservoir_cells = 1;
        c.reservoir_fill = 1.0;
        let _ = c.validated();
    }

    #[test]
    #[should_panic(expected = "Q8.23")]
    fn oversized_tunnel_rejected() {
        let mut c = SimConfig::small_test();
        c.tunnel_w = 400;
        let _ = c.validated();
    }

    #[test]
    fn nonfinite_floats_are_typed_errors() {
        for (mutate, field) in [
            (
                (|c: &mut SimConfig| c.mach = f64::NAN) as fn(&mut SimConfig),
                "mach",
            ),
            (|c: &mut SimConfig| c.c_m = f64::INFINITY, "c_m"),
            (|c: &mut SimConfig| c.lambda = f64::NEG_INFINITY, "lambda"),
            (|c: &mut SimConfig| c.n_per_cell = f64::NAN, "n_per_cell"),
            (
                |c: &mut SimConfig| c.reservoir_fill = f64::NAN,
                "reservoir_fill",
            ),
            (
                |c: &mut SimConfig| c.plunger_trigger = f64::NAN,
                "plunger_trigger",
            ),
            (
                |c: &mut SimConfig| {
                    c.body = BodySpec::Wedge {
                        x0: f64::NAN,
                        base: 6.0,
                        angle_deg: 30.0,
                    }
                },
                "body.x0",
            ),
            (
                |c: &mut SimConfig| c.walls = WallModel::Diffuse { t_wall: f64::NAN },
                "walls.t_wall",
            ),
            (
                |c: &mut SimConfig| {
                    c.model = dsmc_kinetics::MolecularModel::PowerLaw { alpha: f64::NAN }
                },
                "model.alpha",
            ),
        ] {
            let mut c = SimConfig::small_test();
            mutate(&mut c);
            match c.try_validated() {
                Err(ConfigError::NotFinite { field: f, .. }) => assert_eq!(f, field),
                other => panic!("{field}: expected NotFinite, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_or_negative_time_scale_is_rejected() {
        // c_m is the step's thermal displacement scale — the config-level
        // analogue of a zero/negative dt.
        for bad in [0.0, -0.08, 0.5] {
            let mut c = SimConfig::small_test();
            c.c_m = bad;
            assert!(
                matches!(
                    c.try_validated(),
                    Err(ConfigError::OutOfRange { field: "c_m", .. })
                ),
                "c_m = {bad} must be out of range"
            );
        }
        let mut c = SimConfig::small_test();
        c.n_per_cell = 0.0;
        assert!(matches!(
            c.try_validated(),
            Err(ConfigError::OutOfRange {
                field: "n_per_cell",
                ..
            })
        ));
        let mut c = SimConfig::small_test();
        c.mach = -1.0;
        assert!(matches!(
            c.try_validated(),
            Err(ConfigError::OutOfRange { field: "mach", .. })
        ));
        let mut c = SimConfig::small_test();
        c.walls = WallModel::Diffuse { t_wall: -2.0 };
        assert!(matches!(
            c.try_validated(),
            Err(ConfigError::OutOfRange {
                field: "walls.t_wall",
                ..
            })
        ));
    }

    #[test]
    fn tunnel_size_errors_are_typed() {
        let mut c = SimConfig::small_test();
        c.tunnel_w = 2;
        assert!(matches!(
            c.try_validated(),
            Err(ConfigError::TunnelTooSmall { w: 2, .. })
        ));
        let mut c = SimConfig::small_test();
        c.tunnel_h = 300;
        assert!(matches!(
            c.try_validated(),
            Err(ConfigError::TunnelTooLarge { h: 300, .. })
        ));
    }

    /// A tunnel of `h` rows with a reservoir of `reservoir_cells`, big
    /// enough to buffer the refill at every size tried below.
    fn tall_cfg(h: u32, reservoir_cells: u32) -> SimConfig {
        let mut c = SimConfig::small_test();
        c.tunnel_h = h;
        c.reservoir_cells = reservoir_cells;
        c.n_per_cell = 2.0;
        c.reservoir_fill = 4.0;
        c
    }

    #[test]
    fn q8_23_bounds_the_height_and_the_reservoir_strip() {
        // 2·h must be representable for the wall reflection: 127 rows fit,
        // 128 do not.
        assert!(tall_cfg(127, 600).try_validated().is_ok());
        assert!(matches!(
            tall_cfg(128, 600).try_validated(),
            Err(ConfigError::TunnelTooLarge { h: 128, .. })
        ));
        // 255 strip rows of 64 cells fit, one cell more makes 256.
        assert_eq!(ResLayout::for_cells(16_320).h, 255);
        assert!(tall_cfg(16, 16_320).try_validated().is_ok());
        for cells in [16_321, 16_384, u32::MAX] {
            assert!(
                matches!(
                    tall_cfg(16, cells).try_validated(),
                    Err(ConfigError::OutOfRange {
                        field: "reservoir_cells",
                        ..
                    })
                ),
                "reservoir_cells = {cells}"
            );
        }
    }

    #[test]
    fn try_validated_accepts_and_normalises_good_configs() {
        let mut c = SimConfig::small_test();
        c.reservoir_fill = -1.0; // finite non-positive → defaulted
        let v = c.try_validated().expect("good config");
        assert_eq!(v.reservoir_fill, v.n_per_cell);
        let _ = SimConfig::paper(0.5).try_validated().expect("paper config");
    }

    #[test]
    fn exec_mode_text_round_trips_and_garbage_never_selects_serial() {
        for (text, mode) in [
            ("serial", ExecMode::Serial),
            ("auto", ExecMode::Threaded { workers: 0 }),
            ("3", ExecMode::Threaded { workers: 3 }),
        ] {
            assert_eq!(text.parse::<ExecMode>(), Ok(mode));
            assert_eq!(mode.to_string(), text);
        }
        assert_eq!(" Serial ".parse::<ExecMode>(), Ok(ExecMode::Serial));
        for garbage in ["", "0", "-2", "threads", "2x"] {
            assert!(garbage.parse::<ExecMode>().is_err(), "`{garbage}` parsed");
        }
        // The default is the host's, never a parse: threaded wherever
        // there is more than one core.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let want = if cores > 1 {
            ExecMode::Threaded { workers: 0 }
        } else {
            ExecMode::Serial
        };
        assert_eq!(ExecMode::default(), want);
    }

    #[test]
    fn body_specs_build() {
        assert!(!BodySpec::None.build().contains_f64(1.0, 1.0));
        let w = BodySpec::Wedge {
            x0: 5.0,
            base: 10.0,
            angle_deg: 30.0,
        }
        .build();
        assert!(w.contains_f64(10.0, 0.5));
        let s = BodySpec::Step {
            x0: 2.0,
            x1: 4.0,
            h: 3.0,
        }
        .build();
        assert!(s.contains_f64(3.0, 1.0));
        let p = BodySpec::Plate { x0: 6.0, h: 2.0 }.build();
        assert!(p.contains_f64(6.0, 1.0));
        let c = BodySpec::Cylinder {
            cx: 8.0,
            cy: 6.0,
            r: 2.0,
        }
        .build();
        assert!(c.contains_f64(8.0, 6.5));
        assert!(!c.contains_f64(8.0, 8.5));
    }
}
