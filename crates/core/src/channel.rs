//! Stochastic channels: Monte-Carlo reception probability over the
//! deterministic SINR engines.
//!
//! The SINR diagrams of Avin et al. are the *deterministic skeleton* of a
//! fundamentally stochastic model: real links fade and shadow, so the
//! production-shaped question is not "is `p` in `Hᵢ`" but "with what
//! probability is `p` in `Hᵢ` when the channel is drawn from a fading
//! distribution". This module layers that question over the existing
//! engines without forking any of their machinery.
//!
//! ## The gain-folding identity
//!
//! Every model here is a *multiplicative per-station gain vector*
//! `g = (g₁ … gₙ)`, `gⱼ > 0`, drawn per Monte-Carlo trial: station `j`'s
//! received energy becomes
//!
//! ```text
//! Eⱼ(p) = gⱼ · ψⱼ · dist(sⱼ, p)^{-α}
//! ```
//!
//! Because the gain multiplies the *power* term of the energy product,
//! a trial is exactly the deterministic model evaluated on the scaled
//! power vector `(g₁ψ₁ … gₙψₙ)` — the sealed [`PathLoss`](crate::engine::PathLoss) strategy, the
//! SoA scan kernels ([`crate::simd`]), and the reception test are reused
//! verbatim. The expensive per-batch state is built **once**:
//!
//! * the SoA columns `xs / ys` never change across trials — only the
//!   power column is rewritten (`n` multiplies per trial);
//! * the Morton order of the query batch is computed once;
//! * each tile's *unit-power* attenuation envelopes
//!   `[attₗₒ(j), attₕᵢ(j)]` over the tile box
//!   ([`crate::bounds::energy_envelope`] at `ψ = 1`) are computed once;
//!   per trial the certified envelope of station `j` is just
//!   `[attₗₒ(j)·gⱼψⱼ, attₕᵢ(j)·gⱼψⱼ]` — two multiplies per station per
//!   tile, *exactly* as tight as recomputing from scratch (the envelope
//!   is linear in the power), rather than widening a shared envelope by
//!   per-tile gain bounds;
//! * candidate pruning, the SIMD candidate scans and the certified
//!   reception test at both ends of the residual interval run per trial
//!   on the scaled columns through the same per-tile pass as
//!   [`crate::tile::locate_batch_tiled`] (see the [`crate::tile`]
//!   pipeline), with the backend's own serial kernel (on the scaled
//!   evaluator) as the uncertifiable-point fallback. Certified
//!   decisions agree with *every* summation order by the
//!   [`crate::tile::TOTAL_MARGIN`] contract, so each trial's reception
//!   bit is bit-identical to what the backend's deterministic `locate`
//!   would answer on the scaled network.
//!
//! Trials are the work-stealing units (the same scheduler as every other
//! batch path, [`crate::tile`]'s tile stealer), each worker owning one
//! scaled evaluator clone for the whole run.
//!
//! ## The seeding contract
//!
//! All randomness flows through the workspace's vendored `rand` shim
//! with an explicit `u64` seed. Trial `t` of a request with seed `s`
//! draws its gains from
//!
//! ```text
//! StdRng::seed_from_u64(s XOR (t + 1)·0x9E3779B97F4A7C15)
//! ```
//!
//! with [`Composed`](ChannelModel::Composed) atoms drawing from that one
//! stream in atom order, stations in index order, each atom consuming a
//! fixed number of variates per station. The gain stream therefore
//! depends only on `(model, seed, trial, n)` — not on the backend, the
//! SIMD kernel, thread scheduling, or which side of the server boundary
//! evaluates it — which is what lets the differential e2e harness pin
//! served Monte-Carlo answers bit-identical to fresh local engines.
//!
//! ## Exactness at the degenerate points
//!
//! * An **identity** channel ([`ChannelModel::is_identity`]) routes
//!   through the backend's own deterministic `locate_batch`, so the
//!   probabilities are exactly `0.0` / `1.0` and agree with the
//!   deterministic answers bit-for-bit *by construction* — the
//!   stochastic path may never disagree with the deterministic one.
//! * A gain-**deterministic** model with non-unit gains (e.g. fixed
//!   per-station offsets) runs exactly one trial, so probabilities are
//!   again exactly `0.0` / `1.0`.
//! * Otherwise `P = k/T` for integer `k` of `T` trials; `k = 0` and
//!   `k = T` produce exact `0.0` / `1.0`.
//!
//! The family is **sealed by construction**: [`ChannelModel`] is a
//! closed enum (not a trait), mirroring the sealed [`PathLoss`](crate::engine::PathLoss)
//! strategy — the certified-pruning argument above quantifies over all
//! implemented models, so downstream crates must not add their own.

use crate::engine::{LocateError, Located, SinrEvaluator, BATCH_TILE};
use crate::simd::SimdKernel;
use crate::station::StationId;
use crate::tile::{
    morton_order, steal_tiles, tile_box, BoxEnvelope, Decider, Scratch, Select, TILED_MIN_STATIONS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sinr_geometry::Point;
use std::sync::atomic::{AtomicU32, Ordering};

/// Hard cap on Monte-Carlo trials per request — bounds the work a single
/// (possibly remote) query can demand. `65 536` trials resolve
/// probabilities to ~`1.5e-5`, far below channel-model fidelity.
pub const MAX_TRIALS: u32 = 65_536;

/// Cap on [`ChannelModel::Composed`] atoms: enough to stack every atom
/// kind with room to spare, small enough that a wire-decoded spec can
/// never demand unbounded per-trial work.
pub const MAX_COMPOSED_ATOMS: usize = 16;

/// Monte-Carlo execution parameters: how many trials, and the seed the
/// per-trial gain streams derive from (see the [module
/// docs](self#the-seeding-contract)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of independent channel draws (`1 ..= MAX_TRIALS`).
    pub trials: u32,
    /// Base seed of the per-trial gain streams.
    pub seed: u64,
}

impl McConfig {
    /// Convenience constructor.
    pub fn new(trials: u32, seed: u64) -> Self {
        McConfig { trials, seed }
    }

    /// Checks the trial count is in `1 ..= MAX_TRIALS`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::InvalidChannel`] otherwise.
    pub fn validate(&self) -> Result<(), ChannelError> {
        if self.trials == 0 {
            return Err(ChannelError::InvalidChannel(
                "trial count must be at least 1".into(),
            ));
        }
        if self.trials > MAX_TRIALS {
            return Err(ChannelError::InvalidChannel(format!(
                "trial count {} exceeds the cap of {MAX_TRIALS}",
                self.trials
            )));
        }
        Ok(())
    }
}

/// A stochastic channel model: a distribution over multiplicative
/// per-station gain vectors (sealed — a closed enum by design, see the
/// [module docs](self)).
///
/// Gains multiply the *energy* (power) term, so a draw is the
/// deterministic SINR model on a scaled power assignment. All models
/// are mutually independent across stations and across trials.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelModel {
    /// The identity channel: every gain is exactly 1 — the deterministic
    /// model itself.
    Deterministic,
    /// Log-normal shadowing: `gⱼ = 10^{σ·Zⱼ/10}` with `Zⱼ ~ N(0,1)` —
    /// the dB-domain Gaussian standard for slow fading. `σ = 0` is the
    /// identity.
    LogNormalShadowing {
        /// Shadowing standard deviation in dB (finite, `≥ 0`).
        sigma_db: f64,
    },
    /// Rayleigh fast fading: the *power* gain is `Exp(1)` (unit-mean
    /// exponential — the squared magnitude of a circularly-symmetric
    /// complex Gaussian amplitude).
    RayleighFading,
    /// A fixed per-station gain offset (antenna gains, calibration
    /// offsets): no randomness, gains applied verbatim.
    FixedGains {
        /// One finite positive gain per station, index-aligned with the
        /// network.
        gains: Vec<f64>,
    },
    /// The product of the atom models, applied in order (e.g. shadowing
    /// × fast fading). Atoms must not themselves be `Composed` (one
    /// level — enforced by [`ChannelModel::validate`] and rejected at
    /// wire decode).
    Composed(Vec<ChannelModel>),
}

impl ChannelModel {
    /// Checks the model is well-formed for a network of `n_stations`
    /// stations: finite non-negative `σ`, a full vector of finite
    /// positive fixed gains, and a flat composition of at most
    /// [`MAX_COMPOSED_ATOMS`] atoms.
    ///
    /// # Errors
    ///
    /// [`ChannelError::InvalidChannel`] describing the first violation.
    pub fn validate(&self, n_stations: usize) -> Result<(), ChannelError> {
        match self {
            ChannelModel::Deterministic | ChannelModel::RayleighFading => Ok(()),
            ChannelModel::LogNormalShadowing { sigma_db } => {
                if sigma_db.is_finite() && *sigma_db >= 0.0 {
                    Ok(())
                } else {
                    Err(ChannelError::InvalidChannel(format!(
                        "shadowing sigma must be finite and >= 0 dB, got {sigma_db}"
                    )))
                }
            }
            ChannelModel::FixedGains { gains } => {
                if gains.len() != n_stations {
                    return Err(ChannelError::InvalidChannel(format!(
                        "fixed-gain vector has {} entries but the network has {n_stations} \
                         stations",
                        gains.len()
                    )));
                }
                match gains.iter().find(|g| !(g.is_finite() && **g > 0.0)) {
                    Some(g) => Err(ChannelError::InvalidChannel(format!(
                        "fixed gains must be finite and > 0, got {g}"
                    ))),
                    None => Ok(()),
                }
            }
            ChannelModel::Composed(atoms) => {
                if atoms.len() > MAX_COMPOSED_ATOMS {
                    return Err(ChannelError::InvalidChannel(format!(
                        "composition has {} atoms, the cap is {MAX_COMPOSED_ATOMS}",
                        atoms.len()
                    )));
                }
                for atom in atoms {
                    if matches!(atom, ChannelModel::Composed(_)) {
                        return Err(ChannelError::InvalidChannel(
                            "compositions must be flat (no nested Composed)".into(),
                        ));
                    }
                    atom.validate(n_stations)?;
                }
                Ok(())
            }
        }
    }

    /// True when the model draws no randomness — every trial yields the
    /// same gain vector, so one trial decides the probability exactly.
    pub fn is_deterministic(&self) -> bool {
        match self {
            ChannelModel::Deterministic | ChannelModel::FixedGains { .. } => true,
            ChannelModel::LogNormalShadowing { sigma_db } => *sigma_db == 0.0,
            ChannelModel::RayleighFading => false,
            ChannelModel::Composed(atoms) => atoms.iter().all(ChannelModel::is_deterministic),
        }
    }

    /// True when every gain is exactly 1 — the channel *is* the
    /// deterministic model, and the Monte-Carlo answer must match
    /// `locate_batch` bit-for-bit (the degenerate-channel contract).
    pub fn is_identity(&self) -> bool {
        match self {
            ChannelModel::Deterministic => true,
            ChannelModel::LogNormalShadowing { sigma_db } => *sigma_db == 0.0,
            ChannelModel::RayleighFading => false,
            ChannelModel::FixedGains { gains } => gains.iter().all(|&g| g == 1.0),
            ChannelModel::Composed(atoms) => atoms.iter().all(ChannelModel::is_identity),
        }
    }

    /// Fills `out` (one slot per station) with the gain vector of trial
    /// `trial` under base seed `seed` — the exact stream the engines
    /// consume, exposed so baselines and differential tests can replay
    /// it. Gains of a valid model are always finite-or-zero and
    /// non-negative (`Exp(1)` can draw an exact 0).
    pub fn gains_for_trial(&self, seed: u64, trial: u32, out: &mut [f64]) {
        out.fill(1.0);
        let mut rng = trial_rng(seed, trial);
        self.apply_gains(&mut rng, out);
    }

    /// Multiplies this model's trial draw into `out`, consuming variates
    /// from `rng` in station index order.
    fn apply_gains(&self, rng: &mut StdRng, out: &mut [f64]) {
        match self {
            ChannelModel::Deterministic => {}
            ChannelModel::LogNormalShadowing { sigma_db } => {
                for g in out.iter_mut() {
                    // Draw unconditionally (even at σ = 0) so the stream
                    // position of later atoms is parameter-independent.
                    let z = standard_normal(rng);
                    *g *= 10f64.powf(sigma_db * z / 10.0);
                }
            }
            ChannelModel::RayleighFading => {
                for g in out.iter_mut() {
                    *g *= unit_exponential(rng);
                }
            }
            ChannelModel::FixedGains { gains } => {
                for (g, &f) in out.iter_mut().zip(gains) {
                    *g *= f;
                }
            }
            ChannelModel::Composed(atoms) => {
                for atom in atoms {
                    atom.apply_gains(rng, out);
                }
            }
        }
    }
}

/// Why a stochastic-channel query could not be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// The engine is stale (same condition as
    /// [`QueryEngine::freshness`](crate::engine::QueryEngine::freshness)).
    Stale(LocateError),
    /// The channel model or Monte-Carlo config failed validation.
    InvalidChannel(String),
    /// This backend does not implement stochastic channels (e.g. the
    /// Theorem-3 approximate locator, whose zone structures assume the
    /// deterministic power assignment).
    Unsupported(&'static str),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Stale(e) => write!(f, "{e}"),
            ChannelError::InvalidChannel(msg) => write!(f, "invalid channel model: {msg}"),
            ChannelError::Unsupported(msg) => {
                write!(f, "stochastic channels unsupported: {msg}")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<LocateError> for ChannelError {
    fn from(e: LocateError) -> Self {
        ChannelError::Stale(e)
    }
}

/// The per-trial RNG (see the [module docs](self#the-seeding-contract)):
/// trial indices are decorrelated by the 64-bit golden-ratio constant
/// before seeding splitmix64.
fn trial_rng(seed: u64, trial: u32) -> StdRng {
    StdRng::seed_from_u64(seed ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One `N(0, 1)` variate via Box–Muller (the shim has no normal
/// distribution). `u₁` is mapped into `(0, 1]` so the log never sees 0;
/// the second variate of the pair is discarded to keep the per-station
/// stream position fixed.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1 = 1.0 - rng.gen_range(0.0..1.0);
    let u2 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One `Exp(1)` variate (the unit-mean Rayleigh *power* gain) via
/// inversion; `1 − u ∈ (0, 1]` keeps the log finite (an exact 0.0 gain
/// is possible: the tile pass widens the `∞ · 0` envelope it makes).
fn unit_exponential(rng: &mut StdRng) -> f64 {
    -(1.0 - rng.gen_range(0.0..1.0)).ln()
}

/// Per-tile once-per-batch state of the Monte-Carlo executor: the tile's
/// index range in the Morton order and each station's *unit-power*
/// attenuation envelope `(att_lo, att_hi)` over the tile box. Scaling by
/// the trial's effective powers recovers exactly the envelope
/// [`crate::tile::locate_batch_tiled`] would compute from scratch.
struct TilePrep {
    start: usize,
    end: usize,
    /// `None` when the tile contains a non-finite query point — every
    /// trial runs such tiles through the serial kernel wholesale.
    att: Option<Vec<(f64, f64)>>,
}

/// Builds the Morton order and the per-tile unit-power envelopes — the
/// trial-invariant half of the tiled pipeline, computed once per batch.
fn prepare_tiles(eval: &SinrEvaluator, points: &[Point]) -> (Vec<u32>, Vec<TilePrep>) {
    let order = morton_order(points);
    let (xs, ys, _) = eval.soa();
    let preps = (0..order.len().div_ceil(BATCH_TILE))
        .map(|t| {
            let start = t * BATCH_TILE;
            let end = ((t + 1) * BATCH_TILE).min(order.len());
            let att = tile_box(points, &order[start..end]).map(|bbox| {
                let env = BoxEnvelope::new(eval.alpha(), bbox);
                xs.iter()
                    .zip(ys)
                    .map(|(&x, &y)| env.station(x, y, 1.0))
                    .collect()
            });
            TilePrep { start, end, att }
        })
        .collect();
    (order, preps)
}

/// Per-worker scratch of the Monte-Carlo executor: the lazily-cloned
/// scaled evaluator (one clone per worker for the whole run), the
/// per-trial gain column and the tile pass's scratch, reused across
/// trials.
#[derive(Default)]
struct McScratch {
    scaled: Option<SinrEvaluator>,
    gains: Vec<f64>,
    tile: Scratch,
}

/// The shared Monte-Carlo reception-probability executor behind every
/// backend's
/// [`QueryEngine::reception_probability_batch`](crate::engine::QueryEngine::reception_probability_batch).
///
/// `serial` must be the *serial per-point kernel of the calling backend*
/// evaluated on the (scaled) evaluator it is handed — the same contract
/// as [`crate::tile::locate_batch_tiled`]'s fallback, making each
/// trial's reception bit identical to the backend's deterministic answer
/// on the scaled network. `deterministic_batch` must be the backend's
/// own `locate_batch` — the identity-channel fast path routes through it
/// so degenerate probabilities match the deterministic answers
/// bit-for-bit by construction. `kernel` drives the candidate scans.
///
/// # Panics
///
/// Panics if `points` and `out` have different lengths.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reception_probability_driver<F, B>(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    model: &ChannelModel,
    mc: McConfig,
    points: &[Point],
    out: &mut [f64],
    serial: F,
    deterministic_batch: B,
) -> Result<(), ChannelError>
where
    F: Fn(&SinrEvaluator, Point) -> Located + Sync,
    B: FnOnce(&[Point], &mut [Located]),
{
    assert_eq!(
        points.len(),
        out.len(),
        "reception_probability_batch: {} points but {} output slots",
        points.len(),
        out.len()
    );
    model.validate(eval.len())?;
    mc.validate()?;
    eval.freshness()?;
    if points.is_empty() {
        return Ok(());
    }
    if model.is_identity() {
        let mut located = vec![Located::Silent; points.len()];
        deterministic_batch(points, &mut located);
        for (slot, l) in out.iter_mut().zip(&located) {
            *slot = if l.station().is_some() { 1.0 } else { 0.0 };
        }
        return Ok(());
    }
    // A gain-deterministic model needs exactly one trial.
    let trials = if model.is_deterministic() {
        1
    } else {
        mc.trials
    };
    let counts = mc_reception_counts(eval, kernel, model, mc.seed, trials, points, &serial);
    for (slot, c) in out.iter_mut().zip(counts) {
        // `c/trials` is exact at both extremes (`0/T = 0.0`, `T/T = 1.0`).
        *slot = c as f64 / trials as f64;
    }
    Ok(())
}

/// Counts, per point, in how many of the `trials` seeded channel draws
/// the point receives. Trials are the stolen work units; the per-batch
/// Morton order and unit-power tile envelopes are shared read-only.
fn mc_reception_counts<F>(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    model: &ChannelModel,
    seed: u64,
    trials: u32,
    points: &[Point],
    serial: &F,
) -> Vec<u32>
where
    F: Fn(&SinrEvaluator, Point) -> Located + Sync,
{
    let (_, _, ws) = eval.soa();
    let n = ws.len();
    // Tiling pays off whenever the network is large enough to prune,
    // regardless of batch length — the per-batch prep is amortized over
    // every trial, unlike the single-shot `locate_batch` heuristic.
    // Smaller networks run the whole batch as one serial span.
    let (order, preps) = if n >= TILED_MIN_STATIONS {
        prepare_tiles(eval, points)
    } else {
        let span = TilePrep {
            start: 0,
            end: points.len(),
            att: None,
        };
        ((0..points.len() as u32).collect(), vec![span])
    };
    let decider = Decider::new(eval, kernel, Select::MaxEnergy);
    let counts: Vec<AtomicU32> = points.iter().map(|_| AtomicU32::new(0)).collect();
    steal_tiles::<McScratch, _>(trials as usize, |t, scratch| {
        let McScratch {
            scaled,
            gains,
            tile,
        } = scratch;
        let scaled = scaled.get_or_insert_with(|| eval.clone());
        gains.resize(n, 1.0);
        model.gains_for_trial(seed, t as u32, gains);
        scaled.set_scaled_powers(ws, gains);
        let scaled: &SinrEvaluator = scaled;
        let soa = scaled.soa();
        let sws = soa.2;
        for prep in &preps {
            // The cached unit-power envelopes scaled by this trial's
            // effective powers.
            let resid = prep
                .att
                .as_ref()
                .and_then(|att| tile.prune(soa, |j| (att[j].0 * sws[j], att[j].1 * sws[j])));
            let idxs = &order[prep.start..prep.end];
            tile.answer_tile(
                &decider,
                resid,
                points,
                idxs,
                |p| serial(scaled, p),
                |i, answer| {
                    if answer.station().is_some() {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    }
                },
            );
        }
    });
    counts.into_iter().map(AtomicU32::into_inner).collect()
}

/// Upper bound on `trials × chunk` sample slots held by the quantile
/// driver (32 MiB of `f64`s).
const QUANTILE_SAMPLE_SLOTS: usize = 1 << 22;

/// The shared SINR-distribution executor behind every backend's
/// [`QueryEngine::sinr_quantiles_batch`](crate::engine::QueryEngine::sinr_quantiles_batch):
/// per trial, the scaled evaluator's `sinr_batch` (bit-identical values
/// to serial `sinr` calls) fills one sample row; per point the sorted
/// samples are read at the nearest-rank quantile indices.
///
/// # Panics
///
/// Panics if `station` is out of range or `out` is not
/// `points.len() × quantiles.len()` long.
pub(crate) fn sinr_quantiles_driver(
    eval: &SinrEvaluator,
    model: &ChannelModel,
    mc: McConfig,
    station: StationId,
    points: &[Point],
    quantiles: &[f64],
    out: &mut [f64],
) -> Result<(), ChannelError> {
    assert!(
        station.0 < eval.len(),
        "station {station} out of range ({} stations)",
        eval.len()
    );
    assert_eq!(
        points.len() * quantiles.len(),
        out.len(),
        "sinr_quantiles_batch: {} points x {} quantiles but {} output slots",
        points.len(),
        quantiles.len(),
        out.len()
    );
    model.validate(eval.len())?;
    mc.validate()?;
    eval.freshness()?;
    if let Some(q) = quantiles.iter().find(|q| !(0.0..=1.0).contains(*q)) {
        return Err(ChannelError::InvalidChannel(format!(
            "quantiles must lie in [0, 1], got {q}"
        )));
    }
    if points.is_empty() || quantiles.is_empty() {
        return Ok(());
    }
    let trials = if model.is_deterministic() {
        1
    } else {
        mc.trials as usize
    };
    let n = eval.len();
    let (_, _, base_ws) = eval.soa();
    let base_ws = base_ws.to_vec();
    let mut scaled = eval.clone();
    let mut gains = vec![1.0; n];
    let chunk_len = (QUANTILE_SAMPLE_SLOTS / trials).clamp(1, points.len());
    let mut samples = vec![0.0; trials * chunk_len];
    let mut col = Vec::with_capacity(trials);
    let mut start = 0usize;
    while start < points.len() {
        let chunk = &points[start..(start + chunk_len).min(points.len())];
        let rows = &mut samples[..trials * chunk.len()];
        for (t, row) in rows.chunks_mut(chunk.len()).enumerate() {
            model.gains_for_trial(mc.seed, t as u32, &mut gains);
            scaled.set_scaled_powers(&base_ws, &gains);
            scaled.sinr_batch(station, chunk, row);
        }
        for i in 0..chunk.len() {
            col.clear();
            col.extend((0..trials).map(|t| rows[t * chunk.len() + i]));
            col.sort_unstable_by(f64::total_cmp);
            for (qi, &q) in quantiles.iter().enumerate() {
                let idx = ((q * (trials - 1) as f64).round() as usize).min(trials - 1);
                out[(start + i) * quantiles.len() + qi] = col[idx];
            }
        }
        start += chunk.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lognormal(sigma_db: f64) -> ChannelModel {
        ChannelModel::LogNormalShadowing { sigma_db }
    }

    #[test]
    fn gain_streams_are_deterministic_and_seed_sensitive() {
        let model = ChannelModel::Composed(vec![lognormal(6.0), ChannelModel::RayleighFading]);
        let mut a = vec![0.0; 32];
        let mut b = vec![0.0; 32];
        model.gains_for_trial(7, 3, &mut a);
        model.gains_for_trial(7, 3, &mut b);
        assert_eq!(a, b, "same (seed, trial) must replay the same gains");
        model.gains_for_trial(7, 4, &mut b);
        assert_ne!(a, b, "trials must decorrelate");
        model.gains_for_trial(8, 3, &mut b);
        assert_ne!(a, b, "seeds must decorrelate");
        assert!(a.iter().all(|g| g.is_finite() && *g >= 0.0));
    }

    #[test]
    fn identity_and_determinism_classification() {
        assert!(ChannelModel::Deterministic.is_identity());
        assert!(lognormal(0.0).is_identity());
        assert!(!lognormal(1.0).is_identity());
        assert!(!ChannelModel::RayleighFading.is_identity());
        assert!(ChannelModel::FixedGains {
            gains: vec![1.0, 1.0]
        }
        .is_identity());
        let offsets = ChannelModel::FixedGains {
            gains: vec![2.0, 0.5],
        };
        assert!(!offsets.is_identity());
        assert!(offsets.is_deterministic());
        assert!(
            ChannelModel::Composed(vec![ChannelModel::Deterministic, lognormal(0.0)]).is_identity()
        );
        assert!(!ChannelModel::Composed(vec![ChannelModel::RayleighFading]).is_deterministic());
    }

    #[test]
    fn validation_rejects_malformed_models() {
        assert!(lognormal(-1.0).validate(4).is_err());
        assert!(lognormal(f64::NAN).validate(4).is_err());
        assert!(ChannelModel::FixedGains {
            gains: vec![1.0; 3]
        }
        .validate(4)
        .is_err());
        assert!(ChannelModel::FixedGains {
            gains: vec![1.0, 0.0, 1.0, 1.0]
        }
        .validate(4)
        .is_err());
        let nested = ChannelModel::Composed(vec![ChannelModel::Composed(vec![])]);
        assert!(nested.validate(4).is_err());
        let too_many = ChannelModel::Composed(vec![ChannelModel::Deterministic; 17]);
        assert!(too_many.validate(4).is_err());
        assert!(McConfig::new(0, 1).validate().is_err());
        assert!(McConfig::new(MAX_TRIALS + 1, 1).validate().is_err());
        assert!(McConfig::new(1, 1).validate().is_ok());
    }

    #[test]
    fn identity_gains_are_exactly_one() {
        let model = ChannelModel::Composed(vec![lognormal(0.0), ChannelModel::Deterministic]);
        let mut g = vec![0.0; 16];
        model.gains_for_trial(99, 5, &mut g);
        assert!(g.iter().all(|&x| x == 1.0));
    }
}
