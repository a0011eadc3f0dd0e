//! Engine bench: the batched query surface vs the scalar baseline, and
//! the dynamic-churn scenario.
//!
//! Measures `heard_at` (the scalar `O(n²)`-per-point loop) against
//! `ExactScan::locate_batch`, `SimdScan::locate_batch` (the explicitly
//! vectorized scan — the JSON lines record which kernel the runtime
//! detection picked) and `VoronoiAssisted::locate_batch` (amortized
//! `O(n)` per point, work-stolen across cores) at
//! `n ∈ {16, 256, 4096}` stations × 100k query points, then emits one
//! JSON line per configuration through `sinr_bench::report::JsonLine` so
//! the perf trajectory is grep-able from run logs (CI archives these
//! lines as the `engine-batch-json` artifact).
//!
//! The **tiled** scenario (PR 5) compares the spatially-coherent tiled
//! executor — what `locate_batch` runs for ≥ 512 points × ≥ 128
//! stations — against the per-point path (the same serial kernels
//! driven through `batch_map`), per backend, answers asserted
//! identical; its `"scenario":"tiled"` lines carry the executor's
//! pruning statistics (mean candidate-set size, certified-decision
//! fallback fraction).
//!
//! The **nonuniform** scenario (PR 9) runs `VoronoiAssisted` on a
//! clustered-power network — where dispatch is the weighted
//! (power-diagram) kd-tree walk, not nearest-station — against
//! `ExactScan` on the same network (the engine non-uniform queries
//! fell back to before weighted dispatch), answers asserted
//! bit-identical to a same-kernel `SimdScan`. Its
//! `"scenario":"nonuniform"` line records both backends' `locate_batch`
//! and their per-point paths, and the per-point ratio — where every
//! query runs the dispatch — must clear a 2× speedup floor.
//!
//! The **hotspot** scenario times `VoronoiAssisted::locate_batch` on
//! the clustered-power network over batches of 256-point hotspot
//! patches (the serving benchmark's `LocateBatch` shape), 1024 and 8192
//! points per batch, against the per-point loop; its
//! `"scenario":"hotspot"` lines carry the tiled executor's `tiles` and
//! `pruned_tiles` counters, which show whether distant patches got
//! tiles of their own.
//!
//! The **churn** scenario measures the epoch-versioned dynamic path: a
//! timestep mixes in-place surgery (moves + an add + a swap-remove) with
//! a `locate_batch` burst, and the same deterministic op/query sequence
//! is run twice per backend — once keeping the engine in sync through
//! incremental `NetworkDelta::apply`, once rebuilding the engine from
//! scratch every step (the pre-dynamic behaviour of
//! `examples/mobile_stations.rs`). Answers are asserted identical; the
//! JSON lines (`"scenario":"churn"`) record ns/step for both and their
//! ratio.
//!
//! The **channel_mc** scenario (PR 6) measures the stochastic-channel
//! Monte-Carlo executor — `reception_probability_batch`, whose SoA
//! columns, Morton tiling and unit-power tile envelopes are built once
//! with only per-trial gains varying — against the rebuild-per-trial
//! baseline (draw the same gain stream, build a scaled `Network` and a
//! fresh engine every trial, answer the batch point by point).
//! Probabilities are asserted bit-identical; the `"scenario":
//! "channel_mc"` lines record trials/sec, ns per point-trial on both
//! paths and their ratio, which must stay ≥ 5×.
//!
//! The **scheduling** scenario condenses `examples/link_scheduling.rs`
//! into a timed loop — greedy SINR-threshold link scheduling with
//! per-slot fading gains applied as power surgery — and emits one
//! `"scenario":"scheduling"` line with ns/step and queue outcomes.
//!
//! The **heatmap** scenario (PR 8) rasterises a megapixel reception map
//! over a zoomed window of the `n = 4096` network twice — dense
//! (`ReceptionMap::compute_with_engine`, every pixel centre located)
//! and hierarchical (`quadtree::hierarchical_map`, quadtree refinement
//! over interval certificates into the row-major label runs the server
//! encodes) — asserts the runs' dense expansion equals the dense raster
//! (outside the clock), and emits one `"scenario":"heatmap"` line per
//! grid size with `ns_per_point` (hierarchical, the headline),
//! `dense_ns_per_point`, their ratio, `expand_ns_per_point` (the dense
//! expansion, which the server never pays) and
//! `cells_evaluated_fraction` (the share of pixels that
//! actually paid per-point evaluation). The bench itself fails if the
//! hierarchical path falls below its per-grid speedup floor (5× at
//! 1024², 10× at 2048²) or evaluates ≥ 15% of the 2048² grid, so a
//! trend line certifies the pruning, not just the wall clock.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use sinr_bench::report::JsonLine;
use sinr_core::engine::{
    batch_map, BoxedEngine, ExactScan, Located, QueryEngine, VoronoiAssisted, BATCH_TILE,
};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::tile::{self, Select, TileConfig, TileStats};
use sinr_core::{gen, ChannelModel, McConfig, Network, StationId, SurgeryOp};
use sinr_diagram::quadtree::hierarchical_map;
use sinr_diagram::ReceptionMap;
use sinr_geometry::{BBox, Point};
use std::hint::black_box;
use std::time::Instant;

const STATION_COUNTS: [usize; 3] = [16, 256, 4096];
const QUERY_POINTS: usize = 100_000;

/// Constant station density: the window half-width grows with `√n`.
fn window_half(n: usize) -> f64 {
    2.0 * (n as f64).sqrt()
}

fn setup(n: usize) -> (Network, Vec<Point>) {
    let half = window_half(n);
    let net = gen::random_uniform_network(42 + n as u64, n, half, 0.01, 2.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7 + n as u64);
    let queries = gen::uniform_in_box(&mut rng, QUERY_POINTS, half * 1.1);
    (net, queries)
}

/// Points per scalar iteration — the scalar loop is `O(n²)` per point, so
/// the full 100k batch would take minutes at `n = 4096`; per-point costs
/// are what the comparison normalizes on.
fn scalar_sample(n: usize) -> usize {
    (QUERY_POINTS / n).clamp(64, 8192)
}

fn bench_locate(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_locate_batch");
    group.sample_size(10);
    for n in STATION_COUNTS {
        let (net, queries) = setup(n);
        let scalar_points = scalar_sample(n);
        group.bench_with_input(BenchmarkId::new("scalar_heard_at", n), &n, |b, _| {
            b.iter(|| {
                let mut heard = 0usize;
                for q in &queries[..scalar_points] {
                    heard += usize::from(net.heard_at(black_box(*q)).is_some());
                }
                black_box(heard)
            })
        });
        let exact = ExactScan::new(&net);
        let mut out = vec![Located::Silent; queries.len()];
        group.bench_with_input(BenchmarkId::new("exact_scan_batch", n), &n, |b, _| {
            b.iter(|| {
                exact.locate_batch(black_box(&queries), &mut out);
                black_box(out.last().copied())
            })
        });
        let simd = SimdScan::new(&net);
        group.bench_with_input(BenchmarkId::new("simd_scan_batch", n), &n, |b, _| {
            b.iter(|| {
                simd.locate_batch(black_box(&queries), &mut out);
                black_box(out.last().copied())
            })
        });
        let voronoi = VoronoiAssisted::new(&net);
        group.bench_with_input(BenchmarkId::new("voronoi_assisted_batch", n), &n, |b, _| {
            b.iter(|| {
                voronoi.locate_batch(black_box(&queries), &mut out);
                black_box(out.last().copied())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_locate);

/// One timed pass, reported as ns/point.
fn time_ns_per_point(points: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / points as f64
}

/// Timing repetitions of the default lines' `locate_batch` passes and of
/// the tiled, channel_mc and scheduling timings; the recorded value is
/// the minimum. One pass at 256 stations lasts only 13–30 ms, so a
/// single pass swings 2× on a shared 2-vCPU box.
const DEFAULT_REPS: usize = 3;

/// The fastest of `reps` timed passes, reported as ns/point.
fn min_ns_per_point(reps: usize, points: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| time_ns_per_point(points, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// The JSON perf record: per-point costs and engine speedups, one line
/// per station count.
fn emit_json_lines() {
    for n in STATION_COUNTS {
        let (net, queries) = setup(n);
        let scalar_points = scalar_sample(n);
        let exact = ExactScan::new(&net);
        let simd = SimdScan::new(&net);
        let voronoi = VoronoiAssisted::new(&net);
        let mut out = vec![Located::Silent; queries.len()];
        let mut want = vec![Located::Silent; queries.len()];

        // Correctness guard: the backends must agree with the ground
        // truth before their timings mean anything, and the weighted
        // dispatch with the same-kernel scan bit for bit.
        assert_eq!(simd.kernel(), voronoi.kernel());
        voronoi.locate_batch(&queries, &mut out);
        for (q, got) in queries.iter().zip(&out).take(512) {
            assert_eq!(got.station(), net.heard_at(*q), "engine mismatch at {q}");
        }
        simd.locate_batch(&queries, &mut want);
        for (q, got) in queries.iter().zip(&want).take(512) {
            assert_eq!(got.station(), net.heard_at(*q), "SimdScan mismatch at {q}");
        }
        assert_eq!(out, want, "VoronoiAssisted diverged from SimdScan");

        let scalar_ns = time_ns_per_point(scalar_points, || {
            for q in &queries[..scalar_points] {
                black_box(net.heard_at(black_box(*q)));
            }
        });
        let exact_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
            exact.locate_batch(black_box(&queries), &mut out);
        });
        let simd_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
            simd.locate_batch(black_box(&queries), &mut out);
        });
        let voronoi_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
            voronoi.locate_batch(black_box(&queries), &mut out);
        });

        let line = JsonLine::new("engine_batch")
            .int("stations", n as u64)
            .int("query_points", queries.len() as u64)
            .int("scalar_sample_points", scalar_points as u64)
            .str("simd_kernel", simd.kernel().name())
            .int("avx512_detected", SimdKernel::Avx512.is_supported() as u64)
            .num("scalar_heard_at_ns_per_point", scalar_ns)
            .num("exact_scan_ns_per_point", exact_ns)
            .num("simd_scan_ns_per_point", simd_ns)
            .num("voronoi_assisted_ns_per_point", voronoi_ns)
            .num("speedup_exact_vs_scalar", scalar_ns / exact_ns)
            .num("speedup_simd_vs_scalar", scalar_ns / simd_ns)
            .num("speedup_simd_vs_exact", exact_ns / simd_ns)
            .num("speedup_voronoi_vs_scalar", scalar_ns / voronoi_ns);
        println!("{}", line.render());

        // Tiled-vs-per-point lines only where the tiled executor
        // actually engages — at n = 16 both timed paths are the same
        // per-point scheduler and a "tiled" line would be noise.
        if TileConfig::default().engages(queries.len(), n) {
            emit_tiled_json_lines(n, &net, &queries);
        }
    }
}

/// The tiled-executor record: the spatially-coherent tiled batch path
/// (what `locate_batch` now runs for large batches) against the PR 3/4
/// per-point path (the same serial kernels driven point-by-point
/// through `batch_map`), per backend, answers asserted identical. One
/// `"scenario":"tiled"` line per backend per station count, with the
/// executor's pruning statistics.
fn emit_tiled_json_lines(n: usize, net: &Network, queries: &[Point]) {
    let exact = ExactScan::new(net);
    let simd = SimdScan::new(net);
    let voronoi = VoronoiAssisted::new(net);
    let mut tiled = vec![Located::Silent; queries.len()];
    let mut perpoint = vec![Located::Silent; queries.len()];

    let emit = |backend: &str, kernel: &str, tiled_ns: f64, pp_ns: f64, stats: TileStats| {
        let line = JsonLine::new("engine_batch")
            .str("scenario", "tiled")
            .int("stations", n as u64)
            .str("backend", backend)
            .str("simd_kernel", kernel)
            .int("avx512_detected", SimdKernel::Avx512.is_supported() as u64)
            .int("query_points", queries.len() as u64)
            .int("tile_points", BATCH_TILE as u64)
            .num("tiled_ns_per_point", tiled_ns)
            .num("perpoint_ns_per_point", pp_ns)
            .num("speedup_tiled_vs_perpoint", pp_ns / tiled_ns)
            .int("tiles", stats.tiles)
            .int("pruned_tiles", stats.pruned_tiles)
            .num(
                "mean_candidates",
                stats.mean_candidates().unwrap_or(f64::NAN),
            )
            .num(
                "fallback_fraction",
                stats.fallback_points as f64 / stats.points as f64,
            );
        println!("{}", line.render());
    };

    // ExactScan: tiled locate_batch vs the per-point scalar kernel.
    let tiled_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
        exact.locate_batch(black_box(queries), &mut tiled);
    });
    let pp_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
        batch_map(black_box(queries), &mut perpoint, |p| exact.locate(*p));
    });
    assert_eq!(tiled, perpoint, "ExactScan tiled/per-point answers diverge");
    let stats = tile::locate_batch_tiled(
        exact.evaluator(),
        SimdKernel::Portable,
        Select::MaxEnergy,
        queries,
        &mut tiled,
        &TileConfig::default(),
        |p| exact.evaluator().locate(p),
    );
    emit("exact_scan", "portable", tiled_ns, pp_ns, stats);

    // SimdScan: tiled with its detected kernel vs per-point full scans.
    let tiled_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
        simd.locate_batch(black_box(queries), &mut tiled);
    });
    let pp_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
        batch_map(black_box(queries), &mut perpoint, |p| simd.locate(*p));
    });
    assert_eq!(tiled, perpoint, "SimdScan tiled/per-point answers diverge");
    let stats = tile::locate_batch_tiled(
        simd.evaluator(),
        simd.kernel(),
        Select::MaxEnergy,
        queries,
        &mut tiled,
        &TileConfig::default(),
        |p| simd.locate(p),
    );
    emit("simd_scan", simd.kernel().name(), tiled_ns, pp_ns, stats);

    // VoronoiAssisted: tiled max-energy mode (the backend's own
    // dispatch rule on every network) vs the per-point kd-tree walk.
    let tiled_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
        voronoi.locate_batch(black_box(queries), &mut tiled);
    });
    let pp_ns = min_ns_per_point(DEFAULT_REPS, queries.len(), || {
        batch_map(black_box(queries), &mut perpoint, |p| voronoi.locate(*p));
    });
    assert_eq!(
        tiled, perpoint,
        "VoronoiAssisted tiled/per-point answers diverge"
    );
    let stats = tile::locate_batch_tiled(
        voronoi.evaluator(),
        voronoi.kernel(),
        Select::MaxEnergy,
        queries,
        &mut tiled,
        &TileConfig::default(),
        |p| voronoi.locate(p),
    );
    emit(
        "voronoi_assisted",
        voronoi.kernel().name(),
        tiled_ns,
        pp_ns,
        stats,
    );
}

/// Churn scenario shape: per timestep, `CHURN_MOVES` station moves plus
/// one add and one swap-remove (station count stays constant), followed
/// by a `CHURN_BURST`-point `locate_batch`.
const CHURN_STATIONS: [usize; 2] = [256, 4096];
const CHURN_STEPS: usize = 48;
const CHURN_BURST: usize = 64;
const CHURN_MOVES: usize = 8;

/// Replays the deterministic churn sequence once. `incremental = true`
/// keeps one engine in sync via `apply`; `false` rebuilds the engine
/// from scratch every step. Returns `(ns_per_step, per-step answers)`.
fn churn_run<E: QueryEngine>(
    build: impl Fn(&Network) -> E,
    net0: &Network,
    half: f64,
    queries: &[Point],
    incremental: bool,
) -> (f64, Vec<Vec<Located>>) {
    let mut net = net0.clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE + net0.len() as u64);
    let mut answers = Vec::with_capacity(CHURN_STEPS);
    let mut out = vec![Located::Silent; queries.len()];
    let mut engine = build(&net);
    let start = Instant::now();
    for _ in 0..CHURN_STEPS {
        for _ in 0..CHURN_MOVES {
            let i = rng.gen_range(0..net.len());
            let p = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
            let delta = net.move_station(StationId(i), p).expect("valid move");
            if incremental {
                engine.apply(&delta).expect("deltas applied in order");
            }
        }
        let p = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
        let delta = net.add_station(p, 1.0).expect("valid add");
        if incremental {
            engine.apply(&delta).expect("deltas applied in order");
        }
        let i = rng.gen_range(0..net.len());
        let delta = net.remove_station(StationId(i)).expect("valid remove");
        if incremental {
            engine.apply(&delta).expect("deltas applied in order");
        } else {
            engine = build(&net);
        }
        engine.locate_batch(black_box(queries), &mut out);
        answers.push(out.clone());
    }
    let ns_per_step = start.elapsed().as_nanos() as f64 / CHURN_STEPS as f64;
    (ns_per_step, answers)
}

/// The churn JSON record: incremental `apply` vs rebuild-from-scratch,
/// per backend, with the answers of both runs asserted identical.
fn emit_churn_json_lines() {
    for n in CHURN_STATIONS {
        let half = window_half(n);
        let net = gen::random_uniform_network(1000 + n as u64, n, half, 0.01, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99 + n as u64);
        let queries = gen::uniform_in_box(&mut rng, CHURN_BURST, half * 1.1);
        let simd_kernel = SimdScan::new(&net).kernel().name().to_string();

        let emit = |backend: &str, inc_ns: f64, reb_ns: f64| {
            let line = JsonLine::new("engine_batch")
                .str("scenario", "churn")
                .int("stations", n as u64)
                .str("backend", backend)
                .str("simd_kernel", &simd_kernel)
                .int("steps", CHURN_STEPS as u64)
                .int("ops_per_step", (CHURN_MOVES + 2) as u64)
                .int("burst_points", CHURN_BURST as u64)
                .num("incremental_ns_per_step", inc_ns)
                .num("rebuild_ns_per_step", reb_ns)
                .num("speedup_incremental_vs_rebuild", reb_ns / inc_ns);
            println!("{}", line.render());
        };

        let (inc_ns, inc_answers) = churn_run(ExactScan::new, &net, half, &queries, true);
        let (reb_ns, reb_answers) = churn_run(ExactScan::new, &net, half, &queries, false);
        assert_eq!(inc_answers, reb_answers, "ExactScan churn answers diverge");
        emit("exact_scan", inc_ns, reb_ns);

        let (inc_ns, inc_answers) = churn_run(SimdScan::new, &net, half, &queries, true);
        let (reb_ns, reb_answers) = churn_run(SimdScan::new, &net, half, &queries, false);
        assert_eq!(inc_answers, reb_answers, "SimdScan churn answers diverge");
        emit("simd_scan", inc_ns, reb_ns);

        let (inc_ns, inc_answers) = churn_run(VoronoiAssisted::new, &net, half, &queries, true);
        let (reb_ns, reb_answers) = churn_run(VoronoiAssisted::new, &net, half, &queries, false);
        assert_eq!(
            inc_answers, reb_answers,
            "VoronoiAssisted churn answers diverge"
        );
        emit("voronoi_assisted", inc_ns, reb_ns);
    }
}

/// Channel Monte-Carlo scenario shape: one big network, a moderate
/// point batch of spatially-coherent receiver patches (coverage
/// heatmaps around hotspots — the workload
/// `reception_probability_batch` exists for), many trials. Each patch
/// is one Morton tile, so the tile envelopes built once up front prune
/// almost the whole network on every trial; the rebuild-per-trial
/// baseline re-pays the network and engine build each trial and runs
/// every point through the full per-point kernel.
const MC_STATIONS: usize = 4096;
const MC_POINTS: usize = 1024;
const MC_PATCHES: usize = 2;
const MC_PATCH_RADIUS: f64 = 4.0;
const MC_TRIALS: u32 = 256;
const MC_SEED: u64 = 0x5EED_CAFE;

/// The rebuild-per-trial baseline: what Monte-Carlo reception
/// probability costs *without* the channel subsystem — draw the same
/// public gain stream, build a scaled [`Network`] and a fresh engine
/// for every trial, locate every point with it, and count receptions.
/// The points go through the per-point loop (`batch_map` of `locate`,
/// which stays on the calling thread at this batch length), not
/// `locate_batch`: the batch executor prunes with the same tile
/// envelopes the channel subsystem keeps across trials, so a baseline
/// that used it would count part of the subsystem on both sides. The
/// answers are the same either way.
fn naive_reception_probs(
    net: &Network,
    channel: &ChannelModel,
    points: &[Point],
    build: impl Fn(&Network) -> BoxedEngine,
) -> (f64, Vec<f64>) {
    let mut counts = vec![0u32; points.len()];
    let mut gains = vec![1.0; net.len()];
    let mut out = vec![Located::Silent; points.len()];
    let start = Instant::now();
    for trial in 0..MC_TRIALS {
        channel.gains_for_trial(MC_SEED, trial, &mut gains);
        let mut b = Network::builder()
            .background_noise(net.noise())
            .threshold(net.beta())
            .path_loss(net.alpha());
        for (s, g) in net.stations().zip(&gains) {
            b = b.station_with_power(s.position, s.power * g);
        }
        let scaled = b.build().expect("scaled network");
        let engine = build(&scaled);
        batch_map(black_box(points), &mut out, |p| engine.locate(*p));
        for (c, l) in counts.iter_mut().zip(&out) {
            *c += u32::from(l.station().is_some());
        }
    }
    let ns_per_point_trial =
        start.elapsed().as_nanos() as f64 / (points.len() as f64 * MC_TRIALS as f64);
    let probs = counts
        .iter()
        .map(|&c| c as f64 / MC_TRIALS as f64)
        .collect();
    (ns_per_point_trial, probs)
}

/// The channel Monte-Carlo record: `reception_probability_batch` (SoA
/// columns, Morton tiling and envelopes built once; only per-trial
/// gains vary) against the rebuild-per-trial baseline, per backend,
/// probabilities asserted bit-identical. One `"scenario":"channel_mc"`
/// line per backend.
fn emit_channel_mc_json_lines() {
    let half = window_half(MC_STATIONS);
    let net = gen::random_uniform_network(0xC4A7, MC_STATIONS, half, 0.01, 2.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A7 ^ 1);
    let stations: Vec<Point> = net.stations().map(|s| s.position).collect();
    let points: Vec<Point> = (0..MC_POINTS)
        .map(|k| {
            let c = stations[(k % MC_PATCHES) * stations.len() / MC_PATCHES];
            Point::new(
                c.x + rng.gen_range(-MC_PATCH_RADIUS..MC_PATCH_RADIUS),
                c.y + rng.gen_range(-MC_PATCH_RADIUS..MC_PATCH_RADIUS),
            )
        })
        .collect();
    // Log-normal only: its gains are strictly positive, which is what
    // lets the baseline realize each trial as a valid scaled Network.
    let channel = ChannelModel::LogNormalShadowing { sigma_db: 4.0 };
    let mc = McConfig::new(MC_TRIALS, MC_SEED);
    let simd_kernel = SimdScan::new(&net).kernel().name().to_string();

    type BuildEngine = Box<dyn Fn(&Network) -> BoxedEngine>;
    let backends: [(&str, BuildEngine); 2] = [
        ("exact_scan", Box::new(BoxedEngine::exact_scan)),
        ("simd_scan", Box::new(BoxedEngine::simd_scan)),
    ];
    for (backend, build) in backends {
        let engine = build(&net);
        let mut mc_probs = vec![0.0; points.len()];
        let point_trials = points.len() * MC_TRIALS as usize;
        let mc_ns = min_ns_per_point(DEFAULT_REPS, point_trials, || {
            engine
                .reception_probability_batch(&channel, mc, &points, &mut mc_probs)
                .expect("channel Monte-Carlo");
        });

        let (naive_ns, naive_probs) = naive_reception_probs(&net, &channel, &points, &build);
        for (k, (got, want)) in mc_probs.iter().zip(&naive_probs).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{backend}: channel-MC diverged from rebuild-per-trial at point {k}"
            );
        }

        let speedup = naive_ns / mc_ns;
        assert!(
            speedup >= 5.0,
            "{backend}: SoA-reuse speedup {speedup:.1}x below the 5x floor"
        );
        let line = JsonLine::new("engine_batch")
            .str("scenario", "channel_mc")
            .str("backend", backend)
            .str("channel", "log_normal_4db")
            .str("query_shape", "clustered_patches")
            .str("simd_kernel", &simd_kernel)
            .int("stations", MC_STATIONS as u64)
            .int("query_points", MC_POINTS as u64)
            .int("trials", MC_TRIALS as u64)
            .num(
                "trials_per_sec",
                1e9 * MC_TRIALS as f64 / (mc_ns * points.len() as f64 * MC_TRIALS as f64),
            )
            .num("mc_ns_per_point_trial", mc_ns)
            .num("naive_ns_per_point_trial", naive_ns)
            .num("speedup_mc_vs_rebuild", speedup);
        println!("{}", line.render());
    }
}

/// Scheduling scenario shape (the condensed `link_scheduling` loop: no
/// server, no probes — just arrivals, the greedy feasible-set search
/// realized as `SetPower` timesteps, and service).
const SCHED_LINKS: usize = 10;
const SCHED_STEPS: usize = 512;
const SCHED_LAMBDA: f64 = 0.3;

/// The scheduling record: ns per queue-stability timestep (each step =
/// Bernoulli arrivals + a greedy SINR-feasible-set search where every
/// candidate transmit pattern is an incremental `SetPower` timestep on
/// the dynamic engine). Each of the `DEFAULT_REPS` timed runs starts
/// from its own fresh ring network and engine, built outside the clock,
/// and the runs' queue outcomes are asserted equal. One
/// `"scenario":"scheduling"` line.
fn emit_scheduling_json_line() {
    let mut b = Network::builder().background_noise(0.01).threshold(2.0);
    let mut receivers = Vec::with_capacity(SCHED_LINKS);
    for k in 0..SCHED_LINKS {
        let theta = std::f64::consts::TAU * k as f64 / SCHED_LINKS as f64;
        let (sin, cos) = theta.sin_cos();
        b = b.station(Point::new(4.0 * cos, 4.0 * sin));
        receivers.push(Point::new(3.0 * cos, 3.0 * sin));
    }
    let ring = b.build().expect("ring network");
    let mut fresh: Vec<(Network, BoxedEngine)> = (0..DEFAULT_REPS)
        .map(|_| {
            let net = ring.clone();
            let engine = BoxedEngine::simd_scan(&net);
            (net, engine)
        })
        .collect();
    let mut outcome = None;
    let ns_per_step = min_ns_per_point(DEFAULT_REPS, SCHED_STEPS, || {
        let (net, engine) = fresh.pop().expect("one fresh state per repetition");
        let run = scheduling_run(net, engine, &receivers);
        assert!(
            outcome.is_none_or(|o| o == run),
            "scheduling repetitions diverged"
        );
        outcome = Some(run);
    });
    let (mutates, served, backlog) = outcome.expect("DEFAULT_REPS > 0");

    let line = JsonLine::new("engine_batch")
        .str("scenario", "scheduling")
        .str("backend", "simd_scan")
        .int("links", SCHED_LINKS as u64)
        .int("steps", SCHED_STEPS as u64)
        .num("lambda", SCHED_LAMBDA)
        .int("mutate_timesteps", mutates)
        .int("served_packets", served)
        .int("final_backlog", backlog)
        .num("ns_per_step", ns_per_step);
    println!("{}", line.render());
}

/// One `SCHED_STEPS`-step scheduling run on the ring `net` (with
/// `engine` built from it) and its link `receivers`; returns
/// `(mutate timesteps, served packets, final backlog)`.
fn scheduling_run(
    mut net: Network,
    mut engine: BoxedEngine,
    receivers: &[Point],
) -> (u64, u64, u64) {
    let beta = net.beta();
    let fading = ChannelModel::LogNormalShadowing { sigma_db: 2.0 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5C4E);
    let mut backlog = [0usize; SCHED_LINKS];
    let mut gains = vec![1.0; SCHED_LINKS];
    let (mut served, mut mutates) = (0u64, 0u64);
    for step in 0..SCHED_STEPS {
        for q in backlog.iter_mut() {
            *q += usize::from(rng.gen_range(0.0..1.0) < SCHED_LAMBDA);
        }
        fading.gains_for_trial(0xFAD, step as u32, &mut gains);
        let mut active: Vec<usize> = (0..SCHED_LINKS).filter(|&i| backlog[i] > 0).collect();
        while !active.is_empty() {
            let ops: Vec<SurgeryOp> = (0..SCHED_LINKS)
                .map(|i| SurgeryOp::SetPower {
                    id: StationId(i),
                    power: if active.contains(&i) { gains[i] } else { 1e-9 },
                })
                .collect();
            for delta in net.apply_ops(&ops).expect("powers") {
                engine.apply(&delta).expect("incremental apply");
            }
            mutates += 1;
            let mut worst: Option<(usize, f64)> = None;
            for (slot, &i) in active.iter().enumerate() {
                let mut sinr = [0.0];
                engine.sinr_batch(StationId(i), &receivers[i..i + 1], &mut sinr);
                if sinr[0] < beta && worst.is_none_or(|(_, w)| sinr[0] < w) {
                    worst = Some((slot, sinr[0]));
                }
            }
            match worst {
                None => break,
                Some((slot, _)) => {
                    active.remove(slot);
                }
            }
        }
        for &i in &active {
            backlog[i] -= 1;
            served += 1;
        }
    }
    (mutates, served, backlog.iter().sum::<usize>() as u64)
}

/// Non-uniform scenario shape: the `n = 4096` station layout with a
/// **clustered** power assignment — one high-power "macro" station per
/// 64 (8× power), everything else jittered around unit power — the
/// power-diagram regime where nearest-station dispatch would be wrong
/// and the weighted (max `P·att(d²)`) kd-tree walk earns its keep.
const NONUNIFORM_STATIONS: usize = 4096;
const NONUNIFORM_MACRO_EVERY: usize = 64;
const NONUNIFORM_MACRO_POWER: f64 = 8.0;
/// Timing repetitions per path; the recorded value is the minimum.
const NONUNIFORM_REPS: usize = 3;
/// Internal floor: the weighted-dispatch per-point path must beat the
/// exact-scan engine's — the path every non-uniform `VoronoiAssisted`
/// query fell back to before the power-diagram dispatch landed — by at
/// least this factor, so the trend line certifies the dispatch engages
/// rather than merely existing. The floor reads the per-point paths:
/// under `locate_batch` both backends share the tiled executor's
/// pruning and certification, and the dispatch runs only for the
/// points that fall back, so the batch ratio measures mostly the scan
/// kernels.
const NONUNIFORM_MIN_SPEEDUP: f64 = 2.0;

/// The clustered-power network of the non-uniform and hotspot
/// scenarios, and the generator that drew its powers (the non-uniform
/// scenario draws its queries from it next).
fn clustered_network() -> (Network, rand::rngs::StdRng) {
    let n = NONUNIFORM_STATIONS;
    let layout = gen::random_uniform_network(42 + n as u64, n, window_half(n), 0.01, 2.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1FF ^ n as u64);
    let mut b = Network::builder()
        .background_noise(0.01)
        .threshold(2.0)
        .path_loss(2.0);
    for (k, s) in layout.stations().enumerate() {
        let power = if k % NONUNIFORM_MACRO_EVERY == 0 {
            NONUNIFORM_MACRO_POWER
        } else {
            rng.gen_range(0.5..1.5)
        };
        b = b.station_with_power(s.position, power);
    }
    let net = b.build().expect("clustered-power network");
    assert!(!net.is_uniform_power(), "scenario needs non-uniform power");
    (net, rng)
}

/// Hotspot scenario shape: batches of `HOTSPOT_PATCH`-point patches
/// (uniform in a disc of radius `HOTSPOT_RADIUS` around a uniform
/// centre) on the clustered-power network — the shape of the serving
/// benchmark's `LocateBatch` frames — at one batch length below and one
/// above `PARALLEL_BATCH_THRESHOLD`, `HOTSPOT_PASS_POINTS` points per
/// timed pass.
const HOTSPOT_PATCH: usize = 256;
const HOTSPOT_RADIUS: f64 = 1.0;
const HOTSPOT_BATCHES: [usize; 2] = [1024, 8192];
const HOTSPOT_PASS_POINTS: usize = 65_536;

/// The hotspot record: `VoronoiAssisted::locate_batch` on batches of
/// far-apart hotspot patches against the per-point loop (the serial
/// kernel through `batch_map`), answers asserted identical, with the
/// tiled executor's counters over the pass. One `"scenario":"hotspot"`
/// line per batch length.
fn emit_hotspot_json_lines() {
    let (net, _) = clustered_network();
    let half = window_half(net.len());
    let voronoi = VoronoiAssisted::new(&net);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4075);
    for batch in HOTSPOT_BATCHES {
        let batches: Vec<Vec<Point>> = (0..HOTSPOT_PASS_POINTS / batch)
            .map(|_| {
                let mut points = Vec::with_capacity(batch);
                for _ in 0..batch / HOTSPOT_PATCH {
                    let c = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
                    for _ in 0..HOTSPOT_PATCH {
                        let d = HOTSPOT_RADIUS * rng.gen_range(0.0f64..1.0).sqrt();
                        let t = rng.gen_range(0.0..std::f64::consts::TAU);
                        points.push(Point::new(c.x + d * t.cos(), c.y + d * t.sin()));
                    }
                }
                points
            })
            .collect();
        let mut got = vec![Located::Silent; batch];
        let mut want = vec![Located::Silent; batch];
        let mut stats = TileStats::default();
        for points in &batches {
            voronoi.locate_batch(points, &mut got);
            batch_map(points, &mut want, |p| voronoi.locate(*p));
            assert_eq!(got, want, "hotspot: locate_batch diverged from per-point");
            let s = tile::locate_batch_tiled(
                voronoi.evaluator(),
                voronoi.kernel(),
                Select::MaxEnergy,
                points,
                &mut got,
                &TileConfig::default(),
                |p| voronoi.locate(p),
            );
            stats.points += s.points;
            stats.tiles += s.tiles;
            stats.pruned_tiles += s.pruned_tiles;
            stats.candidate_stations += s.candidate_stations;
            stats.fallback_points += s.fallback_points;
        }
        let pass_points = batches.len() * batch;
        let batch_ns = min_ns_per_point(DEFAULT_REPS, pass_points, || {
            for points in &batches {
                voronoi.locate_batch(black_box(points), &mut got);
            }
        });
        let pp_ns = min_ns_per_point(DEFAULT_REPS, pass_points, || {
            for points in &batches {
                batch_map(black_box(points), &mut want, |p| voronoi.locate(*p));
            }
        });
        let line = JsonLine::new("engine_batch")
            .str("scenario", "hotspot")
            .str("backend", "voronoi_assisted")
            .str("power_shape", "clustered")
            .str("simd_kernel", voronoi.kernel().name())
            .int("avx512_detected", SimdKernel::Avx512.is_supported() as u64)
            .int("stations", net.len() as u64)
            .int("query_points", batch as u64)
            .int("patch_points", HOTSPOT_PATCH as u64)
            .int("batches", batches.len() as u64)
            .num("ns_per_point", batch_ns)
            .num("perpoint_ns_per_point", pp_ns)
            .num("speedup_batch_vs_perpoint", pp_ns / batch_ns)
            .int("tiles", stats.tiles)
            .int("pruned_tiles", stats.pruned_tiles)
            .num(
                "mean_candidates",
                stats.mean_candidates().unwrap_or(f64::NAN),
            )
            .num(
                "fallback_fraction",
                stats.fallback_points as f64 / stats.points as f64,
            );
        println!("{}", line.render());
    }
}

/// The non-uniform record: `VoronoiAssisted` on a clustered-power
/// network (weighted kd-tree dispatch + `MaxEnergy` tile envelopes)
/// against `ExactScan` on the same network (what non-uniform queries
/// cost pre-dispatch), answers asserted bit-identical to a same-kernel
/// `SimdScan`. Both backends are timed through `locate_batch` (the
/// headline) and through the per-point loop (`batch_map` of `locate`,
/// the floor's ratio). One `"scenario":"nonuniform"` line.
fn emit_nonuniform_json_lines() {
    let n = NONUNIFORM_STATIONS;
    let half = window_half(n);
    let (net, mut rng) = clustered_network();
    let queries = gen::uniform_in_box(&mut rng, QUERY_POINTS, half * 1.1);

    let exact = ExactScan::new(&net);
    let voronoi = VoronoiAssisted::new(&net);
    let mut out = vec![Located::Silent; queries.len()];
    let mut want = vec![Located::Silent; queries.len()];

    // Correctness guard: the weighted dispatch must reproduce the
    // same-kernel exhaustive scan bit-for-bit before its timing means
    // anything (the differential suites pin this at small n; this
    // covers the bench's own 4096-station instance).
    let simd = SimdScan::with_kernel(sinr_core::SinrEvaluator::new(&net), voronoi.kernel());
    voronoi.locate_batch(&queries, &mut out);
    simd.locate_batch(&queries, &mut want);
    assert_eq!(out, want, "weighted dispatch diverged from SimdScan");

    let voronoi_ns = min_ns_per_point(NONUNIFORM_REPS, queries.len(), || {
        voronoi.locate_batch(black_box(&queries), &mut out);
    });
    let exact_ns = min_ns_per_point(NONUNIFORM_REPS, queries.len(), || {
        exact.locate_batch(black_box(&queries), &mut want);
    });
    let voronoi_pp_ns = min_ns_per_point(NONUNIFORM_REPS, queries.len(), || {
        batch_map(black_box(&queries), &mut out, |p| voronoi.locate(*p));
    });
    let exact_pp_ns = min_ns_per_point(NONUNIFORM_REPS, queries.len(), || {
        batch_map(black_box(&queries), &mut want, |p| exact.locate(*p));
    });

    let speedup = exact_pp_ns / voronoi_pp_ns;
    assert!(
        speedup >= NONUNIFORM_MIN_SPEEDUP,
        "nonuniform: weighted dispatch {speedup:.1}x below the {NONUNIFORM_MIN_SPEEDUP}x floor"
    );
    let line = JsonLine::new("engine_batch")
        .str("scenario", "nonuniform")
        .str("backend", "voronoi_assisted")
        .str("power_shape", "clustered")
        .str("simd_kernel", voronoi.kernel().name())
        .int("avx512_detected", SimdKernel::Avx512.is_supported() as u64)
        .int("stations", n as u64)
        .int("query_points", queries.len() as u64)
        .int("macro_every", NONUNIFORM_MACRO_EVERY as u64)
        .num("macro_power", NONUNIFORM_MACRO_POWER)
        .num("ns_per_point", voronoi_ns)
        .num("exact_scan_ns_per_point", exact_ns)
        .num("speedup_batch_vs_exact", exact_ns / voronoi_ns)
        .num("perpoint_ns_per_point", voronoi_pp_ns)
        .num("exact_scan_perpoint_ns_per_point", exact_pp_ns)
        .num("speedup_weighted_vs_exact", speedup);
    println!("{}", line.render());
}

/// Heatmap scenario shape: the `n = 4096` default network (half-width
/// 128), rasterised over a 12×12-unit zoom window (a few dozen
/// reception zones, each spanning hundreds of pixels — the regime
/// hierarchical refinement exists for: ambiguous pixels hug the zone
/// boundaries, whose length grows with the window's *diameter* while
/// the dense cost grows with its *area*) at megapixel grid sizes.
const HEATMAP_STATIONS: usize = 4096;
const HEATMAP_HALF: f64 = 6.0;
const HEATMAP_GRIDS: [usize; 2] = [1024, 2048];
/// Timing repetitions per path; the recorded value is the minimum (the
/// usual robust estimator on a shared, 1-core CI box, where the dense
/// baseline alone jitters ±15% run to run).
const HEATMAP_REPS: usize = 3;
/// Internal floors: a heatmap trend line certifies both the wall clock
/// and the pruning, so regressions fail the bench rather than merely
/// drifting the numbers. The speedup floor is per grid — boundary
/// pixels are a *diameter* phenomenon, so the hierarchical economy
/// improves with resolution and the megapixel grid must clear 10×.
const HEATMAP_MIN_SPEEDUP: [(usize, f64); 2] = [(1024, 5.0), (2048, 10.0)];
const HEATMAP_MAX_FRACTION: f64 = 0.15;

/// The heatmap record: dense rasterisation (locate every pixel centre
/// through the tiled batch executor) vs hierarchical quadtree
/// refinement into label runs (interval certificates resolve
/// certified-uniform cells wholesale; only boundary-straddling cells
/// pay per-point work) — the product the server encodes. The runs'
/// dense expansion, timed on its own, is asserted equal to the dense
/// raster outside the clock. One `"scenario":"heatmap"` line per grid.
fn emit_heatmap_json_lines() {
    let net = gen::random_uniform_network(
        42 + HEATMAP_STATIONS as u64,
        HEATMAP_STATIONS,
        window_half(HEATMAP_STATIONS),
        0.01,
        2.0,
    )
    .unwrap();
    let window = BBox::centered_square(HEATMAP_HALF);
    let engine = SimdScan::new(&net);

    for grid in HEATMAP_GRIDS {
        let pixels = (grid * grid) as u64;

        let mut dense_ns = f64::INFINITY;
        let mut dense = None;
        for _ in 0..HEATMAP_REPS {
            let start = Instant::now();
            let map = ReceptionMap::compute_with_engine(&engine, window, grid, grid);
            dense_ns = dense_ns.min(start.elapsed().as_nanos() as f64 / pixels as f64);
            dense = Some(map);
        }
        let dense = dense.expect("HEATMAP_REPS > 0");

        let mut hier_ns = f64::INFINITY;
        let mut hier = None;
        for _ in 0..HEATMAP_REPS {
            let start = Instant::now();
            let run = hierarchical_map(&engine, window, grid, grid);
            hier_ns = hier_ns.min(start.elapsed().as_nanos() as f64 / pixels as f64);
            hier = Some(run);
        }
        let (runs, stats) = hier.expect("HEATMAP_REPS > 0");

        let mut expanded = None;
        let expand_ns = min_ns_per_point(HEATMAP_REPS, pixels as usize, || {
            expanded = Some(runs.expand());
        });
        let expanded = expanded.expect("HEATMAP_REPS > 0");
        assert_eq!(dense, expanded, "{grid}²: hierarchical diverged from dense");
        assert_eq!(stats.pixels, pixels, "{grid}²: pixel accounting");

        let speedup = dense_ns / hier_ns;
        let fraction = stats.fraction();
        let floor = HEATMAP_MIN_SPEEDUP
            .iter()
            .find(|(g, _)| *g == grid)
            .map(|(_, f)| *f)
            .expect("every heatmap grid has a speedup floor");
        assert!(
            speedup >= floor,
            "{grid}²: hierarchical speedup {speedup:.1}x below the {floor}x floor"
        );
        assert!(
            fraction < HEATMAP_MAX_FRACTION,
            "{grid}²: evaluated {:.1}% of pixels (ceiling {:.0}%)",
            fraction * 100.0,
            HEATMAP_MAX_FRACTION * 100.0
        );

        let line = JsonLine::new("engine_batch")
            .str("scenario", "heatmap")
            .str("backend", "simd_scan")
            .str("simd_kernel", engine.kernel().name())
            .int("stations", HEATMAP_STATIONS as u64)
            .int("grid", grid as u64)
            .int("query_points", pixels)
            .num("window_half", HEATMAP_HALF)
            .num("ns_per_point", hier_ns)
            .num("dense_ns_per_point", dense_ns)
            .num("speedup_hier_vs_dense", speedup)
            .num("expand_ns_per_point", expand_ns)
            .int("cells_evaluated", stats.cells_evaluated)
            .int("point_certified", stats.point_certified)
            .int("certificates", stats.certificates)
            .num("cells_evaluated_fraction", fraction);
        println!("{}", line.render());
    }
}

fn main() {
    benches();
    emit_json_lines();
    emit_hotspot_json_lines();
    emit_nonuniform_json_lines();
    emit_churn_json_lines();
    emit_channel_mc_json_lines();
    emit_scheduling_json_line();
    emit_heatmap_json_lines();
}
