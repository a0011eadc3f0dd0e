//! Queue-stability link scheduling under the SINR model — the
//! protocol-design task the paper's introduction motivates
//! ("transmission scheduling, frequency allocation, topology control,
//! …"), run as a *simulation* rather than a one-shot schedule.
//!
//! The setup is the classic queue-stability experiment: `N_LINKS`
//! sender→receiver pairs, Bernoulli(λ) packet arrivals per link per
//! slot, and a greedy max-feasible scheduler that each slot activates a
//! SINR-feasible subset of the backlogged links (all active senders
//! transmit simultaneously; a served link drains one packet). Below the
//! service capacity the backlog stays bounded; above it the queues grow
//! without bound — both regimes are asserted at the end.
//!
//! What makes this an end-to-end exercise of the library rather than a
//! toy loop:
//!
//! * the transmit pattern of every scheduling iteration is realized as
//!   `SetPower` surgery on one epoch-versioned [`Network`], kept in
//!   sync with a [`BoxedEngine`] through incremental delta application
//!   (the dynamic-engine path) — thousands of mutate+schedule
//!   timesteps, no rebuilds;
//! * every mutation is simultaneously streamed to an in-process
//!   [`sinr_diagrams::server`] session as revision-fenced `Mutate`
//!   frames, so the same churn also drives the wire path;
//! * per-slot channel randomness comes from the stochastic channel
//!   subsystem's public seeded gain stream
//!   ([`ChannelModel::gains_for_trial`]), folded into the network as
//!   per-station power multipliers;
//! * periodically the simulation probes outage: seeded Monte-Carlo
//!   [`QueryEngine::reception_probability_batch`] locally **and**
//!   `ReceptionProbBatch` through the server — asserted bit-identical
//!   (the seeding contract across the wire);
//! * SINR-distribution quantiles under Rayleigh fading close each
//!   regime ([`QueryEngine::sinr_quantiles_batch`]).
//!
//! Run with: `cargo run --release --example link_scheduling`
//! (no arguments; finishes in seconds — the CI example-smoke loop runs
//! exactly this).

use rand::{Rng, SeedableRng};
use sinr_diagrams::prelude::*;
use sinr_diagrams::server::{serve_in_process, IoTransport, PipeStream};

/// Links around a ring: senders on the outer circle, receivers pulled
/// one unit inward — every transmission interferes with every other,
/// so the service capacity is interference-limited, not trivial.
const N_LINKS: usize = 10;
const SENDER_RADIUS: f64 = 4.0;
const RECEIVER_RADIUS: f64 = 3.0;
const NOISE: f64 = 0.01;
const BETA: f64 = 2.0;

/// A silenced sender keeps its station slot (station count is fixed;
/// only powers churn) at a power that contributes no interference.
const SILENT_POWER: f64 = 1e-9;

/// Slots per regime, and the cadence of jitter and outage probes.
const STEPS: usize = 1200;
const JITTER_EVERY: usize = 97;
const PROBE_EVERY: usize = 256;
const MC_TRIALS: u32 = 32;

fn link_positions() -> (Vec<Point>, Vec<Point>) {
    let mut senders = Vec::with_capacity(N_LINKS);
    let mut receivers = Vec::with_capacity(N_LINKS);
    for k in 0..N_LINKS {
        let theta = std::f64::consts::TAU * k as f64 / N_LINKS as f64;
        let (sin, cos) = theta.sin_cos();
        senders.push(Point::new(SENDER_RADIUS * cos, SENDER_RADIUS * sin));
        receivers.push(Point::new(RECEIVER_RADIUS * cos, RECEIVER_RADIUS * sin));
    }
    (senders, receivers)
}

/// What one regime run reports back for the stability assertions.
struct RegimeReport {
    lambda: f64,
    arrivals: usize,
    served: usize,
    max_backlog: usize,
    final_backlog: usize,
    probes: usize,
}

/// Applies one `SetPower` pattern to the local network + engine (the
/// incremental dynamic path) and mirrors it to the server session as a
/// revision-fenced `Mutate` frame. Returns the advanced revision.
fn apply_powers(
    net: &mut Network,
    engine: &mut BoxedEngine,
    client: &mut Client<IoTransport<PipeStream>>,
    revision: u64,
    powers: &[f64],
) -> u64 {
    let ops: Vec<SurgeryOp> = powers
        .iter()
        .enumerate()
        .map(|(i, &power)| SurgeryOp::SetPower {
            id: StationId(i),
            power,
        })
        .collect();
    let deltas = net.apply_ops(&ops).expect("valid power pattern");
    for delta in &deltas {
        engine.apply(delta).expect("incremental apply");
    }
    let rev = client.mutate(revision, &ops).expect("server mutate");
    assert_eq!(rev, net.revision(), "server and mirror revisions agree");
    rev
}

/// One slot of the greedy scheduler: start from every backlogged link,
/// and while any active link misses β at its receiver, drop the one
/// with the smallest SINR margin. Each iteration's transmit pattern is
/// a real `SetPower` timestep through the engine and the server.
/// Returns the served link set (the final feasible active set).
#[allow(clippy::too_many_arguments)]
fn schedule_slot(
    net: &mut Network,
    engine: &mut BoxedEngine,
    client: &mut Client<IoTransport<PipeStream>>,
    revision: &mut u64,
    receivers: &[Point],
    backlog: &[usize],
    slot_gains: &[f64],
) -> Vec<usize> {
    let mut active: Vec<usize> = (0..N_LINKS).filter(|&i| backlog[i] > 0).collect();
    while !active.is_empty() {
        // Realize the transmit pattern: active senders at their faded
        // gain, silent ones effectively off.
        let powers: Vec<f64> = (0..N_LINKS)
            .map(|i| {
                if active.contains(&i) {
                    slot_gains[i].max(SILENT_POWER)
                } else {
                    SILENT_POWER
                }
            })
            .collect();
        *revision = apply_powers(net, engine, client, *revision, &powers);

        // Feasibility of each active link at its own receiver.
        let mut worst: Option<(usize, f64)> = None;
        for (slot, &i) in active.iter().enumerate() {
            let mut sinr = [0.0];
            engine.sinr_batch(StationId(i), &receivers[i..i + 1], &mut sinr);
            if sinr[0] < BETA && worst.is_none_or(|(_, w)| sinr[0] < w) {
                worst = Some((slot, sinr[0]));
            }
        }
        match worst {
            // Everyone active clears β: this is the served set.
            None => return active,
            Some((slot, _)) => {
                active.remove(slot);
            }
        }
    }
    active
}

/// Runs one arrival-rate regime end to end; all cross-checks inside.
fn run_regime(lambda: f64, seed: u64) -> RegimeReport {
    let (senders, receivers) = link_positions();
    let mut b = Network::builder().background_noise(NOISE).threshold(BETA);
    for s in &senders {
        b = b.station(*s);
    }
    let mut net = b.build().expect("valid ring network");
    let mut engine = BoxedEngine::simd_scan(&net);

    let mut client = serve_in_process();
    let mut revision = client
        .bind_network(BackendId::SimdScan, 0.0, &net)
        .expect("bind server session");

    // Per-slot fading: the channel subsystem's public seeded gain
    // stream, one trial per slot — the same stream any replay would
    // draw.
    let fading = ChannelModel::LogNormalShadowing { sigma_db: 2.0 };
    let probe_channel = ChannelModel::Composed(vec![
        ChannelModel::LogNormalShadowing { sigma_db: 3.0 },
        ChannelModel::RayleighFading,
    ]);

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut backlog = vec![0usize; N_LINKS];
    let mut gains = vec![1.0f64; N_LINKS];
    let mut report = RegimeReport {
        lambda,
        arrivals: 0,
        served: 0,
        max_backlog: 0,
        final_backlog: 0,
        probes: 0,
    };

    for step in 0..STEPS {
        // Bernoulli(λ) arrivals.
        for q in backlog.iter_mut() {
            if rng.gen_range(0.0..1.0) < lambda {
                *q += 1;
                report.arrivals += 1;
            }
        }

        // Occasional mobility: jitter one sender through the same
        // dynamic path (a `Move` timestep, mirrored to the server).
        if step % JITTER_EVERY == JITTER_EVERY - 1 {
            let i = rng.gen_range(0..N_LINKS);
            let to = Point::new(
                senders[i].x + rng.gen_range(-0.05..0.05),
                senders[i].y + rng.gen_range(-0.05..0.05),
            );
            let op = SurgeryOp::Move {
                id: StationId(i),
                to,
            };
            let deltas = net.apply_ops(std::slice::from_ref(&op)).expect("jitter");
            for delta in &deltas {
                engine.apply(delta).expect("incremental apply");
            }
            revision = client.mutate(revision, &[op]).expect("server jitter");
        }

        // This slot's realized channel state, then the scheduler.
        fading.gains_for_trial(seed ^ 0xFAD, step as u32, &mut gains);
        let served = schedule_slot(
            &mut net,
            &mut engine,
            &mut client,
            &mut revision,
            &receivers,
            &backlog,
            &gains,
        );
        for &i in &served {
            backlog[i] -= 1;
            report.served += 1;
        }
        let total: usize = backlog.iter().sum();
        report.max_backlog = report.max_backlog.max(total);

        // Outage probe: all senders back at unit power, then the same
        // seeded Monte-Carlo question asked locally (dynamic engine)
        // and through the server — bit-identical by the seeding
        // contract, even after all this churn.
        if step % PROBE_EVERY == PROBE_EVERY - 1 {
            revision = apply_powers(
                &mut net,
                &mut engine,
                &mut client,
                revision,
                &[1.0; N_LINKS],
            );
            let mc_seed = seed ^ 0xCAFE ^ step as u64;
            let mut local = vec![0.0; N_LINKS];
            engine
                .reception_probability_batch(
                    &probe_channel,
                    McConfig::new(MC_TRIALS, mc_seed),
                    &receivers,
                    &mut local,
                )
                .expect("local Monte-Carlo probe");
            let (rev, remote) = client
                .reception_prob_batch(MC_TRIALS, mc_seed, &probe_channel, &receivers)
                .expect("server Monte-Carlo probe");
            assert_eq!(rev, net.revision());
            for (k, (l, r)) in local.iter().zip(&remote).enumerate() {
                assert_eq!(
                    l.to_bits(),
                    r.to_bits(),
                    "server probe diverged from local engine at receiver {k}"
                );
            }
            report.probes += 1;
        }
    }

    // Close the regime with the engine-local distribution view: SINR
    // quantiles of link 0 at its receiver under Rayleigh fading.
    revision = apply_powers(
        &mut net,
        &mut engine,
        &mut client,
        revision,
        &[1.0; N_LINKS],
    );
    let _ = revision;
    let quantiles = [0.1, 0.5, 0.9];
    let mut q_out = vec![0.0; quantiles.len()];
    engine
        .sinr_quantiles_batch(
            &ChannelModel::RayleighFading,
            McConfig::new(256, seed ^ 0x0123),
            StationId(0),
            &receivers[0..1],
            &quantiles,
            &mut q_out,
        )
        .expect("quantiles");
    println!(
        "  λ = {lambda:.2}: link-0 SINR under Rayleigh — p10 {:.2}, median {:.2}, p90 {:.2} (β = {BETA})",
        q_out[0], q_out[1], q_out[2]
    );
    assert!(
        q_out[0] <= q_out[1] && q_out[1] <= q_out[2],
        "quantiles must be monotone"
    );

    report.final_backlog = backlog.iter().sum();
    report
}

fn main() {
    println!(
        "{N_LINKS} ring links, β = {BETA}, N = {NOISE}, {STEPS} slots per regime; \
         every transmit pattern is a SetPower timestep through the dynamic \
         engine AND a Mutate frame to an in-process server session"
    );

    let stable = run_regime(0.30, 0x11);
    let unstable = run_regime(0.90, 0x22);

    for r in [&stable, &unstable] {
        println!(
            "  λ = {:.2}: {} arrivals, {} served, max backlog {}, final backlog {}, {} \
             bit-identical server probes",
            r.lambda, r.arrivals, r.served, r.max_backlog, r.final_backlog, r.probes
        );
    }

    // The stability dichotomy the experiment is named for.
    assert!(
        stable.max_backlog < 40 && stable.final_backlog < 20,
        "sub-capacity regime must keep queues bounded: max {}, final {}",
        stable.max_backlog,
        stable.final_backlog
    );
    assert!(
        unstable.final_backlog > 10 * stable.max_backlog.max(1)
            && unstable.final_backlog > STEPS / 2,
        "super-capacity regime must grow without bound: final {}",
        unstable.final_backlog
    );
    assert!(stable.probes >= 4 && unstable.probes >= 4);
    println!(
        "\nstable regime bounded, unstable regime diverged — queue-stability dichotomy verified ✓"
    );
}
