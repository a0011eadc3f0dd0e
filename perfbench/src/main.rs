//! Serving benchmark for `sinr-server`: a single-process load generator
//! driving a separate server process over loopback TCP. See README.md
//! for the workloads, the metrics and why they were chosen.
//!
//! ```text
//! perfbench --workload <locate_stream|mobile_churn|coverage_map> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is a report with the machine shape, per-phase op accounting
//! and (traced) the tracing overhead.

mod drive;
mod inputs;
mod layers;
mod serverproc;
mod verify;

use drive::{Counts, OpRecord, Span, Window};
use inputs::{Plan, Workload};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run, before and after the timed window, and server
/// launches per set-up. A set-up takes milliseconds, and on a busy host
/// half the launches or more wait milliseconds for a core at some step.
/// Interference only slows a launch down, so a set-up's time is its
/// fastest launch; `setup_s` is the median set-up. Spreading them over
/// the run keeps a burst of host load from moving them all.
const SETUPS_BEFORE: usize = 8;
const SETUPS_AFTER: usize = 7;
const LAUNCHES_PER_SETUP: usize = 5;
/// Ops per connection after set-up and before the clock starts.
const WARM_UP_OPS: usize = 2;

#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match serverproc::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload <locate_stream|mobile_churn|coverage_map> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn median(v: Vec<f64>) -> f64 {
    let v = sorted(v);
    v[v.len() / 2]
}

/// Nearest-rank percentile; failed ops sort last as infinitely slow.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn failed(r: &OpRecord, bad: &HashSet<(usize, usize)>) -> bool {
    !r.ok || bad.contains(&(r.conn, r.op))
}

fn counts(records: &[OpRecord], bad: &HashSet<(usize, usize)>) -> Counts {
    Counts {
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| failed(r, bad)).count() as u64,
    }
}

/// Latencies in ms, sorted; a failed op is infinitely slow.
fn sorted_latencies<'a>(
    records: impl IntoIterator<Item = &'a OpRecord>,
    bad: &HashSet<(usize, usize)>,
) -> Vec<f64> {
    sorted(
        records
            .into_iter()
            .map(|r| {
                if failed(r, bad) {
                    f64::INFINITY
                } else {
                    r.latency.as_secs_f64() * 1e3
                }
            })
            .collect(),
    )
}

/// Each query frame of the plan's pools (op `k` of a connection sends
/// its frame `k % pool`) gets the median latency of its ops; this is the
/// 90th percentile of those medians. It reads the heaviest inputs while
/// a frame's median shrugs off host jitter that a per-op p90 would read.
fn query_p90(plan: &Plan, w: &Window, bad: &HashSet<(usize, usize)>) -> f64 {
    let mut by_query: BTreeMap<(usize, usize), Vec<&OpRecord>> = BTreeMap::new();
    for r in &w.records {
        let pool = plan.conns[r.conn].queries.len();
        by_query.entry((r.conn, r.op % pool)).or_default().push(r);
    }
    let medians: Vec<f64> = by_query
        .into_values()
        .map(|ops| percentile(&sorted_latencies(ops, bad), 0.5))
        .collect();
    percentile(&sorted(medians), 0.9)
}

/// The end-to-end metrics of one window (`setup_s` aside).
fn end_to_end(plan: &Plan, w: &Window, bad: &HashSet<(usize, usize)>) -> Vec<Metric> {
    let ok = w.records.iter().filter(|r| !failed(r, bad)).count();
    let latencies = sorted_latencies(&w.records, bad);
    vec![
        Metric::new("ops_per_s", ok as f64 / w.elapsed.as_secs_f64(), "1/s"),
        Metric::new("op_p50_ms", percentile(&latencies, 0.5), "ms"),
        Metric::new("query_p90_ms", query_p90(plan, w, bad), "ms"),
    ]
}

/// Per-layer metrics measured on the traced window itself: the server
/// process counters and the client's spans.
fn window_layers(w: &Window, handle_us_per_op: f64) -> Vec<Metric> {
    let ops = w.records.len().max(1) as f64;
    let span_us = |name: &str| -> f64 {
        w.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .sum::<f64>()
            / ops
    };
    let roundtrip = span_us("client.roundtrip");
    let decode = span_us("client.decode");
    vec![
        Metric::new(
            "server.threads_spawned_per_op",
            (w.after.forks - w.before.forks) as f64 / ops,
            "count",
        ),
        Metric::new(
            "server.ctx_switches_per_op",
            (w.after.ctx_switches - w.before.ctx_switches) as f64 / ops,
            "count",
        ),
        Metric::new(
            "server.cpu_ms_per_op",
            (w.after.cpu_ms - w.before.cpu_ms) / ops,
            "ms",
        ),
        Metric::new("client.roundtrip_us_per_op", roundtrip, "us"),
        Metric::new("client.decode_us_per_op", decode, "us"),
        Metric::new(
            "transport.residual_us_per_op",
            roundtrip - handle_us_per_op - decode,
            "us",
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_counts(c: Counts) -> String {
    format!(
        "{{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
        c.attempted,
        c.attempted - c.failed,
        c.failed
    )
}

/// Writes the traced window's spans as JSON lines under the build
/// directory and returns the path.
fn write_spans(plan: &Plan, spans: &[Span]) -> std::io::Result<String> {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&root).join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", plan.workload.name(), plan.seed));
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"conn\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.name, s.conn, s.op, s.start, s.end
        );
    }
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let epoch = Instant::now();
    let duration = Duration::from_secs_f64(args.seconds);
    let windows = if args.trace { 2.0 } else { 1.0 };
    let plan = inputs::plan(args.workload, args.seed, args.seconds * windows);

    let mut launch_times = Vec::with_capacity((SETUPS_BEFORE + SETUPS_AFTER) * LAUNCHES_PER_SETUP);
    let mut setup_counts = Counts::default();
    let mut set_up = || -> Result<_, Box<dyn std::error::Error>> {
        let (server, conns, took, counts) = drive::setup(&plan)?;
        if counts.failed > 0 {
            return Err(format!("{} set-up frames failed", counts.failed).into());
        }
        launch_times.push(took.as_secs_f64());
        setup_counts.add(counts);
        Ok((server, conns))
    };
    for _ in 1..SETUPS_BEFORE * LAUNCHES_PER_SETUP {
        let (server, conns) = set_up()?;
        drop(conns);
        server.stop()?;
    }
    let (mut server, mut conns) = set_up()?;
    let warm = drive::warm_up(&mut conns, &plan, WARM_UP_OPS);
    let untraced = drive::window(&mut server, &mut conns, &plan, duration, false, epoch)?;
    let traced = if args.trace {
        Some(drive::window(
            &mut server,
            &mut conns,
            &plan,
            duration,
            true,
            epoch,
        )?)
    } else {
        None
    };
    let rss_mb = server.peak_rss_mb()?;
    drop(conns);
    server.stop()?;
    for _ in 0..SETUPS_AFTER * LAUNCHES_PER_SETUP {
        let (server, conns) = set_up()?;
        drop(conns);
        server.stop()?;
    }
    let setup_s = median(
        launch_times
            .chunks(LAUNCHES_PER_SETUP)
            .map(|launches| launches.iter().copied().fold(f64::INFINITY, f64::min))
            .collect(),
    );

    // Verification, with the clock stopped.
    let bad = verify::mismatches(
        &plan,
        warm.iter()
            .chain(&untraced.records)
            .chain(traced.iter().flat_map(|t| &t.records)),
    );
    setup_counts.add(counts(&warm, &bad));
    let mut timed_counts = counts(&untraced.records, &bad);
    if let Some(t) = &traced {
        timed_counts.add(counts(&t.records, &bad));
    }

    let mut e2e = vec![Metric::new("setup_s", setup_s, "s")];
    e2e.extend(end_to_end(&plan, &untraced, &bad));
    e2e.push(Metric::new("server_rss_mb", rss_mb, "MB"));

    let mut report = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ =
        write!(
        report,
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"nproc\": {nproc}, \
         \"simd_kernel\": \"{}\", \"profile\": \"{}\", \"samples\": {}, \
         \"setup\": {}, \"timed\": {}, \"mismatches\": {}, \"end_to_end\": {}",
        plan.workload.name(),
        plan.seed,
        args.seconds,
        sinr_core::SimdKernel::detect().name(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        untraced.records.len(),
        json_counts(setup_counts),
        json_counts(timed_counts),
        bad.len(),
        json_metrics(
            &e2e.iter()
                .cloned()
                .chain([
                    Metric::new(
                        "op_p90_ms",
                        percentile(&sorted_latencies(&untraced.records, &bad), 0.9),
                        "ms",
                    ),
                    Metric::new(
                        "failed_frac",
                        timed_counts.failed as f64 / timed_counts.attempted.max(1) as f64,
                        "fraction",
                    ),
                ])
                .collect::<Vec<_>>()
        ),
    );

    let metrics = match &traced {
        None => e2e,
        Some(t) => {
            let replay = layers::replay(&plan);
            let mut per_layer = window_layers(t, replay.handle_us_per_op);
            per_layer.extend(replay.metrics);
            let traced_e2e = end_to_end(&plan, t, &bad);
            let overhead: Vec<Metric> = traced_e2e
                .iter()
                .zip(&e2e[1..])
                .map(|(tr, un)| Metric::new(&tr.name, tr.value - un.value, un.unit))
                .collect();
            let _ = write!(
                report,
                ", \"traced_end_to_end\": {}, \"tracing_overhead\": {}, \"spans\": \"{}\"",
                json_metrics(&traced_e2e),
                json_metrics(&overhead),
                write_spans(&plan, &t.spans)?
            );
            per_layer
        }
    };
    report.push_str("}}");
    println!("{report}");
    let all_counts = {
        let mut c = setup_counts;
        c.add(timed_counts);
        c
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        all_counts.failed == 0 && bad.is_empty(),
        all_counts.attempted,
        all_counts.failed,
        json_metrics(&metrics)
    );
    Ok(())
}
