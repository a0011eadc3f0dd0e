//! The load generator: connections to the server child, the setup
//! phase, and the closed-loop timed window. During a window each
//! connection only sends pre-encoded frames (`Client::send_raw`) and
//! reads responses (`Client::recv`).

use crate::inputs::{digest, ConnPlan, Plan};
use crate::serverproc::{Sample, ServerProc};
use sinr_server::{Client, ClientError, RecvError, Response, TcpTransport, Transport};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A TCP transport that notes when the last frame finished arriving, so
/// a traced op can split the client's receive into waiting and decoding.
pub struct Timed {
    inner: TcpTransport,
    recv_done: Instant,
}

impl Transport for Timed {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, RecvError> {
        let frame = self.inner.recv_frame();
        self.recv_done = Instant::now();
        frame
    }
}

pub struct Conn {
    client: Client<Timed>,
    next_op: usize,
    broken: bool,
}

/// Attempted and failed ops of one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed op: a query frame, preceded by its mutation on
/// `mobile_churn`.
#[derive(Debug)]
pub struct OpRecord {
    pub conn: usize,
    pub op: usize,
    pub latency: Duration,
    /// Digest of the query answer, when one arrived.
    pub digest: Option<u64>,
    /// False on a server `Error` frame, a transport error, an unexpected
    /// response or a wrong revision. Answer mismatches are found later.
    pub ok: bool,
}

/// A span of the traced window, in ns since the run's epoch.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub conn: usize,
    pub op: usize,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span among the same connection's spans.
    pub parent: Option<usize>,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// Connects every connection of the plan to a fresh server child and
/// sends the setup frames. Returns the elapsed time from the server
/// listening until the first timed request can be sent. Process
/// start-up (exec, dynamic loading) is the operating system's work and
/// varies by milliseconds from run to run, so it is left out.
pub fn setup(plan: &Plan) -> io::Result<(ServerProc, Vec<Conn>, Duration, Counts)> {
    let server = ServerProc::launch()?;
    let start = Instant::now();
    let mut conns = Vec::with_capacity(plan.conns.len());
    let mut counts = Counts::default();
    let start_revision = plan.net.revision();
    for cp in &plan.conns {
        let stream = TcpStream::connect(server.addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client::new(Timed {
            inner: TcpTransport::new(stream),
            recv_done: Instant::now(),
        });
        for frame in &cp.setup {
            counts.attempted += 1;
            client.send_raw(frame).map_err(io::Error::other)?;
            let ok = match client.recv() {
                Ok(Response::Registered { .. }) => true,
                Ok(Response::Attached { revision, .. } | Response::Bound { revision, .. }) => {
                    revision == start_revision
                }
                Ok(_) | Err(ClientError::Server { .. }) => false,
                Err(e) => return Err(io::Error::other(e)),
            };
            if !ok {
                counts.failed += 1;
            }
        }
        conns.push(Conn {
            client,
            next_op: 0,
            broken: false,
        });
    }
    Ok((server, conns, start.elapsed(), counts))
}

/// Runs `ops` ops on every connection, one connection after another
/// (the warm-up: it fills caches and lets lazy set-up finish).
pub fn warm_up(conns: &mut [Conn], plan: &Plan, ops: usize) -> Vec<OpRecord> {
    let epoch = Instant::now();
    let mut records = Vec::new();
    for (c, conn) in conns.iter_mut().enumerate() {
        for _ in 0..ops {
            if let Some(r) = run_op(conn, c, &plan.conns[c], None, epoch) {
                records.push(r);
            }
        }
    }
    records
}

/// What one timed window measured.
pub struct Window {
    pub records: Vec<OpRecord>,
    pub spans: Vec<Span>,
    pub elapsed: Duration,
    pub before: Sample,
    pub after: Sample,
}

/// The closed loop: every connection runs its own thread, sending its
/// next op as soon as the previous one is answered, until `duration`
/// has passed (the op in flight at the deadline completes and counts).
pub fn window(
    server: &mut ServerProc,
    conns: &mut [Conn],
    plan: &Plan,
    duration: Duration,
    trace: bool,
    epoch: Instant,
) -> io::Result<Window> {
    let before = server.sample()?;
    let start = Instant::now();
    let deadline = start + duration;
    let per_conn: Vec<(Vec<OpRecord>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let cp = &plan.conns[c];
                s.spawn(move || {
                    let mut records = Vec::new();
                    let mut spans = Vec::new();
                    while Instant::now() < deadline {
                        let traced = trace.then_some(&mut spans);
                        match run_op(conn, c, cp, traced, epoch) {
                            Some(r) => records.push(r),
                            None => break,
                        }
                    }
                    (records, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let after = server.sample()?;
    let mut records = Vec::new();
    let mut spans = Vec::new();
    for (r, s) in per_conn {
        records.extend(r);
        // Parent indices are per connection; make them global.
        let base = spans.len();
        spans.extend(s.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    Ok(Window {
        records,
        spans,
        elapsed,
        before,
        after,
    })
}

fn nanos(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// Appends a span of op `op` on connection `c`; returns its index.
#[allow(clippy::too_many_arguments)]
fn push_span(
    spans: &mut Vec<Span>,
    name: &'static str,
    c: usize,
    op: usize,
    epoch: Instant,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
) -> usize {
    spans.push(Span {
        name,
        conn: c,
        op,
        start: nanos(epoch, start),
        end: nanos(epoch, end),
        parent,
    });
    spans.len() - 1
}

/// One op on one connection; `None` when the connection is broken or
/// its op sequence is used up.
fn run_op(
    conn: &mut Conn,
    c: usize,
    cp: &ConnPlan,
    mut spans: Option<&mut Vec<Span>>,
    epoch: Instant,
) -> Option<OpRecord> {
    let op = conn.next_op;
    if conn.broken || cp.op_limit().is_some_and(|limit| op >= limit) {
        return None;
    }
    conn.next_op += 1;
    let step = cp.steps.get(op);
    let query = cp.query(op);
    // Revision every answer of this op must carry, on `mobile_churn`.
    let revision = step.map(|_| cp.revisions[op + 1]);

    let t0 = Instant::now();
    let sent = match step {
        Some(s) => conn.client.send_raw(&s.payload),
        None => Ok(()),
    }
    .and_then(|()| conn.client.send_raw(&query.payload));
    let t_sent = Instant::now();
    // The round trip's end is set once the op completes.
    let root = spans.as_deref_mut().map(|v| {
        let root = push_span(v, "client.roundtrip", c, op, epoch, t0, t0, None);
        push_span(v, "client.send", c, op, epoch, t0, t_sent, Some(root));
        root
    });
    let mut ok = sent.is_ok();
    let mut answer = None;
    if sent.is_err() {
        conn.broken = true;
    } else {
        let expected_frames = 1 + usize::from(step.is_some());
        for frame in 0..expected_frames {
            let t_wait = Instant::now();
            let response = conn.client.recv();
            let t_done = Instant::now();
            if let (Some(v), Some(root)) = (spans.as_deref_mut(), root) {
                let recv_done = conn.client.transport().recv_done.max(t_wait);
                push_span(
                    v,
                    "client.recv",
                    c,
                    op,
                    epoch,
                    t_wait,
                    recv_done,
                    Some(root),
                );
                push_span(
                    v,
                    "client.decode",
                    c,
                    op,
                    epoch,
                    recv_done,
                    t_done,
                    Some(root),
                );
            }
            let is_query = frame + 1 == expected_frames;
            match response {
                Ok(Response::Mutated { revision: r, .. }) if !is_query => {
                    ok &= Some(r) == revision;
                }
                Ok(Response::Located {
                    revision: r,
                    answers,
                }) if is_query => {
                    ok &= revision.is_none_or(|want| want == r);
                    answer = Some(answers);
                }
                Ok(Response::Heatmap { cells, .. }) if is_query => answer = Some(cells),
                Ok(_) | Err(ClientError::Server { .. }) => ok = false,
                Err(_) => {
                    ok = false;
                    conn.broken = true;
                    break;
                }
            }
        }
    }
    let t_end = Instant::now();
    if let (Some(v), Some(root)) = (spans, root) {
        v[root].end = nanos(epoch, t_end);
    }
    Some(OpRecord {
        conn: c,
        op,
        latency: t_end - t0,
        digest: answer.as_deref().map(digest),
        ok: ok && answer.is_some(),
    })
}
