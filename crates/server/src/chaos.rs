//! Deterministic fault injection for transports: the chaos layer the
//! resilience tests drive the server through.
//!
//! The protocol's framing, deadline, and shedding machinery all claim
//! to survive badly-behaved byte streams — claims that are only worth
//! anything if tests can *produce* badly-behaved byte streams on
//! demand, reproducibly. [`ChaosStream`] is that producer: a
//! `Read + Write` wrapper that chops reads and writes at arbitrary
//! byte boundaries, injects artificial `WouldBlock`s and microsecond
//! delays, and cuts the connection mid-frame after a byte budget — all
//! driven by a [splitmix64](ChaosRng) stream, so **one `u64` seed
//! replays one exact fault schedule**. A failing chaotic run is
//! re-runnable from the seed in its failure message alone.
//!
//! Composition is by layering, not by special cases:
//!
//! * over a [`TcpStream`]: `IoTransport::new(ChaosStream::new(stream,
//!   cfg))` — a chaotic blocking client against a real server (the
//!   [`ChaosTransport`] alias; the chaos e2e fleets use exactly this);
//! * over a [`PipeStream`]: the same,
//!   loopback-free — every byte-split of a frame exercised with zero
//!   kernel involvement (the protocol-fuzz chaos suites);
//! * under a [`PolledIo`](crate::transport::PolledIo):
//!   `PolledIo::from_stream(ChaosStream::new(nonblocking_stream,
//!   cfg))` — injected `WouldBlock`s and chopped reads exercise the
//!   worker pool's partial-frame reassembly deterministically.
//!
//! Chaos on a *blocking* stream must keep `would_block_one_in` at 0:
//! blocking readers treat `WouldBlock` as a real error. The seeded
//! presets ([`ChaosConfig::from_seed`]) respect this.

use crate::transport::{IoTransport, PipeStream};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// A chaotic blocking transport: frames over a [`ChaosStream`]. The
/// server cannot tell it from a badly-scheduled network.
pub type ChaosTransport<S> = IoTransport<ChaosStream<S>>;

/// The deterministic PRNG behind every chaos decision: splitmix64.
/// Small, seedable, and dependency-free — the whole point is that the
/// library crate carries its own replayable randomness instead of
/// depending on `rand`.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A generator whose entire output is determined by `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound == 0` returns 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// True once in `one_in` calls on average; `one_in == 0` is never.
    pub fn one_in(&mut self, one_in: u32) -> bool {
        one_in != 0 && self.below(one_in as u64) == 0
    }
}

/// How a [`ChaosStream`] severs the connection when its transmit
/// budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// Shut the underlying stream down in both directions: the peer
    /// observes EOF — mid-frame, if the budget landed there (it is
    /// chosen so that it usually does).
    Eof,
    /// Report `ConnectionReset` locally and shut the stream down: the
    /// local caller sees the abrupt-failure path, the peer sees the
    /// same mid-frame EOF (a true RST would need `SO_LINGER(0)`, which
    /// std does not expose — the *server-visible* behaviour is
    /// identical for this protocol: a connection that dies mid-frame).
    Reset,
}

/// The fault schedule of one [`ChaosStream`], replayable from
/// [`ChaosConfig::from_seed`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds the per-stream [`ChaosRng`] (every chop length, delay and
    /// injection decision flows from it).
    pub seed: u64,
    /// Chop reads: each `read` asks the inner stream for a random
    /// 1..=n prefix of the caller's buffer, so frames arrive in
    /// dribbles.
    pub read_chop: bool,
    /// Chop writes: each `write` hands the inner stream a random 1..=n
    /// prefix (a *short write* — the caller's `write_all` loops, the
    /// peer sees partial frames between scheduling gaps).
    pub write_chop: bool,
    /// Inject a `WouldBlock` error once in this many I/O calls (0 =
    /// never). **Only for nonblocking consumers** such as
    /// [`PolledIo`](crate::transport::PolledIo); blocking readers treat
    /// `WouldBlock` as fatal.
    pub would_block_one_in: u32,
    /// Sleep before an I/O call once in this many calls (0 = never).
    pub delay_one_in: u32,
    /// Upper bound on one injected delay, in microseconds.
    pub delay_max_us: u64,
    /// Sever the connection after accepting this many written bytes
    /// (`None` = never): the mid-frame EOF/reset injector.
    pub cut_after_tx: Option<u64>,
    /// How the cut presents (see [`CutKind`]).
    pub cut_kind: CutKind,
}

impl ChaosConfig {
    /// A fully deterministic preset derived from `seed` alone — the
    /// fleet tests' one-knob entry point. Always chops reads and
    /// writes and injects small delays; roughly one seed in three also
    /// schedules a mid-frame cut (EOF or reset, seed's choice) inside
    /// the first couple of KiB, so a seeded fleet contains both
    /// well-behaved-but-slow clients and clients that die mid-frame.
    /// Never injects `WouldBlock` (safe for blocking transports).
    pub fn from_seed(seed: u64) -> ChaosConfig {
        // Derive the schedule from a *separate* rng stream so the
        // schedule and the per-op decisions are independent.
        let mut rng = ChaosRng::new(seed ^ 0xC0A5_C0A5_C0A5_C0A5);
        let cut_after_tx = if rng.one_in(3) {
            Some(64 + rng.below(2048))
        } else {
            None
        };
        let cut_kind = if rng.one_in(2) {
            CutKind::Eof
        } else {
            CutKind::Reset
        };
        ChaosConfig {
            seed,
            read_chop: true,
            write_chop: true,
            would_block_one_in: 0,
            delay_one_in: 6,
            delay_max_us: 120,
            cut_after_tx,
            cut_kind,
        }
    }

    /// [`ChaosConfig::from_seed`] without the cut injector: a client
    /// that behaves arbitrarily badly at the byte level but never
    /// dies — every request it sends completes.
    pub fn from_seed_no_cut(seed: u64) -> ChaosConfig {
        ChaosConfig {
            cut_after_tx: None,
            ..ChaosConfig::from_seed(seed)
        }
    }
}

/// Streams a [`ChaosStream`] can sever on cue (the cut injector's
/// hook into the real connection).
pub trait ChaosCut {
    /// Severs the stream so the *peer* observes the connection dying
    /// (both directions). Default: no-op (the local error alone).
    fn chaos_sever(&self) {}
}

impl ChaosCut for TcpStream {
    fn chaos_sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl ChaosCut for PipeStream {
    fn chaos_sever(&self) {
        self.shutdown_both();
    }
}

/// A `Read + Write` wrapper that perturbs every byte-level interaction
/// according to a seeded [`ChaosConfig`] — see the [module
/// docs](self) for the composition patterns.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    rng: ChaosRng,
    cfg: ChaosConfig,
    /// Bytes of transmit budget left before the scheduled cut.
    tx_left: Option<u64>,
    /// The cut fired: all further I/O fails.
    severed: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under the fault schedule of `cfg`.
    pub fn new(inner: S, cfg: ChaosConfig) -> ChaosStream<S> {
        ChaosStream {
            rng: ChaosRng::new(cfg.seed),
            tx_left: cfg.cut_after_tx,
            severed: false,
            inner,
            cfg,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Whether the scheduled cut has fired.
    pub fn severed(&self) -> bool {
        self.severed
    }

    fn maybe_delay(&mut self) {
        if self.cfg.delay_max_us > 0 && self.rng.one_in(self.cfg.delay_one_in) {
            let us = self.rng.below(self.cfg.delay_max_us.max(1)) + 1;
            std::thread::sleep(Duration::from_micros(us));
        }
    }

    fn maybe_would_block(&mut self) -> io::Result<()> {
        if self.rng.one_in(self.cfg.would_block_one_in) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        Ok(())
    }

    /// A random nonempty prefix length of an `n`-byte operation.
    fn chop(&mut self, n: usize, enabled: bool) -> usize {
        if !enabled || n <= 1 {
            n
        } else {
            1 + self.rng.below(n as u64) as usize
        }
    }
}

impl<S: ChaosCut> ChaosStream<S> {
    fn sever(&mut self) -> io::Error {
        self.severed = true;
        self.inner.chaos_sever();
        match self.cfg.cut_kind {
            CutKind::Eof => io::Error::new(io::ErrorKind::BrokenPipe, "chaos cut (eof)"),
            CutKind::Reset => io::Error::new(io::ErrorKind::ConnectionReset, "chaos cut (reset)"),
        }
    }
}

impl<S: Read + ChaosCut> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.severed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos stream already severed",
            ));
        }
        self.maybe_delay();
        self.maybe_would_block()?;
        let k = self.chop(buf.len(), self.cfg.read_chop);
        self.inner.read(&mut buf[..k])
    }
}

impl<S: Write + ChaosCut> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.severed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos stream already severed",
            ));
        }
        if let Some(0) = self.tx_left {
            return Err(self.sever());
        }
        self.maybe_delay();
        self.maybe_would_block()?;
        let mut k = self.chop(buf.len(), self.cfg.write_chop);
        if let Some(left) = self.tx_left {
            // Land exactly on the budget so the cut falls mid-frame
            // whenever the budget does.
            k = k.min(left as usize).max(1.min(buf.len()));
        }
        let written = self.inner.write(&buf[..k])?;
        if let Some(left) = &mut self.tx_left {
            *left = left.saturating_sub(written as u64);
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.severed {
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{duplex_stream, RecvError, Transport};

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = ChaosRng::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = ChaosRng::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = ChaosRng::new(43);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn config_from_seed_is_deterministic_and_varied() {
        for seed in 0..64u64 {
            let a = ChaosConfig::from_seed(seed);
            let b = ChaosConfig::from_seed(seed);
            assert_eq!(a.cut_after_tx, b.cut_after_tx);
            assert_eq!(a.cut_kind, b.cut_kind);
        }
        let cuts = (0..64u64)
            .filter(|s| ChaosConfig::from_seed(*s).cut_after_tx.is_some())
            .count();
        assert!(
            cuts > 8 && cuts < 56,
            "seed family should mix surviving and dying clients (got {cuts}/64 cuts)"
        );
    }

    /// Frames pushed through a chaotic pipe (chopped, delayed writes
    /// and chopped reads on the peer) arrive byte-identical, for many
    /// seeds.
    #[test]
    fn chopped_frames_round_trip_identically() {
        for seed in 0..24u64 {
            let (a, b) = duplex_stream();
            let mut tx = IoTransport::new(ChaosStream::new(a, ChaosConfig::from_seed_no_cut(seed)));
            let payloads: Vec<Vec<u8>> = (0..6)
                .map(|i| (0..(7 * i + 1)).map(|j| (j * 31 + i) as u8).collect())
                .collect();
            let expected = payloads.clone();
            let writer = std::thread::spawn(move || {
                for p in &payloads {
                    tx.send_frame(p).expect("chaotic send completes");
                }
                tx
            });
            let mut rx = IoTransport::new(ChaosStream::new(
                b,
                ChaosConfig::from_seed_no_cut(seed ^ 0x5555),
            ));
            for want in &expected {
                let got = rx.recv_frame().expect("recv ok").expect("frame present");
                assert_eq!(&got, want, "seed {seed}");
            }
            drop(writer.join().expect("writer thread"));
            assert!(rx.recv_frame().expect("clean close").is_none());
        }
    }

    /// The cut injector severs mid-frame: the peer sees a truncated
    /// frame, never a corrupted-but-complete one.
    #[test]
    fn cut_mid_frame_truncates_at_the_peer() {
        let cfg = ChaosConfig {
            seed: 7,
            read_chop: false,
            write_chop: true,
            would_block_one_in: 0,
            delay_one_in: 0,
            delay_max_us: 0,
            cut_after_tx: Some(10),
            cut_kind: CutKind::Eof,
        };
        let (a, b) = duplex_stream();
        let mut tx = IoTransport::new(ChaosStream::new(a, cfg));
        // 4 (prefix) + 20 (payload) > 10: the cut lands mid-payload.
        let err = tx.send_frame(&[0xAB; 20]).expect_err("cut fires");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let mut rx = IoTransport::new(b);
        match rx.recv_frame() {
            Err(RecvError::TruncatedFrame { missing }) => assert!(missing > 0),
            other => panic!("expected mid-frame truncation, got {other:?}"),
        }
    }

    /// Injected `WouldBlock`s surface to the caller (the nonblocking
    /// consumer's contract) and never corrupt subsequent reads.
    #[test]
    fn would_block_injection_is_lossless() {
        let cfg = ChaosConfig {
            seed: 11,
            read_chop: true,
            write_chop: false,
            would_block_one_in: 2,
            delay_one_in: 0,
            delay_max_us: 0,
            cut_after_tx: None,
            cut_kind: CutKind::Eof,
        };
        let (a, mut b) = duplex_stream();
        let mut chaotic = ChaosStream::new(a, cfg);
        let payload: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        b.write_all(&payload).expect("pipe write");
        drop(b);
        let mut got = Vec::new();
        let mut saw_would_block = false;
        let mut buf = [0u8; 64];
        loop {
            match chaotic.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => saw_would_block = true,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        assert_eq!(got, payload);
        assert!(saw_would_block, "seed 11 schedules at least one WouldBlock");
    }
}
