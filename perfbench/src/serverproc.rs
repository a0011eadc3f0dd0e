//! The server under test, as a separate process, and what the benchmark
//! reads about it from `/proc`.
//!
//! The child is this same executable run as `perfbench serve`: it starts
//! the server through the public `Server::bind(..).spawn()` entry point
//! on an ephemeral loopback port, prints `listening <addr>`, and then
//! answers `rusage` lines on stdin until stdin closes, when it shuts the
//! server down and exits.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The `serve` subcommand: the child process's whole life.
pub fn serve() -> io::Result<()> {
    let handle = sinr_server::Server::bind("127.0.0.1:0")?.spawn()?;
    let mut out = io::stdout().lock();
    writeln!(out, "listening {}", handle.addr())?;
    out.flush()?;
    for line in io::stdin().lock().lines() {
        if line?.trim() == "rusage" {
            writeln!(out, "rusage {}", own_context_switches().unwrap_or(0))?;
            out.flush()?;
        }
    }
    handle.shutdown();
    Ok(())
}

/// Voluntary plus involuntary context switches of every thread this
/// process has run, exited ones included. `/proc/<pid>/status` counts
/// only the main thread, and the per-thread files vanish with the
/// threads the engine spawns per batch, so this asks the kernel for the
/// process-wide total instead.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
fn own_context_switches() -> Option<u64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which the last two are `ru_nvcsw` and `ru_nivcsw`.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then(|| (usage.longs[12] + usage.longs[13]) as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn own_context_switches() -> Option<u64> {
    None
}

/// A running server child.
pub struct ServerProc {
    child: Child,
    control: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// Counters read at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Server user plus system CPU time, ms (`/proc/<pid>/stat`).
    pub cpu_ms: f64,
    /// Server context switches, all threads.
    pub ctx_switches: u64,
    /// Processes and threads forked on the machine (`/proc/stat`).
    pub forks: u64,
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// Linux ABI).
const USER_HZ: f64 = 100.0;

impl ServerProc {
    /// Starts the child and waits for its listening address.
    pub fn launch() -> io::Result<ServerProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let control = child.stdin.take();
        let mut replies = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        replies.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server child did not report its address (got {line:?})"
            )));
        };
        Ok(ServerProc {
            child,
            control,
            replies,
            addr,
        })
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    pub fn sample(&mut self) -> io::Result<Sample> {
        let control = self.control.as_mut().expect("server is running");
        writeln!(control, "rusage")?;
        control.flush()?;
        let mut line = String::new();
        self.replies.read_line(&mut line)?;
        let ctx_switches = line
            .trim()
            .strip_prefix("rusage ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad rusage reply {line:?}")))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the whole line.
        let stat = self.proc_file("stat")?;
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
            return Err(io::Error::other("unreadable /proc/<pid>/stat"));
        };
        let forks = std::fs::read_to_string("/proc/stat")?
            .lines()
            .find_map(|l| l.strip_prefix("processes "))
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| io::Error::other("no processes line in /proc/stat"))?;
        Ok(Sample {
            cpu_ms: (utime + stime) * 1000.0 / USER_HZ,
            ctx_switches,
            forks,
        })
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        self.proc_file("status")?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// Closes the control channel (the child then shuts its server down)
    /// and waits for the child, killing it if it does not exit in time.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.control.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::other("server child did not exit; killed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
