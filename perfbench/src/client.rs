//! The benchmark's side of the wire: building and launching `dae-serve`,
//! a plain line-protocol client, and per-request reply accounting.
//!
//! The client writes each request as one `write_all` of the line and its
//! `\n` on a default socket — no `TCP_NODELAY`, no batching of several
//! requests into one write — so whatever the server's own writes cost on
//! loopback TCP shows in the measurements.

use crate::points::{Oracle, Point};
use crate::stats::FAILED;
use dae_serve::{parse_response, DoneStatus, Response};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the `dae-serve` binary from the checkout in the working
/// directory (a no-op when it is fresh) and returns its path.
///
/// # Errors
///
/// Reports a failed build or a missing workspace.
pub fn dae_serve_binary() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/serve").is_dir() {
        return Err("run from the repository root: Cargo.toml / crates/serve not found".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "dae-serve",
            "--bin",
            "dae-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dae-serve failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let binary = Path::new(&target).join("release").join("dae-serve");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} missing after build", binary.display()))
    }
}

/// A running `dae-serve` process; dropping it kills and reaps it.
#[derive(Debug)]
pub struct ServeProcess {
    child: Child,
    /// The address the server reported it listens on.
    pub addr: SocketAddr,
}

impl ServeProcess {
    /// Starts `binary args…` with stderr to `log`, and waits until the
    /// server reports its listening address.
    ///
    /// # Errors
    ///
    /// Reports a failed spawn, an early exit or a startup timeout.
    pub fn spawn(binary: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start dae-serve: {e}"))?;
        let mut process = ServeProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .filter_map(|l| l.split("listening on tcp ").nth(1))
                .filter_map(|rest| rest.split_whitespace().next())
                .find_map(|a| a.parse().ok())
            {
                process.addr = addr;
                return Ok(process);
            }
            if let Ok(Some(status)) = process.child.try_wait() {
                return Err(format!(
                    "dae-serve {args:?} exited at startup ({status}): {text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "dae-serve {args:?} did not start listening: {text}"
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The process's peak resident set (`VmHWM`), in KiB.
    #[must_use]
    pub fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(&format!("/proc/{}/status", self.pid()))
    }

    /// Waits up to `timeout` for the process to exit on its own.
    pub fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the process to shut down (`shutdown` on a fresh connection
    /// unless it already exited) and waits for it; kills it if it does not
    /// exit within `timeout`.  Returns whether the exit was clean.
    pub fn shutdown(&mut self, timeout: Duration) -> bool {
        if self.wait_exit(Duration::ZERO) {
            return true;
        }
        if let Ok(mut conn) = LineConn::connect(self.addr) {
            let _ = conn.send("shutdown");
            let _ = conn.read_line(Some(Duration::from_secs(2)));
        }
        if self.wait_exit(timeout) {
            return true;
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/…/status` file, in KiB (0 when unreadable).
#[must_use]
pub fn vm_hwm_kb(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// A newline-delimited protocol connection.
#[derive(Debug)]
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    timeout: Option<Duration>,
    nonblocking: bool,
}

/// Waits shorter than this poll instead of blocking (see
/// [`LineConn::read_line`]).
const POLL_BELOW: Duration = Duration::from_millis(50);
/// The polling interval.
const POLL_STEP: Duration = Duration::from_micros(250);

impl LineConn {
    /// Connects to `addr`, retrying for a few seconds while the listener
    /// comes up.
    ///
    /// # Errors
    ///
    /// The last connect error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    return Ok(LineConn {
                        stream,
                        buf: Vec::with_capacity(1 << 16),
                        timeout: None,
                        nonblocking: false,
                    })
                }
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Writes one request line (a single write of the line and its `\n`).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// The next response line, waiting at most `timeout` (`None` waits
    /// indefinitely).  `Ok(None)` on timeout.
    ///
    /// Waits longer than [`POLL_BELOW`] block in the kernel until shortly
    /// before the deadline; shorter ones poll the socket every
    /// [`POLL_STEP`].  A socket read timeout overshoots by up to a kernel
    /// tick or two (8–12 ms for a 1 ms timeout was measured on the
    /// reference machine), and an open-loop generator must wake on time
    /// for its next request.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; end of stream is `UnexpectedEof`.
    pub fn read_line(&mut self, timeout: Option<Duration>) -> io::Result<Option<String>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                return Ok(Some(line));
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let polling = left.is_some_and(|l| l < POLL_BELOW);
            if polling != self.nonblocking {
                self.stream.set_nonblocking(polling)?;
                self.nonblocking = polling;
            }
            if !polling {
                let wait = left.map(|l| l - POLL_BELOW * 3 / 5);
                if wait != self.timeout {
                    self.stream.set_read_timeout(wait)?;
                    self.timeout = wait;
                }
            }
            let mut chunk = [0u8; 1 << 15];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    match left {
                        Some(l) if l.is_zero() => return Ok(None),
                        Some(l) if polling => std::thread::sleep(l.min(POLL_STEP)),
                        _ => {}
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a control line and returns the first reply line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a 30 s silence is `TimedOut`.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.read_line(Some(Duration::from_secs(30)))?
            .ok_or_else(|| io::ErrorKind::TimedOut.into())
    }

    /// The server's `stats` counters.
    ///
    /// # Errors
    ///
    /// Socket errors, or a reply that is not a `stats` line.
    pub fn stats(&mut self) -> io::Result<HashMap<String, u64>> {
        match parse_response(&self.call("stats")?) {
            Ok(Response::Stats { fields }) => Ok(fields.into_iter().collect()),
            other => Err(io::Error::other(format!("expected stats, got {other:?}"))),
        }
    }
}

/// `after - before` for one named counter (0 when absent).
#[must_use]
pub fn delta(before: &HashMap<String, u64>, after: &HashMap<String, u64>, name: &str) -> u64 {
    after
        .get(name)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(name).copied().unwrap_or(0))
}

/// One request in flight.
#[derive(Debug)]
struct Pending {
    due: Instant,
    class: usize,
    points: Vec<Point>,
    delivered: usize,
    failed: bool,
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finished {
    /// The request's class (workload-defined).
    pub class: usize,
    /// When the request was due (or sent, in a closed loop).
    pub due: Instant,
    /// Milliseconds from when the request was due to its last reply, or
    /// [`FAILED`].
    pub latency_ms: f64,
    /// Points delivered.
    pub points: usize,
    /// Delivered points answered from the cache.
    pub cached: u64,
    /// Trace instructions of the delivered points the server simulated.
    pub simulated_instructions: u64,
}

/// Reply accounting for the requests of one connection: checks each
/// `point` against the oracle and each `done` for balance, and classifies
/// every request as answered or failed.
#[derive(Debug, Default)]
pub struct Tracker {
    pending: HashMap<String, Pending>,
    /// `point` lines whose cycles differ from the oracle, or that name an
    /// unknown request or index.
    pub mismatches: u64,
    /// Reply lines no request could be charged with.
    pub stray: u64,
}

impl Tracker {
    /// Registers a request sent under `id`, due at `due`.
    pub fn insert(&mut self, id: String, due: Instant, class: usize, points: Vec<Point>) {
        self.pending.insert(
            id,
            Pending {
                due,
                class,
                points,
                delivered: 0,
                failed: false,
            },
        );
    }

    /// Requests still waiting for their last reply.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Ids of the requests still waiting.
    #[must_use]
    pub fn outstanding_ids(&self) -> Vec<String> {
        self.pending.keys().cloned().collect()
    }

    /// Abandons a request that never finished (counted as failed).
    pub fn abandon(&mut self, id: &str) -> Option<Finished> {
        self.pending.remove(id).map(|p| Finished {
            class: p.class,
            due: p.due,
            latency_ms: FAILED,
            points: p.delivered,
            cached: 0,
            simulated_instructions: 0,
        })
    }

    /// Accounts one reply line received at `now`; returns the request it
    /// finished, if any.
    pub fn on_line(&mut self, line: &str, now: Instant, oracle: &Oracle) -> Option<Finished> {
        match parse_response(line) {
            Ok(Response::Point {
                id, index, cycles, ..
            }) => {
                let Some(p) = self.pending.get_mut(&id) else {
                    self.stray += 1;
                    return None;
                };
                let expected = p.points.get(index).and_then(|pt| oracle.cycles.get(pt));
                if expected != Some(&cycles) {
                    self.mismatches += 1;
                }
                p.delivered += 1;
                None
            }
            Ok(Response::Done {
                id,
                points,
                delivered,
                dropped,
                aborted,
                failed,
                cached,
                status,
            }) => {
                let Some(p) = self.pending.remove(&id) else {
                    self.stray += 1;
                    return None;
                };
                let balanced = delivered + dropped + aborted + failed == points
                    && points == p.points.len()
                    && delivered == p.delivered;
                let ok = balanced && status == DoneStatus::Ok && !p.failed;
                let simulated = (delivered as u64).saturating_sub(cached);
                let per_point = p.points.first().map_or(0, |pt| oracle.instructions(pt));
                Some(Finished {
                    class: p.class,
                    due: p.due,
                    latency_ms: if ok {
                        crate::stats::ms(now.saturating_duration_since(p.due))
                    } else {
                        FAILED
                    },
                    points: delivered,
                    cached,
                    simulated_instructions: simulated * per_point,
                })
            }
            Ok(Response::Busy { id, .. }) => self.abandon(&id),
            Ok(Response::Error {
                id: Some(id),
                message,
            }) => {
                // A failed point is followed by its request's `done`; any
                // other error is the request's only reply.
                if message.starts_with("point ") {
                    if let Some(p) = self.pending.get_mut(&id) {
                        p.failed = true;
                    }
                    None
                } else {
                    self.abandon(&id)
                }
            }
            _ => {
                self.stray += 1;
                None
            }
        }
    }
}
