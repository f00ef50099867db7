//! The serving core: one connection loop, one drain and one accept loop
//! over any [`Dispatcher`].
//!
//! Two dispatchers sit behind the wire protocol: the [`SweepServer`]
//! (admission, pinning and streaming on a local session) and the
//! [`Coordinator`] (ring placement and forwarding to backend servers).
//! A dispatcher turns a sweep request into a [`Job`] that yields exactly
//! one [`Outcome`] per grid point; everything a client sees is written
//! here, once, for both.
//!
//! Each connection runs [`serve_connection`]: a reader loop that parses
//! request lines and, per sweep, a *drainer* thread that copies the job's
//! outcomes to the connection writer as tagged `point` lines (stream mode)
//! or in grid order once complete (batch mode), followed by a `done`
//! line.  Because every line is tagged with its request id, a client may
//! keep several sweeps in flight and cancel any of them mid-flight.
//!
//! [`SweepServer`]: crate::SweepServer
//! [`Coordinator`]: crate::Coordinator

use crate::protocol::{
    parse_request, CacheAction, DeliveryMode, DoneStatus, Request, Response, ShutdownMode,
    SweepRequest,
};
use dae_isa::Cycle;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How one grid point of a [`Job`] settled.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The point finished; `cached` when a sweep-result cache answered it.
    Point {
        /// The simulated (or analytic) execution time.
        cycles: Cycle,
        /// Whether the result came from a sweep-result cache.
        cached: bool,
    },
    /// The point was dropped before it was simulated.
    Skipped,
    /// The point's simulation was aborted mid-run.
    Aborted,
    /// The point's simulation failed (a worker panic).
    Failed {
        /// Why, without the `point <i> failed:` framing.
        message: String,
    },
}

/// What a bounded wait on a [`Job`] returns.
#[derive(Debug)]
pub enum Wait {
    /// The point at this grid index settled.
    Settled(usize, Outcome),
    /// The deadline passed with points still unsettled.
    TimedOut,
    /// Every point has settled.
    Exhausted,
}

/// Cancels a submitted [`Job`] from any thread: its pending points settle
/// as skipped, its running points abort.
pub type Canceller = Arc<dyn Fn() + Send + Sync>;

/// One submitted sweep: yields exactly one [`Outcome`] per grid point, in
/// completion order, whatever cancels or fails along the way.
pub trait Job: Send {
    /// The next settled point, waiting until `deadline` at most (without
    /// bound when `None`).
    fn next(&mut self, deadline: Option<Instant>) -> Wait;

    /// A handle that cancels this job.
    fn canceller(&self) -> Canceller;
}

/// A back end for the wire protocol.  The connection loop, the drain and
/// the accept loops are written once against this trait.
pub trait Dispatcher: Send + Sync + 'static {
    /// Registers a client connection and returns its id; `0` means the
    /// dispatcher does not track clients.
    fn connect(&self) -> u64 {
        0
    }

    /// Forgets a client registered by [`Dispatcher::connect`].
    fn disconnect(&self, _client: u64) {}

    /// Submits a sweep on behalf of `client` (`0` for none).  `Err` is the
    /// reply that refuses it: a `busy` line or an `error` line.
    ///
    /// # Errors
    ///
    /// See above; nothing is queued on refusal.
    fn submit(&self, request: &SweepRequest, client: u64) -> Result<Box<dyn Job>, Response>;

    /// Counts one settled point in the dispatcher's fault-path counters.
    fn note_outcome(&self, _outcome: &Outcome) {}

    /// Counts one request whose deadline expired.
    fn note_timeout(&self);

    /// The fields of the `stats` reply.
    fn stats_fields(&self) -> Vec<(String, u64)>;

    /// Applies a `cache` administration request; returns the reply.
    fn cache_action(&self, action: CacheAction) -> Response;

    /// Stops admitting sweeps.  `Drain` lets in-flight work finish;
    /// `Abort` also cancels it (the `done` lines still arrive, balanced).
    fn shutdown(&self, mode: ShutdownMode);

    /// Whether a `shutdown` request has been accepted.
    fn is_shutting_down(&self) -> bool;

    /// Points submitted and not yet settled.
    fn in_flight(&self) -> usize;
}

pub(crate) fn write_line<W: Write>(writer: &Mutex<W>, response: &Response) -> bool {
    // Poison recovery: a writer is a byte sink whose worst torn state is a
    // partial line on a connection that is being abandoned anyway.
    let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
    // A failed write means the client went away; callers use the signal to
    // cancel the work they were relaying.
    writeln!(writer, "{response}")
        .and_then(|()| writer.flush())
        .is_ok()
}

/// Submits a sweep unless the dispatcher is shutting down.
fn submit<D: Dispatcher>(
    dispatcher: &D,
    request: &SweepRequest,
    client: u64,
) -> Result<Box<dyn Job>, Response> {
    if dispatcher.is_shutting_down() {
        return Err(Response::Error {
            id: Some(request.id.clone()),
            message: "server is shutting down; not accepting new sweeps".to_string(),
        });
    }
    dispatcher.submit(request, client)
}

/// Drains one job to the shared connection writer: `point` lines
/// (immediately in stream mode, sorted into grid order in batch mode),
/// `error` lines for points whose simulation failed, and finally the
/// request's `done` accounting line with its terminal status.
///
/// A deadline, when present, bounds the whole drain: on expiry the job is
/// cancelled (running points abort mid-simulation) and the residue is
/// collected with `status=timeout`.  A failed client write likewise
/// cancels the job — dead-client cleanup stops simulating what no one
/// will read, *including* the points already running.
fn drain<D: Dispatcher, W: Write>(
    dispatcher: &D,
    mut job: Box<dyn Job>,
    request: &SweepRequest,
    mode: DeliveryMode,
    deadline_ms: Option<u64>,
    writer: &Mutex<W>,
) {
    let grid = request.grid();
    let cancel = job.canceller();
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut timed_out = false;
    let (mut delivered, mut dropped, mut aborted, mut failed, mut cached) = (0, 0, 0, 0, 0);
    // Batch lines keyed by grid index; failures key last, and the stable
    // sort keeps them in arrival order after the points.
    let mut batched: Vec<(usize, Response)> = Vec::new();
    loop {
        let (index, outcome) = match job.next(deadline.filter(|_| !timed_out)) {
            Wait::Settled(index, outcome) => (index, outcome),
            Wait::Exhausted => break,
            Wait::TimedOut => {
                // Budget spent: cancel (running points abort at their next
                // engine poll) and drain the residue without a deadline —
                // it settles in microseconds.
                timed_out = true;
                dispatcher.note_timeout();
                cancel();
                continue;
            }
        };
        dispatcher.note_outcome(&outcome);
        let (key, line) = match outcome {
            Outcome::Point {
                cycles,
                cached: hit,
            } => {
                delivered += 1;
                cached += u64::from(hit);
                let (machine, window, md) = grid[index];
                let point = Response::Point {
                    id: request.id.clone(),
                    index,
                    machine,
                    window,
                    md,
                    cycles,
                };
                (index, point)
            }
            Outcome::Skipped => {
                dropped += 1;
                continue;
            }
            Outcome::Aborted => {
                aborted += 1;
                continue;
            }
            Outcome::Failed { message } => {
                failed += 1;
                let error = Response::Error {
                    id: Some(request.id.clone()),
                    message: format!("point {index} failed: {message}"),
                };
                (usize::MAX, error)
            }
        };
        match mode {
            // A failed write means the client is gone: stop simulating
            // what no one will read.  The job still drains, keeping the
            // accounting consistent.
            DeliveryMode::Stream => {
                if !write_line(writer, &line) {
                    cancel();
                }
            }
            DeliveryMode::Batch => batched.push((key, line)),
        }
    }
    batched.sort_by_key(|&(key, _)| key);
    for (_, line) in &batched {
        write_line(writer, line);
    }
    // One status per request, by severity (see `DoneStatus`).
    let status = if timed_out {
        DoneStatus::Timeout
    } else if failed > 0 {
        DoneStatus::Error
    } else if dropped + aborted > 0 {
        DoneStatus::Cancelled
    } else {
        DoneStatus::Ok
    };
    let _ = write_line(
        writer,
        &Response::Done {
            id: request.id.clone(),
            points: grid.len(),
            delivered,
            dropped,
            aborted,
            failed,
            cached,
            status,
        },
    );
}

/// A parsed request line, sorted by what the caller must do with it.
enum Step {
    /// Write this reply.
    Reply(Response),
    /// Write this reply and stop reading (`shutdown`).
    Stop(Response),
    /// Cancel the request with this id.
    Cancel(String),
    /// Submit this sweep.
    Sweep(SweepRequest),
}

/// Parses one request line and answers the verbs that need no job.
fn step<D: Dispatcher>(dispatcher: &D, line: &str) -> Step {
    match parse_request(line) {
        Err(e) => Step::Reply(Response::Error {
            id: e.id,
            message: e.message,
        }),
        Ok(Request::Stats) => Step::Reply(Response::Stats {
            fields: dispatcher.stats_fields(),
        }),
        Ok(Request::Cache { action }) => Step::Reply(dispatcher.cache_action(action)),
        Ok(Request::Shutdown { mode }) => {
            dispatcher.shutdown(mode);
            Step::Stop(Response::Shutdown { mode })
        }
        Ok(Request::Cancel { id }) => Step::Cancel(id),
        Ok(Request::Sweep(request)) => Step::Sweep(request),
    }
}

/// Serves one client connection: reads newline-delimited requests from
/// `reader` until end of file, writes tagged responses to `writer`.
/// Several sweeps may be in flight at once (each drains on its own
/// thread); the call returns once the input is exhausted *and* every
/// submitted sweep has written its `done` line.
///
/// The connection registers as a client of the dispatcher: on a
/// [`SweepServer`](crate::SweepServer) its sweeps are bounded by
/// [`ServerLimits::max_client_in_flight`](crate::ServerLimits) and its
/// live point count appears in `stats` as `client_<id>=`.  A `shutdown`
/// request stops the dispatcher admitting new sweeps and, in abort mode,
/// cancels in-flight work everywhere; this connection then stops reading
/// further requests (its in-flight drainers still finish).
///
/// # Errors
///
/// Propagates read errors on the request stream; client-side write errors
/// only stop the affected response stream.
pub fn serve_connection<D, R, W>(dispatcher: &Arc<D>, reader: R, writer: W) -> io::Result<()>
where
    D: Dispatcher,
    R: BufRead,
    W: Write + Send,
{
    let dispatcher: &D = dispatcher;
    let writer = Mutex::new(writer);
    let client = dispatcher.connect();
    // Scoped drainer threads: every submitted sweep is joined (its `done`
    // line written) before this call returns, even on a read error.
    let result = std::thread::scope(|scope| {
        let mut active: HashMap<String, (Canceller, Arc<AtomicBool>)> = HashMap::new();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let reply = match step(dispatcher, &line) {
                Step::Reply(reply) => reply,
                Step::Stop(reply) => {
                    write_line(&writer, &reply);
                    // Nothing this connection could send would be
                    // admitted.  The scope still joins the in-flight
                    // drainers, so their `done` lines land.
                    break;
                }
                Step::Cancel(id) => match active.get(&id) {
                    Some((cancel, finished)) if !finished.load(Ordering::Acquire) => {
                        cancel();
                        Response::Cancelled { id }
                    }
                    _ => Response::Error {
                        id: Some(id),
                        message: "no such active request".to_string(),
                    },
                },
                Step::Sweep(request) => {
                    active.retain(|_, (_, finished)| !finished.load(Ordering::Acquire));
                    let submitted = if active.contains_key(&request.id) {
                        Err(Response::Error {
                            id: Some(request.id.clone()),
                            message: "request id already active".to_string(),
                        })
                    } else {
                        submit(dispatcher, &request, client)
                    };
                    match submitted {
                        Err(refusal) => refusal,
                        Ok(job) => {
                            let finished = Arc::new(AtomicBool::new(false));
                            active.insert(
                                request.id.clone(),
                                (job.canceller(), Arc::clone(&finished)),
                            );
                            let writer = &writer;
                            scope.spawn(move || {
                                let (mode, deadline) = (request.mode, request.deadline_ms);
                                drain(dispatcher, job, &request, mode, deadline, writer);
                                finished.store(true, Ordering::Release);
                            });
                            continue;
                        }
                    }
                }
            };
            write_line(&writer, &reply);
        }
        Ok(())
    });
    dispatcher.disconnect(client);
    result
}

/// Runs the same requests *sequentially in-process* — each sweep drains to
/// completion, in grid order, before the next line is read — producing the
/// canonical output the streamed paths are diffed against (the `--local`
/// mode of the binary, used by `scripts/serve_smoke.sh`).  `cancel` is
/// rejected (nothing is ever in flight here); `shutdown` stops reading.
///
/// # Errors
///
/// Propagates read and write errors.
pub fn serve_local<D, R, W>(dispatcher: &Arc<D>, reader: R, mut writer: W) -> io::Result<()>
where
    D: Dispatcher,
    R: BufRead,
    W: Write,
{
    let dispatcher: &D = dispatcher;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = match step(dispatcher, &line) {
            Step::Reply(reply) => reply,
            Step::Stop(reply) => {
                writeln!(writer, "{reply}")?;
                return Ok(());
            }
            Step::Cancel(id) => Response::Error {
                id: Some(id),
                message: "local mode runs requests to completion; nothing to cancel".to_string(),
            },
            Step::Sweep(request) => match submit(dispatcher, &request, 0) {
                Ok(job) => {
                    // Batch-order delivery regardless of the requested
                    // mode: local output is the order-independent oracle.
                    // Deadlines are ignored here for the same reason.
                    let lock = Mutex::new(&mut writer);
                    drain(dispatcher, job, &request, DeliveryMode::Batch, None, &lock);
                    continue;
                }
                Err(Response::Busy {
                    id, queued, limit, ..
                }) => Response::Error {
                    id: Some(id),
                    message: format!("server busy ({queued} of {limit} points queued)"),
                },
                Err(refusal) => refusal,
            },
        };
        writeln!(writer, "{reply}")?;
    }
    Ok(())
}

/// How often the accept loop wakes to check for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// An accepted socket the accept loop can serve.
trait Connection: Read + Write + Send + Sized + 'static {
    /// Switches the socket back to blocking and returns a second handle
    /// for its read half.
    fn read_half(&self) -> io::Result<Self>;
}

impl Connection for TcpStream {
    fn read_half(&self) -> io::Result<Self> {
        self.set_nonblocking(false)?;
        self.try_clone()
    }
}

#[cfg(unix)]
impl Connection for std::os::unix::net::UnixStream {
    fn read_half(&self) -> io::Result<Self> {
        self.set_nonblocking(false)?;
        self.try_clone()
    }
}

/// Accepts connections until a `shutdown` request arrives (from any
/// connection), serving each on its own thread.  `accept` must not block:
/// with no libc binding there is no signal handling, and a blocking
/// accept would pin the process past the shutdown verb.
fn accept_loop<D: Dispatcher, C: Connection>(
    dispatcher: &Arc<D>,
    accept: impl Fn() -> io::Result<C>,
) -> io::Result<()> {
    loop {
        if dispatcher.is_shutting_down() {
            return Ok(());
        }
        match accept() {
            Ok(connection) => {
                let dispatcher = Arc::clone(dispatcher);
                std::thread::spawn(move || {
                    if let Ok(read_half) = connection.read_half() {
                        let _ =
                            serve_connection(&dispatcher, BufReader::new(read_half), connection);
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) => return Err(e),
        }
    }
}

/// Accepts TCP connections until shutdown, serving each on its own thread
/// over the shared dispatcher.  Returns once shutdown begins; the binary
/// then waits for in-flight work ([`await_drained`]) before exiting.
///
/// # Errors
///
/// Propagates accept errors (per-connection I/O errors only end that
/// connection).
pub fn serve_tcp<D: Dispatcher>(dispatcher: &Arc<D>, listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(dispatcher, || {
        listener.accept().map(|(connection, _)| connection)
    })
}

/// Accepts Unix-domain connections until shutdown (see [`serve_tcp`]).
///
/// # Errors
///
/// Propagates accept errors (per-connection I/O errors only end that
/// connection).
#[cfg(unix)]
pub fn serve_unix<D: Dispatcher>(
    dispatcher: &Arc<D>,
    listener: &std::os::unix::net::UnixListener,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(dispatcher, || {
        listener.accept().map(|(connection, _)| connection)
    })
}

/// Blocks until every submitted point has settled or `timeout` passes —
/// the exit path of the socket modes after shutdown.  Returns whether the
/// dispatcher drained.
pub fn await_drained<D: Dispatcher>(dispatcher: &Arc<D>, timeout: Duration) -> bool {
    let give_up = Instant::now() + timeout;
    while dispatcher.in_flight() > 0 {
        if Instant::now() >= give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}
