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
//! request lines and, per sweep, a *drain* that copies the job's outcomes
//! to the connection writer as tagged `point` lines (stream mode) or in
//! grid order once complete (batch mode), followed by a `done` line.  A
//! sweep that settled at submit is drained by the reader loop itself;
//! only one that must wait moves to a drainer thread.  Lines that settle
//! together leave in one write.  Because every line is tagged with its
//! request id, a client may keep several sweeps in flight and cancel any
//! of them mid-flight.
//!
//! [`SweepServer`]: crate::SweepServer
//! [`Coordinator`]: crate::Coordinator

use crate::protocol::{
    parse_request, CacheAction, DeliveryMode, DoneStatus, Request, Response, ShutdownMode,
    SweepRequest,
};
use dae_core::{Machine, WindowSpec};
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

/// A connection's writer, shared by its reader thread and its drainers.
///
/// Each [`Burst::send`] formats its lines into one reused buffer and hands
/// them to the writer as a single `write_all` plus `flush`: on a socket,
/// lines that settled together leave in one segment instead of one small
/// `send` per `Display` fragment.
struct Burst<W> {
    out: Mutex<(W, Vec<u8>)>,
}

impl<W: Write> Burst<W> {
    fn new(writer: W) -> Self {
        Burst {
            out: Mutex::new((writer, Vec::new())),
        }
    }

    /// Writes `lines` as one burst.  An error means the client went away;
    /// callers use the signal to cancel the work they were relaying.
    fn send(&self, lines: &[Response]) -> io::Result<()> {
        // Poison recovery: the buffer is cleared before every use, and the
        // writer is a byte sink whose worst torn state is a partial line on
        // a connection that is being abandoned anyway.
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let (writer, buf) = &mut *out;
        buf.clear();
        for line in lines {
            // Formatting into a `Vec` cannot fail.
            let _ = writeln!(buf, "{line}");
        }
        writer.write_all(buf).and_then(|()| writer.flush())
    }
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

/// Points settled so far, by how they settled.
#[derive(Default)]
struct Tally {
    delivered: usize,
    dropped: usize,
    aborted: usize,
    failed: usize,
    cached: u64,
}

/// Relays one job to its connection's writer: `point` lines (as they
/// settle in stream mode, sorted into grid order in batch mode), `error`
/// lines for points whose simulation failed, and finally the request's
/// `done` accounting line with its terminal status.
///
/// The drain is resumable.  [`Drain::pump`] writes whatever has settled
/// and, when asked not to block, stops at the first outcome it would have
/// to wait for, so the connection thread can finish a job that settled at
/// submit (cache hits) without a drainer thread.  Lines settled between
/// two waits leave as one burst: stream mode never holds a settled line
/// across a wait, and the last lines leave together with the `done`.
///
/// A deadline, when present, bounds the whole drain: on expiry the job is
/// cancelled (running points abort mid-simulation) and the residue is
/// collected with `status=timeout`.  A failed client write likewise
/// cancels the job — dead-client cleanup stops simulating what no one
/// will read, *including* the points already running.
struct Drain<'a, D, W> {
    dispatcher: &'a D,
    writer: &'a Burst<W>,
    job: Box<dyn Job>,
    cancel: Canceller,
    id: String,
    grid: Vec<(Machine, WindowSpec, Cycle)>,
    mode: DeliveryMode,
    deadline: Option<Instant>,
    timed_out: bool,
    tally: Tally,
    /// Batch lines keyed by grid index; failures key last, and the stable
    /// sort keeps them in arrival order after the points.
    batched: Vec<(usize, Response)>,
    /// Lines settled since the last burst.
    unsent: Vec<Response>,
}

impl<'a, D: Dispatcher, W: Write> Drain<'a, D, W> {
    fn new(
        dispatcher: &'a D,
        writer: &'a Burst<W>,
        job: Box<dyn Job>,
        request: &SweepRequest,
        mode: DeliveryMode,
        deadline_ms: Option<u64>,
    ) -> Self {
        Drain {
            dispatcher,
            writer,
            cancel: job.canceller(),
            job,
            id: request.id.clone(),
            grid: request.grid(),
            mode,
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            timed_out: false,
            tally: Tally::default(),
            batched: Vec::new(),
            unsent: Vec::new(),
        }
    }

    /// Relays settled outcomes until the job is exhausted — then writes
    /// the closing burst and returns `true` — or, when `block` is false,
    /// until the next outcome is not ready yet (returns `false`).
    fn pump(&mut self, block: bool) -> bool {
        loop {
            // Poll first: a `TimedOut` from an already-passed deadline
            // means only "nothing is ready".
            let wait = match self.job.next(Some(Instant::now())) {
                Wait::TimedOut => {
                    self.flush();
                    if !block {
                        return false;
                    }
                    self.job.next(self.deadline.filter(|_| !self.timed_out))
                }
                ready => ready,
            };
            match wait {
                Wait::Settled(index, outcome) => self.settle(index, outcome),
                Wait::Exhausted => {
                    self.finish();
                    return true;
                }
                // Only the real wait above can expire the budget: cancel
                // (running points abort at their next engine poll) and
                // drain the residue without a deadline — it settles in
                // microseconds.
                Wait::TimedOut => {
                    self.timed_out = true;
                    self.dispatcher.note_timeout();
                    (self.cancel)();
                }
            }
        }
    }

    /// Counts one settled point and queues its line, if it has one.
    fn settle(&mut self, index: usize, outcome: Outcome) {
        self.dispatcher.note_outcome(&outcome);
        let tally = &mut self.tally;
        let (key, line) = match outcome {
            Outcome::Point {
                cycles,
                cached: hit,
            } => {
                tally.delivered += 1;
                tally.cached += u64::from(hit);
                let (machine, window, md) = self.grid[index];
                let point = Response::Point {
                    id: self.id.clone(),
                    index,
                    machine,
                    window,
                    md,
                    cycles,
                };
                (index, point)
            }
            Outcome::Skipped => {
                tally.dropped += 1;
                return;
            }
            Outcome::Aborted => {
                tally.aborted += 1;
                return;
            }
            Outcome::Failed { message } => {
                tally.failed += 1;
                let error = Response::Error {
                    id: Some(self.id.clone()),
                    message: format!("point {index} failed: {message}"),
                };
                (usize::MAX, error)
            }
        };
        match self.mode {
            DeliveryMode::Stream => self.unsent.push(line),
            DeliveryMode::Batch => self.batched.push((key, line)),
        }
    }

    /// Writes the lines settled since the last burst.  A failed write
    /// means the client is gone: stop simulating what no one will read.
    /// The job still drains, keeping the accounting consistent.
    fn flush(&mut self) {
        if self.unsent.is_empty() {
            return;
        }
        if self.writer.send(&self.unsent).is_err() {
            (self.cancel)();
        }
        self.unsent.clear();
    }

    /// Writes the closing burst: the unsent (stream) or grid-ordered
    /// (batch) lines, then the `done` line.
    fn finish(&mut self) {
        self.batched.sort_by_key(|&(key, _)| key);
        self.unsent
            .extend(self.batched.drain(..).map(|(_, line)| line));
        let tally = &self.tally;
        // One status per request, by severity (see `DoneStatus`).
        let status = if self.timed_out {
            DoneStatus::Timeout
        } else if tally.failed > 0 {
            DoneStatus::Error
        } else if tally.dropped + tally.aborted > 0 {
            DoneStatus::Cancelled
        } else {
            DoneStatus::Ok
        };
        self.unsent.push(Response::Done {
            id: self.id.clone(),
            points: self.grid.len(),
            delivered: tally.delivered,
            dropped: tally.dropped,
            aborted: tally.aborted,
            failed: tally.failed,
            cached: tally.cached,
            status,
        });
        let _ = self.writer.send(&self.unsent);
        self.unsent.clear();
    }
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
    let writer = Burst::new(writer);
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
                    let _ = writer.send(&[reply]);
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
                            let mut drain = Drain::new(
                                dispatcher,
                                &writer,
                                job,
                                &request,
                                request.mode,
                                request.deadline_ms,
                            );
                            // A job that settled at submit (cache hits) is
                            // written here; only one that would block gets
                            // a drainer thread.
                            if !drain.pump(false) {
                                let finished = Arc::new(AtomicBool::new(false));
                                active.insert(
                                    request.id,
                                    (Arc::clone(&drain.cancel), Arc::clone(&finished)),
                                );
                                scope.spawn(move || {
                                    drain.pump(true);
                                    finished.store(true, Ordering::Release);
                                });
                            }
                            continue;
                        }
                    }
                }
            };
            let _ = writer.send(&[reply]);
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
pub fn serve_local<D, R, W>(dispatcher: &Arc<D>, reader: R, writer: W) -> io::Result<()>
where
    D: Dispatcher,
    R: BufRead,
    W: Write,
{
    let dispatcher: &D = dispatcher;
    let writer = Burst::new(writer);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = match step(dispatcher, &line) {
            Step::Reply(reply) => reply,
            Step::Stop(reply) => {
                writer.send(&[reply])?;
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
                    Drain::new(
                        dispatcher,
                        &writer,
                        job,
                        &request,
                        DeliveryMode::Batch,
                        None,
                    )
                    .pump(true);
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
        writer.send(&[reply])?;
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
        // Replies leave as whole bursts; Nagle would hold a burst's tail
        // until the client's delayed ACK.
        self.set_nodelay(true)?;
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
