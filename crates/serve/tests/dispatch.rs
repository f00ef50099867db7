//! The shared drain, driven through `serve_connection` by a scripted fake
//! [`Dispatcher`]: every front door computes its `done` lines here, so the
//! status order (timeout > error > cancelled > ok), the balance
//! `delivered + dropped + aborted + failed == points`, the batch layout
//! (points in grid order, then errors in arrival order) and the write
//! bursts (what settled together leaves in one write, before the drain
//! waits again) are pinned once, without a session or a socket.

use dae_serve::dispatch::{Canceller, Job, Outcome, Wait};
use dae_serve::{
    parse_response, serve_connection, serve_local, CacheAction, Dispatcher, DoneStatus, Response,
    ShutdownMode, SweepRequest,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One step of a fake job's script.
#[derive(Clone)]
enum Beat {
    /// The point at this grid index settles.
    Settle(usize, Outcome),
    /// Not ready yet: a probe (`Some(now)`) sees nothing, and the next
    /// wait, bounded or not, moves past it.
    Pause,
    /// Stuck until the deadline: a probe and a wait on an armed deadline
    /// both time out; only an unbounded wait moves past it.
    Stall,
}

/// What the connection did, in order: the fake jobs' real waits (not
/// their probes) and the writer's writes.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Wait,
    Write(String),
}

type Log = Arc<Mutex<Vec<Event>>>;

/// A dispatcher that answers each sweep from its id's script.
#[derive(Default)]
struct Fake {
    scripts: Mutex<HashMap<String, Vec<Beat>>>,
    timeouts: AtomicU64,
    noted: Mutex<Vec<Outcome>>,
    log: Log,
}

/// Plays its script; once cancelled, pauses and stalls vanish and every
/// remaining point settles as skipped, the way a real job drops pending
/// work.
struct FakeJob {
    beats: VecDeque<Beat>,
    cancelled: Arc<AtomicBool>,
    log: Log,
}

impl Job for FakeJob {
    fn next(&mut self, deadline: Option<Instant>) -> Wait {
        let cancelled = self.cancelled.load(Ordering::SeqCst);
        let probe = deadline.is_some_and(|at| at <= Instant::now());
        if !probe {
            self.log.lock().unwrap().push(Event::Wait);
        }
        loop {
            let beat = match self.beats.pop_front() {
                None => return Wait::Exhausted,
                Some(Beat::Settle(index, _)) if cancelled => {
                    return Wait::Settled(index, Outcome::Skipped)
                }
                Some(Beat::Settle(index, outcome)) => return Wait::Settled(index, outcome),
                Some(beat) => beat,
            };
            let holds = match beat {
                Beat::Pause => probe,
                _ => deadline.is_some(),
            };
            if holds && !cancelled {
                self.beats.push_front(beat);
                return Wait::TimedOut;
            }
        }
    }

    fn canceller(&self) -> Canceller {
        let cancelled = Arc::clone(&self.cancelled);
        Arc::new(move || cancelled.store(true, Ordering::SeqCst))
    }
}

impl Dispatcher for Fake {
    fn submit(&self, request: &SweepRequest, _client: u64) -> Result<Box<dyn Job>, Response> {
        let beats = self.scripts.lock().unwrap()[&request.id].clone();
        Ok(Box::new(FakeJob {
            beats: beats.into(),
            cancelled: Arc::new(AtomicBool::new(false)),
            log: Arc::clone(&self.log),
        }))
    }

    fn note_outcome(&self, outcome: &Outcome) {
        self.noted.lock().unwrap().push(outcome.clone());
    }

    fn note_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::SeqCst);
    }

    fn stats_fields(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    fn cache_action(&self, _action: CacheAction) -> Response {
        Response::Cache {
            entries: 0,
            limit: None,
        }
    }

    fn shutdown(&self, _mode: ShutdownMode) {}

    fn is_shutting_down(&self) -> bool {
        false
    }

    fn in_flight(&self) -> usize {
        0
    }
}

/// A client writer that logs every `write` call, and whose `fail_flush`-th
/// flush fails (the client "went away" mid-stream).
struct Recorder {
    log: Log,
    flushes: usize,
    fail_flush: usize,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let text = String::from_utf8(buf.to_vec()).expect("utf8");
        self.log.lock().unwrap().push(Event::Write(text));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flushes += 1;
        if self.flushes == self.fail_flush {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))
        } else {
            Ok(())
        }
    }
}

/// A four-point grid (indices 0..4) under `id`, with extra fields.
fn sweep(id: &str, extra: &str) -> String {
    format!(
        "sweep id={id} trace=TRFD iterations=60 machines=dm windows=16 mds=0,20,40,60 {extra}\n"
    )
}

fn point(index: usize, cycles: u64) -> Beat {
    Beat::Settle(
        index,
        Outcome::Point {
            cycles,
            cached: false,
        },
    )
}

fn failed(index: usize, message: &str) -> Beat {
    Beat::Settle(
        index,
        Outcome::Failed {
            message: message.to_string(),
        },
    )
}

/// Serves `line` over a fake holding `script`, returning the fake (whose
/// log holds the waits and writes) and the parsed output.
fn serve(line: &str, id: &str, script: Vec<Beat>, fail_flush: usize) -> (Fake, Vec<Response>) {
    let fake = Fake::default();
    fake.scripts.lock().unwrap().insert(id.to_string(), script);
    let fake = Arc::new(fake);
    let mut writer = Recorder {
        log: Arc::clone(&fake.log),
        flushes: 0,
        fail_flush,
    };
    serve_connection(&fake, line.as_bytes(), &mut writer).expect("serve");
    let fake = Arc::try_unwrap(fake).unwrap_or_else(|_| panic!("connection released the fake"));
    let responses = writes(&fake)
        .concat()
        .lines()
        .map(|l| parse_response(l).expect("well-formed response"))
        .collect();
    (fake, responses)
}

/// The fake's log, writes only.
fn writes(fake: &Fake) -> Vec<String> {
    fake.log
        .lock()
        .unwrap()
        .iter()
        .filter_map(|event| match event {
            Event::Write(text) => Some(text.clone()),
            Event::Wait => None,
        })
        .collect()
}

/// The fake's log with each write reduced to its lines' first words and
/// indices (`point 0`, `done`).
fn shape(fake: &Fake) -> Vec<Vec<String>> {
    fake.log
        .lock()
        .unwrap()
        .iter()
        .map(|event| match event {
            Event::Wait => vec!["wait".to_string()],
            Event::Write(text) => text
                .lines()
                .map(
                    |line| match parse_response(line).expect("well-formed response") {
                        Response::Point { index, .. } => format!("point {index}"),
                        Response::Done { .. } => "done".to_string(),
                        other => panic!("unexpected line {other:?}"),
                    },
                )
                .collect(),
        })
        .collect()
}

/// The `done` line's `(delivered, dropped, aborted, failed, status)`,
/// after checking it closes the output and balances.
fn done(responses: &[Response]) -> (usize, usize, usize, usize, DoneStatus) {
    let Some(Response::Done {
        points,
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    }) = responses.last()
    else {
        panic!("the output must end with a done line: {responses:?}");
    };
    assert_eq!(*points, 4);
    assert_eq!(delivered + dropped + aborted + failed, *points, "balance");
    (*delivered, *dropped, *aborted, *failed, *status)
}

#[test]
fn a_clean_grid_closes_ok() {
    let script = vec![point(2, 20), point(0, 10), point(3, 30), point(1, 15)];
    let (_, out) = serve(&sweep("ok", "mode=stream"), "ok", script, 0);
    assert_eq!(done(&out), (4, 0, 0, 0, DoneStatus::Ok));
    // Stream mode forwards in completion order.
    let order: Vec<usize> = out
        .iter()
        .filter_map(|r| match r {
            Response::Point { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    assert_eq!(order, vec![2, 0, 3, 1]);
}

#[test]
fn a_deadline_expiring_mid_grid_outranks_a_failure() {
    let script = vec![
        point(0, 10),
        failed(1, "boom"),
        Beat::Stall,
        point(2, 20),
        point(3, 30),
    ];
    let line = sweep("late", "mode=stream deadline_ms=60000");
    let (fake, out) = serve(&line, "late", script, 0);
    // The expiry cancels the job: the two unsettled points drop.
    assert_eq!(done(&out), (1, 2, 0, 1, DoneStatus::Timeout));
    assert_eq!(fake.timeouts.load(Ordering::SeqCst), 1);
    assert_eq!(fake.noted.lock().unwrap().len(), 4, "every outcome noted");
    assert!(out.iter().any(|r| matches!(
        r,
        Response::Error { message, .. } if message == "point 1 failed: boom"
    )));
}

#[test]
fn a_client_write_failure_cancels_the_rest_of_the_grid() {
    // The points settle apart, so each leaves in its own burst.
    let script = vec![
        point(0, 10),
        Beat::Pause,
        point(1, 15),
        Beat::Pause,
        point(2, 20),
        point(3, 30),
    ];
    // The second point line's flush fails: the job is cancelled and the
    // two points still pending settle as dropped.
    let (fake, out) = serve(&sweep("gone", "mode=stream"), "gone", script, 2);
    assert_eq!(done(&out), (2, 2, 0, 0, DoneStatus::Cancelled));
    assert_eq!(fake.timeouts.load(Ordering::SeqCst), 0);
}

#[test]
fn a_point_settled_at_submit_leaves_with_its_done_in_one_write() {
    let line = "sweep id=hit trace=TRFD iterations=60 machines=dm windows=16 mds=60 mode=stream\n";
    let script = vec![Beat::Settle(
        0,
        Outcome::Point {
            cycles: 10,
            cached: true,
        },
    )];
    let (fake, out) = serve(line, "hit", script, 0);
    // No wait at all: the connection thread wrote it inline.
    assert_eq!(shape(&fake), vec![vec!["point 0", "done"]]);
    assert!(matches!(
        out.last(),
        Some(Response::Done {
            points: 1,
            delivered: 1,
            cached: 1,
            status: DoneStatus::Ok,
            ..
        })
    ));
}

#[test]
fn a_batch_grid_is_one_write() {
    let script = vec![
        point(3, 30),
        Beat::Pause,
        point(1, 15),
        Beat::Pause,
        point(0, 10),
        Beat::Pause,
        point(2, 20),
    ];
    let (fake, out) = serve(&sweep("one", "mode=batch"), "one", script, 0);
    assert_eq!(done(&out), (4, 0, 0, 0, DoneStatus::Ok));
    assert_eq!(
        shape(&fake),
        vec![
            vec!["wait"],
            vec!["wait"],
            vec!["wait"],
            vec!["point 0", "point 1", "point 2", "point 3", "done"],
        ]
    );
}

#[test]
fn stream_points_that_settle_apart_leave_before_the_drain_waits_again() {
    let script = vec![
        point(0, 10),
        Beat::Pause,
        point(1, 15),
        point(2, 20),
        Beat::Pause,
        point(3, 30),
    ];
    let (fake, out) = serve(&sweep("apart", "mode=stream"), "apart", script, 0);
    assert_eq!(done(&out), (4, 0, 0, 0, DoneStatus::Ok));
    // What settled together leaves together; the last point leaves with
    // the done line.
    assert_eq!(
        shape(&fake),
        vec![
            vec!["point 0"],
            vec!["wait"],
            vec!["point 1", "point 2"],
            vec!["wait"],
            vec!["point 3", "done"],
        ]
    );
}

#[test]
fn batch_mode_orders_points_then_errors_and_failure_outranks_cancel() {
    let script = vec![
        point(3, 30),
        failed(2, "second"),
        Beat::Settle(1, Outcome::Aborted),
        point(0, 10),
    ];
    let (_, out) = serve(&sweep("b", "mode=batch"), "b", script, 0);
    assert_eq!(done(&out), (2, 0, 1, 1, DoneStatus::Error));
    let lines: Vec<String> = out.iter().map(ToString::to_string).collect();
    assert!(lines[0].starts_with("point id=b index=0 "), "{lines:?}");
    assert!(lines[1].starts_with("point id=b index=3 "), "{lines:?}");
    assert_eq!(lines[2], "error id=b msg=point 2 failed: second");
    assert_eq!(lines.len(), 4);
}

#[test]
fn batch_errors_follow_the_points_in_arrival_order() {
    let script = vec![
        failed(3, "first"),
        point(1, 15),
        failed(0, "second"),
        point(2, 20),
    ];
    let (_, out) = serve(&sweep("e", "mode=batch"), "e", script, 0);
    assert_eq!(done(&out), (2, 0, 0, 2, DoneStatus::Error));
    let lines: Vec<String> = out.iter().map(ToString::to_string).collect();
    assert!(lines[0].starts_with("point id=e index=1 "), "{lines:?}");
    assert!(lines[1].starts_with("point id=e index=2 "), "{lines:?}");
    assert_eq!(lines[2], "error id=e msg=point 3 failed: first");
    assert_eq!(lines[3], "error id=e msg=point 0 failed: second");
}

/// A writer whose every write fails with its own error.
struct Full;

impl Write for Full {
    fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(io::Error::other("disk full"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn local_mode_passes_on_the_writers_own_error() {
    let fake = Arc::new(Fake::default());
    let error = serve_local(&fake, "stats\n".as_bytes(), Full).expect_err("the write fails");
    assert_eq!(error.kind(), io::ErrorKind::Other);
    assert_eq!(error.to_string(), "disk full");
}
