//! The shared drain, driven through `serve_connection` by a scripted fake
//! [`Dispatcher`]: every front door computes its `done` lines here, so the
//! status order (timeout > error > cancelled > ok), the balance
//! `delivered + dropped + aborted + failed == points` and the batch
//! layout (points in grid order, then errors in arrival order) are
//! pinned once, without a session or a socket.

use dae_serve::dispatch::{Canceller, Job, Outcome, Wait};
use dae_serve::{
    parse_response, serve_connection, CacheAction, Dispatcher, DoneStatus, Response, ShutdownMode,
    SweepRequest,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the fake yields for one request id.
#[derive(Clone)]
struct Script {
    /// `(grid index, outcome)` in completion order.
    outcomes: Vec<(usize, Outcome)>,
    /// With a deadline armed, report it expired after this many outcomes.
    stall_after: Option<usize>,
}

/// A dispatcher that answers each sweep from its id's script.
#[derive(Default)]
struct Fake {
    scripts: Mutex<HashMap<String, Script>>,
    timeouts: AtomicU64,
    noted: Mutex<Vec<Outcome>>,
}

/// Yields its script; once cancelled, every remaining point settles as
/// skipped, the way a real job drops pending work.
struct FakeJob {
    outcomes: VecDeque<(usize, Outcome)>,
    stall_after: Option<usize>,
    yielded: usize,
    cancelled: Arc<AtomicBool>,
}

impl Job for FakeJob {
    fn next(&mut self, deadline: Option<Instant>) -> Wait {
        let cancelled = self.cancelled.load(Ordering::SeqCst);
        if deadline.is_some() && !cancelled && self.stall_after == Some(self.yielded) {
            return Wait::TimedOut;
        }
        let Some((index, outcome)) = self.outcomes.pop_front() else {
            return Wait::Exhausted;
        };
        self.yielded += 1;
        if cancelled {
            Wait::Settled(index, Outcome::Skipped)
        } else {
            Wait::Settled(index, outcome)
        }
    }

    fn canceller(&self) -> Canceller {
        let cancelled = Arc::clone(&self.cancelled);
        Arc::new(move || cancelled.store(true, Ordering::SeqCst))
    }
}

impl Dispatcher for Fake {
    fn submit(&self, request: &SweepRequest, _client: u64) -> Result<Box<dyn Job>, Response> {
        let script = self.scripts.lock().unwrap()[&request.id].clone();
        Ok(Box::new(FakeJob {
            outcomes: script.outcomes.into(),
            stall_after: script.stall_after,
            yielded: 0,
            cancelled: Arc::new(AtomicBool::new(false)),
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

/// A client writer whose `fail_flush`-th flush fails (the client "went
/// away" mid-stream) while every line is still recorded.
struct FlakyWriter {
    bytes: Vec<u8>,
    flushes: usize,
    fail_flush: usize,
}

impl Write for FlakyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
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

fn point(cycles: u64) -> Outcome {
    Outcome::Point {
        cycles,
        cached: false,
    }
}

fn failed(message: &str) -> Outcome {
    Outcome::Failed {
        message: message.to_string(),
    }
}

/// Serves `line` over a fake holding `script`, returning the fake and the
/// parsed output.
fn serve(line: &str, id: &str, script: Script, fail_flush: usize) -> (Fake, Vec<Response>) {
    let fake = Fake::default();
    fake.scripts.lock().unwrap().insert(id.to_string(), script);
    let fake = Arc::new(fake);
    let mut writer = FlakyWriter {
        bytes: Vec::new(),
        flushes: 0,
        fail_flush,
    };
    serve_connection(&fake, line.as_bytes(), &mut writer).expect("serve");
    let text = String::from_utf8(writer.bytes).expect("utf8");
    let responses = text
        .lines()
        .map(|l| parse_response(l).expect("well-formed response"))
        .collect();
    let fake = Arc::try_unwrap(fake).unwrap_or_else(|_| panic!("connection released the fake"));
    (fake, responses)
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
    let script = Script {
        outcomes: vec![
            (2, point(20)),
            (0, point(10)),
            (3, point(30)),
            (1, point(15)),
        ],
        stall_after: None,
    };
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
    let script = Script {
        outcomes: vec![
            (0, point(10)),
            (1, failed("boom")),
            (2, point(20)),
            (3, point(30)),
        ],
        stall_after: Some(2),
    };
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
    let script = Script {
        outcomes: vec![
            (0, point(10)),
            (1, point(15)),
            (2, point(20)),
            (3, point(30)),
        ],
        stall_after: None,
    };
    // The second point line's flush fails: the job is cancelled and the
    // two points still pending settle as dropped.
    let (fake, out) = serve(&sweep("gone", "mode=stream"), "gone", script, 2);
    assert_eq!(done(&out), (2, 2, 0, 0, DoneStatus::Cancelled));
    assert_eq!(fake.timeouts.load(Ordering::SeqCst), 0);
}

#[test]
fn batch_mode_orders_points_then_errors_and_failure_outranks_cancel() {
    let script = Script {
        outcomes: vec![
            (3, point(30)),
            (2, failed("second")),
            (1, Outcome::Aborted),
            (0, point(10)),
        ],
        stall_after: None,
    };
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
    let script = Script {
        outcomes: vec![
            (3, failed("first")),
            (1, point(15)),
            (0, failed("second")),
            (2, point(20)),
        ],
        stall_after: None,
    };
    let (_, out) = serve(&sweep("e", "mode=batch"), "e", script, 0);
    assert_eq!(done(&out), (2, 0, 0, 2, DoneStatus::Error));
    let lines: Vec<String> = out.iter().map(ToString::to_string).collect();
    assert!(lines[0].starts_with("point id=e index=1 "), "{lines:?}");
    assert!(lines[1].starts_with("point id=e index=2 "), "{lines:?}");
    assert_eq!(lines[2], "error id=e msg=point 3 failed: first");
    assert_eq!(lines[3], "error id=e msg=point 0 failed: second");
}
