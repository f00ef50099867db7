//! The serving core, reached from the facade's suite: one request file
//! through the three front doors that share it — the sequential
//! `serve_local` oracle, `serve_connection` on a single in-process
//! `SweepServer`, and `serve_connection` on a `Coordinator` over two
//! in-process `serve_tcp` backends on loopback.  The `point` lines must
//! be identical across the three, and every `done` line must balance.
//! Over the wire, a cached point's round trip must not pay a delayed-ACK
//! stall on either the direct or the coordinated path.

use dae_serve::{
    parse_response, serve_connection, serve_local, serve_tcp, Coordinator, DoneStatus, Response,
    SweepServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stream and batch grids, an inline kernel, a repeated id, a cancel of
/// an id that was never submitted, and a `stats` line.
const REQUESTS: &str = "\
sweep id=s trace=TRFD iterations=60 machines=dm,swsm windows=8,32 mds=0,60 mode=stream
sweep id=b trace=MDG iterations=60 machines=dm,scalar windows=16,inf mds=60 mode=batch
sweep id=s trace=TRFD iterations=60 machines=dm,swsm windows=8,32 mds=0,60 mode=stream
cancel id=ghost
sweep id=k kernel=i;ld:%0;ld:%0;mul:%1,$0;add:%3,%2;st:%4,%0 iterations=80 machines=dm,swsm windows=16 mds=0,60 mode=batch
stats
";

/// A `SweepServer` accepting on an ephemeral loopback port.
fn backend() -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Arc::new(SweepServer::new());
    let accept = std::thread::spawn(move || {
        serve_tcp(&server, &listener).expect("backend accept loop");
    });
    (addr, accept)
}

/// The sorted, distinct `point` lines of one path's output, after
/// checking that every `done` balances and finished cleanly, that the
/// unknown cancel was refused, and that `stats` answered.
///
/// The repeated id is refused while its first submission is in flight
/// and served again once it has finished (always, in `serve_local`);
/// either way it adds no point line the first did not, so the lines are
/// compared as a set.
fn checked_points(path: &str, output: &[u8]) -> Vec<String> {
    let text = String::from_utf8(output.to_vec()).expect("utf8 output");
    let mut points = Vec::new();
    let (mut dones, mut stats, mut ghost) = (0, false, false);
    for line in text.lines() {
        match parse_response(line).expect("well-formed response") {
            Response::Point { .. } => points.push(line.to_string()),
            Response::Done {
                id,
                points,
                delivered,
                dropped,
                aborted,
                failed,
                status,
                ..
            } => {
                dones += 1;
                assert_eq!(
                    delivered + dropped + aborted + failed,
                    points,
                    "{path}: done for {id} must balance"
                );
                assert_eq!(delivered, points, "{path}: {id} delivers every point");
                assert_eq!(status, DoneStatus::Ok, "{path}: {id}");
            }
            Response::Error { id, message } => match id.as_deref() {
                Some("ghost") => ghost = true,
                Some("s") => assert!(message.contains("already active"), "{path}: {message}"),
                _ => panic!("{path}: unexpected error line: {line}"),
            },
            Response::Stats { .. } => stats = true,
            other => panic!("{path}: unexpected response: {other:?}"),
        }
    }
    assert!(
        (3..=4).contains(&dones),
        "{path}: one done per admitted sweep"
    );
    assert!(ghost, "{path}: the unknown cancel must be refused");
    assert!(stats, "{path}: stats must answer");
    points.sort();
    points.dedup();
    points
}

#[test]
fn local_server_and_coordinator_paths_serve_identical_points() {
    let mut local = Vec::new();
    serve_local(
        &Arc::new(SweepServer::new()),
        REQUESTS.as_bytes(),
        &mut local,
    )
    .expect("local serve");
    let mut single = Vec::new();
    serve_connection(
        &Arc::new(SweepServer::new()),
        REQUESTS.as_bytes(),
        &mut single,
    )
    .expect("single-server serve");

    let (addr_one, accept_one) = backend();
    let (addr_two, accept_two) = backend();
    let coordinator =
        Arc::new(Coordinator::connect(&[addr_one, addr_two]).expect("connect the fleet"));
    let mut sharded = Vec::new();
    serve_connection(&coordinator, REQUESTS.as_bytes(), &mut sharded).expect("coordinated serve");

    let expected = checked_points("serve_local", &local);
    assert_eq!(expected.len(), 8 + 4 + 4, "every grid point appears once");
    assert_eq!(checked_points("single server", &single), expected);
    assert_eq!(checked_points("coordinator", &sharded), expected);

    // The coordinator fans a shutdown out to both backends, whose accept
    // loops then return.
    serve_connection(&coordinator, "shutdown\n".as_bytes(), Vec::new()).expect("shutdown");
    accept_one.join().expect("backend one exits");
    accept_two.join().expect("backend two exits");
}

/// Sends `sweep id=<id> <grid>` in one write and reads until its `done`.
fn round_trip(stream: &mut TcpStream, reader: &mut impl BufRead, id: &str, grid: &str) {
    stream
        .write_all(format!("sweep id={id} {grid}\n").as_bytes())
        .expect("send a request");
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).expect("read a reply") > 0);
        match parse_response(line.trim_end()).expect("well-formed response") {
            Response::Point { .. } => {}
            Response::Done {
                id: done, status, ..
            } if done == id => {
                assert_eq!(status, DoneStatus::Ok, "{line}");
                return;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

/// The median round trip, in milliseconds, of ten back-to-back requests
/// for one point that a first request has already put in the cache.  The
/// client writes each request in one write and leaves Nagle on, like a
/// plain line client.
fn median_cached_round_trip_ms(addr: &str) -> f64 {
    let grid = "trace=TRFD iterations=60 machines=dm windows=16 mds=60 mode=stream";
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    round_trip(&mut stream, &mut reader, "fill", grid);
    let mut times: Vec<Duration> = (0..10)
        .map(|n| {
            let start = Instant::now();
            round_trip(&mut stream, &mut reader, &format!("r{n}"), grid);
            start.elapsed()
        })
        .collect();
    times.sort();
    (times[4] + times[5]).as_secs_f64() / 2.0 * 1e3
}

#[test]
fn cached_points_round_trip_without_a_delayed_ack_stall() {
    let (direct, accept_direct) = backend();
    let (addr_one, accept_one) = backend();
    let (addr_two, accept_two) = backend();
    let coordinator =
        Arc::new(Coordinator::connect(&[addr_one, addr_two]).expect("connect the fleet"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let coordinated = listener.local_addr().expect("local addr").to_string();
    let front = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || serve_tcp(&coordinator, &listener).expect("coordinator loop"))
    };

    // A delayed-ACK stall costs about 40 ms per hop.
    let direct_ms = median_cached_round_trip_ms(&direct);
    let coordinated_ms = median_cached_round_trip_ms(&coordinated);
    assert!(
        direct_ms < 20.0,
        "direct median round trip {direct_ms:.1} ms"
    );
    assert!(
        coordinated_ms < 20.0,
        "coordinated median round trip {coordinated_ms:.1} ms"
    );

    let mut stop = TcpStream::connect(&direct).expect("connect");
    stop.write_all(b"shutdown\n").expect("send shutdown");
    serve_connection(&coordinator, "shutdown\n".as_bytes(), Vec::new()).expect("shutdown");
    for accept in [accept_direct, accept_one, accept_two, front] {
        accept.join().expect("accept loop exits");
    }
}
