//! A client driving `dae-serve` end to end: starts the server on a
//! loopback socket, submits interleaved sweep requests from two
//! connections (a PERFECT trace and an inline daxpy kernel), repeats a
//! grid to show the sweep-result cache answering it, and verifies every
//! streamed line against an in-process `SweepSession`.
//!
//! Run with:
//! ```text
//! cargo run --release --example serve_client
//! ```
//! The wire format is specified in `docs/PROTOCOL.md`.

use dae::core::SweepSession;
use dae_serve::{parse_request, parse_response, serve_tcp, Request, Response, SweepServer};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Reads responses until `done` lines have arrived for every id in `ids`,
/// printing the transcript and returning per-id `(index → cycles, cached)`.
fn read_all(
    reader: &mut impl BufRead,
    ids: &[&str],
) -> HashMap<String, (HashMap<usize, u64>, u64)> {
    let mut collected: HashMap<String, (HashMap<usize, u64>, u64)> = ids
        .iter()
        .map(|&id| (id.to_string(), Default::default()))
        .collect();
    let mut outstanding = ids.len();
    while outstanding > 0 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read response") > 0);
        let line = line.trim_end();
        println!("  < {line}");
        match parse_response(line).expect("well-formed response") {
            Response::Point {
                id, index, cycles, ..
            } => {
                collected
                    .get_mut(&id)
                    .expect("known id")
                    .0
                    .insert(index, cycles);
            }
            Response::Done {
                id,
                points,
                delivered,
                dropped,
                cached,
                status,
                ..
            } => {
                assert_eq!(delivered, points, "nothing was cancelled here");
                assert_eq!(dropped, 0);
                assert_eq!(status, dae_serve::DoneStatus::Ok);
                collected.get_mut(&id).expect("known id").1 = cached;
                outstanding -= 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    collected
}

/// The in-process oracle for one request line.
fn oracle(line: &str) -> Vec<u64> {
    let Ok(Request::Sweep(request)) = parse_request(line) else {
        panic!("not a sweep request: {line}");
    };
    let mut session = SweepSession::new();
    let trace = request
        .source
        .trace(request.iterations)
        .expect("source expands");
    let id = session.pin_trace(&trace);
    session.sweep_multi(&request.points(id))
}

/// Sends one request line in a single write (a line written in pieces
/// would wait on the server's delayed ACK between them).
fn send(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
}

fn verify(line: &str, got: &HashMap<usize, u64>) {
    let expected = oracle(line);
    assert_eq!(got.len(), expected.len(), "{line}");
    for (index, cycles) in expected.iter().enumerate() {
        assert_eq!(got[&index], *cycles, "point {index} of '{line}'");
    }
}

fn main() {
    let trfd = "sweep id=trfd trace=TRFD iterations=200 machines=dm,swsm windows=8,32 mds=0,60 mode=stream";
    let daxpy = "sweep id=daxpy kernel=i;ld:%0;ld:%0;mul:%1,$0;add:%3,%2;st:%4,%0 iterations=200 machines=dm,swsm,scalar windows=16 mds=0,60 mode=batch";
    let repeat = "sweep id=again trace=TRFD iterations=200 machines=dm,swsm windows=8,32 mds=0,60 mode=stream";

    // The server half: the shared session behind a loopback listener.
    let server = Arc::new(SweepServer::new());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_tcp(&server, &listener);
        });
    }
    println!("server listening on {addr}");

    // Two clients submit concurrently; their grids interleave on the
    // shared session and every response line is tagged.
    let mut alice = TcpStream::connect(addr).expect("connect");
    let mut bob = TcpStream::connect(addr).expect("connect");
    alice.set_nodelay(true).expect("set no-delay");
    bob.set_nodelay(true).expect("set no-delay");
    let mut alice_reader = BufReader::new(alice.try_clone().expect("clone"));
    let mut bob_reader = BufReader::new(bob.try_clone().expect("clone"));

    println!("\nalice > {trfd}");
    send(&mut alice, trfd);
    println!("bob   > {daxpy}");
    send(&mut bob, daxpy);

    let from_alice = read_all(&mut alice_reader, &["trfd"]);
    let from_bob = read_all(&mut bob_reader, &["daxpy"]);
    verify(trfd, &from_alice["trfd"].0);
    verify(daxpy, &from_bob["daxpy"].0);

    // The same grid again (fresh request id): answered from the cache.
    println!("\nalice > {repeat}");
    send(&mut alice, repeat);
    let warm = read_all(&mut alice_reader, &["again"]);
    verify(repeat, &warm["again"].0);
    let (points, cached) = (&warm["again"].0, warm["again"].1);
    assert_eq!(
        cached,
        points.len() as u64,
        "the repeated grid must be answered entirely from the cache"
    );

    println!("\nalice > stats");
    send(&mut alice, "stats");
    let mut line = String::new();
    alice_reader.read_line(&mut line).expect("stats reply");
    println!("  < {}", line.trim_end());
    assert!(matches!(
        parse_response(line.trim_end()),
        Ok(Response::Stats { .. })
    ));

    println!(
        "\nOK: {} interleaved points verified bit-for-bit against an in-process \
         session; the repeated grid hit the cache on all {} points.",
        oracle(trfd).len() + oracle(daxpy).len() + oracle(repeat).len(),
        points.len()
    );
}
