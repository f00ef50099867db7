//! The `dae-serve` binary: a long-lived sweep server over one shared
//! [`dae_core::SweepSession`].
//!
//! ```text
//! dae-serve [--stdin]            serve newline-delimited requests on stdin,
//!                                responses on stdout (default; exits at EOF
//!                                once every sweep has finished)
//! dae-serve --tcp ADDR           listen on a TCP address (e.g. 127.0.0.1:7878)
//! dae-serve --unix PATH          listen on a Unix-domain socket
//! dae-serve --local FILE         run FILE's requests sequentially in-process
//!                                and print canonical grid-order output (the
//!                                oracle the smoke test diffs the served
//!                                output against)
//!       --no-cache               disable the session's sweep-result cache
//!       --cache-dir DIR          persist the sweep-result cache in DIR:
//!                                intact records are loaded on startup and
//!                                the resident set is compacted back on
//!                                clean exit, so a restarted server answers
//!                                previously-served grids without simulating
//!       --coordinator B1,B2,…    run as a shard coordinator over the listed
//!                                backend addresses instead of simulating
//!                                locally: grids are partitioned across the
//!                                backends by consistent hashing on each
//!                                point's sweep-cache key, and points lost to
//!                                a dead backend are re-dispatched to the
//!                                survivors (composes with every mode; the
//!                                session flags do not apply — caching
//!                                happens on the backends)
//! ```
//!
//! The wire format is specified in `docs/PROTOCOL.md`.  Diagnostics go to
//! stderr; stdout carries only protocol lines.
//!
//! The socket modes exit cleanly when any connection sends `shutdown`
//! (`mode=drain` finishes in-flight sweeps, `mode=abort` cancels them);
//! with no libc binding in the offline build there is no signal handler,
//! so the protocol verb is the supported shutdown path.

use dae_core::SweepSession;
use dae_serve::{
    await_drained, serve_connection, serve_local, serve_tcp, Coordinator, Dispatcher, SweepServer,
};
use std::fmt::Display;
use std::io::BufReader;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// How long the socket modes wait for in-flight work after shutdown.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

enum Mode {
    Stdin,
    Tcp(String),
    Unix(String),
    Local(String),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dae-serve [--stdin | --tcp ADDR | --unix PATH | --local FILE] \
         [--no-cache] [--cache-dir DIR] [--coordinator B1,B2,...]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut mode = Mode::Stdin;
    let mut cache = true;
    let mut cache_dir: Option<String> = None;
    let mut backends: Option<Vec<String>> = None;
    let mut session_flags = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdin" => mode = Mode::Stdin,
            "--tcp" => match args.next() {
                Some(addr) => mode = Mode::Tcp(addr),
                None => return usage(),
            },
            "--unix" => match args.next() {
                Some(path) => mode = Mode::Unix(path),
                None => return usage(),
            },
            "--local" => match args.next() {
                Some(path) => mode = Mode::Local(path),
                None => return usage(),
            },
            "--no-cache" => {
                cache = false;
                session_flags = true;
            }
            "--cache-dir" => match args.next() {
                Some(dir) => {
                    cache_dir = Some(dir);
                    session_flags = true;
                }
                None => return usage(),
            },
            "--coordinator" => match args.next() {
                Some(list) => {
                    let addrs: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(str::to_string)
                        .collect();
                    if addrs.is_empty() {
                        eprintln!("dae-serve: --coordinator needs at least one backend address");
                        return ExitCode::from(2);
                    }
                    backends = Some(addrs);
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if let Some(backends) = backends {
        // Coordinator mode owns no session: the session flags belong to the
        // backends.
        if session_flags {
            eprintln!(
                "dae-serve: --coordinator takes no session flags; \
                 pass --no-cache / --cache-dir to the backends instead"
            );
            return ExitCode::from(2);
        }
        return match Coordinator::connect(&backends) {
            Ok(coordinator) => {
                let label = format!("coordinating {} backends", backends.len());
                run(&Arc::new(coordinator), mode, &label, || Ok(()))
            }
            Err(e) => fail(e),
        };
    }

    if cache_dir.is_some() && !cache {
        eprintln!("dae-serve: --cache-dir needs the cache (drop --no-cache)");
        return ExitCode::from(2);
    }
    let mut session = SweepSession::new();
    session.set_cache_enabled(cache);
    let server = Arc::new(SweepServer::with_session(session));
    if let Some(dir) = &cache_dir {
        match server.attach_cache_store(std::path::Path::new(dir)) {
            Ok(loaded) => {
                eprintln!("dae-serve: cache store {dir} attached ({loaded} records loaded)")
            }
            Err(e) => return fail(format!("cannot attach cache store {dir}: {e}")),
        }
    }
    let label = format!("cache {}", if cache { "on" } else { "off" });
    run(&server, mode, &label, || match cache_dir {
        // Compact the persistent log down to the resident entries so the
        // next launch replays exactly the warm set.
        Some(_) => server
            .persist_cache()
            .map_err(|e| format!("cache store compaction failed: {e}")),
        None => Ok(()),
    })
}

/// Serves `mode` over either dispatcher, gives a shutdown's in-flight work
/// a bounded window to settle, then runs `on_exit` (which therefore sees
/// every exit path's work settled).
fn run<D: Dispatcher>(
    dispatcher: &Arc<D>,
    mode: Mode,
    label: &str,
    on_exit: impl FnOnce() -> Result<(), String>,
) -> ExitCode {
    let result = match mode {
        Mode::Stdin => {
            eprintln!("dae-serve: serving stdin ({label})");
            serve_connection(dispatcher, std::io::stdin().lock(), std::io::stdout())
        }
        Mode::Tcp(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                eprintln!(
                    "dae-serve: listening on tcp {} ({label})",
                    listener.local_addr().map_or(addr, |a| a.to_string()),
                );
                serve_tcp(dispatcher, &listener)
            }
            Err(e) => return fail(format!("cannot bind {addr}: {e}")),
        },
        Mode::Unix(path) => serve_unix_at(dispatcher, &path, label),
        Mode::Local(path) => match std::fs::File::open(&path) {
            Ok(file) => serve_local(dispatcher, BufReader::new(file), std::io::stdout()),
            Err(e) => return fail(format!("cannot open {path}: {e}")),
        },
    };
    // Socket modes return from their accept loops when a `shutdown`
    // request arrives; give the in-flight drainers a bounded window to
    // write their final `done` lines before the process exits.
    if dispatcher.is_shutting_down() && !await_drained(dispatcher, DRAIN_TIMEOUT) {
        return fail("shutdown drain timed out with work still queued");
    }
    if let Err(e) = on_exit() {
        return fail(e);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn fail(message: impl Display) -> ExitCode {
    eprintln!("dae-serve: {message}");
    ExitCode::FAILURE
}

#[cfg(unix)]
fn serve_unix_at<D: Dispatcher>(
    dispatcher: &Arc<D>,
    path: &str,
    label: &str,
) -> std::io::Result<()> {
    // A previous run's socket file would make the bind fail.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    eprintln!("dae-serve: listening on unix {path} ({label})");
    dae_serve::serve_unix(dispatcher, &listener)
}

#[cfg(not(unix))]
fn serve_unix_at<D: Dispatcher>(
    _dispatcher: &Arc<D>,
    _path: &str,
    _label: &str,
) -> std::io::Result<()> {
    Err(std::io::Error::other(
        "unix-domain sockets are not available on this platform",
    ))
}
