//! `serve-open`: an open-loop schedule against one `dae-serve --tcp
//! --cache-dir` over two connections.
//!
//! Requests are sent when they are due, whatever is still outstanding, and
//! timed from when they were due, so a stall shows in every request queued
//! behind it.  Each connection is driven by one thread that writes due
//! requests and reads replies in between; how late it wrote each request
//! is recorded, and a run whose generator fell behind is refused.

use crate::client::{dae_serve_binary, delta, Finished, LineConn, ServeProcess, Tracker};
use crate::layers;
use crate::points::{Oracle, Point};
use crate::report::Report;
use crate::schedule::{self, Entry, Schedule, INTERACTIVE};
use crate::spans::{merge, write_tsv, Span, Tracer};
use crate::stats::{median, ms, percentile, windowed, FAILED};
use crate::{Options, SHUTDOWN_TIMEOUT};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The offered load, in requests per second: an eighth of the rate at
/// which bulk grids start to starve on the reference machine, leaving the
/// generator room to keep its schedule on two shared vCPUs (see
/// README.md, "Choosing the rate").
pub const RATE: f64 = 500.0;
/// Server launches per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The generator's 99th-percentile lateness may not exceed this.
pub const LATENESS_BOUND_MS: f64 = 10.0;
/// Consecutive windows the latency percentiles are taken over (each holds
/// at least 1000 interactive and 100 grid requests at the fixed rate and
/// a 20 s run).
const WINDOWS: usize = 5;
/// How long replies may trail the last due request.
const DRAIN: Duration = Duration::from_secs(60);

/// What one connection's thread saw.
#[derive(Debug, Default)]
struct ConnResult {
    finished: Vec<Finished>,
    lateness_ms: Vec<(Instant, f64)>,
    mismatches: u64,
    stray: u64,
    last_reply: Option<Instant>,
    spans: Vec<Span>,
}

/// Drives one connection through its share of the schedule.
fn drive(
    mut conn: LineConn,
    entries: &[&Entry],
    start: Instant,
    oracle: &Oracle,
    mut tracer: Tracer,
) -> Result<ConnResult, String> {
    let net = |e: std::io::Error| format!("serve-open connection: {e}");
    let mut tracker = Tracker::default();
    let mut result = ConnResult::default();
    let mut sent: HashMap<String, Instant> = HashMap::new();
    let root = tracer.enter("bench.open_loop", 0);
    let mut next = 0;
    let last_due = start + Duration::from_micros(entries.last().map_or(0, |e| e.due_us));
    while next < entries.len() || tracker.outstanding() > 0 {
        let now = Instant::now();
        if let Some(entry) = entries.get(next) {
            let due = start + Duration::from_micros(entry.due_us);
            if now >= due {
                conn.send(&entry.line()).map_err(net)?;
                result.lateness_ms.push((due, ms(now - due)));
                tracker.insert(entry.id.clone(), due, entry.class, entry.grid.points());
                sent.insert(entry.id.clone(), due);
                next += 1;
                continue;
            }
        }
        let wait = match entries.get(next) {
            Some(entry) => {
                (start + Duration::from_micros(entry.due_us)).saturating_duration_since(now)
            }
            None => {
                if now > last_due + DRAIN {
                    break;
                }
                Duration::from_millis(100)
            }
        };
        let Some(line) = conn.read_line(Some(wait)).map_err(net)? else {
            continue;
        };
        let at = Instant::now();
        result.last_reply = Some(at);
        if let Some(done) = tracker.on_line(&line, at, oracle) {
            result.finished.push(done);
        }
        if line.starts_with("done ") || line.starts_with("busy ") || line.starts_with("error ") {
            if let Some(id) = line
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.strip_prefix("id="))
            {
                if let Some(due) = sent.remove(id) {
                    tracer.record("serve.request", id_number(id), due, at);
                }
            }
        }
    }
    for id in tracker.outstanding_ids() {
        result.finished.extend(tracker.abandon(&id));
    }
    tracer.exit(root);
    result.mismatches = tracker.mismatches;
    result.stray = tracker.stray;
    result.spans = tracer.into_spans();
    Ok(result)
}

/// The numeric part of a request id (span request ids).
fn id_number(id: &str) -> u64 {
    id.trim_start_matches(|c: char| !c.is_ascii_digit())
        .parse()
        .unwrap_or(0)
}

/// A launched server and its first connection.
struct Launched {
    process: ServeProcess,
    conn: LineConn,
    setup: Duration,
}

/// Launches `dae-serve` on a fresh store and times launch → first answer
/// (the `cache limit=` request that bounds the cache for the run).
fn launch(binary: &Path, dir: &Path, log: &Path, limit: usize) -> Result<Launched, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let args = [
        "--tcp".to_string(),
        "127.0.0.1:0".to_string(),
        "--cache-dir".to_string(),
        dir.display().to_string(),
    ];
    let process = ServeProcess::spawn(binary, &args, log)?;
    let mut conn = LineConn::connect(process.addr).map_err(|e| format!("connect: {e}"))?;
    let reply = conn
        .call(&format!("cache limit={limit}"))
        .map_err(|e| format!("cache limit: {e}"))?;
    let setup = start.elapsed();
    if !reply.starts_with("cache ") {
        return Err(format!("unexpected reply to cache limit: {reply}"));
    }
    Ok(Launched {
        process,
        conn,
        setup,
    })
}

/// One pass of the schedule against a launched server.
struct Pass {
    results: Vec<ConnResult>,
    start: Instant,
    before: HashMap<String, u64>,
    after: HashMap<String, u64>,
    peak_rss_kb: u64,
}

fn pass(
    mut server: Launched,
    schedule: &Schedule,
    oracle: &Oracle,
    trace: bool,
    origin: Instant,
) -> Result<Pass, String> {
    let net = |e: std::io::Error| format!("serve-open: {e}");
    let before = server.conn.stats().map_err(net)?;
    let second = LineConn::connect(server.process.addr).map_err(net)?;
    let per_conn: Vec<Vec<&Entry>> = (0..2)
        .map(|c| schedule.entries.iter().filter(|e| e.conn == c).collect())
        .collect();
    // The first connection carries the control lines; the load runs over
    // two fresh ones so both are symmetric.
    let first = LineConn::connect(server.process.addr).map_err(net)?;
    let start = Instant::now() + Duration::from_millis(20);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = [first, second]
            .into_iter()
            .zip(&per_conn)
            .map(|(conn, entries)| {
                scope.spawn(move || drive(conn, entries, start, oracle, Tracer::new(trace, origin)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let after = server.conn.stats().map_err(net)?;
    let peak_rss_kb = server.process.peak_rss_kb();
    drop(server.conn);
    if !server.process.shutdown(SHUTDOWN_TIMEOUT) {
        eprintln!("serve-open: server did not exit after shutdown; killed");
    }
    Ok(Pass {
        results,
        start,
        before,
        after,
        peak_rss_kb,
    })
}

/// Splits `(due, value)` samples into [`WINDOWS`] consecutive windows of
/// the schedule.
fn split(
    samples: impl Iterator<Item = (Instant, f64)>,
    start: Instant,
    seconds: f64,
) -> Vec<Vec<f64>> {
    let mut windows = vec![Vec::new(); WINDOWS];
    for (due, value) in samples {
        let at = due.saturating_duration_since(start).as_secs_f64() / seconds;
        windows[((at * WINDOWS as f64) as usize).min(WINDOWS - 1)].push(value);
    }
    windows
}

/// The end-to-end numbers of a pass; sets `correct` false on a mismatch
/// or a late generator.  Latency percentiles (and the generator's
/// lateness) are medians over [`WINDOWS`] consecutive windows of the
/// schedule, each window's percentile computed on its own samples.
fn summarize(p: &Pass, report: &mut Report, seconds: f64, tails: bool) -> Result<Duration, String> {
    let finished: Vec<&Finished> = p.results.iter().flat_map(|r| &r.finished).collect();
    let last = p
        .results
        .iter()
        .filter_map(|r| r.last_reply)
        .max()
        .unwrap_or(p.start);
    let wall = last.saturating_duration_since(p.start);
    let lateness = split(
        p.results.iter().flat_map(|r| r.lateness_ms.iter().copied()),
        p.start,
        seconds,
    );
    let late = lateness
        .iter()
        .map(|w| percentile(w, 0.99).unwrap_or(0.0))
        .collect::<Vec<_>>();
    let late = median(&late);
    let mismatches: u64 = p.results.iter().map(|r| r.mismatches).sum();
    let stray: u64 = p.results.iter().map(|r| r.stray).sum();
    let failed = finished.iter().filter(|f| f.latency_ms == FAILED).count() as u64 + stray;
    eprintln!(
        "serve-open: {} requests, {failed} failed, {mismatches} mismatched points, generator lateness p99 {late:.3} ms (median over windows)",
        finished.len(),
    );
    if mismatches > 0 {
        report.correct = false;
    }
    if late > LATENESS_BOUND_MS {
        eprintln!("serve-open: generator ran late (p99 {late:.3} ms > {LATENESS_BOUND_MS} ms); run refused");
        report.correct = false;
    }
    report.attempted += finished.len() as u64;
    report.failed += failed;
    let secs = wall.as_secs_f64().max(1e-9);
    let points: usize = finished.iter().map(|f| f.points).sum();
    let simulated: u64 = finished.iter().map(|f| f.simulated_instructions).sum();
    let of = |grid: bool| {
        split(
            finished
                .iter()
                .filter(|f| (f.class != INTERACTIVE) == grid)
                .map(|f| (f.due, f.latency_ms)),
            p.start,
            seconds,
        )
    };
    let (interactive, grids) = (of(false), of(true));
    // A failed request reads as the longest wait the run could impose.
    let cap = |v: f64| if v.is_finite() { v } else { ms(wall) };
    report.set("wall_s", secs);
    report.set("points_per_s", points as f64 / secs);
    report.set("sim_mips", simulated as f64 / secs / 1e6);
    report.set(
        "served_ratio",
        1.0 - failed as f64 / (finished.len().max(1) as f64),
    );
    report.set("peak_rss_mb", p.peak_rss_kb as f64 / 1024.0);
    if tails {
        report.set("interactive_p50_ms", cap(windowed(&interactive, 0.5)?));
        report.set("interactive_p99_ms", cap(windowed(&interactive, 0.99)?));
        report.set("grid_p50_ms", cap(windowed(&grids, 0.5)?));
        report.set("grid_p90_ms", cap(windowed(&grids, 0.9)?));
    }
    let count = |w: &[Vec<f64>]| w.iter().map(Vec::len).min().unwrap_or(0);
    eprintln!(
        "serve-open: {WINDOWS} windows of at least {} interactive and {} grid samples; {points} points, cache hits {} of {} lookups, evictions {}",
        count(&interactive),
        count(&grids),
        delta(&p.before, &p.after, "cache_hits"),
        delta(&p.before, &p.after, "cache_lookups"),
        delta(&p.before, &p.after, "cache_evictions"),
    );
    Ok(wall)
}

/// Runs the workload.
///
/// # Errors
///
/// Build, launch and socket failures, and samples too small for a tail.
pub fn run(opts: &Options) -> Result<Report, String> {
    let binary = dae_serve_binary()?;
    // The traced run makes an untraced and a traced pass of half length.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let schedule = schedule::generate(opts.seed, RATE, seconds);
    let distinct = schedule.distinct_points();
    let oracle = Oracle::compute(&distinct);
    // A bound below the run's distinct points, so eviction runs.
    let limit = distinct.len() / 2;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let scratch = &opts.scratch;
    let mut setups = Vec::new();
    let mut launched = None;
    for k in 0..SETUPS {
        let mut server = launch(
            &binary,
            &scratch.join(format!("store{k}")),
            &scratch.join(format!("serve{k}.log")),
            limit,
        )?;
        setups.push(server.setup.as_secs_f64());
        if k + 1 < SETUPS {
            drop(server.conn);
            server.process.shutdown(SHUTDOWN_TIMEOUT);
        } else {
            launched = Some(server);
        }
    }
    report.set("setup_s", median(&setups));
    let server = launched.ok_or("no server launched")?;
    let origin = Instant::now();
    if !opts.trace {
        let p = pass(server, &schedule, &oracle, false, origin)?;
        summarize(&p, &mut report, seconds, true)?;
        return Ok(report);
    }

    let untraced = pass(server, &schedule, &oracle, false, origin)?;
    let untraced_wall = summarize(&untraced, &mut report, seconds, false)?;
    let server = launch(
        &binary,
        &scratch.join("store-traced"),
        &scratch.join("serve-traced.log"),
        limit,
    )?;
    let traced = pass(server, &schedule, &oracle, true, origin)?;
    let traced_wall = summarize(&traced, &mut report, seconds, false)?;
    let mut spans = Vec::new();
    for r in &traced.results {
        merge(&mut spans, r.spans.clone());
    }

    let (before, after) = (&traced.before, &traced.after);
    let d = |name: &str| delta(before, after, name) as f64;
    let requests = schedule.entries.len() as f64;
    report.set("trace.pin_misses", d("pinned"));
    report.set("trace.pin_hits", requests - d("pinned"));
    report.set("trace.new_pin_share", d("pinned") / requests.max(1.0));
    report.set("trace.pin_base", requests);
    report.set(
        "core.cache_hit_ratio",
        d("cache_hits") / d("cache_lookups").max(1.0),
    );
    report.set("core.cache_lookups", d("cache_lookups"));
    report.set("core.cache_evictions", d("cache_evictions"));
    report.set("rayon.steals", d("steals"));
    report.set("rayon.claim_drops", d("claim_drops"));
    report.set("serve.busy_rejections", d("busy_rejections"));
    report.set("serve.timeouts", d("timeout_requests"));
    eprintln!(
        "serve-open: new-pin share {} of {requests} requests",
        d("pinned")
    );

    let mut tracer = Tracer::new(true, origin);
    let all: Vec<Point> = distinct.iter().copied().collect();
    let sample = layers::sample(&all, layers::MACHINE_SAMPLE, opts.seed);
    let mut mismatches = layers::simulator_layers(&sample, &oracle, &mut tracer, &mut report);
    layers::core_layers(
        &all,
        &oracle,
        &scratch.join("store-probe"),
        &mut tracer,
        &mut report,
    )?;
    let lines: Vec<(String, Vec<Point>)> = schedule
        .entries
        .iter()
        .map(|e| (e.line(), e.grid.points()))
        .collect();
    mismatches += layers::protocol_layers(&lines, &oracle, &mut tracer, &mut report);
    let singles: Vec<Point> = schedule
        .entries
        .iter()
        .filter(|e| e.class == INTERACTIVE)
        .map(|e| e.grid.points()[0])
        .collect();
    mismatches += layers::wire_layers(
        &binary,
        scratch,
        &singles,
        &oracle,
        &mut tracer,
        &mut report,
    )?;
    if mismatches > 0 {
        eprintln!("serve-open: {mismatches} per-layer results differ from the oracle");
        report.correct = false;
    }
    let simulated: u64 = traced
        .results
        .iter()
        .flat_map(|r| &r.finished)
        .map(|f| f.simulated_instructions)
        .sum();
    let per_inst = (report.get("machines.dm_ns_per_inst").unwrap_or(0.0)
        + report.get("machines.swsm_ns_per_inst").unwrap_or(0.0))
        / 2.0;
    report.set(
        "rayon.utilization",
        simulated as f64 * per_inst / 1e9 / (2.0 * traced_wall.as_secs_f64()),
    );
    merge(&mut spans, tracer.into_spans());
    layers::finish_trace(&spans, untraced_wall, traced_wall, &mut report);
    write_tsv(&opts.spans_out, &spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
