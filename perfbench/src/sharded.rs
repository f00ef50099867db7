//! `sharded-warm`: cached single points through a coordinator over two
//! restarted backends.
//!
//! A fill pass sends seeded, disjoint grids through the fleet — every
//! point simulates once and lands in its owner's on-disk store.  The fleet
//! then shuts down cleanly and restarts (each backend replays its store),
//! and two connections each keep a fixed number of single-point
//! `interactive` requests outstanding, drawn from the filled points, in
//! fixed-size rounds.  Every timed point is a cache hit; a point that is
//! not fails the run.

use crate::client::{dae_serve_binary, delta, Finished, LineConn, ServeProcess, Tracker};
use crate::layers;
use crate::points::{Grid, Oracle, Point, Source};
use crate::report::Report;
use crate::rng::Rng;
use crate::schedule::{ITERATIONS, MDS, WINDOWS};
use crate::spans::{merge, write_tsv, Span, Tracer};
use crate::stats::{median, ms, percentile, tail_percentile, windowed, FAILED};
use crate::{Options, SHUTDOWN_TIMEOUT};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fill passes per run; the fill-pass metrics are medians over them.
const FILL_PASSES: usize = 3;
/// Grids each fill connection keeps outstanding.
const FILL_OUTSTANDING: usize = 32;
/// Single-point requests each warm connection keeps outstanding.  An
/// assumption, not a recorded client depth: deep enough that queueing,
/// not the idle-connection wire stall, sets the warm latency.
const OUTSTANDING: usize = 48;
/// Requests per connection per warm round (the fixed work `wall_s` times;
/// two connections give each round the 1000+ samples its own p99 needs).
const ROUND: usize = 600;
/// Warm rounds a run makes at least.
const MIN_ROUNDS: usize = 3;
/// Warm rounds of the traced run: untraced and traced alternately.
const TRACED_ROUNDS: usize = 6;
/// Fleet restarts per run; `setup_s` is their median.
const RESTARTS: usize = 3;
/// How long a request may go unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The fill passes for `seed`: grids of 1 machine × 2 windows × 4 MDs,
/// no point shared between any two grids.  For each machine on every
/// `(source, iterations)` pair the windows are drawn into 6 pairs and the
/// MDs into 3 quads, and each pass takes every window pair once (576
/// grids a pass), so every seed and every pass simulates the same mix of
/// windows; the seed draws the pairing, the MDs and the order.
#[must_use]
pub fn fill_passes(seed: u64) -> Vec<Vec<Grid>> {
    let mut rng = Rng::new(seed, 0xf111);
    let mut passes = vec![Vec::new(); FILL_PASSES];
    for source in Source::all() {
        for iterations in ITERATIONS {
            for machine in 0..2u8 {
                // Disjoint window pairs × disjoint MD quads give disjoint
                // grids; each pass takes its share of the cells.
                let mut windows = WINDOWS.to_vec();
                let mut mds = MDS.to_vec();
                rng.shuffle(&mut windows);
                rng.shuffle(&mut mds);
                // Cell (w, m) goes to pass (w + m) mod 3, a Latin square
                // over the shuffled pairs and the 3 quads: each pass holds
                // every window pair once.
                for w in 0..WINDOWS.len() / 2 {
                    for m in 0..MDS.len() / 4 {
                        passes[(w + m) % FILL_PASSES].push(Grid {
                            source,
                            iterations,
                            machines: vec![machine],
                            windows: windows[2 * w..2 * w + 2].to_vec(),
                            mds: mds[4 * m..4 * m + 4].to_vec(),
                        });
                    }
                }
            }
        }
    }
    for pass in &mut passes {
        rng.shuffle(pass);
    }
    passes
}

/// Two backends over persistent stores and a coordinator in front.
struct Fleet {
    backends: Vec<ServeProcess>,
    coordinator: ServeProcess,
}

impl Fleet {
    fn start(binary: &Path, stores: &[PathBuf], logs: &Path, tag: &str) -> Result<Fleet, String> {
        let mut backends = Vec::new();
        for (i, store) in stores.iter().enumerate() {
            let args = [
                "--tcp".to_string(),
                "127.0.0.1:0".to_string(),
                "--cache-dir".to_string(),
                store.display().to_string(),
            ];
            backends.push(ServeProcess::spawn(
                binary,
                &args,
                &logs.join(format!("{tag}-backend{i}.log")),
            )?);
        }
        let list: Vec<String> = backends.iter().map(|b| b.addr.to_string()).collect();
        let coordinator = ServeProcess::spawn(
            binary,
            &[
                "--coordinator".to_string(),
                list.join(","),
                "--tcp".to_string(),
                "127.0.0.1:0".to_string(),
            ],
            &logs.join(format!("{tag}-coordinator.log")),
        )?;
        Ok(Fleet {
            backends,
            coordinator,
        })
    }

    /// `shutdown` through the coordinator (which forwards it to the
    /// fleet); a backend still running afterwards is shut down directly.
    /// Returns whether every process exited on its own.
    fn shutdown(&mut self) -> bool {
        let mut clean = self.coordinator.shutdown(SHUTDOWN_TIMEOUT);
        for backend in &mut self.backends {
            if !backend.wait_exit(Duration::from_millis(500)) {
                clean &= backend.shutdown(SHUTDOWN_TIMEOUT);
            }
        }
        clean
    }

    fn peak_rss_kb(&self) -> u64 {
        self.backends
            .iter()
            .map(ServeProcess::peak_rss_kb)
            .sum::<u64>()
            + self.coordinator.peak_rss_kb()
    }
}

/// One connection's requests: `(line, points)`.
type Requests = Vec<(String, Vec<Point>)>;

/// What one closed-loop connection saw.
#[derive(Debug, Default)]
struct Loop {
    finished: Vec<Finished>,
    mismatches: u64,
    stray: u64,
    elapsed: Duration,
    spans: Vec<Span>,
}

/// Sends `requests` keeping `outstanding` in flight; each is timed from
/// its send to its `done`.
fn closed_loop(
    mut conn: LineConn,
    requests: &[(String, Vec<Point>)],
    outstanding: usize,
    oracle: &Oracle,
    mut tracer: Tracer,
    span: &'static str,
) -> Result<(Loop, LineConn), String> {
    let net = |e: std::io::Error| format!("sharded-warm connection: {e}");
    let mut tracker = Tracker::default();
    let mut out = Loop::default();
    let mut sent_at: HashMap<String, Instant> = HashMap::new();
    let start = Instant::now();
    let mut next = 0;
    while next < requests.len() || tracker.outstanding() > 0 {
        while next < requests.len() && tracker.outstanding() < outstanding {
            let (line, points) = &requests[next];
            let id = line
                .split_whitespace()
                .find_map(|f| f.strip_prefix("id="))
                .unwrap_or("")
                .to_string();
            let now = Instant::now();
            conn.send(line).map_err(net)?;
            tracker.insert(id.clone(), now, 0, points.clone());
            sent_at.insert(id, now);
            next += 1;
        }
        let Some(line) = conn.read_line(Some(REPLY_TIMEOUT)).map_err(net)? else {
            for id in tracker.outstanding_ids() {
                out.finished.extend(tracker.abandon(&id));
            }
            break;
        };
        let at = Instant::now();
        if let Some(done) = tracker.on_line(&line, at, oracle) {
            out.finished.push(done);
            if let Some(id) = line
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.strip_prefix("id="))
            {
                if let Some(t) = sent_at.remove(id) {
                    tracer.record(span, next as u64, t, at);
                }
            }
        }
    }
    out.elapsed = start.elapsed();
    out.mismatches = tracker.mismatches;
    out.stray = tracker.stray;
    out.spans = tracer.into_spans();
    Ok((out, conn))
}

/// Runs `per_conn[i]` on `conns[i]` concurrently (one thread each).
fn both(
    conns: Vec<LineConn>,
    per_conn: &[Requests],
    outstanding: usize,
    oracle: &Oracle,
    trace: bool,
    origin: Instant,
    span: &'static str,
) -> Result<(Vec<Loop>, Vec<LineConn>), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(per_conn)
            .map(|(conn, requests)| {
                scope.spawn(move || {
                    closed_loop(
                        conn,
                        requests,
                        outstanding,
                        oracle,
                        Tracer::new(trace, origin),
                        span,
                    )
                })
            })
            .collect();
        let mut loops = Vec::new();
        let mut conns = Vec::new();
        for h in handles {
            let (l, c) = h
                .join()
                .map_err(|_| "connection thread panicked".to_string())??;
            loops.push(l);
            conns.push(c);
        }
        Ok((loops, conns))
    })
}

/// Accounts a set of loops into the report's counts; returns the
/// finished requests.
fn account(loops: &[Loop], report: &mut Report, warm: bool) -> Vec<Finished> {
    let finished: Vec<Finished> = loops.iter().flat_map(|l| l.finished.clone()).collect();
    let mismatches: u64 = loops.iter().map(|l| l.mismatches).sum();
    let stray: u64 = loops.iter().map(|l| l.stray).sum();
    let failed = finished.iter().filter(|f| f.latency_ms == FAILED).count() as u64 + stray;
    // The warm pass must be answered entirely from the replayed stores.
    let uncached = finished
        .iter()
        .filter(|f| warm && f.latency_ms != FAILED && f.cached != f.points as u64)
        .count();
    if mismatches > 0 || uncached > 0 {
        eprintln!("sharded-warm: {mismatches} mismatched points, {uncached} warm requests not answered from cache");
        report.correct = false;
    }
    report.attempted += finished.len() as u64;
    report.failed += failed;
    finished
}

/// Runs the workload.
///
/// # Errors
///
/// Build, launch and socket failures, and samples too small for a tail.
pub fn run(opts: &Options) -> Result<Report, String> {
    let binary = dae_serve_binary()?;
    let net = |e: std::io::Error| format!("sharded-warm: {e}");
    let passes = fill_passes(opts.seed);
    let fill_points: Vec<Point> = passes.iter().flatten().flat_map(Grid::points).collect();
    let distinct: BTreeSet<Point> = fill_points.iter().copied().collect();
    let oracle = Oracle::compute(&distinct);
    let scratch = &opts.scratch;
    let stores: Vec<PathBuf> = (0..2).map(|i| scratch.join(format!("store{i}"))).collect();
    for store in &stores {
        let _ = std::fs::remove_dir_all(store);
    }
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let origin = Instant::now();

    // Fill: every grid point simulates once and is appended to its owner's
    // store.  Grid latency here is cold: it includes simulation.
    let mut fleet = Fleet::start(&binary, &stores, scratch, "fill")?;
    let (mut grid_ms, mut fill_instructions, mut fill_secs) = (Vec::new(), 0u64, 0.0);
    for (k, grids) in passes.iter().enumerate() {
        let conns = vec![
            LineConn::connect(fleet.coordinator.addr).map_err(net)?,
            LineConn::connect(fleet.coordinator.addr).map_err(net)?,
        ];
        let per_conn: Vec<Requests> = (0..2)
            .map(|c| {
                grids
                    .iter()
                    .enumerate()
                    .filter(|(n, _)| n % 2 == c)
                    .map(|(n, g)| (g.line(&format!("f{k}_{n}"), "stream", "normal"), g.points()))
                    .collect()
            })
            .collect();
        let (fill, _) = both(
            conns,
            &per_conn,
            FILL_OUTSTANDING,
            &oracle,
            false,
            origin,
            "serve.fill_grid",
        )?;
        let finished = account(&fill, &mut report, false);
        let wall = fill.iter().map(|l| l.elapsed).max().unwrap_or_default();
        let instructions: u64 = finished.iter().map(|f| f.simulated_instructions).sum();
        fill_instructions += instructions;
        fill_secs += wall.as_secs_f64();
        eprintln!(
            "sharded-warm: fill pass {k}: {} grids in {:.3} s, {:.3} MIPS",
            finished.len(),
            wall.as_secs_f64(),
            instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6
        );
        grid_ms.extend(finished.iter().map(|f| f.latency_ms));
    }
    if !fleet.shutdown() {
        eprintln!("sharded-warm: fleet shutdown after fill was not clean");
    }

    // Restarts: launch → first answer, store replay included.
    let warm_probe = Grid::single(fill_points[0]);
    let mut setups = Vec::new();
    let mut warm_fleet = None;
    for k in 0..RESTARTS {
        let start = Instant::now();
        let fleet = Fleet::start(&binary, &stores, scratch, &format!("warm{k}"))?;
        let mut conn = LineConn::connect(fleet.coordinator.addr).map_err(net)?;
        conn.send(&warm_probe.line(&format!("s{k}"), "stream", "interactive"))
            .map_err(net)?;
        loop {
            let line = conn
                .read_line(Some(REPLY_TIMEOUT))
                .map_err(net)?
                .ok_or("sharded-warm: no answer after restart")?;
            if line.starts_with("done ") {
                if !line.contains("status=ok") || !line.contains("cached=1") {
                    eprintln!("sharded-warm: first request after restart not served warm: {line}");
                    report.correct = false;
                }
                break;
            }
        }
        setups.push(start.elapsed().as_secs_f64());
        if k + 1 < RESTARTS {
            drop(conn);
            let mut fleet = fleet;
            fleet.shutdown();
        } else {
            warm_fleet = Some((fleet, conn));
        }
    }
    let (mut fleet, mut control) = warm_fleet.ok_or("no warm fleet")?;
    let before = control.stats().map_err(net)?;

    // Warm rounds: fixed work, repeated until the run's time is used.
    let mut conns = vec![
        LineConn::connect(fleet.coordinator.addr).map_err(net)?,
        LineConn::connect(fleet.coordinator.addr).map_err(net)?,
    ];
    let mut rng = Rng::new(opts.seed, 0x3a53);
    let mut walls = Vec::new();
    let (mut latencies, mut points, mut total) = (Vec::new(), 0usize, Duration::ZERO);
    let mut spans = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    // The traced run alternates untraced and traced rounds.
    let rounds_wanted = if opts.trace {
        TRACED_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    while round < rounds_wanted || (!opts.trace && started.elapsed() < opts.duration()) {
        let per_conn: Vec<Requests> = (0..2)
            .map(|c| {
                (0..ROUND)
                    .map(|n| {
                        let p = fill_points[rng.below(fill_points.len())];
                        let id = format!("q{round}_{c}_{n}");
                        (Grid::single(p).line(&id, "stream", "interactive"), vec![p])
                    })
                    .collect()
            })
            .collect();
        let traced = opts.trace && round % 2 == 1;
        let (loops, back) = both(
            conns,
            &per_conn,
            OUTSTANDING,
            &oracle,
            traced,
            origin,
            "serve.request",
        )?;
        conns = back;
        let finished = account(&loops, &mut report, true);
        let wall = loops.iter().map(|l| l.elapsed).max().unwrap_or_default();
        if traced {
            traced_walls.push(wall.as_secs_f64());
        } else {
            untraced_walls.push(wall.as_secs_f64());
        }
        walls.push(wall.as_secs_f64());
        total += wall;
        points += finished.iter().map(|f| f.points).sum::<usize>();
        latencies.push(finished.iter().map(|f| f.latency_ms).collect::<Vec<_>>());
        for l in loops {
            if traced {
                merge(&mut spans, l.spans);
            }
        }
        round += 1;
    }
    let after = control.stats().map_err(net)?;
    let peak_rss_kb = fleet.peak_rss_kb();
    let d = |name: &str| delta(&before, &after, name) as f64;
    if d("cache_misses") > 0.0 {
        eprintln!(
            "sharded-warm: {} warm points missed the cache",
            d("cache_misses")
        );
        report.correct = false;
    }
    eprintln!(
        "sharded-warm: {FILL_PASSES} fill passes of {} grids in {fill_secs:.3} s; {round} warm rounds of {} interactive samples",
        passes[0].len(),
        2 * ROUND
    );

    let cap = |v: f64| if v.is_finite() { v } else { ms(total) };
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&walls));
    report.set(
        "points_per_s",
        points as f64 / total.as_secs_f64().max(1e-9),
    );
    // Fill-pass metrics pool all passes: a pass is too short for its own
    // rate and tail to be steady.
    report.set(
        "sim_mips",
        fill_instructions as f64 / fill_secs.max(1e-9) / 1e6,
    );
    // Interactive percentiles: the median over rounds of each round's own.
    report.set("interactive_p50_ms", cap(windowed(&latencies, 0.5)?));
    report.set(
        "grid_p50_ms",
        cap(percentile(&grid_ms, 0.5).unwrap_or(FAILED)),
    );
    report.set("grid_p90_ms", cap(tail_percentile(&grid_ms, 0.9)?));
    report.set(
        "served_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    if !opts.trace {
        report.set("interactive_p99_ms", cap(windowed(&latencies, 0.99)?));
    } else {
        let sweeps = (round * 2 * ROUND) as f64;
        report.set("trace.pin_misses", d("pinned"));
        report.set("trace.pin_hits", sweeps - d("pinned"));
        report.set("trace.new_pin_share", d("pinned") / sweeps.max(1.0));
        report.set("trace.pin_base", sweeps);
        report.set(
            "core.cache_hit_ratio",
            d("cache_hits") / d("cache_lookups").max(1.0),
        );
        report.set("core.cache_lookups", d("cache_lookups"));
        report.set("core.cache_evictions", d("cache_evictions"));
        report.set("rayon.steals", d("steals"));
        report.set("rayon.claim_drops", d("claim_drops"));
        report.set("serve.busy_rejections", d("busy_rejections"));
        report.set(
            "serve.timeouts",
            d("timeout_requests") + d("coordinator_timeouts"),
        );
        report.set("rayon.utilization", 0.0);

        let mut tracer = Tracer::new(true, origin);
        let sample = layers::sample(&fill_points, layers::MACHINE_SAMPLE, opts.seed);
        let mut mismatches = layers::simulator_layers(&sample, &oracle, &mut tracer, &mut report);
        layers::core_layers(
            &fill_points,
            &oracle,
            &scratch.join("store-probe"),
            &mut tracer,
            &mut report,
        )?;
        let lines: Vec<(String, Vec<Point>)> = fill_points
            .iter()
            .enumerate()
            .map(|(n, p)| {
                (
                    Grid::single(*p).line(&format!("q{n}"), "stream", "interactive"),
                    vec![*p],
                )
            })
            .collect();
        mismatches += layers::protocol_layers(&lines, &oracle, &mut tracer, &mut report);
        let mut probe = fill_points.clone();
        probe.rotate_left(opts.seed as usize % fill_points.len());
        mismatches +=
            layers::wire_layers(&binary, scratch, &probe, &oracle, &mut tracer, &mut report)?;
        if mismatches > 0 {
            report.correct = false;
        }
        merge(&mut spans, tracer.into_spans());
        layers::finish_trace(
            &spans,
            Duration::from_secs_f64(median(&untraced_walls)),
            Duration::from_secs_f64(median(&traced_walls)),
            &mut report,
        );
        write_tsv(&opts.spans_out, &spans).map_err(|e| format!("writing spans: {e}"))?;
    }
    drop(conns);
    drop(control);
    if !fleet.shutdown() {
        eprintln!("sharded-warm: final fleet shutdown was not clean");
    }
    Ok(report)
}
