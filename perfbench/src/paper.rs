//! `paper-suite`: the reproducer's closed loop, in process.
//!
//! Each repetition builds one fresh `SweepSession`, pins the seven PERFECT
//! programs at `dae_bench::paper_config()` and regenerates every artefact
//! at that configuration's grids — Table 1, the speedup figures (4–6) and
//! the equivalent-window-ratio figures (7–9) for all seven programs, and
//! the §5 window-ratio claim — in the paper's order.  It also makes a
//! seeded set of single-point spot checks on the same session: two thirds
//! at new points, spread between the artefacts, and one third at points
//! the artefacts already computed, after them.
//!
//! Before anything is timed, every cycle count of the artefact grids is
//! digested and compared with the golden value kept in `golden/`, and a
//! seeded sample of points is re-run through the retained naive
//! `run_reference()` scheduler, which must agree bit for bit.  The
//! warm-up repetition's artefact text is digested and compared with a
//! second golden value, and every timed repetition must reproduce that
//! text exactly.

use crate::layers;
use crate::points::{digest, machine, text_digest, window, Grid, Oracle, Point, Source};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::{merge, write_tsv, Tracer};
use crate::stats::{median, ms, tail_percentile, windowed};
use crate::Options;
use dae_core::{
    dm_config, equivalent_window_figure_in, speedup_figure_in, swsm_config, table1_in,
    window_ratio_claim_in, ExperimentConfig, SweepSession, TraceId,
};
use dae_machines::{DecoupledMachine, SuperscalarMachine};
use dae_workloads::PerfectProgram;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The golden digests: every artefact-grid cycle count, and the artefact
/// text.
const GOLDEN: &str = include_str!("../golden/paper-suite.txt");

/// The memory differentials of the speedup figures (4–6).
const SPEEDUP_MDS: [u64; 2] = [0, 60];
/// Table 1's memory differential, and the §5 claim's.
const CLAIM_MD: u64 = 60;
/// The §5 claim's DM window.
const CLAIM_WINDOW: usize = 32;
/// Spot checks per repetition at points the artefacts computed.
const PROBE_REPEATS: usize = 112;
/// Spot checks per repetition at points they did not.
const PROBE_NEW: usize = 224;
/// Untraced/traced repetition pairs in the traced run.
const TRACED_PAIRS: u64 = 3;
/// Points re-run through the naive reference scheduler.
const REFERENCE_SAMPLE: usize = 6;
/// Repetitions a run makes at least (16 artefact grids and 336 probes
/// each, so 8 give the 100+ grid samples p90 needs and two windows of
/// the 1000+ probes p99 needs).
const MIN_REPS: usize = 8;
/// Consecutive repetitions per p99 window: 3 × 336 spot checks give the
/// 1000+ samples a p99 needs.
const P99_REPS: usize = 3;

/// Windows and MDs of the spot checks that no artefact grid contains.
const NEW_WINDOWS: [u32; 6] = [12, 20, 40, 56, 72, 112];
const NEW_MDS: [u64; 6] = [5, 15, 25, 35, 45, 55];

fn perfect(p: PerfectProgram, iterations: u64, m: u8, w: u32, md: u64) -> Point {
    Point {
        source: Source::Perfect(p),
        iterations,
        machine: m,
        window: w,
        md,
    }
}

/// Every distinct point the artefact generators sweep at `config`.
#[must_use]
pub fn artefact_points(config: &ExperimentConfig) -> BTreeSet<Point> {
    let n = config.iterations;
    let mut set = BTreeSet::new();
    let dm: Vec<u32> = config.dm_windows.iter().map(|&w| w as u32).collect();
    let swsm: Vec<u32> = config.swsm_windows.iter().map(|&w| w as u32).collect();
    let search: Vec<u32> = config
        .equivalence_search_windows
        .iter()
        .map(|&w| w as u32)
        .collect();
    for &p in &PerfectProgram::ALL {
        // Table 1: DM over the windows plus the unlimited one, MD 0 and 60.
        for &w in dm.iter().chain(&[0]) {
            for md in [0, CLAIM_MD] {
                set.insert(perfect(p, n, 0, w, md));
            }
        }
        for md in SPEEDUP_MDS {
            set.extend(dm.iter().map(|&w| perfect(p, n, 0, w, md)));
            set.extend(swsm.iter().map(|&w| perfect(p, n, 1, w, md)));
        }
        for &md in &config.memory_differentials {
            set.extend(search.iter().map(|&w| perfect(p, n, 1, w, md)));
            set.extend(dm.iter().map(|&w| perfect(p, n, 0, w, md)));
        }
        set.insert(perfect(p, n, 0, CLAIM_WINDOW as u32, CLAIM_MD));
        set.extend(search.iter().map(|&w| perfect(p, n, 1, w, CLAIM_MD)));
    }
    set
}

/// Repetition `rep`'s seeded spot checks: [`PROBE_REPEATS`] points the
/// artefacts already computed and [`PROBE_NEW`] points they did not,
/// taken as consecutive slices of one seeded shuffle of each space, so
/// successive repetitions sweep both spaces evenly and every seed asks
/// the same mix over a run.
#[must_use]
pub fn probe_points(config: &ExperimentConfig, seed: u64, rep: u64) -> Vec<Point> {
    let slice = |space: BTreeSet<Point>, salt: u64, count: usize| {
        let mut space: Vec<Point> = space.into_iter().collect();
        Rng::new(seed, salt).shuffle(&mut space);
        let start = rep as usize * count;
        (start..start + count)
            .map(|k| space[k % space.len()])
            .collect::<Vec<_>>()
    };
    let mut probes = slice(repeat_probe_space(config), 0x9b0e, PROBE_REPEATS);
    probes.extend(slice(new_probe_space(config), 0x9b0f, PROBE_NEW));
    Rng::new(seed, 0x9b10 + rep).shuffle(&mut probes);
    probes
}

/// The artefact points a spot check can repeat: every program and
/// machine at the DM windows and the speedup figures' MDs.
fn repeat_probe_space(config: &ExperimentConfig) -> BTreeSet<Point> {
    let mut set = BTreeSet::new();
    for &p in &PerfectProgram::ALL {
        for m in 0..2u8 {
            for &w in &config.dm_windows {
                set.extend(
                    SPEEDUP_MDS
                        .iter()
                        .map(|&md| perfect(p, config.iterations, m, w as u32, md)),
                );
            }
        }
    }
    set
}

/// Every point a spot check can name outside the artefact grids.
#[must_use]
pub fn new_probe_space(config: &ExperimentConfig) -> BTreeSet<Point> {
    let mut set = BTreeSet::new();
    for &p in &PerfectProgram::ALL {
        for m in 0..2u8 {
            for &w in &NEW_WINDOWS {
                set.extend(
                    NEW_MDS
                        .iter()
                        .map(|&md| perfect(p, config.iterations, m, w, md)),
                );
            }
        }
    }
    set
}

/// One regeneration's measurements.
struct Rep {
    setup: Duration,
    wall: Duration,
    grid_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    artefacts: Vec<String>,
    probes: Vec<Point>,
    probe_cycles: Vec<u64>,
    lookups: u64,
    session: SweepSession,
}

/// One artefact generator: renders its artefact over the session.
type Generator<'a> = Box<dyn Fn(&mut SweepSession) -> String + 'a>;

/// Regenerates every artefact over a fresh session, with the spot checks
/// at new points spread between the artefacts and those at artefact
/// points after them.
///
/// Spreading the spot checks over the whole repetition samples the host
/// across it: one lone request thread's speed on the reference machine
/// swings by up to 1.7× from one second to the next, and checks bunched at
/// the end of each repetition made the run's median follow those swings.
fn repetition(config: &ExperimentConfig, seed: u64, tracer: &mut Tracer, rep: u64) -> Rep {
    let probes = probe_points(config, seed, rep);
    let repeat_space = repeat_probe_space(config);
    let (repeats, fresh): (Vec<usize>, Vec<usize>) =
        (0..probes.len()).partition(|&n| repeat_space.contains(&probes[n]));
    let root = tracer.enter("bench.rep", rep);
    let start = Instant::now();
    let mut session = SweepSession::new();
    let span = tracer.enter("core.pin_programs", rep);
    let ids: Vec<TraceId> = session.pin_programs(&PerfectProgram::ALL, config.iterations);
    tracer.exit(span);
    let setup = start.elapsed();

    let mut probe_ms = vec![0.0; probes.len()];
    let mut probe_cycles = vec![0; probes.len()];
    // Runs the spot checks `batch` names, one single-point sweep each;
    // returns the time they took.
    let mut spot = |session: &mut SweepSession, tracer: &mut Tracer, batch: &[usize]| {
        let t = Instant::now();
        for &n in batch {
            let p = probes[n];
            let Source::Perfect(program) = p.source else {
                continue;
            };
            let id = ids[PerfectProgram::ALL
                .iter()
                .position(|&q| q == program)
                .unwrap_or(0)];
            let span = tracer.enter("core.probe", (rep << 16) | n as u64);
            let sent = Instant::now();
            let cycles = session.sweep(id, &[(machine(p.machine), window(p.window), p.md)]);
            probe_ms[n] = ms(sent.elapsed());
            tracer.exit(span);
            probe_cycles[n] = cycles.first().copied().unwrap_or(0);
        }
        t.elapsed()
    };

    let mut artefacts = Vec::new();
    let mut grid_ms = Vec::new();
    let mut generators: Vec<(&'static str, Generator)> = vec![(
        "core.table1",
        Box::new(|s: &mut SweepSession| table1_in(s, config, CLAIM_MD).to_string()),
    )];
    for &p in &PerfectProgram::ALL {
        generators.push((
            "core.speedup_figure",
            Box::new(move |s: &mut SweepSession| {
                speedup_figure_in(s, p, config, &SPEEDUP_MDS).to_string()
            }),
        ));
    }
    for &p in &PerfectProgram::ALL {
        generators.push((
            "core.equivalent_window_figure",
            Box::new(move |s: &mut SweepSession| {
                equivalent_window_figure_in(s, p, config).to_string()
            }),
        ));
    }
    generators.push((
        "core.window_ratio_claim",
        Box::new(|s: &mut SweepSession| {
            window_ratio_claim_in(s, config, CLAIM_WINDOW, CLAIM_MD).to_string()
        }),
    ));
    let per_gap = fresh.len().div_ceil(generators.len());
    let mut gaps = fresh.chunks(per_gap.max(1));
    let mut probe_time = Duration::ZERO;
    for (name, generate) in &generators {
        let span = tracer.enter(name, rep);
        let t = Instant::now();
        artefacts.push(generate(&mut session));
        grid_ms.push(ms(t.elapsed()));
        tracer.exit(span);
        probe_time += spot(&mut session, tracer, gaps.next().unwrap_or(&[]));
    }
    // The artefacts' own time and cache lookups, without the spot checks
    // between them (one lookup each).
    let wall = start.elapsed() - probe_time;
    let lookups = session.cache_stats().lookups - fresh.len() as u64;
    spot(&mut session, tracer, &repeats);
    tracer.exit(root);
    Rep {
        setup,
        wall,
        grid_ms,
        probe_ms,
        artefacts,
        probes,
        probe_cycles,
        lookups,
        session,
    }
}

/// A golden field (`key=value`) of `golden/paper-suite.txt`, as text.
fn golden_field(key: &str) -> &'static str {
    GOLDEN
        .split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or("0")
}

/// A golden hexadecimal digest field.
fn golden_digest(key: &str) -> u64 {
    u64::from_str_radix(golden_field(key).trim_start_matches("0x"), 16).unwrap_or(0)
}

/// The golden `points=` and `digest=` values.
fn golden() -> (usize, u64) {
    (
        golden_field("points").parse().unwrap_or(0),
        golden_digest("digest"),
    )
}

/// The digest of a repetition's artefact texts, in order, each ended by a
/// NUL: what the golden `artefacts=` field holds.
fn artefact_digest(texts: &[String]) -> u64 {
    text_digest(texts.iter().flat_map(|t| [t.as_str(), "\0"]))
}

/// Validates the artefact grids against the golden digest and a seeded
/// reference sample.  Returns the oracle over the artefact grids and every
/// point a spot check can name.
fn validate(config: &ExperimentConfig, seed: u64) -> Result<Oracle, String> {
    let artefacts = artefact_points(config);
    let mut all = artefacts.clone();
    all.extend(new_probe_space(config));
    let oracle = Oracle::compute(&all);
    let grid: BTreeMap<Point, u64> = artefacts.iter().map(|p| (*p, oracle.cycles[p])).collect();
    let found = (grid.len(), digest(&grid));
    if found != golden() {
        return Err(format!(
            "artefact cycles differ from golden/paper-suite.txt: got points={} digest={:#018x}, want points={} digest={:#018x}",
            found.0, found.1, golden().0, golden().1
        ));
    }
    let mut rng = Rng::new(seed, 0x5eed);
    let pool: Vec<Point> = artefacts
        .iter()
        .filter(|p| p.window != 0)
        .copied()
        .collect();
    for _ in 0..REFERENCE_SAMPLE {
        let p = pool[rng.below(pool.len())];
        let trace = p.source.trace(p.iterations);
        let reference = if p.machine == 0 {
            DecoupledMachine::new(dm_config(window(p.window), p.md))
                .run_reference(&trace)
                .cycles()
        } else {
            SuperscalarMachine::new(swsm_config(window(p.window), p.md))
                .run_reference(&trace)
                .cycles()
        };
        if reference != oracle.cycles[&p] {
            return Err(format!(
                "run_reference() disagrees at {p:?}: {reference} vs {}",
                oracle.cycles[&p]
            ));
        }
    }
    Ok(oracle)
}

/// Prints the golden line for the current model (used only when the
/// simulated model or the artefact rendering changes on purpose).
#[must_use]
pub fn golden_line() -> String {
    let config = dae_bench::paper_config();
    let artefacts = artefact_points(&config);
    let oracle = Oracle::compute(&artefacts);
    let rep = repetition(&config, 0, &mut Tracer::new(false, Instant::now()), 0);
    format!(
        "points={} digest={:#018x} artefacts={:#018x}",
        oracle.cycles.len(),
        digest(&oracle.cycles),
        artefact_digest(&rep.artefacts)
    )
}

/// Runs the workload.
///
/// # Errors
///
/// Validation failures and I/O errors; a run that cannot be measured.
pub fn run(opts: &Options) -> Result<Report, String> {
    let config = dae_bench::paper_config();
    let oracle = validate(&config, opts.seed)?;
    let distinct = artefact_points(&config);
    let instructions: u64 = distinct.iter().map(|p| oracle.instructions(p)).sum();

    // Warm-up repetition: its artefact texts are the reference every timed
    // repetition must reproduce.
    let origin = Instant::now();
    let warm = repetition(&config, opts.seed, &mut Tracer::new(false, origin), 0);
    let found = artefact_digest(&warm.artefacts);
    if found != golden_digest("artefacts") {
        return Err(format!(
            "artefact text differs from golden/paper-suite.txt: got artefacts={found:#018x}, want artefacts={:#018x}",
            golden_digest("artefacts")
        ));
    }
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let check = |rep: &Rep, report: &mut Report| {
        let misses = rep.session.cache_stats().misses as usize;
        let probe_ok = rep
            .probes
            .iter()
            .zip(&rep.probe_cycles)
            .all(|(p, c)| oracle.cycles.get(p) == Some(c));
        // Every artefact point simulates once; probes add their new points.
        let new: BTreeSet<&Point> = rep
            .probes
            .iter()
            .filter(|p| !distinct.contains(p))
            .collect();
        let expected_misses = distinct.len() + new.len();
        if rep.artefacts != warm.artefacts || !probe_ok || misses != expected_misses {
            report.correct = false;
            eprintln!(
                "paper-suite: output mismatch (artefacts equal: {}, probes equal: {probe_ok}, misses {misses} vs {expected_misses})",
                rep.artefacts == warm.artefacts
            );
        }
        report.attempted += (rep.artefacts.len() + rep.probe_cycles.len()) as u64;
    };
    check(&warm, &mut report);
    report.attempted = 0;

    if opts.trace {
        return traced(opts, &config, &oracle, &distinct, report, &check);
    }

    let (mut setups, mut walls, mut mips, mut rates) = (vec![], vec![], vec![], vec![]);
    let (mut grid_ms, mut probe_ms) = (vec![], vec![]);
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed() < opts.duration() {
        let rep = repetition(
            &config,
            opts.seed,
            &mut Tracer::new(false, origin),
            reps as u64 + 1,
        );
        check(&rep, &mut report);
        setups.push(rep.setup.as_secs_f64());
        walls.push(rep.wall.as_secs_f64());
        mips.push(instructions as f64 / rep.wall.as_secs_f64() / 1e6);
        rates.push(rep.lookups as f64 / rep.wall.as_secs_f64());
        grid_ms.push(rep.grid_ms);
        probe_ms.push(rep.probe_ms);
        reps += 1;
    }
    eprintln!(
        "paper-suite: {reps} repetitions of {} grids and {} probes, {} points simulated per repetition ({} instructions)",
        grid_ms[0].len(),
        probe_ms[0].len(),
        distinct.len(),
        instructions
    );
    // Medians are the median over repetitions of each repetition's own.
    // One repetition is too small for a tail: p90 pools them all, and p99
    // is the median over windows of consecutive repetitions, so one host
    // stall alone cannot move it.
    let pooled = |v: &[Vec<f64>]| v.concat();
    let windows = (reps / P99_REPS).max(1);
    let p99_windows: Vec<Vec<f64>> = (0..windows)
        .map(|w| pooled(&probe_ms[w * reps / windows..(w + 1) * reps / windows]))
        .collect();
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&walls));
    report.set("sim_mips", median(&mips));
    report.set("points_per_s", median(&rates));
    report.set("interactive_p50_ms", windowed(&probe_ms, 0.5)?);
    report.set("interactive_p99_ms", windowed(&p99_windows, 0.99)?);
    report.set("grid_p50_ms", windowed(&grid_ms, 0.5)?);
    report.set("grid_p90_ms", tail_percentile(&pooled(&grid_ms), 0.9)?);
    report.set(
        "served_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set(
        "peak_rss_mb",
        crate::client::vm_hwm_kb("/proc/self/status") as f64 / 1024.0,
    );
    Ok(report)
}

/// The traced run: one untraced and one traced repetition (their wall
/// difference is the tracing overhead), then the per-layer measurements
/// on this workload's own points and lines.
fn traced(
    opts: &Options,
    config: &ExperimentConfig,
    oracle: &Oracle,
    distinct: &BTreeSet<Point>,
    mut report: Report,
    check: &dyn Fn(&Rep, &mut Report),
) -> Result<Report, String> {
    let origin = Instant::now();
    // Untraced and traced repetitions alternate; the overhead compares the
    // medians of their walls, and the last traced one supplies the spans.
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new(true, origin);
    let (mut pool_before, mut pool_after) = Default::default();
    let mut last = None;
    for k in 0..TRACED_PAIRS {
        let untraced = repetition(
            config,
            opts.seed,
            &mut Tracer::new(false, origin),
            2 * k + 1,
        );
        check(&untraced, &mut report);
        untraced_walls.push(untraced.wall.as_secs_f64());
        tracer = Tracer::new(true, origin);
        pool_before = rayon::global_pool_stats();
        let rep = repetition(config, opts.seed, &mut tracer, 2 * k + 2);
        pool_after = rayon::global_pool_stats();
        check(&rep, &mut report);
        traced_walls.push(rep.wall.as_secs_f64());
        last = Some(rep);
    }
    let rep = last.ok_or("no traced repetition")?;

    let stats = rep.session.stats();
    report.set("trace.pin_hits", stats.pin_hits as f64);
    report.set("trace.pin_misses", stats.pinned_traces as f64);
    let pins = (stats.pin_hits + stats.pinned_traces) as f64;
    report.set(
        "trace.new_pin_share",
        stats.pinned_traces as f64 / pins.max(1.0),
    );
    report.set("trace.pin_base", pins);
    let cache = rep.session.cache_stats();
    report.set(
        "core.cache_hit_ratio",
        cache.hits as f64 / cache.lookups.max(1) as f64,
    );
    report.set("core.cache_lookups", cache.lookups as f64);
    report.set("core.cache_evictions", cache.evictions as f64);
    report.set(
        "rayon.steals",
        (pool_after.steals - pool_before.steals) as f64,
    );
    report.set(
        "rayon.claim_drops",
        (pool_after.claim_drops - pool_before.claim_drops) as f64,
    );
    report.set("serve.busy_rejections", 0.0);
    report.set("serve.timeouts", 0.0);

    let all: Vec<Point> = distinct.iter().copied().collect();
    let sample = layers::sample(&all, layers::MACHINE_SAMPLE, opts.seed);
    let mut mismatches = layers::simulator_layers(&sample, oracle, &mut tracer, &mut report);
    layers::core_layers(
        &all,
        oracle,
        &opts.scratch.join("store"),
        &mut tracer,
        &mut report,
    )?;
    let lines: Vec<(String, Vec<Point>)> = rep
        .probes
        .iter()
        .enumerate()
        .map(|(n, p)| {
            (
                Grid::single(*p).line(&format!("p{n}"), "stream", "interactive"),
                vec![*p],
            )
        })
        .collect();
    mismatches += layers::protocol_layers(&lines, oracle, &mut tracer, &mut report);
    let binary = crate::client::dae_serve_binary()?;
    mismatches += layers::wire_layers(
        &binary,
        &opts.scratch,
        &rep.probes,
        oracle,
        &mut tracer,
        &mut report,
    )?;
    if mismatches > 0 {
        eprintln!("paper-suite: {mismatches} per-layer results differ from the oracle");
        report.correct = false;
    }

    // Point cost over the pool's two workers' time during the traced
    // repetition's regeneration.
    let cost: f64 = distinct
        .iter()
        .map(|p| {
            let per = report
                .get(
                    ["machines.dm_ns_per_inst", "machines.swsm_ns_per_inst"]
                        [usize::from(p.machine.min(1))],
                )
                .unwrap_or(0.0);
            oracle.instructions(p) as f64 * per
        })
        .sum();
    report.set(
        "rayon.utilization",
        cost / 1e9 / (2.0 * rep.wall.as_secs_f64()),
    );

    let mut spans = Vec::new();
    merge(&mut spans, tracer.into_spans());
    layers::finish_trace(
        &spans,
        Duration::from_secs_f64(median(&untraced_walls)),
        Duration::from_secs_f64(median(&traced_walls)),
        &mut report,
    );
    write_tsv(&opts.spans_out, &spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
