//! The benchmark's own rules: seeded inputs, the tail-percentile rule,
//! failure accounting and the span arithmetic.

use dae_workloads::PerfectProgram;
use perfbench::client::Tracker;
use perfbench::points::{Oracle, Point, Source};
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::spans::{layer_self_ns, merge, span_self_ns, Span, Tracer};
use perfbench::stats::{percentile, supports, tail_percentile, FAILED};
use perfbench::{paper, schedule, sharded};
use std::time::{Duration, Instant};

#[test]
fn the_same_seed_gives_a_byte_identical_schedule() {
    let a = schedule::generate(7, 400.0, 2.0).render();
    let b = schedule::generate(7, 400.0, 2.0).render();
    assert_eq!(a.as_bytes(), b.as_bytes());
    assert_eq!(a.lines().count(), 800);
    assert_ne!(a, schedule::generate(8, 400.0, 2.0).render());

    let config = dae_bench::paper_config();
    assert_eq!(
        paper::probe_points(&config, 7, 3),
        paper::probe_points(&config, 7, 3)
    );
    assert_ne!(
        paper::probe_points(&config, 7, 3),
        paper::probe_points(&config, 7, 4)
    );
    assert_eq!(sharded::fill_passes(7), sharded::fill_passes(7));
    assert_ne!(sharded::fill_passes(7), sharded::fill_passes(8));
    // Fill points are disjoint across every grid of every pass.
    let points: Vec<_> = sharded::fill_passes(7)
        .iter()
        .flatten()
        .flat_map(perfbench::points::Grid::points)
        .collect();
    let distinct: std::collections::BTreeSet<_> = points.iter().collect();
    assert_eq!(points.len(), distinct.len());
    // Every pass of every seed simulates the same mix of windows.
    let windows = |pass: &Vec<perfbench::points::Grid>| {
        let mut w: Vec<u32> = pass.iter().flat_map(|g| g.windows.clone()).collect();
        w.sort_unstable();
        w
    };
    let passes = sharded::fill_passes(7);
    for pass in passes.iter().chain(&sharded::fill_passes(8)) {
        assert_eq!(windows(pass), windows(&passes[0]));
    }
}

#[test]
fn the_schedule_mix_is_exact_and_half_repeats() {
    let s = schedule::generate(3, 1000.0, 2.0);
    let count = |class| s.entries.iter().filter(|e| e.class == class).count();
    assert_eq!(count(schedule::INTERACTIVE), 1400);
    assert_eq!(count(schedule::NORMAL), 400);
    assert_eq!(count(schedule::BULK), 200);
    assert!(s.entries.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    // About half of all requests name nothing new.
    let mut seen = std::collections::BTreeSet::new();
    let repeats = s
        .entries
        .iter()
        .filter(|e| {
            let points = e.grid.points();
            let fresh = points.iter().filter(|p| seen.insert(**p)).count();
            fresh == 0
        })
        .count();
    let share = repeats as f64 / s.entries.len() as f64;
    assert!((0.4..0.6).contains(&share), "repeat share {share}");
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert!(!supports(999, 0.99));
    assert!(supports(1000, 0.99));
    assert!(!supports(99, 0.9));
    assert!(supports(100, 0.9));
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail_percentile(&samples, 0.99), Ok(990.0));
    assert!(tail_percentile(&samples[..999], 0.99).is_err());
    assert_eq!(tail_percentile(&samples[..100], 0.9), Ok(90.0));
    assert!(tail_percentile(&samples[..99], 0.9).is_err());
    assert_eq!(percentile(&samples, 0.5), Some(500.0));
}

fn point() -> Point {
    Point {
        source: Source::Perfect(PerfectProgram::Trfd),
        iterations: 100,
        machine: 0,
        window: 16,
        md: 60,
    }
}

fn oracle() -> Oracle {
    let mut oracle = Oracle::default();
    oracle.cycles.insert(point(), 1234);
    oracle
}

#[test]
fn busy_and_error_replies_fail_and_miss_every_limit() {
    let oracle = oracle();
    let now = Instant::now();
    let later = now + Duration::from_millis(3);
    let mut tracker = Tracker::default();
    for id in ["busy", "bad", "hurt", "odd", "fine"] {
        tracker.insert(id.to_string(), now, 0, vec![point()]);
    }
    let busy = tracker
        .on_line(
            "busy id=busy queued=9 limit=8 retry_after_ms=50",
            later,
            &oracle,
        )
        .expect("busy finishes the request");
    assert_eq!(busy.latency_ms, FAILED);
    let bad = tracker
        .on_line("error id=bad msg=bad window '0'", later, &oracle)
        .expect("a rejection finishes the request");
    assert_eq!(bad.latency_ms, FAILED);
    // A failed point is followed by its done line, which then fails.
    assert!(tracker
        .on_line("error id=hurt msg=point 0 failed: injected", later, &oracle)
        .is_none());
    let hurt = tracker
        .on_line(
            "done id=hurt points=1 delivered=0 dropped=0 aborted=0 failed=1 cached=0 status=error",
            later,
            &oracle,
        )
        .expect("done finishes the request");
    assert_eq!(hurt.latency_ms, FAILED);
    // An unbalanced done fails even with status=ok.
    let odd = tracker
        .on_line(
            "done id=odd points=1 delivered=1 dropped=0 aborted=0 failed=0 cached=0 status=ok",
            later,
            &oracle,
        )
        .expect("done finishes the request");
    assert_eq!(odd.latency_ms, FAILED);
    assert!(tracker
        .on_line(
            "point id=fine index=0 machine=dm window=16 md=60 cycles=1234",
            later,
            &oracle
        )
        .is_none());
    let fine = tracker
        .on_line(
            "done id=fine points=1 delivered=1 dropped=0 aborted=0 failed=0 cached=0 status=ok",
            later,
            &oracle,
        )
        .expect("done finishes the request");
    assert!((fine.latency_ms - 3.0).abs() < 1e-9);
    assert_eq!(tracker.mismatches, 0);
    assert_eq!(tracker.outstanding(), 0);

    // Failed requests sort above every answered one, so they set a tail
    // percentile as soon as they reach it.
    let mut samples = vec![1.0; 990];
    samples.extend([FAILED; 10]);
    assert_eq!(tail_percentile(&samples, 0.99), Ok(1.0));
    samples.push(FAILED);
    assert_eq!(tail_percentile(&samples, 0.99), Ok(FAILED));
}

#[test]
fn a_wrong_point_is_a_mismatch() {
    let oracle = oracle();
    let now = Instant::now();
    let mut tracker = Tracker::default();
    tracker.insert("x".to_string(), now, 0, vec![point()]);
    tracker.on_line(
        "point id=x index=0 machine=dm window=16 md=60 cycles=1235",
        now,
        &oracle,
    );
    assert_eq!(tracker.mismatches, 1);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_is_duration_minus_covered_children() {
    let spans = vec![
        span("bench.rep", 0, 100, None),
        span("core.table1", 10, 30, Some(0)),
        span("core.table1", 20, 50, Some(0)),
        span("serve.request", 60, 70, Some(0)),
        span("trace.lower", 62, 65, Some(3)),
        // A child reaching past its parent only covers the overlap.
        span("core.late", 95, 120, Some(0)),
    ];
    let own = span_self_ns(&spans);
    // 100 − |[10,50) ∪ [60,70) ∪ [95,100)| = 100 − 55.
    assert_eq!(own, vec![45, 20, 30, 7, 3, 25]);
    let layers = layer_self_ns(&spans);
    assert_eq!(layers["bench"], 45);
    assert_eq!(layers["core"], 75);
    assert_eq!(layers["serve"], 7);
    assert_eq!(layers["trace"], 3);

    let mut all = spans.clone();
    merge(
        &mut all,
        vec![
            span("bench.rep", 0, 10, None),
            span("core.x", 1, 2, Some(0)),
        ],
    );
    assert_eq!(all[7].parent, Some(6));
}

#[test]
fn the_tracer_nests_and_a_disabled_one_records_nothing() {
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let s = off.enter("bench.x", 1);
    off.exit(s);
    assert!(off.into_spans().is_empty());

    let mut on = Tracer::new(true, origin);
    let outer = on.enter("bench.x", 1);
    let inner = on.enter("core.y", 1);
    on.exit(inner);
    on.record("serve.z", 2, Instant::now(), Instant::now());
    on.exit(outer);
    let spans = on.into_spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn the_result_line_names_every_metric_with_its_unit() {
    let mut report = Report {
        correct: true,
        attempted: 3,
        ..Report::default()
    };
    for (name, _) in END_TO_END {
        report.set(name, 1.5);
    }
    let json = report.to_json(&END_TO_END).expect("complete");
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    report.metrics.pop();
    assert!(report.to_json(&END_TO_END).is_err());
    report.set("peak_rss_mb", f64::INFINITY);
    assert!(report.to_json(&END_TO_END).is_err());
}

#[test]
fn the_metric_tables_match_benchmark_json() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let entries = json.matches("\"name\": ").count();
    // Three workloads plus every metric of both tables, each named once.
    assert_eq!(entries, 3 + END_TO_END.len() + PER_LAYER.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
