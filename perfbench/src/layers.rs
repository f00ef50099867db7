//! Per-layer measurements for the traced run.
//!
//! Each function times one layer's public entry point on the workload's
//! own points or request lines, records a span around every call, and
//! checks what it computes against the oracle.  Simulated-time counters
//! (`ooo.*`, `mem.*`) come from `DmResult` / `SwsmResult` and are
//! deterministic for a given seed.

use crate::client::{LineConn, ServeProcess};
use crate::points::{machine, window, Grid, Oracle, Point, Source};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::{layer_self_ns, Span, Tracer};
use crate::stats::{median, ms, ns};
use dae_core::{
    cache_key_digest, dm_config, swsm_config, CacheStore, LoweredTrace, ScalarMode, StoreRecord,
    SweepSession,
};
use dae_machines::{DecoupledMachine, ScalarConfig, ScalarReference, SuperscalarMachine};
use dae_serve::{parse_request, serve_connection, DoneStatus, Partitioner, Response, SweepServer};
use dae_trace::{expand_swsm, lower_scalar, partition, PartitionMode};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sample points per machine for the simulator layers.
pub const MACHINE_SAMPLE: usize = 40;
/// Single-point lines sent down each wire path.
const WIRE_SAMPLE: usize = 20;

/// Up to `n` points per machine drawn (seeded) from `points`; scalar
/// points are derived from the DM ones when the workload has none.
#[must_use]
pub fn sample(points: &[Point], n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, 0x1a7e);
    let mut out = Vec::new();
    for code in 0..3u8 {
        let mut of: Vec<Point> = points
            .iter()
            .filter(|p| p.machine == code)
            .copied()
            .collect();
        if of.is_empty() && code == 2 {
            of = points
                .iter()
                .filter(|p| p.machine == 0)
                .map(|p| Point { machine: 2, ..*p })
                .collect();
        }
        if of.is_empty() {
            continue;
        }
        for _ in 0..n.min(of.len()) {
            out.push(of[rng.below(of.len())]);
        }
    }
    out
}

/// Lowered forms of one program, built once per measurement.
struct Program {
    lowered: LoweredTrace,
    dm: dae_trace::DecoupledProgram,
    swsm: dae_trace::SwsmProgram,
    scalar: dae_trace::ScalarProgram,
    len: usize,
}

/// `workloads.*`, `trace.lower_*`, `machines.*`, `ooo.*`, `mem.*` and
/// `core.sweep_overhead_us_per_point`, over `points`.  Returns the number
/// of mismatches against the oracle.
pub fn simulator_layers(
    points: &[Point],
    oracle: &Oracle,
    tracer: &mut Tracer,
    report: &mut Report,
) -> u64 {
    let programs: BTreeSet<(Source, u64)> = points.iter().map(Point::program).collect();
    let (mut trace_ns, mut lower_ns, mut lowered_insts) = (0.0, 0.0, 0.0);
    let mut built: BTreeMap<(Source, u64), Program> = BTreeMap::new();
    for &(source, iterations) in &programs {
        let span = tracer.enter("workloads.trace", 0);
        let t = Instant::now();
        let trace = source.trace(iterations);
        trace_ns += ns(t.elapsed());
        tracer.exit(span);
        let span = tracer.enter("trace.lower", 0);
        let t = Instant::now();
        let lowered = LoweredTrace::new(&trace);
        lower_ns += ns(t.elapsed());
        tracer.exit(span);
        lowered_insts += trace.len() as f64;
        built.insert(
            (source, iterations),
            Program {
                lowered,
                dm: partition(&trace, PartitionMode::Tagged),
                swsm: expand_swsm(&trace),
                scalar: lower_scalar(&trace),
                len: trace.len(),
            },
        );
    }
    report.set("workloads.trace_ms", trace_ns / 1e6);
    report.set("trace.lower_ms", lower_ns / 1e6);
    report.set("trace.lower_ns_per_inst", lower_ns / lowered_insts.max(1.0));

    // Host time per simulated instruction through the session's own
    // dispatch (`machine_cycles_in`, pooled buffers, scalar analytic).
    let mut mismatches = 0;
    let mut per_machine = [(0.0f64, 0.0f64); 3];
    for p in points {
        let prog = &built[&p.program()];
        let name = ["machines.dm", "machines.swsm", "machines.scalar"][usize::from(p.machine)];
        let span = tracer.enter(name, 0);
        let t = Instant::now();
        let cycles = prog.lowered.machine_cycles_in(
            machine(p.machine),
            window(p.window),
            p.md,
            ScalarMode::Analytic,
        );
        let elapsed = ns(t.elapsed());
        tracer.exit(span);
        per_machine[usize::from(p.machine)].0 += elapsed;
        per_machine[usize::from(p.machine)].1 += prog.len as f64;
        if oracle.cycles.get(p).is_some_and(|&c| c != cycles) {
            mismatches += 1;
        }
    }
    for (i, name) in ["dm", "swsm", "scalar"].iter().enumerate() {
        let (t, n) = per_machine[i];
        report.set(&format!("machines.{name}_ns_per_inst"), t / n.max(1.0));
    }

    // Simulated-time counters and the session path's overhead: the same
    // DM/SWSM points through a cache-less session, one point per sweep,
    // against direct `run_lowered` on fresh buffers.
    let mut session = SweepSession::new();
    session.set_cache_enabled(false);
    let ids: BTreeMap<_, _> = built
        .iter()
        .map(|(&k, prog)| (k, session.pin_lowered(prog.lowered.clone())))
        .collect();
    let (mut session_ns, mut direct_ns, mut timed) = (0.0f64, 0.0f64, 0.0f64);
    let mut au_ipc = Vec::new();
    let mut du_ipc = Vec::new();
    let mut swsm_ipc = Vec::new();
    let (mut full, mut starved, mut unit_cycles) = (0u64, 0u64, 0u64);
    let (mut bypass, mut peak) = (0u64, 0usize);
    let (mut pb_hits, mut pb_lookups, mut pb_evictions) = (0u64, 0u64, 0u64);
    for p in points.iter().filter(|p| p.machine < 2) {
        let prog = &built[&p.program()];
        let span = tracer.enter("core.sweep_nocache", 0);
        let t = Instant::now();
        let swept = session.sweep(
            ids[&p.program()],
            &[(machine(p.machine), window(p.window), p.md)],
        );
        session_ns += ns(t.elapsed());
        tracer.exit(span);
        let span = tracer.enter("machines.run_lowered", 0);
        let t = Instant::now();
        let cycles = if p.machine == 0 {
            let r = DecoupledMachine::new(dm_config(window(p.window), p.md))
                .run_lowered(&prog.dm, prog.len);
            au_ipc.push(r.au.ipc());
            du_ipc.push(r.du.ipc());
            for u in [&r.au, &r.du] {
                full += u.window_full_cycles;
                starved += u.starved_cycles;
                unit_cycles += u.cycles;
            }
            bypass += r.memory.bypass_hits;
            peak = peak.max(r.memory.peak_occupancy);
            r.cycles()
        } else {
            let r = SuperscalarMachine::new(swsm_config(window(p.window), p.md))
                .run_lowered(&prog.swsm, prog.len);
            swsm_ipc.push(r.unit.ipc());
            full += r.unit.window_full_cycles;
            starved += r.unit.starved_cycles;
            unit_cycles += r.unit.cycles;
            pb_hits += r.buffer.hits;
            pb_lookups += r.buffer.hits + r.buffer.misses;
            pb_evictions += r.buffer.evictions;
            r.cycles()
        };
        direct_ns += ns(t.elapsed());
        timed += 1.0;
        tracer.exit(span);
        if swept.first() != Some(&cycles) || oracle.cycles.get(p).is_some_and(|&c| c != cycles) {
            mismatches += 1;
        }
    }
    // The scalar machine simulated (not the analytic formula) must agree.
    for p in points.iter().filter(|p| p.machine == 2).take(4) {
        let prog = &built[&p.program()];
        let simulated = ScalarReference::new(ScalarConfig::new(p.md))
            .run_lowered(&prog.scalar, prog.len)
            .cycles();
        if simulated != prog.lowered.scalar_cycles(p.md) {
            mismatches += 1;
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / (v.len().max(1) as f64);
    report.set("ooo.dm_au_ipc", mean(&au_ipc));
    report.set("ooo.dm_du_ipc", mean(&du_ipc));
    report.set("ooo.swsm_ipc", mean(&swsm_ipc));
    let frac = |n: u64| n as f64 / (unit_cycles.max(1) as f64);
    report.set("ooo.window_full_frac", frac(full));
    report.set("ooo.starved_frac", frac(starved));
    report.set("mem.dm_bypass_hits", bypass as f64);
    report.set("mem.dm_peak_occupancy", peak as f64);
    report.set(
        "mem.pb_hit_ratio",
        pb_hits as f64 / (pb_lookups.max(1) as f64),
    );
    report.set("mem.pb_evictions", pb_evictions as f64);
    report.set(
        "core.sweep_overhead_us_per_point",
        (session_ns - direct_ns) / timed.max(1.0) / 1e3,
    );
    mismatches
}

/// `core.store_*` and `core.placement_ns` over `points`.
///
/// # Errors
///
/// Reports store I/O errors.
pub fn core_layers(
    points: &[Point],
    oracle: &Oracle,
    dir: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("store probe: {e}");
    let _ = std::fs::remove_dir_all(dir);
    let records: Vec<StoreRecord> = points
        .iter()
        .filter_map(|p| {
            Some(StoreRecord {
                hash: *oracle.hash.get(&p.program())?,
                machine: machine(p.machine),
                window: window(p.window),
                md: p.md,
                cycles: *oracle.cycles.get(p)?,
                cost_nanos: 0,
            })
        })
        .collect();
    let (mut store, _) = CacheStore::open(dir).map_err(io)?;
    let mut append_ns = 0.0;
    for record in &records {
        let span = tracer.enter("core.store_append", 0);
        let t = Instant::now();
        store.append(record).map_err(io)?;
        append_ns += ns(t.elapsed());
        tracer.exit(span);
    }
    drop(store);
    let span = tracer.enter("core.store_open", 0);
    let t = Instant::now();
    let (_, load) = CacheStore::open(dir).map_err(io)?;
    let replay_ns = ns(t.elapsed());
    tracer.exit(span);
    if load.records != records {
        return Err("store replay returned different records than were appended".into());
    }
    let n = records.len().max(1) as f64;
    report.set("core.store_append_us", append_ns / n / 1e3);
    report.set("core.store_replay_us_per_record", replay_ns / n / 1e3);
    let _ = std::fs::remove_dir_all(dir);

    let ring = Partitioner::new(2);
    let keyed: Vec<_> = records
        .iter()
        .map(|r| (r.hash, r.machine, r.window, r.md))
        .collect();
    const REPS: usize = 200;
    let span = tracer.enter("core.placement", 0);
    let t = Instant::now();
    let mut spread = 0usize;
    for _ in 0..REPS {
        for &(hash, m, w, md) in &keyed {
            let digest = cache_key_digest(std::hint::black_box(hash), m, w, md);
            spread += ring.assign(digest).unwrap_or(0);
        }
    }
    let placement_ns = ns(t.elapsed());
    tracer.exit(span);
    std::hint::black_box(spread);
    report.set(
        "core.placement_ns",
        placement_ns / ((REPS * keyed.len().max(1)) as f64),
    );
    Ok(())
}

/// `serve.parse_ns` and `serve.format_ns` over the workload's request
/// lines and the `point` / `done` lines they produce.  Returns lines that
/// failed to parse.
pub fn protocol_layers(
    lines: &[(String, Vec<Point>)],
    oracle: &Oracle,
    tracer: &mut Tracer,
    report: &mut Report,
) -> u64 {
    const REPS: usize = 20;
    let mut bad = 0;
    let span = tracer.enter("serve.parse", 0);
    let t = Instant::now();
    for _ in 0..REPS {
        for (line, _) in lines {
            if std::hint::black_box(parse_request(line)).is_err() {
                bad += 1;
            }
        }
    }
    let parse_ns = ns(t.elapsed());
    tracer.exit(span);
    let responses: Vec<Response> = lines
        .iter()
        .enumerate()
        .flat_map(|(n, (_, points))| {
            let id = format!("r{n}");
            let mut out: Vec<Response> = points
                .iter()
                .enumerate()
                .map(|(index, p)| Response::Point {
                    id: id.clone(),
                    index,
                    machine: machine(p.machine),
                    window: window(p.window),
                    md: p.md,
                    cycles: oracle.cycles.get(p).copied().unwrap_or(0),
                })
                .collect();
            out.push(Response::Done {
                id,
                points: points.len(),
                delivered: points.len(),
                dropped: 0,
                aborted: 0,
                failed: 0,
                cached: 0,
                status: DoneStatus::Ok,
            });
            out
        })
        .collect();
    let span = tracer.enter("serve.format", 0);
    let t = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..REPS {
        for response in &responses {
            bytes += std::hint::black_box(response.to_string()).len();
        }
    }
    let format_ns = ns(t.elapsed());
    tracer.exit(span);
    std::hint::black_box(bytes);
    report.set(
        "serve.parse_ns",
        parse_ns / ((REPS * lines.len().max(1)) as f64),
    );
    report.set(
        "serve.format_ns",
        format_ns / ((REPS * responses.len().max(1)) as f64),
    );
    bad
}

/// `serve.wire_ms` and `serve.coordinator_hop_ms`: the same single-point
/// lines (all cache hits) through in-process `serve_connection` over
/// in-memory buffers, over loopback TCP straight to the backend that owns
/// the point, and through a two-backend coordinator.  Returns mismatches.
///
/// # Errors
///
/// Reports process or socket failures.
pub fn wire_layers(
    binary: &Path,
    scratch: &Path,
    points: &[Point],
    oracle: &Oracle,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<u64, String> {
    let points: Vec<Point> = points.iter().take(WIRE_SAMPLE).copied().collect();
    let net = |e: std::io::Error| format!("wire probe: {e}");
    let mut backends = Vec::new();
    for i in 0..2 {
        backends.push(ServeProcess::spawn(
            binary,
            &["--tcp".into(), "127.0.0.1:0".into()],
            &scratch.join(format!("wire-backend{i}.log")),
        )?);
    }
    let list = format!("{},{}", backends[0].addr, backends[1].addr);
    let mut coordinator = ServeProcess::spawn(
        binary,
        &[
            "--coordinator".into(),
            list,
            "--tcp".into(),
            "127.0.0.1:0".into(),
        ],
        &scratch.join("wire-coordinator.log"),
    )?;
    let mut via = LineConn::connect(coordinator.addr).map_err(net)?;
    let mut direct = [
        LineConn::connect(backends[0].addr).map_err(net)?,
        LineConn::connect(backends[1].addr).map_err(net)?,
    ];
    let server = Arc::new(SweepServer::new());
    let ring = Partitioner::new(2);
    let mut mismatches = 0;
    let round_trip =
        |conn: &mut LineConn, line: &str, want: u64| -> Result<(Duration, bool), String> {
            let t = Instant::now();
            conn.send(line).map_err(net)?;
            let mut ok = false;
            loop {
                let reply = conn
                    .read_line(Some(Duration::from_secs(30)))
                    .map_err(net)?
                    .ok_or("wire probe: no reply within 30 s")?;
                if reply.starts_with("point ") {
                    ok = reply.ends_with(&format!(" cycles={want}"));
                } else {
                    return Ok((t.elapsed(), ok && reply.contains("status=ok")));
                }
            }
        };
    let lines: Vec<(String, u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(n, p)| {
            let owner = oracle
                .hash
                .get(&p.program())
                .and_then(|&h| {
                    ring.assign(cache_key_digest(
                        h,
                        machine(p.machine),
                        window(p.window),
                        p.md,
                    ))
                })
                .unwrap_or(0);
            let line = Grid::single(*p).line(&format!("w{n}"), "stream", "interactive");
            (line, oracle.cycles.get(p).copied().unwrap_or(0), owner)
        })
        .collect();
    // Untimed pass: every path answers (and caches) every point once.
    for (line, want, owner) in &lines {
        let mut out = Vec::new();
        serve_connection(&server, Cursor::new(format!("{line}\n")), &mut out).map_err(net)?;
        if !String::from_utf8_lossy(&out).contains(&format!(" cycles={want}\n")) {
            mismatches += 1;
        }
        mismatches += u64::from(!round_trip(&mut via, line, *want)?.1);
        mismatches += u64::from(!round_trip(&mut direct[*owner], line, *want)?.1);
    }
    // Timed: each path's requests back to back on one connection, the way
    // a client issuing one request after another sees them.
    let mut inproc = Vec::new();
    for (n, (line, _, _)) in lines.iter().enumerate() {
        let span = tracer.enter("serve.inproc", n as u64);
        let t = Instant::now();
        serve_connection(&server, Cursor::new(format!("{line}\n")), Vec::new()).map_err(net)?;
        inproc.push(ms(t.elapsed()));
        tracer.exit(span);
    }
    let mut tcp = Vec::new();
    for (backend, conn) in direct.iter_mut().enumerate() {
        for (n, (line, want, _)) in lines.iter().enumerate().filter(|(_, l)| l.2 == backend) {
            let t = Instant::now();
            let (rtt, ok) = round_trip(conn, line, *want)?;
            tracer.record("serve.direct_rtt", n as u64, t, Instant::now());
            mismatches += u64::from(!ok);
            tcp.push(ms(rtt));
        }
    }
    let mut hop = Vec::new();
    for (n, (line, want, _)) in lines.iter().enumerate() {
        let t = Instant::now();
        let (rtt, ok) = round_trip(&mut via, line, *want)?;
        tracer.record("serve.coordinator_rtt", n as u64, t, Instant::now());
        mismatches += u64::from(!ok);
        hop.push(ms(rtt));
    }
    let direct_ms = median(&tcp);
    report.set("serve.wire_ms", direct_ms - median(&inproc));
    report.set("serve.coordinator_hop_ms", median(&hop) - direct_ms);
    drop(via);
    drop(direct);
    coordinator.shutdown(crate::SHUTDOWN_TIMEOUT);
    for backend in &mut backends {
        backend.shutdown(crate::SHUTDOWN_TIMEOUT);
    }
    Ok(mismatches)
}

/// `self.*` and `tracing.*` from the traced pass's spans and the two
/// passes' wall times.
pub fn finish_trace(spans: &[Span], untraced: Duration, traced: Duration, report: &mut Report) {
    let layers = layer_self_ns(spans);
    for name in ["bench", "workloads", "trace", "machines", "core", "serve"] {
        let self_ns = layers.get(name).copied().unwrap_or(0);
        report.set(&format!("self.{name}_ms"), self_ns as f64 / 1e6);
    }
    let overhead = traced.as_secs_f64() - untraced.as_secs_f64();
    report.set("tracing.overhead_ms", overhead * 1e3);
    report.set(
        "tracing.overhead_frac",
        overhead / untraced.as_secs_f64().max(1e-9),
    );
    report.set("tracing.spans", spans.len() as f64);
}
