//! Sweep points as the benchmark draws them, their wire spelling, and the
//! in-process oracle every delivered result is checked against.

use dae_core::{LoweredTrace, Machine, SweepPoint, SweepSession, TraceHash, WindowSpec};
use dae_trace::Trace;
use dae_workloads::PerfectProgram;
use std::collections::{BTreeMap, BTreeSet};

/// The synthetic traces `dae-serve` accepts by name.
pub const SYNTHETICS: [&str; 5] = [
    "stream",
    "stencil",
    "pointer-chase",
    "reduction",
    "gather-scatter",
];

/// A trace source: a PERFECT program or a named synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    /// One of the seven PERFECT workload models.
    Perfect(PerfectProgram),
    /// An index into [`SYNTHETICS`].
    Synthetic(usize),
}

impl Source {
    /// Every source: the seven PERFECT programs, then the synthetics.
    #[must_use]
    pub fn all() -> Vec<Source> {
        PerfectProgram::ALL
            .iter()
            .map(|&p| Source::Perfect(p))
            .chain((0..SYNTHETICS.len()).map(Source::Synthetic))
            .collect()
    }

    /// The `trace=` value naming this source on the wire.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Source::Perfect(p) => p.name(),
            Source::Synthetic(i) => SYNTHETICS[i],
        }
    }

    /// The source expanded for `iterations` kernel iterations.
    #[must_use]
    pub fn trace(self, iterations: u64) -> Trace {
        let workload = match self {
            Source::Perfect(p) => p.workload(),
            Source::Synthetic(0) => dae_workloads::stream(),
            Source::Synthetic(1) => dae_workloads::stencil(),
            Source::Synthetic(2) => dae_workloads::pointer_chase(),
            Source::Synthetic(3) => dae_workloads::reduction(),
            Source::Synthetic(_) => dae_workloads::gather_scatter(),
        };
        workload.trace(iterations)
    }
}

/// A machine code: 0 = DM, 1 = SWSM, 2 = scalar.
pub type MachineCode = u8;

/// The wire token of a machine code.
#[must_use]
pub fn machine_token(code: MachineCode) -> &'static str {
    ["dm", "swsm", "scalar"][usize::from(code)]
}

/// The machine of a machine code.
#[must_use]
pub fn machine(code: MachineCode) -> Machine {
    [Machine::Decoupled, Machine::Superscalar, Machine::Scalar][usize::from(code)]
}

/// A window code: 0 = unlimited, otherwise the entry count.
#[must_use]
pub fn window(code: u32) -> WindowSpec {
    if code == 0 {
        WindowSpec::Unlimited
    } else {
        WindowSpec::Entries(code as usize)
    }
}

/// The wire token of a window code.
#[must_use]
pub fn window_token(code: u32) -> String {
    if code == 0 {
        "inf".to_string()
    } else {
        code.to_string()
    }
}

/// One sweep point: what the cache keys on, plus the trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// The trace source.
    pub source: Source,
    /// Kernel iterations the source is expanded for.
    pub iterations: u64,
    /// The machine code.
    pub machine: MachineCode,
    /// The window code.
    pub window: u32,
    /// The memory differential.
    pub md: u64,
}

impl Point {
    /// The `(source, iterations)` pair whose lowering the point runs on.
    #[must_use]
    pub fn program(&self) -> (Source, u64) {
        (self.source, self.iterations)
    }
}

/// A sweep grid on one program: machines × windows × MDs in the protocol's
/// canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// The trace source.
    pub source: Source,
    /// Kernel iterations.
    pub iterations: u64,
    /// Machine codes.
    pub machines: Vec<MachineCode>,
    /// Window codes.
    pub windows: Vec<u32>,
    /// Memory differentials.
    pub mds: Vec<u64>,
}

impl Grid {
    /// A single-point grid.
    #[must_use]
    pub fn single(p: Point) -> Self {
        Grid {
            source: p.source,
            iterations: p.iterations,
            machines: vec![p.machine],
            windows: vec![p.window],
            mds: vec![p.md],
        }
    }

    /// The grid's points in canonical order (the `index=` of `point` lines).
    #[must_use]
    pub fn points(&self) -> Vec<Point> {
        let mut points = Vec::new();
        for &machine in &self.machines {
            for &window in &self.windows {
                for &md in &self.mds {
                    points.push(Point {
                        source: self.source,
                        iterations: self.iterations,
                        machine,
                        window,
                        md,
                    });
                }
            }
        }
        points
    }

    /// The `sweep` request line for this grid.
    #[must_use]
    pub fn line(&self, id: &str, mode: &str, priority: &str) -> String {
        let list = |items: Vec<String>| items.join(",");
        format!(
            "sweep id={id} trace={} iterations={} machines={} windows={} mds={} mode={mode} priority={priority}",
            self.source.token(),
            self.iterations,
            list(self.machines.iter().map(|&m| machine_token(m).to_string()).collect()),
            list(self.windows.iter().map(|&w| window_token(w)).collect()),
            list(self.mds.iter().map(u64::to_string).collect()),
        )
    }
}

/// In-process results for a set of points: the cycles a `SweepSession`
/// computes for each, plus per-program trace lengths and content hashes.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Cycles per point.
    pub cycles: BTreeMap<Point, u64>,
    /// Architectural instructions per `(source, iterations)`.
    pub trace_len: BTreeMap<(Source, u64), usize>,
    /// Structural lowering hash per `(source, iterations)`.
    pub hash: BTreeMap<(Source, u64), TraceHash>,
}

impl Oracle {
    /// Runs `points` through a fresh in-process session.
    #[must_use]
    pub fn compute(points: &BTreeSet<Point>) -> Oracle {
        let mut session = SweepSession::new();
        let mut oracle = Oracle::default();
        let mut ids = BTreeMap::new();
        for program in points.iter().map(Point::program).collect::<BTreeSet<_>>() {
            let trace = program.0.trace(program.1);
            let lowered = LoweredTrace::new(&trace);
            oracle.trace_len.insert(program, trace.len());
            oracle.hash.insert(program, lowered.content_hash());
            ids.insert(program, session.pin_lowered(lowered));
        }
        let sweep: Vec<SweepPoint> = points
            .iter()
            .map(|p| {
                (
                    ids[&p.program()],
                    machine(p.machine),
                    window(p.window),
                    p.md,
                )
            })
            .collect();
        oracle.cycles = points
            .iter()
            .copied()
            .zip(session.sweep_multi(&sweep))
            .collect();
        oracle
    }

    /// Trace instructions of a point's program.
    #[must_use]
    pub fn instructions(&self, p: &Point) -> u64 {
        self.trace_len.get(&p.program()).map_or(0, |&n| n as u64)
    }
}

/// FNV-1a over a canonical text rendering of `(point, cycles)` pairs:
/// the digest the golden files hold.
#[must_use]
pub fn digest(results: &BTreeMap<Point, u64>) -> u64 {
    text_digest(results.iter().map(|(p, cycles)| {
        format!(
            "{} {} {} {} {} {cycles}\n",
            p.source.token(),
            p.iterations,
            machine_token(p.machine),
            window_token(p.window),
            p.md
        )
    }))
}

/// FNV-1a over the concatenation of `texts`.
#[must_use]
pub fn text_digest<S: AsRef<str>>(texts: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for byte in text.as_ref().bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
