//! The `serve-open` request schedule: a pure function of the seed, the
//! rate and the length.
//!
//! A run of `seconds` at `rate` holds exactly `rate × seconds` requests,
//! due at seeded uniform times (a Poisson process conditioned on its
//! count), with the classes in exact proportion in a seeded order.  Each
//! request is
//! * `interactive` — one point, `mode=stream priority=interactive`;
//! * `normal` — a small grid (2 machines × 1 window × 2 MDs),
//!   `mode=stream priority=normal`;
//! * `bulk` — a larger grid (2 machines × 4 windows × 2 MDs),
//!   `mode=batch priority=bulk`.
//!
//! About half of all requests repeat an earlier point or grid (cache hits
//! unless evicted); the rest draw new ones, over PERFECT and synthetic
//! traces at several iteration counts, windows and memory differentials.
//!
//! The request shapes and iteration counts are the ones the repository's
//! own request examples use (`docs/PROTOCOL.md`, `scripts/serve_smoke.sh`,
//! `dae_bench::bench_config()`); the class shares are an assumption, since
//! no recorded traffic exists (see README.md, "Where the mix comes from").

use crate::points::{Grid, Point, Source};
use crate::rng::Rng;
use std::collections::BTreeSet;
use std::fmt::Write;

/// Request classes, as indices into [`CLASSES`].
pub const INTERACTIVE: usize = 0;
/// A streamed small grid.
pub const NORMAL: usize = 1;
/// A batched larger grid.
pub const BULK: usize = 2;
/// `(name, mode, priority, share of requests)` per class.  The shares are
/// an assumption: mostly cheap probes, a tail of larger grids.
pub const CLASSES: [(&str, &str, &str, f64); 3] = [
    ("interactive", "stream", "interactive", 0.7),
    ("normal", "stream", "normal", 0.2),
    ("bulk", "batch", "bulk", 0.1),
];

/// Iteration counts the traces are expanded for: those of the example
/// requests in `docs/PROTOCOL.md` (100, 120, 200) and
/// `scripts/serve_smoke.sh` (120, 150), and of `bench_config()` (200).
pub const ITERATIONS: [u64; 4] = [100, 120, 150, 200];
/// Window codes drawn (0 = unlimited): `paper_scale()`'s ten windows, plus
/// 12 and unlimited from the example requests.
pub const WINDOWS: [u32; 12] = [4, 8, 12, 16, 24, 32, 48, 64, 80, 96, 128, 0];
/// Memory differentials drawn: the paper's 0–60 range at half its step
/// of 10, so the space holds enough distinct points for half the
/// requests to be new.
pub const MDS: [u64; 13] = [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60];
/// Share of requests that repeat an earlier point or grid.
pub const REPEAT_SHARE: f64 = 0.5;

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// When it is due, in µs from the schedule's start.
    pub due_us: u64,
    /// The connection that sends it (0 or 1).
    pub conn: usize,
    /// Its class (an index into [`CLASSES`]).
    pub class: usize,
    /// Its request id.
    pub id: String,
    /// What it sweeps.
    pub grid: Grid,
}

impl Entry {
    /// The request line.
    #[must_use]
    pub fn line(&self) -> String {
        let (_, mode, priority, _) = CLASSES[self.class];
        self.grid.line(&self.id, mode, priority)
    }
}

/// A generated schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Requests in due order.
    pub entries: Vec<Entry>,
}

fn draw_point(rng: &mut Rng, sources: &[Source]) -> Point {
    // Scalar points are cheap (analytic); keep them a small share.
    let machine = match rng.below(10) {
        0 => 2,
        n => (n % 2) as u8,
    };
    Point {
        source: rng.pick(sources),
        iterations: rng.pick(&ITERATIONS),
        machine,
        window: rng.pick(&WINDOWS),
        md: rng.pick(&MDS),
    }
}

/// A grid of the class's shape: `normal` as the 4-point stream sweeps of
/// `docs/PROTOCOL.md` (`hurt`, `heal`: DM and SWSM × 1 window × 2 MDs),
/// `bulk` as its `priority=bulk` example (`big`: DM and SWSM × 4 windows
/// × 2 MDs).
fn draw_grid(rng: &mut Rng, sources: &[Source], class: usize) -> Grid {
    let windows = if class == BULK { 4 } else { 1 };
    Grid {
        source: rng.pick(sources),
        iterations: rng.pick(&ITERATIONS),
        machines: vec![0, 1],
        windows: rng.subset(&WINDOWS, windows),
        mds: rng.subset(&MDS, 2),
    }
}

/// The schedule for `seed`: `rate × seconds` requests over `seconds`,
/// split over two connections.
#[must_use]
pub fn generate(seed: u64, rate: f64, seconds: f64) -> Schedule {
    let mut rng = Rng::new(seed, 0x5c4e);
    let sources = Source::all();
    let n = (rate * seconds).round() as usize;
    let mut due: Vec<u64> = (0..n)
        .map(|_| (rng.unit() * seconds * 1e6) as u64)
        .collect();
    due.sort_unstable();
    let mut classes: Vec<usize> = Vec::with_capacity(n);
    for (class, &(_, _, _, share)) in CLASSES.iter().enumerate().rev() {
        let count = if class == INTERACTIVE {
            n - classes.len()
        } else {
            (share * n as f64).round() as usize
        };
        classes.extend(std::iter::repeat_n(class, count));
    }
    rng.shuffle(&mut classes);
    let mut points: Vec<Point> = Vec::new();
    let mut seen: BTreeSet<Point> = BTreeSet::new();
    let mut grids: [Vec<Grid>; 3] = Default::default();
    let mut entries = Vec::with_capacity(n);
    for (k, (due_us, class)) in due.into_iter().zip(classes).enumerate() {
        let repeat = rng.unit() < REPEAT_SHARE;
        let grid = if class == INTERACTIVE {
            let point = if repeat && !points.is_empty() {
                points[rng.below(points.len())]
            } else {
                // A point no earlier request named (bounded retries).
                let mut p = draw_point(&mut rng, &sources);
                for _ in 0..32 {
                    if !seen.contains(&p) {
                        break;
                    }
                    p = draw_point(&mut rng, &sources);
                }
                p
            };
            Grid::single(point)
        } else if repeat && !grids[class].is_empty() {
            grids[class][rng.below(grids[class].len())].clone()
        } else {
            draw_grid(&mut rng, &sources, class)
        };
        for p in grid.points() {
            if seen.insert(p) {
                points.push(p);
            }
        }
        if class != INTERACTIVE {
            grids[class].push(grid.clone());
        }
        entries.push(Entry {
            due_us,
            conn: rng.below(2),
            class,
            id: format!("{}{k}", &CLASSES[class].0[..1]),
            grid,
        });
    }
    Schedule { entries }
}

impl Schedule {
    /// Every distinct point the schedule names.
    #[must_use]
    pub fn distinct_points(&self) -> BTreeSet<Point> {
        self.entries.iter().flat_map(|e| e.grid.points()).collect()
    }

    /// The schedule as text — due time, connection, request line — one
    /// request per line (what "byte-identical schedule" compares).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{} {} {}", e.due_us, e.conn, e.line());
        }
        out
    }
}
