//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three workloads drive the system from outside, through its public entry
//! points, and check every output before reporting a time:
//!
//! * [`paper`] — `paper-suite`: every paper artefact regenerated in process
//!   over one fresh `SweepSession` per repetition;
//! * [`serve_open`] — `serve-open`: an open-loop, seeded schedule of mixed
//!   priority requests against one `dae-serve --tcp --cache-dir`;
//! * [`sharded`] — `sharded-warm`: closed-loop cached single points through
//!   a coordinator over two restarted, store-warm backends.
//!
//! [`layers`] measures the per-layer numbers of a traced run; `README.md`
//! next to this crate defines every metric.

pub mod client;
pub mod layers;
pub mod paper;
pub mod points;
pub mod report;
pub mod rng;
pub mod schedule;
pub mod serve_open;
pub mod sharded;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::time::Duration;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload seed: every input is a pure function of it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for this run (stores, logs), removed at the end.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
}

impl Options {
    /// The measured phase as a duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// How long a clean shutdown may take before the process is killed.
pub const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(10);
