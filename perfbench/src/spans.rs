//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`layer.operation`), a start and an end in
//! nanoseconds from a shared origin, the span that caused it, and a
//! request id (0 when it belongs to no request).  Each thread records into
//! its own [`Tracer`]; the spans stay in memory and are merged and written
//! out when the run ends.  A layer's *self time* is the time its spans
//! cover minus the part of each span that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, in ns from the tracer's origin.
    pub start_ns: u64,
    /// End, in ns from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The request the span belongs to (0 = none).
    pub request: u64,
}

/// An in-memory span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A handle to an open span ([`Tracer::enter`]).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer measuring from `origin` (share one origin across threads).
    #[must_use]
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`] (and any left open
    /// inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.at(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Records a span whose endpoints were measured elsewhere (a request
    /// round trip that began and ended between other spans), nested in
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.at(start),
                end_ns: self.at(end),
                parent: self.open.last().copied(),
                request,
            };
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (one thread's spans) to `all`, re-basing its parents.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut span| {
        span.parent = span.parent.map(|p| p + base);
        span
    }));
}

/// The layer of a span name: the part before the first `.`.
#[must_use]
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time per span: its duration minus the union of its children.
#[must_use]
pub fn span_self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let own = span.end_ns.saturating_sub(span.start_ns);
            own - covered(kids, span.start_ns, span.end_ns).min(own)
        })
        .collect()
}

/// Self time per layer, in ns.
#[must_use]
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut layers = BTreeMap::new();
    for (span, own) in spans.iter().zip(span_self_ns(spans)) {
        *layers.entry(layer(span.name).to_string()).or_insert(0) += own;
    }
    layers
}

/// Writes the spans as tab-separated lines: index, name, start, end,
/// parent (`-` for a root), request.
///
/// # Errors
///
/// Propagates file errors.
pub fn write_tsv(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}
