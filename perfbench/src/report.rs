//! The run's result line: correctness, request counts and named metrics
//! with units, printed as one JSON object.

use std::fmt::Write;

/// The metrics every untraced run reports, with their units, in order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("points_per_s", "1/s"),
    ("interactive_p50_ms", "ms"),
    ("interactive_p99_ms", "ms"),
    ("grid_p50_ms", "ms"),
    ("grid_p90_ms", "ms"),
    ("served_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The metrics every traced run reports, with their units, in order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.trace_ms", "ms"),
    ("trace.lower_ms", "ms"),
    ("trace.lower_ns_per_inst", "ns"),
    ("trace.pin_hits", "count"),
    ("trace.pin_misses", "count"),
    ("trace.new_pin_share", "ratio"),
    ("trace.pin_base", "count"),
    ("machines.dm_ns_per_inst", "ns"),
    ("machines.swsm_ns_per_inst", "ns"),
    ("machines.scalar_ns_per_inst", "ns"),
    ("ooo.dm_au_ipc", "inst/cycle"),
    ("ooo.dm_du_ipc", "inst/cycle"),
    ("ooo.swsm_ipc", "inst/cycle"),
    ("ooo.window_full_frac", "ratio"),
    ("ooo.starved_frac", "ratio"),
    ("mem.dm_bypass_hits", "count"),
    ("mem.dm_peak_occupancy", "count"),
    ("mem.pb_hit_ratio", "ratio"),
    ("mem.pb_evictions", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_lookups", "count"),
    ("core.cache_evictions", "count"),
    ("core.sweep_overhead_us_per_point", "us"),
    ("core.store_append_us", "us"),
    ("core.store_replay_us_per_record", "us"),
    ("core.placement_ns", "ns"),
    ("rayon.utilization", "ratio"),
    ("rayon.steals", "count"),
    ("rayon.claim_drops", "count"),
    ("serve.parse_ns", "ns"),
    ("serve.format_ns", "ns"),
    ("serve.wire_ms", "ms"),
    ("serve.coordinator_hop_ms", "ms"),
    ("serve.busy_rejections", "count"),
    ("serve.timeouts", "count"),
    ("self.bench_ms", "ms"),
    ("self.workloads_ms", "ms"),
    ("self.trace_ms", "ms"),
    ("self.machines_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("tracing.overhead_ms", "ms"),
    ("tracing.overhead_frac", "ratio"),
    ("tracing.spans", "count"),
];

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Requests (or artefacts and probes) attempted.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// `(name, value)` pairs; units come from the metric tables.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// A metric's value, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// The JSON result line over the metrics of `table`.
    ///
    /// # Errors
    ///
    /// Names a metric of the table the run did not produce, or a value
    /// that is not finite.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
