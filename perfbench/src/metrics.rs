//! Metric names, units and the result line.
//!
//! These tables are the benchmark's schema: `BENCHMARK.json` lists the
//! same names and units, and the smoke test holds the two together.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_geomean_ms", "ms"),
    ("fmax_geomean_mhz", "MHz"),
    ("cold_jobs_per_s", "jobs/s"),
    ("warm_jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("place.seed_ms", "ms"),
    ("place.anneal_ms", "ms"),
    ("place.cells", "count"),
    ("timing.sta_ms", "ms"),
    ("timing.fanout_ms", "ms"),
    ("timing.retime_ms", "ms"),
    ("timing.refine_ms", "ms"),
    ("timing.duplicated_regs", "count"),
    ("timing.retime_moves", "count"),
    ("timing.refine_moves", "count"),
    ("core.probe_ms", "ms"),
    ("core.backend_ms", "ms"),
    ("core.flow_ms", "ms"),
    ("core.instructions", "count"),
    ("core.fe_hit_ratio", "ratio"),
    ("core.sched_hit_ratio", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.resolve_us", "us"),
    ("verify.network_us", "us"),
    ("store.open_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("serve.dedup_hits", "count"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("explore.full_evals", "count"),
    ("explore.probe_evals", "count"),
    ("explore.ms_per_full_eval", "ms"),
    ("dse.full_evals", "count"),
    ("dse.probe_evals", "count"),
    ("sim.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    // An end-to-end number without a bound: on a shared host its
    // run-to-run spread exceeds any bound the benchmark may set.
    ("warm_job_p99_ms", "ms"),
];

/// Pass/fail accounting of the output checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Checked items (job verdicts, byte comparisons, simulations).
    pub attempted: u64,
    /// Checked items that came out wrong.
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one checked item; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }

    /// Records one checked item that must hold.
    pub fn expect(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.check(if ok { Ok(()) } else { Err(note()) });
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `schema` with its unit. A metric missing from `values` or
/// not finite is a bug in the benchmark; it is reported as a failure
/// with value 0 so the line stays valid JSON.
pub fn result_line(
    schema: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    tally: &Tally,
) -> String {
    let mut tally = tally.clone();
    let mut fields = Vec::with_capacity(schema.len());
    for &(name, unit) in schema {
        let value = values.get(name).copied().filter(|v| v.is_finite());
        if value.is_none() {
            tally.check(Err(format!("metric {name} was not measured")));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            value.unwrap_or(0.0)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}
