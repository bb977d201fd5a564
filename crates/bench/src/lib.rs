//! # hlsb-bench — experiment regenerators and performance benches
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — nine benchmarks, orig vs opt (freq + resources) |
//! | `table2` | Table 2 — 512-wide vector product control styles |
//! | `table3` | Table 3 — pattern matching optimization ladder |
//! | `fig09`  | Fig. 9 — predicted / calibrated / raw delay vs broadcast factor |
//! | `fig15a` | Fig. 15a — genome op-chain delay estimations vs actual |
//! | `fig15b` | Fig. 15b — genome Fmax vs unroll factor |
//! | `fig16`  | Fig. 16 — Jacobi Fmax vs pipeline length, stall vs skid |
//! | `fig17`  | Fig. 17 — inter-stage bitwidths of the (a·b)c pipeline |
//! | `fig19`  | Fig. 19 — stream-buffer Fmax vs buffer size, 3 variants |
//!
//! Plain timing benches (in `benches/`, `cargo bench`) measure the flow's
//! own runtime (scheduler, placement, DP, simulation) with a
//! dependency-free `std::time::Instant` harness — the container that
//! builds this workspace has no network access, so no external bench
//! framework is used.

use hlsb::{Flow, ImplementationResult, OptimizationOptions, PassTrace, PlaceEffort};
use hlsb_benchmarks::Benchmark;

/// Shared deterministic seed for every experiment.
pub const SEED: u64 = 0xDAC2_2020;

// Benchmark resolution moved into `hlsb-benchmarks` so the compile-farm
// server (`hlsb-serve`) can address designs by name too; re-exported here
// so the experiment binaries keep their import paths.
pub use hlsb_benchmarks::{find_benchmark, synthetic_benchmarks};

/// The flow for one benchmark at its paper settings, ready to run (or to
/// hand to [`hlsb::FlowSession::run_many`] alongside its variants).
pub fn benchmark_flow(bench: &Benchmark, options: OptimizationOptions) -> Flow {
    Flow::new(bench.design.clone())
        .device(bench.device.clone())
        .clock_mhz(bench.clock_mhz)
        .options(options)
        .seed(SEED)
}

/// Runs one benchmark through the flow with the given options.
///
/// # Panics
///
/// Panics if the flow fails — experiment inputs are all expected to fit.
pub fn run_benchmark(bench: &Benchmark, options: OptimizationOptions) -> ImplementationResult {
    run_benchmark_with(bench, options, PlaceEffort::Normal)
}

/// Like [`run_benchmark`] with explicit placement effort (tests use
/// `Fast`).
pub fn run_benchmark_with(
    bench: &Benchmark,
    options: OptimizationOptions,
    effort: PlaceEffort,
) -> ImplementationResult {
    benchmark_flow(bench, options)
        .place_effort(effort)
        .run()
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name))
}

/// Unwraps a [`hlsb::FlowSession::run_many`] result batch, panicking
/// with the failing label on error — experiment inputs all fit.
pub fn expect_all(
    labels: &[String],
    results: Vec<Result<ImplementationResult, hlsb::FlowError>>,
) -> Vec<ImplementationResult> {
    results
        .into_iter()
        .zip(labels)
        .map(|(r, label)| r.unwrap_or_else(|e| panic!("{label} failed: {e}")))
        .collect()
}

/// Where-the-time-went footer for an experiment binary: per-pass wall
/// times and counters accumulated over all runs, plus the session's
/// per-stage cache hit rates (front-end reuse is what makes variant
/// sweeps cheap, so it is reported separately from schedule reuse).
/// In-memory hits (no rebuild) and on-disk store hits (rebuilt, but the
/// persistent store already knew the artifact fingerprint) are reported
/// separately — a cold run against a warm store shows up as store hits,
/// not as misses.
pub fn pass_summary(results: &[ImplementationResult], session: &hlsb::FlowSession) -> String {
    let mut total = PassTrace::default();
    for r in results {
        total.merge(&r.trace);
    }
    let stats = session.cache_stats_by_stage();
    format!(
        "pass totals over {} runs ({} threads; cache: front-end {} hits + {} store hits / \
         {} misses ({:.0}%), schedule {} hits + {} store hits / {} misses ({:.0}%)):\n{total}",
        results.len(),
        session.threads(),
        stats.front_end.hits,
        stats.front_end.disk_hits,
        stats.front_end.misses,
        stats.front_end.hit_rate() * 100.0,
        stats.schedule.hits,
        stats.schedule.disk_hits,
        stats.schedule.misses,
        stats.schedule.hit_rate() * 100.0,
    )
}

/// Minimal timing harness for the `benches/` targets: runs `f` once to
/// warm up, then `iters` timed iterations, and prints min / mean / max
/// wall time. Keeps results observable via [`std::hint::black_box`].
pub fn time_it<T>(label: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let mut samples_ms = Vec::with_capacity(iters as usize);
    for _ in 0..iters.max(1) {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let min = samples_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples_ms.iter().copied().fold(0.0f64, f64::max);
    let mean = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
    println!("{label:<32} min {min:>9.3} ms   mean {mean:>9.3} ms   max {max:>9.3} ms");
}

/// Formats a utilization/fmax row in the Table-1 layout.
pub fn table1_row(
    name: &str,
    btype: &str,
    target: &str,
    orig: &ImplementationResult,
    opt: &ImplementationResult,
) -> String {
    format!(
        "{name:<20} {btype:<20} {target:<24} \
         {:>3.0}/{:<3.0} {:>3.0}/{:<3.0} {:>3.0}/{:<3.0} {:>3.0}/{:<3.0} \
         {:>4.0} {:>4.0} {:>+5.0}%",
        orig.utilization.lut_pct,
        opt.utilization.lut_pct,
        orig.utilization.ff_pct,
        opt.utilization.ff_pct,
        orig.utilization.bram_pct,
        opt.utilization.bram_pct,
        orig.utilization.dsp_pct,
        opt.utilization.dsp_pct,
        orig.fmax_mhz,
        opt.fmax_mhz,
        opt.gain_over(orig)
    )
}
