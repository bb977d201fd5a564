//! The shape every workload shares and the loop that measures it.
//!
//! A workload is set up repeatedly, in bursts spread over the run (the
//! median is `setup_s`), and timed in passes until the run's time is
//! spent. Each pass compiles the workload's jobs cold and then asks for
//! the same jobs again with every reuse layer warm. Outputs are checked
//! after each pass, outside the timed region; the first pass's outputs
//! are also differentially simulated once. Host-speed ticks are taken
//! between jobs and set-up bursts, and the untraced run reports its
//! times scaled by them (see [`crate::hostspeed`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hlsb_trace::{SpanGuard, Tracer};

use crate::hostspeed::{HostSpeed, REFERENCE_MS};
use crate::layers::{self, LayerSample};
use crate::metrics::Tally;
use crate::stats::{geomean, median, tail};

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Worker threads for every session and server.
    pub threads: usize,
    /// Shrinks every workload to a few jobs (for the smoke test).
    pub smoke: bool,
    /// An empty directory the workload may write to.
    pub work: PathBuf,
}

/// Wall-clock measurements of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassTiming {
    /// Seconds spent on the cold jobs.
    pub cold_s: f64,
    /// Seconds spent on the warm jobs.
    pub warm_s: f64,
    /// Latency of each cold job, ms.
    pub cold_ms: Vec<f64>,
    /// Latency of each warm job, ms, one vector per warm repetition of
    /// the jobs.
    pub warm_ms: Vec<Vec<f64>>,
}

/// One workload.
pub trait Workload: Sized {
    /// What a pass produces for the checks.
    type Output;

    /// Builds the workload's inputs from `settings.seed`.
    fn setup(settings: &Settings) -> std::io::Result<Self>;

    /// Runs one timed pass, taking a host-speed tick before each job
    /// and leaving the ticks out of every time. With `traced`, the
    /// program's own tracing is on and the benchmark's calls are wrapped
    /// in spans under `root`.
    fn pass(
        &self,
        traced: bool,
        root: &SpanGuard,
        speed: &HostSpeed,
    ) -> std::io::Result<(PassTiming, Self::Output)>;

    /// Checks a pass's outputs.
    fn check(&self, out: &Self::Output, tally: &mut Tally);

    /// Checks made once per run, on the first pass: differential
    /// simulation of the compiled configurations, whose results are
    /// deterministic, so later passes would repeat the same simulations.
    fn check_once(&self, _out: &Self::Output, _tally: &mut Tally) {}

    /// Achieved fmax of every distinct compiled configuration, MHz.
    fn fmax_mhz(&self, out: &Self::Output) -> Vec<f64>;

    /// Inputs for the per-layer probes, and the pass's own counts.
    fn layer_sample(&self, out: &Self::Output) -> LayerSample;

    /// Informational lines about a pass's outputs.
    fn notes(&self, _out: &Self::Output) -> Vec<String> {
        Vec::new()
    }
}

/// What one run prints: its metrics and the check tally.
pub struct RunReport {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output checks.
    pub tally: Tally,
    /// Human-readable lines for stdout, before the result line.
    pub notes: Vec<String>,
}

/// Set-up is timed in bursts spread over the run: one of `SETUP_FIRST`
/// before the first pass and one of `SETUP_BETWEEN` after every pass;
/// `setup_s` is the median of every repetition. A set-up lasts
/// milliseconds, and the speed of a shared host changes by half for
/// seconds at a time, so a median over one burst at the start reads
/// whichever state the host was in then.
const SETUP_FIRST: Duration = Duration::from_secs(1);
const SETUP_BETWEEN: Duration = Duration::from_millis(250);

/// Sets the workload up repeatedly until `span` is spent (at least
/// once), taking a host-speed tick before each set-up, and appends each
/// set-up's seconds to `setups` with the factor of the burst's ticks.
fn setup_burst<W: Workload>(
    settings: &Settings,
    span: Duration,
    speed: &HostSpeed,
    setups: &mut Vec<(f64, f64)>,
) -> std::io::Result<W> {
    let first_tick = speed.ticks();
    let mut times = Vec::new();
    let start = Instant::now();
    let workload = loop {
        speed.tick();
        let t0 = Instant::now();
        let workload = W::setup(settings)?;
        times.push(t0.elapsed().as_secs_f64());
        if start.elapsed() >= span {
            break workload;
        }
    };
    let factor = speed.factor_since(first_tick);
    setups.extend(times.into_iter().map(|s| (s, factor)));
    Ok(workload)
}

/// One timed pass of the untraced run.
struct Pass {
    timing: PassTiming,
    /// The pass's wall, ticks left out, s.
    wall_s: f64,
    /// Geomean fmax of its configurations, MHz.
    fmax_mhz: f64,
    /// Host-speed factor of the ticks taken during the pass.
    factor: f64,
}

/// The end-to-end metrics of a run: medians over passes, and over
/// set-up repetitions for `setup_s`. Every pass runs the same jobs in
/// the same order, so a job's cold latency is its median over the
/// passes. With `scaled`, each pass's times and rates and each set-up
/// burst's times are first scaled by their own host-speed factor (times
/// divide, rates multiply); sizes and fmax are never scaled.
fn end_to_end(
    passes: &[Pass],
    setups: &[(f64, f64)],
    peak_rss_mb: f64,
    scaled: bool,
) -> BTreeMap<&'static str, f64> {
    let by = |factor: f64| if scaled { factor } else { 1.0 };
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let cold_ms: Vec<f64> = (0..passes[0].timing.cold_ms.len())
        .map(|j| med(&|p| p.timing.cold_ms[j] / by(p.factor)))
        .collect();
    let setup_s: Vec<f64> = setups.iter().map(|&(s, f)| s / by(f)).collect();
    BTreeMap::from([
        ("setup_s", median(&setup_s)),
        ("wall_s", med(&|p| p.wall_s / by(p.factor))),
        ("peak_rss_mb", peak_rss_mb),
        ("compile_geomean_ms", geomean(&cold_ms)),
        ("fmax_geomean_mhz", med(&|p| p.fmax_mhz)),
        (
            "cold_jobs_per_s",
            med(&|p| p.timing.cold_ms.len() as f64 / p.timing.cold_s * by(p.factor)),
        ),
        (
            "warm_jobs_per_s",
            med(&|p| {
                let jobs = p.timing.warm_ms.iter().map(Vec::len).sum::<usize>();
                jobs as f64 / p.timing.warm_s * by(p.factor)
            }),
        ),
        ("job_p50_ms", median(&cold_ms)),
        ("job_p99_ms", tail(&cold_ms).0),
    ])
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// The warm tail latency of a pass: the tail of each warm repetition,
/// then the median over them.
fn warm_tail_ms(t: &PassTiming) -> f64 {
    median(&t.warm_ms.iter().map(|w| tail(w).0).collect::<Vec<_>>())
}

/// The untraced run: passes until `budget` is spent (at least one; a
/// pass that would overrun the budget is not started), reporting the
/// end-to-end metrics scaled to the reference host speed.
pub fn measure<W: Workload>(settings: &Settings, budget: Duration) -> std::io::Result<RunReport> {
    let speed = HostSpeed::new();
    let mut setups = Vec::new();
    let workload: W = setup_burst(settings, SETUP_FIRST, &speed, &mut setups)?;
    let off = Tracer::disabled();
    let root = off.root("untraced");
    let mut tally = Tally::default();
    let mut first = None;
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        let first_tick = speed.ticks();
        let watch = speed.stopwatch();
        let (timing, out) = workload.pass(false, &root, &speed)?;
        let wall_s = watch.seconds();
        workload.check(&out, &mut tally);
        passes.push(Pass {
            timing,
            wall_s,
            fmax_mhz: geomean(&workload.fmax_mhz(&out)),
            factor: speed.factor_since(first_tick),
        });
        if first.is_none() {
            first = Some(out);
        }
        setup_burst::<W>(settings, SETUP_BETWEEN, &speed, &mut setups)?;
        if start.elapsed().as_secs_f64() + wall_s > budget.as_secs_f64() {
            break;
        }
    }
    let first = first.expect("at least one pass");
    workload.check_once(&first, &mut tally);
    let mut notes = workload.notes(&first);

    let peak = peak_rss_mb()?;
    let metrics = end_to_end(&passes, &setups, peak, true);
    let raw = end_to_end(&passes, &setups, peak, false);
    let first_pass = &passes[0].timing;
    let cold_n = first_pass.cold_ms.len();
    let warm_n = first_pass.warm_ms.first().map_or(0, Vec::len);
    let (_, cold_pct) = tail(&first_pass.cold_ms);
    let (_, warm_pct) = tail(first_pass.warm_ms.first().map_or(&[], Vec::as_slice));
    let warm_tail = median(
        &passes
            .iter()
            .map(|p| warm_tail_ms(&p.timing) / p.factor)
            .collect::<Vec<_>>(),
    );
    notes.extend([
        format!(
            "passes={} cold_jobs_per_pass={cold_n} warm_repetitions_per_pass={} of {warm_n} jobs",
            passes.len(),
            first_pass.warm_ms.len()
        ),
        format!(
            "raw pass walls (s), each with its pass's host-speed factor: {}",
            passes
                .iter()
                .map(|p| format!("{:.3} (x{:.3})", p.wall_s, p.factor))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "compile_geomean_ms, job_p50_ms and job_p99_ms (the p{cold_pct:.1}) are over \
             {cold_n} cold jobs, each job's latency the median over passes; warm_job_p99_ms is \
             the median over warm repetitions of the p{warm_pct:.1} of {warm_n} jobs (median \
             over passes)"
        ),
        format!("warm_job_p99_ms {warm_tail:.4} ms (per-layer list: no bound)"),
        format!(
            "host-speed factor {:.4} (median of {} ticks over {REFERENCE_MS} ms); raw, \
             unscaled: {}",
            speed.factor(),
            speed.ticks(),
            raw.iter()
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ]);
    Ok(RunReport {
        metrics,
        tally,
        notes,
    })
}

/// The traced run: untraced and traced passes alternate until `budget`
/// is spent (at least one pair; `trace.overhead_ratio` is the ratio of
/// their median walls, and `warm_job_p99_ms` comes from the untraced
/// ones), then the per-layer probes run on the traced pass's sample. The benchmark's spans are written to `trace_out` as
/// JSONL, loadable by `profile --trace-in`.
pub fn measure_traced<W: Workload>(
    settings: &Settings,
    budget: Duration,
    trace_out: &Path,
) -> std::io::Result<RunReport> {
    let workload = W::setup(settings)?;
    let speed = HostSpeed::new();
    let tracer = Tracer::enabled();
    let root = tracer.root("perfbench");
    let off = Tracer::disabled();
    let off_root = off.root("untraced");
    let mut tally = Tally::default();
    let (mut untraced, mut traced, mut warm_tails) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let out = loop {
        // One span marks the untraced pass in the profile; nothing
        // inside it is traced.
        let span = root.child("pass.untraced");
        let first_tick = speed.ticks();
        let watch = speed.stopwatch();
        let (timing, out) = workload.pass(false, &off_root, &speed)?;
        untraced.push(watch.seconds());
        span.finish();
        warm_tails.push(warm_tail_ms(&timing) / speed.factor_since(first_tick));
        workload.check(&out, &mut tally);
        drop(out);

        let span = root.child("pass");
        let watch = speed.stopwatch();
        let (_, out) = workload.pass(true, &span, &speed)?;
        traced.push(watch.seconds());
        span.finish();
        workload.check(&out, &mut tally);
        let pair_s = untraced[untraced.len() - 1] + traced[traced.len() - 1];
        if start.elapsed().as_secs_f64() + pair_s > budget.as_secs_f64() {
            break out;
        }
    };
    workload.check_once(&out, &mut tally);

    let sample = workload.layer_sample(&out);
    let scratch = settings.work.join("layers");
    std::fs::create_dir_all(&scratch)?;
    let probes = root.child(layers::PROBES_SPAN);
    let counts = layers::probe(&sample, &probes, settings.threads, &scratch, &mut tally)?;
    probes.finish();
    root.finish();

    let tree = tracer.take_tree();
    if let Some(dir) = trace_out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(trace_out, tree.to_jsonl())?;
    let overhead = median(&traced) / median(&untraced);
    let mut metrics = layers::metrics(&tree, &counts, &sample, overhead);
    metrics.insert("warm_job_p99_ms", median(&warm_tails));
    let notes = vec![format!(
        "pairs={} untraced_s={:.3} traced_s={:.3} spans={} written to {}",
        traced.len(),
        median(&untraced),
        median(&traced),
        tree.spans.len(),
        trace_out.display()
    )];
    Ok(RunReport {
        metrics,
        tally,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(factor: f64, cold_ms: Vec<f64>) -> Pass {
        Pass {
            timing: PassTiming {
                cold_s: 2.0,
                warm_s: 1.0,
                cold_ms,
                warm_ms: vec![vec![1.0; 4]],
            },
            wall_s: 3.0 * factor,
            fmax_mhz: 200.0,
            factor,
        }
    }

    #[test]
    fn each_pass_and_burst_scales_by_its_own_factor() {
        let passes = [pass(2.0, vec![20.0, 40.0]), pass(1.0, vec![10.0, 20.0])];
        let setups = [(0.4, 2.0), (0.2, 1.0), (0.2, 1.0)];
        let scaled = end_to_end(&passes, &setups, 40.0, true);
        assert_eq!(scaled["setup_s"], 0.2);
        assert_eq!(scaled["wall_s"], 3.0);
        assert_eq!(scaled["job_p50_ms"], 15.0);
        assert_eq!(scaled["cold_jobs_per_s"], 1.5);
        assert_eq!(scaled["warm_jobs_per_s"], 6.0);
        assert_eq!(scaled["peak_rss_mb"], 40.0);
        assert_eq!(scaled["fmax_geomean_mhz"], 200.0);
        let raw = end_to_end(&passes, &setups, 40.0, false);
        assert_eq!(raw["setup_s"], 0.2);
        assert_eq!(raw["wall_s"], 4.5);
        assert_eq!(raw["job_p50_ms"], 22.5);
    }
}
