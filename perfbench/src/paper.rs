//! `paper-cold`: Table 1's 18 flows, compiled the way a designer does.
//!
//! Why: it is what the paper's users run. Each of the nine benchmarks
//! is compiled at its paper clock, with Normal effort and three
//! placement seeds, with no optimizations and with all of them, each
//! flow in a fresh `FlowSession`. The implement stage (seed placement,
//! anneal, fanout, retime, refine) takes about 98% of the time, so the
//! implement-stage work shows here, and the store, serve and JSON
//! layers are bypassed. The warm half recompiles every flow in the
//! session that compiled it, which reuses only the cached front-end and
//! schedule artifacts. Table 1 is fixed, so the seed only permutes the
//! compile order.

use std::time::Instant;

use hlsb::{FlowSession, ImplementationResult, OptimizationOptions, PlaceEffort, StageCacheStats};
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_rng::Rng;
use hlsb_serve::{options_mask, JobSpec};
use hlsb_sim::Stimulus;
use hlsb_trace::SpanGuard;

use crate::hostspeed::HostSpeed;
use crate::layers::{LayerSample, SampleFlow, SIM_ITERS};
use crate::metrics::Tally;
use crate::workload::{PassTiming, Settings, Workload};

/// Table 1 as the `table1` binary prints it at the commit that added
/// this benchmark: every flow must reproduce its row. It differs from
/// `results/table1.txt`, which predates the change of the multi-seed
/// derivation; each run reports how many flows differ from that file.
const TABLE1: &str = include_str!("../expected/table1.txt");
/// The committed results table.
const RESULTS_TABLE1: &str = include_str!("../../results/table1.txt");

/// Benchmarks whose netlists the place and timing probes re-implement:
/// vector_product is the seed-placement-bound one, genome_chaining and
/// matmul the refine-bound ones.
const PLACE_PROBES: [&str; 3] = ["vector_product", "genome_chaining", "matmul"];

/// One Table-1 flow with the row values it must reproduce.
struct PaperJob {
    sample: SampleFlow,
    /// LUT%, FF%, BRAM%, DSP% and fmax, as Table 1 prints them.
    expected: Option<[String; 5]>,
    /// The same values from `results/table1.txt`.
    committed: Option<[String; 5]>,
    job_line: String,
}

/// The `paper-cold` workload.
pub struct PaperCold {
    jobs: Vec<PaperJob>,
    threads: usize,
}

/// Output of one pass: cold and warm results in job order, and the
/// summed cache statistics of the pass's sessions.
pub struct PaperOutput {
    cold: Vec<Result<ImplementationResult, String>>,
    warm: Vec<Result<ImplementationResult, String>>,
    stats: StageCacheStats,
}

/// The row values of `bench` in `table` for the original (`column` 0)
/// or optimized (`column` 1) flow.
fn table_row(table: &str, bench: &Benchmark, column: usize) -> Option<[String; 5]> {
    let line = table
        .lines()
        .find(|l| l.starts_with(&format!("{:<20} ", bench.name)))?;
    // Name, broadcast type and target occupy fixed-width columns.
    let fields: Vec<&str> = line.get(67..)?.split_whitespace().collect();
    let pct =
        |i: usize| -> Option<String> { fields.get(i)?.split('/').nth(column).map(str::to_string) };
    Some([
        pct(0)?,
        pct(1)?,
        pct(2)?,
        pct(3)?,
        fields.get(4 + column)?.to_string(),
    ])
}

fn row_of(r: &ImplementationResult) -> [String; 5] {
    let u = &r.utilization;
    [u.lut_pct, u.ff_pct, u.bram_pct, u.dsp_pct, r.fmax_mhz].map(|v| format!("{v:.0}"))
}

fn add(a: &mut StageCacheStats, b: StageCacheStats) {
    for (x, y) in [
        (&mut a.front_end, b.front_end),
        (&mut a.schedule, b.schedule),
    ] {
        x.hits += y.hits;
        x.disk_hits += y.disk_hits;
        x.misses += y.misses;
    }
}

impl Workload for PaperCold {
    type Output = PaperOutput;

    fn setup(settings: &Settings) -> std::io::Result<Self> {
        let mut benches = all_benchmarks();
        if settings.smoke {
            benches.retain(|b| b.design.name == "pattern_match");
        }
        let mut jobs = Vec::with_capacity(2 * benches.len());
        for bench in &benches {
            for (column, options) in [OptimizationOptions::none(), OptimizationOptions::all()]
                .into_iter()
                .enumerate()
            {
                let spec = JobSpec {
                    design: bench.design.name.clone(),
                    options,
                    seed: hlsb_bench::SEED,
                    place_seeds: 3,
                    effort: PlaceEffort::Normal,
                    ..JobSpec::default()
                };
                jobs.push(PaperJob {
                    sample: SampleFlow {
                        flow: hlsb_bench::benchmark_flow(bench, options),
                        design: bench.design.clone(),
                        device: bench.device.clone(),
                        effort: PlaceEffort::Normal,
                        label: format!("{} {}", bench.design.name, options_mask(&options)),
                    },
                    expected: table_row(TABLE1, bench, column),
                    committed: table_row(RESULTS_TABLE1, bench, column),
                    job_line: spec.to_json(),
                });
            }
        }
        // Fisher-Yates with the workload seed.
        let mut rng = Rng::seed_from_u64(hlsb_rng::derive_seed(settings.seed, 0x9A9E));
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.gen_index(i + 1));
        }
        Ok(PaperCold {
            jobs,
            threads: settings.threads,
        })
    }

    fn pass(
        &self,
        traced: bool,
        root: &SpanGuard,
        speed: &HostSpeed,
    ) -> std::io::Result<(PassTiming, PaperOutput)> {
        let mut timing = PassTiming::default();
        let mut stats = StageCacheStats::default();
        let mut sessions = Vec::with_capacity(self.jobs.len());
        let mut cold = Vec::with_capacity(self.jobs.len());
        let watch = speed.stopwatch();
        for job in &self.jobs {
            speed.tick();
            let span = root.child("paper.cold");
            span.attr("flow", job.sample.label.as_str());
            let t = Instant::now();
            let session = FlowSession::with_threads(self.threads);
            let flow = job.sample.flow.clone().trace(traced);
            cold.push(session.run(&flow).map_err(|e| e.to_string()));
            timing.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
            span.finish();
            sessions.push(session);
        }
        timing.cold_s = watch.seconds();
        let mut warm = Vec::with_capacity(self.jobs.len());
        let mut warm_ms = Vec::with_capacity(self.jobs.len());
        let watch = speed.stopwatch();
        for (job, session) in self.jobs.iter().zip(&sessions) {
            speed.tick();
            let span = root.child("paper.warm");
            span.attr("flow", job.sample.label.as_str());
            let t = Instant::now();
            let flow = job.sample.flow.clone().trace(traced);
            warm.push(session.run(&flow).map_err(|e| e.to_string()));
            warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            span.finish();
        }
        timing.warm_s = watch.seconds();
        timing.warm_ms.push(warm_ms);
        for s in &sessions {
            add(&mut stats, s.cache_stats_by_stage());
        }
        Ok((timing, PaperOutput { cold, warm, stats }))
    }

    fn check(&self, out: &PaperOutput, tally: &mut Tally) {
        for ((job, cold), warm) in self.jobs.iter().zip(&out.cold).zip(&out.warm) {
            let label = &job.sample.label;
            tally.check(match (cold, &job.expected) {
                (Err(e), _) => Err(format!("{label}: {e}")),
                (_, None) => Err(format!("{label}: no row in the expected Table 1")),
                (Ok(r), Some(want)) if &row_of(r) != want => Err(format!(
                    "{label}: LUT/FF/BRAM/DSP %/fmax {:?}, Table 1 has {want:?}",
                    row_of(r)
                )),
                _ => Ok(()),
            });
            tally.check(match (cold, warm) {
                (Ok(c), Ok(w)) if c == w => Ok(()),
                _ => Err(format!("{label}: warm recompile differs from the cold one")),
            });
        }
    }

    fn check_once(&self, _out: &PaperOutput, tally: &mut Tally) {
        for job in &self.jobs {
            let s = &job.sample;
            let stim = Stimulus::seeded(&s.design, 1, SIM_ITERS as usize);
            let session = FlowSession::with_threads(self.threads);
            tally.check(
                session
                    .simulate(&s.flow, &stim, SIM_ITERS)
                    .map_err(|e| e.to_string())
                    .and_then(|sim| sim.check())
                    .map_err(|e| format!("{}: {e}", s.label)),
            );
            // The job line a farm client would send names the same
            // configuration.
            let key = JobSpec::from_json(&job.job_line)
                .and_then(|j| j.resolve())
                .map(|(flow, _)| flow.config_key());
            tally.expect(key == Ok(s.flow.config_key()), || {
                format!("{}: job line resolves to another configuration", s.label)
            });
        }
    }

    fn fmax_mhz(&self, out: &PaperOutput) -> Vec<f64> {
        out.cold.iter().flatten().map(|r| r.fmax_mhz).collect()
    }

    fn notes(&self, out: &PaperOutput) -> Vec<String> {
        let stale = self
            .jobs
            .iter()
            .zip(&out.cold)
            .filter(|(j, r)| r.as_ref().ok().map(row_of) != j.committed)
            .count();
        vec![format!(
            "{stale} of {} flows differ from results/table1.txt, which predates \
             the current multi-seed derivation",
            self.jobs.len()
        )]
    }

    fn layer_sample(&self, out: &PaperOutput) -> LayerSample {
        let place = PLACE_PROBES
            .iter()
            .filter_map(|name| {
                self.jobs
                    .iter()
                    .find(|j| j.sample.design.name == *name && j.sample.label.ends_with("bskm"))
            })
            .map(|j| j.sample.clone())
            .collect();
        LayerSample {
            job_lines: self.jobs.iter().map(|j| j.job_line.clone()).collect(),
            flows: self.jobs.iter().map(|j| j.sample.clone()).collect(),
            place,
            cache: out.stats,
            ..LayerSample::default()
        }
    }
}
