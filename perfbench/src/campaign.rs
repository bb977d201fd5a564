//! `explore-campaign`: closed-loop Fmax searches plus a DSE run.
//!
//! Why: this is the same place and timing code used differently. The
//! `FmaxExplorer` searches genome_chaining, pattern_match and
//! stream_buffer over the default configurations `none,all,all+r1`
//! with budget 25, and DSE successive halving searches genome_chaining.
//! Many Fast-effort evaluations of one design run across clock targets,
//! so the clock-independent front-end cache is hit, refine's per-move
//! full STA is a larger share, and every converged configuration is
//! simulated and verified. Both searches log to fresh files; the warm
//! half re-runs all four searches over those files in a fresh session,
//! the kill/resume path: it must reproduce the cold tables from the logs
//! alone, except that a configuration whose cold search ran out of
//! budget continues on the re-run's fresh budget.
//!
//! The searches use the `explore` and `dse` commands' default flow
//! seed, with which no search runs out of budget; the run's seed
//! permutes the order of the four searches. With other flow seeds about
//! one genome_chaining search in five runs out of budget and its re-run
//! continues, so the warm half would depend on the seed.

use std::path::PathBuf;
use std::time::Instant;

use hlsb::{FlowSession, StageCacheStats};
use hlsb_benchmarks::{find_benchmark, Benchmark};
use hlsb_dse::{DseReport, Explorer, KnobSpace, ResultStore, Strategy};
use hlsb_explore::{report::comparable_rows, ExploreConfig, ExploreReport, FmaxExplorer, FreqLog};
use hlsb_rng::{derive_seed, Rng};
use hlsb_serve::JobSpec;
use hlsb_sim::Stimulus;
use hlsb_trace::SpanGuard;

use crate::hostspeed::HostSpeed;
use crate::layers::{LayerSample, SampleFlow, SIM_ITERS};
use crate::metrics::Tally;
use crate::workload::{PassTiming, Settings, Workload};

const EXPLORED: [&str; 3] = ["genome_chaining", "pattern_match", "stream_buffer"];
const DSE_DESIGN: &str = "genome_chaining";
/// The searches' flow seed: the `explore` and `dse` commands' default.
const FLOW_SEED: u64 = hlsb_bench::SEED;

/// The `explore-campaign` workload.
pub struct Campaign {
    explored: Vec<Benchmark>,
    dse: Benchmark,
    /// Search order: an index into `explored`, or `explored.len()` for
    /// the DSE search.
    order: Vec<usize>,
    dse_budget: usize,
    dir: PathBuf,
    threads: usize,
    /// The nine search configurations at each design's paper clock, as
    /// flows and as job lines, for the per-layer probes.
    flows: Vec<SampleFlow>,
    job_lines: Vec<String>,
}

/// One cold or warm half: the explorer reports in design order, the
/// DSE report, and the session's cache statistics.
pub struct Half {
    explored: Vec<ExploreReport>,
    dse: DseReport,
    stats: StageCacheStats,
    explore_ms: f64,
}

/// Output of one pass.
pub struct CampaignOutput {
    cold: Half,
    warm: Half,
}

/// The DSE table two runs of one search must agree on.
fn dse_rows(r: &DseReport) -> Vec<(u64, u64, u64)> {
    r.frontier_points()
        .map(|p| {
            (
                p.key,
                p.metrics.fmax_mhz.to_bits(),
                p.metrics.latency_cycles,
            )
        })
        .collect()
}

impl Campaign {
    fn log_path(&self, design: &str) -> PathBuf {
        self.dir.join(format!("explore-{design}.jsonl"))
    }

    /// Runs the four searches in the workload's order on one fresh
    /// session over the log files, timing each from outside.
    fn half(
        &self,
        traced: bool,
        root: &SpanGuard,
        speed: &HostSpeed,
        latency_ms: &mut Vec<f64>,
    ) -> std::io::Result<Half> {
        let session = FlowSession::with_threads(self.threads);
        let mut explored: Vec<Option<ExploreReport>> = vec![None; self.explored.len()];
        let mut dse = None;
        let mut explore_ms = 0.0;
        for &search in &self.order {
            speed.tick();
            let t = Instant::now();
            if let Some(b) = self.explored.get(search) {
                let span = root.child("explore.search");
                span.attr("design", b.design.name.as_str());
                explored[search] = Some(
                    FmaxExplorer::new(&b.design, &b.device)
                        .start_mhz(b.clock_mhz)
                        .budget(hlsb_explore::DEFAULT_BUDGET)
                        .seed(FLOW_SEED)
                        .log(FreqLog::open(self.log_path(&b.design.name))?)
                        .trace(traced)
                        .run(&session)?,
                );
                span.finish();
                explore_ms += t.elapsed().as_secs_f64() * 1e3;
            } else {
                let span = root.child("dse.halving");
                dse = Some(
                    Explorer::new(&self.dse.design, &self.dse.device)
                        .space(KnobSpace::optimization_cube(vec![self.dse.clock_mhz]))
                        .strategy(Strategy::SuccessiveHalving)
                        .budget(self.dse_budget)
                        .seed(FLOW_SEED)
                        .store(ResultStore::open(self.dir.join("dse-store.jsonl"))?)
                        .trace(traced)
                        .run(&session)?,
                );
                span.finish();
            }
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(Half {
            explored: explored
                .into_iter()
                .map(|r| r.expect("every search runs"))
                .collect(),
            dse: dse.expect("the DSE search runs"),
            stats: session.cache_stats_by_stage(),
            explore_ms,
        })
    }
}

impl Workload for Campaign {
    type Output = CampaignOutput;

    fn setup(settings: &Settings) -> std::io::Result<Self> {
        let find = |name: &str| {
            find_benchmark(name)
                .ok_or_else(|| std::io::Error::other(format!("no benchmark named {name}")))
        };
        let names: &[&str] = if settings.smoke {
            &["pattern_match"]
        } else {
            &EXPLORED
        };
        let explored: Vec<Benchmark> = names.iter().map(|n| find(n)).collect::<Result<_, _>>()?;
        // Fisher-Yates with the workload seed.
        let mut order: Vec<usize> = (0..=explored.len()).collect();
        let mut rng = Rng::seed_from_u64(derive_seed(settings.seed, 0xE8C4));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_index(i + 1));
        }
        let mut flows = Vec::new();
        let mut job_lines = Vec::new();
        for b in &explored {
            for cfg in ExploreConfig::default_set() {
                let spec = JobSpec {
                    design: b.design.name.clone(),
                    clock_mhz: Some(b.clock_mhz),
                    options: cfg.options,
                    seed: FLOW_SEED,
                    place_seeds: cfg.place_seeds,
                    effort: cfg.effort,
                    partitions: cfg.partitions,
                    inject: cfg.inject.clone(),
                    ..JobSpec::default()
                };
                let flow = cfg.flow(&b.design, &b.device, FLOW_SEED, b.clock_mhz);
                // Every job line must name the configuration the search
                // compiles.
                let line = spec.to_json();
                let resolved = JobSpec::from_json(&line).and_then(|j| j.resolve());
                if resolved.map(|(f, _)| f.config_key()) != Ok(flow.config_key()) {
                    return Err(std::io::Error::other(format!(
                        "{line} does not resolve to its search configuration"
                    )));
                }
                job_lines.push(line);
                flows.push(SampleFlow {
                    flow,
                    design: b.design.clone(),
                    device: b.device.clone(),
                    effort: cfg.effort,
                    label: format!("{} {}", b.design.name, cfg.label()),
                });
            }
        }
        Ok(Campaign {
            explored,
            dse: find(DSE_DESIGN)?,
            order,
            dse_budget: if settings.smoke { 2 } else { usize::MAX },
            dir: settings.work.join("campaign"),
            threads: settings.threads,
            flows,
            job_lines,
        })
    }

    fn pass(
        &self,
        traced: bool,
        root: &SpanGuard,
        speed: &HostSpeed,
    ) -> std::io::Result<(PassTiming, CampaignOutput)> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir)?;
        }
        std::fs::create_dir_all(&self.dir)?;
        let mut timing = PassTiming::default();
        let watch = speed.stopwatch();
        let cold = self.half(
            traced,
            &root.child("campaign.cold"),
            speed,
            &mut timing.cold_ms,
        )?;
        timing.cold_s = watch.seconds();
        let watch = speed.stopwatch();
        let mut warm_ms = Vec::new();
        let warm = self.half(traced, &root.child("campaign.warm"), speed, &mut warm_ms)?;
        timing.warm_s = watch.seconds();
        timing.warm_ms.push(warm_ms);
        Ok((timing, CampaignOutput { cold, warm }))
    }

    fn check(&self, out: &CampaignOutput, tally: &mut Tally) {
        for (b, (cold, warm)) in self
            .explored
            .iter()
            .zip(out.cold.explored.iter().zip(&out.warm.explored))
        {
            let name = &b.design.name;
            for o in &cold.outcomes {
                tally.expect(
                    o.converged_mhz.is_some()
                        && matches!(o.sim_check, Some(Ok(())))
                        && o.verify_ok == Some(true),
                    || format!("{name} {}: not converged, simulated and verified", o.label),
                );
            }
            // A resumed search replays its log for free and, like any
            // re-run, spends a fresh budget on configurations whose
            // search stopped on budget exhaustion; every other
            // configuration must come back unchanged, at no cost.
            let (cold_rows, warm_rows) = (comparable_rows(cold), comparable_rows(warm));
            for ((o, c), w) in cold.outcomes.iter().zip(&cold_rows).zip(&warm_rows) {
                tally.expect(o.exhausted || c == w, || {
                    format!(
                        "{name} {}: resumed search differs from the cold one",
                        o.label
                    )
                });
            }
            let exhausted = cold.outcomes.iter().any(|o| o.exhausted);
            tally.expect(exhausted || warm.full_evals == 0, || {
                format!(
                    "{name}: resumed search ran {} fresh evaluations",
                    warm.full_evals
                )
            });
        }
        let (cold, warm) = (&out.cold.dse, &out.warm.dse);
        tally.expect(
            !cold.frontier.is_empty() && cold.frontier_semantics_ok(),
            || "DSE frontier empty or failed simulation".into(),
        );
        tally.expect(dse_rows(cold) == dse_rows(warm), || {
            "resumed DSE frontier differs from the cold one".into()
        });
        tally.expect(warm.full_evals == 0, || {
            format!("resumed DSE ran {} fresh evaluations", warm.full_evals)
        });
    }

    fn check_once(&self, out: &CampaignOutput, tally: &mut Tally) {
        let session = FlowSession::with_threads(self.threads);
        let mut sim = |design: &hlsb_ir::Design, flow: hlsb::Flow, label: String| {
            let stim = Stimulus::seeded(design, 1, SIM_ITERS as usize);
            tally.check(
                session
                    .simulate(&flow, &stim, SIM_ITERS)
                    .map_err(|e| e.to_string())
                    .and_then(|s| s.check())
                    .map_err(|e| format!("{label}: {e}")),
            );
        };
        for (b, report) in self.explored.iter().zip(&out.cold.explored) {
            for o in &report.outcomes {
                if let Some(mhz) = o.converged_mhz {
                    let flow = o.config.flow(&b.design, &b.device, FLOW_SEED, mhz);
                    sim(
                        &b.design,
                        flow,
                        format!("{} {} @{mhz}", b.design.name, o.label),
                    );
                }
            }
        }
        for p in out.cold.dse.frontier_points() {
            let flow = p.config.flow(&self.dse.design, &self.dse.device, FLOW_SEED);
            sim(&self.dse.design, flow, format!("dse {}", p.config.label()));
        }
    }

    fn fmax_mhz(&self, out: &CampaignOutput) -> Vec<f64> {
        out.cold
            .explored
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|o| o.converged_mhz.is_some())
            .map(|o| o.best_fmax_mhz)
            .collect()
    }

    fn layer_sample(&self, out: &CampaignOutput) -> LayerSample {
        let place = self
            .flows
            .iter()
            .filter(|f| f.label.ends_with(&ExploreConfig::optimized().label()))
            .cloned()
            .collect();
        let full: usize = out.cold.explored.iter().map(|r| r.full_evals).sum();
        let probes: usize = out.cold.explored.iter().map(|r| r.probe_evals).sum();
        LayerSample {
            job_lines: self.job_lines.clone(),
            flows: self.flows.clone(),
            place,
            store_dir: None,
            cache: out.cold.stats,
            counters: vec![
                ("explore.full_evals", full as f64),
                ("explore.probe_evals", probes as f64),
                (
                    "explore.ms_per_full_eval",
                    out.cold.explore_ms / full.max(1) as f64,
                ),
                ("dse.full_evals", out.cold.dse.full_evals as f64),
                ("dse.probe_evals", out.cold.dse.probe_evals as f64),
            ],
        }
    }
}
