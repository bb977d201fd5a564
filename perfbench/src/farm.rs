//! `farm-mixed`: a seeded job stream through the compile farm.
//!
//! Why: on many small designs the per-job overhead dominates — parse,
//! resolve, the verify pre-gate, the front-end, the store append and
//! its lock — and placement barely shows. The stream is served cold by
//! a `JobServer` over a fresh `ArtifactStore` directory, then warm by
//! fresh servers over the reopened store, which is pure store and JSON
//! work. The stream carries in-stream repeats (dedup) and `dirty:`
//! designs of all five planted-defect classes (the verify pre-gate).
//!
//! Counts come from the `JobOutcome`s and the `ServeSummary`, never
//! from the `serve.evaluated` metrics counter: that counter also counts
//! verify-rejected jobs as evaluated.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hlsb::{PlaceEffort, StageCacheStats};
use hlsb_fabric::Device;
use hlsb_rng::{derive_seed, Rng};
use hlsb_serve::{JobOutcome, JobServer, JobSpec, JobStatus, ServeConfig, ServeSummary};
use hlsb_store::ArtifactStore;
use hlsb_trace::SpanGuard;

use crate::hostspeed::HostSpeed;
use crate::layers::{LayerSample, SampleFlow};
use crate::metrics::Tally;
use crate::workload::{PassTiming, Settings, Workload};

/// Jobs in the cold stream: the repository's documented farm load
/// (`serve --load 1000 --options all`, EXPERIMENTS.md).
const STREAM_JOBS: usize = 1000;
/// Warm passes over the same stream: one warm pass of 1000 jobs lasts
/// about 65 ms, too short to repeat within a tenth.
const WARM_PASSES: usize = 15;
/// Every job carries the full optimization pipeline, as the documented
/// farm load does.
const OPTIONS: &str = "all";
/// One job in `DIRTY_EVERY` is a `dirty:` design, at the indices
/// `serve --dirty-every 8` (README, CI) plants them: i ≡ 7 (mod 8).
const DIRTY_EVERY: usize = 8;
/// One job in `REPEAT_EVERY`, at the indices i ≡ 3 (mod 8), repeats an
/// earlier line verbatim, so 1/8 of the stream exercises dedup. The
/// repository records no repeat share of a real load; this one is a
/// stated choice, on the dirty jobs' cadence and offset from them.
const REPEAT_EVERY: usize = 8;
/// Distinct fuzz jobs the place and timing probes re-implement.
const PLACE_SAMPLE: usize = 4;
/// Distinct fuzz jobs the core, verify, sim and store probes compile.
const CORE_SAMPLE: usize = 32;

/// The verdict a job must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Implemented (`done`).
    Done,
    /// Rejected by the verify pre-gate with exactly this rule.
    Rejected(&'static str),
}

/// The verdict `dirty:<seed>` must get: `random_dirty_design` plants
/// its defect class by `seed % 5`; classes 0–3 (VN01–VN04) are errors,
/// class 4 (VN05, a dead channel) only warns.
pub fn dirty_verdict(seed: u64) -> Verdict {
    match seed % 5 {
        0 => Verdict::Rejected("VN01"),
        1 => Verdict::Rejected("VN02"),
        2 => Verdict::Rejected("VN03"),
        3 => Verdict::Rejected("VN04"),
        _ => Verdict::Done,
    }
}

/// One job line and the verdict it must get.
#[derive(Debug, Clone)]
pub struct FarmJob {
    /// The JSONL job line.
    pub line: String,
    /// Its expected verdict.
    pub expect: Verdict,
}

/// The seeded job stream: `n` lines with options `all`. Index i ≡ 7
/// (mod 8) is a `dirty:` design, and consecutive dirty jobs walk the
/// five defect classes in turn (the k-th dirty job gets class k mod 5),
/// which `serve --dirty-every 8` does not guarantee; index i ≡ 3 (mod 8)
/// repeats a drawn earlier line; every other index is a `fuzz:` design.
/// The seed draws the fuzz and dirty design seeds and the repeated
/// lines.
pub fn stream(seed: u64, n: usize) -> Vec<FarmJob> {
    let mut rng = Rng::seed_from_u64(derive_seed(seed, 0xFA12));
    let mut jobs: Vec<FarmJob> = Vec::with_capacity(n);
    let mut dirty = 0u64;
    for i in 0..n {
        let job = if i % DIRTY_EVERY == DIRTY_EVERY - 1 {
            let s = 5 * rng.gen_u64(0, 1 << 30) + dirty % 5;
            dirty += 1;
            FarmJob {
                line: format!("{{\"design\":\"dirty:{s}\",\"options\":\"{OPTIONS}\"}}"),
                expect: dirty_verdict(s),
            }
        } else if i % REPEAT_EVERY == 3 {
            jobs[rng.gen_index(jobs.len())].clone()
        } else {
            FarmJob {
                line: format!(
                    "{{\"design\":\"fuzz:{}\",\"options\":\"{OPTIONS}\"}}",
                    rng.gen_u64(0, 1 << 32)
                ),
                expect: Verdict::Done,
            }
        };
        jobs.push(job);
    }
    jobs
}

/// Checks one served stream against the expected verdicts and its
/// summary against the outcomes. Every outcome is one checked item, and
/// so is each summary count.
pub fn check_served(
    jobs: &[FarmJob],
    outcomes: &[JobOutcome],
    summary: &ServeSummary,
    tally: &mut Tally,
) {
    tally.expect(outcomes.len() == jobs.len(), || {
        format!("{} outcomes for {} jobs", outcomes.len(), jobs.len())
    });
    for (i, (job, o)) in jobs.iter().zip(outcomes).enumerate() {
        let got = match o.status {
            JobStatus::Done => Some(Verdict::Done),
            JobStatus::Rejected if o.findings.len() == 1 => match o.findings[0].as_str() {
                "VN01" => Some(Verdict::Rejected("VN01")),
                "VN02" => Some(Verdict::Rejected("VN02")),
                "VN03" => Some(Verdict::Rejected("VN03")),
                "VN04" => Some(Verdict::Rejected("VN04")),
                _ => None,
            },
            _ => None,
        };
        tally.expect(o.index == i && got == Some(job.expect), || {
            format!(
                "job {i} {}: expected {:?}, got {}",
                job.line,
                job.expect,
                o.to_json()
            )
        });
    }
    let count = |f: &dyn Fn(&JobOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
    for (name, summarized, counted) in [
        ("jobs", summary.jobs, outcomes.len()),
        ("dedup hits", summary.dedup_hits, count(&|o| o.deduped)),
        ("store hits", summary.store_hits, count(&|o| o.from_store)),
        (
            "rejected",
            summary.rejected,
            count(&|o| o.status == JobStatus::Rejected && !o.deduped),
        ),
    ] {
        tally.expect(summarized == counted, || {
            format!("summary says {summarized} {name}, the outcomes {counted}")
        });
    }
}

/// Checks that a warm stream is byte-identical to the cold one, line by
/// line.
pub fn check_identical(cold: &[String], warm: &[String], tally: &mut Tally) {
    tally.expect(cold.len() == warm.len(), || {
        format!("warm stream has {} lines, cold {}", warm.len(), cold.len())
    });
    for (i, (c, w)) in cold.iter().zip(warm).enumerate() {
        tally.expect(c == w, || {
            format!("line {i} differs warm: {w} vs cold: {c}")
        });
    }
}

/// The `farm-mixed` workload.
pub struct FarmMixed {
    jobs: Vec<FarmJob>,
    store: PathBuf,
    threads: usize,
    warm_passes: usize,
}

/// One served stream.
pub struct Served {
    outcomes: Vec<JobOutcome>,
    summary: ServeSummary,
    latency_ms: Vec<f64>,
}

/// Output of one pass.
pub struct FarmOutput {
    cold: Served,
    warm: Vec<Served>,
    stats: StageCacheStats,
}

impl FarmMixed {
    fn config(&self, traced: bool) -> ServeConfig {
        ServeConfig {
            workers: self.threads,
            trace: traced,
            ..ServeConfig::default()
        }
    }

    /// Serves the stream once, stamping each job when the server pulls
    /// its line and when the server emits its outcome.
    fn serve(&self, server: &mut JobServer) -> Served {
        let pulled = RefCell::new(Vec::with_capacity(self.jobs.len()));
        let mut done = Vec::with_capacity(self.jobs.len());
        let mut outcomes = Vec::with_capacity(self.jobs.len());
        let lines = self.jobs.iter().map(|j| {
            pulled.borrow_mut().push(Instant::now());
            j.line.clone()
        });
        let summary = server.process(lines, |o| {
            done.push(Instant::now());
            outcomes.push(o.clone());
        });
        let latency_ms = pulled
            .into_inner()
            .iter()
            .zip(&done)
            .map(|(p, d)| d.duration_since(*p).as_secs_f64() * 1e3)
            .collect();
        Served {
            outcomes,
            summary,
            latency_ms,
        }
    }
}

impl Workload for FarmMixed {
    type Output = FarmOutput;

    fn setup(settings: &Settings) -> std::io::Result<Self> {
        let (n, warm_passes) = if settings.smoke {
            (40, 2)
        } else {
            (STREAM_JOBS, WARM_PASSES)
        };
        let jobs = stream(settings.seed, n);
        // Every line must name a valid configuration before it is served.
        for job in &jobs {
            JobSpec::from_json(&job.line)
                .and_then(|spec| spec.resolve())
                .map_err(|e| std::io::Error::other(format!("{}: {e}", job.line)))?;
        }
        let store = settings.work.join("farm-store");
        Ok(FarmMixed {
            jobs,
            store,
            threads: settings.threads,
            warm_passes,
        })
    }

    fn pass(
        &self,
        traced: bool,
        root: &SpanGuard,
        speed: &HostSpeed,
    ) -> std::io::Result<(PassTiming, FarmOutput)> {
        if self.store.exists() {
            std::fs::remove_dir_all(&self.store)?;
        }
        let mut timing = PassTiming::default();
        speed.tick();
        let t0 = Instant::now();
        let span = root.child("serve.cold");
        let store = Arc::new(ArtifactStore::open(&self.store)?);
        let mut server = JobServer::with_store(self.config(traced), store);
        let cold = self.serve(&mut server);
        let stats = server.session().cache_stats_by_stage();
        drop(server);
        span.finish();
        timing.cold_s = t0.elapsed().as_secs_f64();
        timing.cold_ms.clone_from(&cold.latency_ms);

        let mut warm = Vec::with_capacity(self.warm_passes);
        let watch = speed.stopwatch();
        for _ in 0..self.warm_passes {
            speed.tick();
            let span = root.child("serve.warm");
            let open = span.child("store.open");
            let store = Arc::new(ArtifactStore::open(&self.store)?);
            open.finish();
            let mut server = JobServer::with_store(self.config(traced), store);
            let served = self.serve(&mut server);
            span.finish();
            timing.warm_ms.push(served.latency_ms.clone());
            warm.push(served);
        }
        timing.warm_s = watch.seconds();
        Ok((timing, FarmOutput { cold, warm, stats }))
    }

    fn check(&self, out: &FarmOutput, tally: &mut Tally) {
        check_served(&self.jobs, &out.cold.outcomes, &out.cold.summary, tally);
        let cold: Vec<String> = out.cold.outcomes.iter().map(JobOutcome::to_json).collect();
        for w in &out.warm {
            let lines: Vec<String> = w.outcomes.iter().map(JobOutcome::to_json).collect();
            check_identical(&cold, &lines, tally);
            tally.expect(w.summary.evaluated == 0, || {
                format!("warm pass evaluated {} jobs", w.summary.evaluated)
            });
        }
    }

    fn fmax_mhz(&self, out: &FarmOutput) -> Vec<f64> {
        out.cold
            .outcomes
            .iter()
            .filter(|o| !o.deduped)
            .filter_map(|o| o.record.as_ref().map(|r| r.fmax_mhz))
            .collect()
    }

    fn layer_sample(&self, out: &FarmOutput) -> LayerSample {
        let fresh: Vec<SampleFlow> = self
            .jobs
            .iter()
            .zip(&out.cold.outcomes)
            .filter(|(_, o)| o.status == JobStatus::Done && !o.deduped)
            .filter_map(|(j, _)| sample_flow(&j.line))
            .take(CORE_SAMPLE)
            .collect();
        let warm_jobs: usize = out.warm.iter().map(|w| w.summary.jobs).sum();
        let warm_hits: usize = out.warm.iter().map(|w| w.summary.store_hits).sum();
        LayerSample {
            job_lines: self.jobs.iter().map(|j| j.line.clone()).collect(),
            place: fresh.iter().take(PLACE_SAMPLE).cloned().collect(),
            flows: fresh,
            store_dir: Some(self.store.clone()),
            cache: out.stats,
            counters: vec![
                ("serve.dedup_hits", out.cold.summary.dedup_hits as f64),
                (
                    "serve.store_hit_ratio",
                    warm_hits as f64 / warm_jobs.max(1) as f64,
                ),
                ("serve.rejected", out.cold.summary.rejected as f64),
            ],
        }
    }
}

/// The flow a `fuzz:` job line resolves to, with its design.
fn sample_flow(line: &str) -> Option<SampleFlow> {
    let job = JobSpec::from_json(line).ok()?;
    let seed: u64 = job.design.strip_prefix("fuzz:")?.parse().ok()?;
    let (flow, label) = job.resolve().ok()?;
    Some(SampleFlow {
        flow,
        design: hlsb_sim::fuzz::random_design(seed),
        device: Device::ultrascale_plus_vu9p(),
        effort: PlaceEffort::Fast,
        label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_covers_every_dirty_class() {
        let a = stream(7, 400);
        let b = stream(7, 400);
        assert_eq!(
            a.iter().map(|j| &j.line).collect::<Vec<_>>(),
            b.iter().map(|j| &j.line).collect::<Vec<_>>()
        );
        for v in ["VN01", "VN02", "VN03", "VN04"] {
            assert!(a.iter().any(|j| j.expect == Verdict::Rejected(v)), "{v}");
        }
        assert!(a
            .iter()
            .any(|j| j.line.contains("dirty") && j.expect == Verdict::Done));
        let distinct: std::collections::HashSet<_> = a.iter().map(|j| &j.line).collect();
        assert_eq!(
            a.len() - distinct.len(),
            400 / REPEAT_EVERY,
            "one line in 8 repeats"
        );
        let dirty = distinct.iter().filter(|l| l.contains("dirty")).count();
        assert_eq!(dirty, 400 / DIRTY_EVERY, "one distinct line in 8 is dirty");
    }
}
