//! The traced run's per-layer probes.
//!
//! Each probe calls one layer's public functions on inputs taken from
//! the workload and wraps the calls in a span of the benchmark's own
//! [`hlsb_trace::Tracer`]; the per-layer times are read back from those
//! spans, so the numbers printed and the span file written agree. No
//! span is added inside the program.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hlsb::netlist::CellId;
use hlsb::{Flow, FlowSession, PlaceEffort, StageCacheStats, TraceTree};
use hlsb_fabric::{Device, WireModel};
use hlsb_ir::Design;
use hlsb_place::AnnealConfig;
use hlsb_serve::JobSpec;
use hlsb_sim::Stimulus;
use hlsb_store::{ArtifactStore, ResultRecord};
use hlsb_timing::{FanoutOptions, RefineOptions, RetimeOptions};
use hlsb_trace::SpanGuard;

use crate::metrics::Tally;

/// Simulation length for the `sim` probe and the output checks: the
/// explorer's own default, so the benchmark checks what a campaign
/// checks.
pub const SIM_ITERS: u64 = hlsb_explore::DEFAULT_VERIFY_ITERS;

/// One flow a probe compiles, with the parts [`Flow`] keeps private.
#[derive(Clone)]
pub struct SampleFlow {
    /// The flow as the workload runs it.
    pub flow: Flow,
    /// Its design.
    pub design: Design,
    /// Its target device.
    pub device: Device,
    /// Its placement effort.
    pub effort: PlaceEffort,
    /// Configuration label for store records.
    pub label: String,
}

/// Inputs a workload hands to the probes, plus the counts its traced
/// pass already produced.
#[derive(Default)]
pub struct LayerSample {
    /// Job lines the serve probes parse and resolve.
    pub job_lines: Vec<String>,
    /// Flows for the core, verify, sim and store probes.
    pub flows: Vec<SampleFlow>,
    /// Flows whose netlists the place and timing probes re-implement.
    pub place: Vec<SampleFlow>,
    /// A store the traced pass populated, reopened by the store probe
    /// (otherwise the probe reopens the store it filled itself).
    pub store_dir: Option<PathBuf>,
    /// Stage-cache statistics of the traced pass's sessions.
    pub cache: StageCacheStats,
    /// Counts taken from the traced pass itself.
    pub counters: Vec<(&'static str, f64)>,
}

/// The anneal schedule the implement stage uses for `effort`: Normal is
/// [`AnnealConfig::default`]; Fast copies the reduced schedule that
/// `crates/core/src/passes/implement.rs` keeps private, and must follow
/// it. [`check_anneal_schedule`] fails when the two drift apart.
fn anneal_for(effort: PlaceEffort) -> AnnealConfig {
    match effort {
        PlaceEffort::Fast => AnnealConfig {
            moves_per_cell: 12,
            min_moves: 3_000,
            max_moves: 60_000,
            cooling: 0.8,
            batches: 25,
        },
        PlaceEffort::Normal => AnnealConfig::default(),
    }
}

/// Fuzz designs [`check_anneal_schedule`] tries, in order, for one whose
/// flow duplicates and retimes nothing.
const REPLAY_CANDIDATES: u64 = 256;

/// Checks that [`anneal_for`]`(effort)` is the schedule the implement
/// stage runs. A one-seed flat flow whose implement stage duplicates no
/// register and makes no retiming move returns the very netlist it
/// placed. Placing that netlist with the probe's schedule and the flow's
/// seed, then running the stage's fanout, retime and refine passes, must
/// reproduce the flow's final placement and period exactly; a changed
/// schedule places differently. The design is one whose move count is
/// set by `moves_per_cell`, not clamped to `min_moves` or `max_moves`,
/// so the per-cell rate, the cooling and the batches all shape it.
pub fn check_anneal_schedule(effort: PlaceEffort) -> Result<(), String> {
    let device = Device::ultrascale_plus_vu9p();
    let wire = WireModel::for_device(&device);
    let session = FlowSession::with_threads(1);
    let schedule = anneal_for(effort);
    for fuzz in 0..REPLAY_CANDIDATES {
        let flow = Flow::new(hlsb_sim::fuzz::random_design(fuzz))
            .device(device.clone())
            .seed(fuzz + 1)
            .place_effort(effort)
            .place_seeds(1);
        let (r, mut nl, placed) = session
            .run_detailed(&flow)
            .map_err(|e| format!("fuzz:{fuzz}: {e}"))?;
        let moves = nl.cell_count() as u64 * u64::from(schedule.moves_per_cell);
        let unclamped =
            (u64::from(schedule.min_moves)..=u64::from(schedule.max_moves)).contains(&moves);
        if r.duplicated_regs != 0 || r.retime_moves != 0 || !unclamped {
            continue;
        }
        let mut pl = hlsb_place::place_with(&nl, &device, fuzz + 1, schedule);
        hlsb_timing::optimize_fanout(&mut nl, &mut pl, FanoutOptions::default());
        hlsb_timing::retime(&mut nl, &mut pl, &wire, RetimeOptions::default());
        let (_, timing) =
            hlsb_timing::refine_critical(&nl, &mut pl, &wire, RefineOptions::default());
        let same = (0..nl.cell_count() as u32).all(|c| pl.loc(CellId(c)) == placed.loc(CellId(c)))
            && timing.period_ns == r.period_ns;
        return if same {
            Ok(())
        } else {
            Err(format!(
                "the {effort:?} anneal schedule of the place probes no longer \
                 matches the implement stage's (fuzz:{fuzz} places differently)"
            ))
        };
    }
    Err(format!(
        "no fuzz design below {REPLAY_CANDIDATES} implements without fanout or \
         retime changes at an unclamped move count, so the {effort:?} anneal \
         schedule cannot be checked"
    ))
}

/// What the implement stage itself reports about its fanout and retime
/// work, summed over every placement trial of a traced flow.
fn trial_counts(tree: Option<&TraceTree>) -> (u64, u64) {
    let sum = |key: &str| -> u64 {
        tree.into_iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.name.starts_with("trial-"))
            .filter_map(|s| s.attrs.iter().find(|a| a.key == key))
            .filter_map(|a| a.value.as_u64())
            .sum()
    };
    (sum("duplicated-regs"), sum("retime-moves"))
}

/// An anneal schedule with no moves: seed placement plus the final
/// zero-temperature polish.
const SEED_ONLY: AnnealConfig = AnnealConfig {
    moves_per_cell: 0,
    min_moves: 0,
    max_moves: 0,
    cooling: 0.9,
    batches: 0,
};

/// Counts the probes produce besides their spans.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    lines: usize,
    flows: usize,
    records: usize,
    cells: usize,
    instructions: usize,
    duplicated_regs: u64,
    retime_moves: u64,
    refine_moves: usize,
}

fn span<T>(parent: &SpanGuard, name: &str, calls: usize, f: impl FnOnce() -> T) -> T {
    let s = parent.child(name);
    s.attr("calls", calls as u64);
    let out = std::hint::black_box(f());
    s.finish();
    out
}

/// Runs every probe on `sample` under `root`. `scratch` is an empty
/// directory the store probe may fill. Failed calls are recorded in
/// `tally`.
pub fn probe(
    sample: &LayerSample,
    root: &SpanGuard,
    threads: usize,
    scratch: &Path,
    tally: &mut Tally,
) -> std::io::Result<ProbeCounts> {
    let mut counts = ProbeCounts {
        lines: sample.job_lines.len(),
        flows: sample.flows.len(),
        ..ProbeCounts::default()
    };

    let parsed: Vec<Result<JobSpec, String>> = span(root, "serve.parse", counts.lines, || {
        sample
            .job_lines
            .iter()
            .map(|l| JobSpec::from_json(l))
            .collect()
    });
    let jobs: Vec<JobSpec> = parsed.into_iter().filter_map(|j| j.ok()).collect();
    tally.expect(jobs.len() == counts.lines, || {
        "a sample job line did not parse".into()
    });
    let resolved = span(root, "serve.resolve", jobs.len(), || {
        jobs.iter().map(JobSpec::resolve).collect::<Vec<_>>()
    });
    tally.expect(resolved.iter().all(Result::is_ok), || {
        "a sample job did not resolve".into()
    });

    span(root, "verify.network", counts.flows, || {
        for f in &sample.flows {
            hlsb_verify::verify_network(&f.design, &f.device.name, 300.0);
        }
    });

    let mut records: Vec<ResultRecord> = Vec::new();
    for f in &sample.flows {
        let session = FlowSession::with_threads(threads);
        match span(root, "core.probe", 1, || session.probe(&f.flow)) {
            Ok(p) => counts.instructions += p.instructions,
            Err(e) => tally.check(Err(format!("probe {}: {e}", f.label))),
        }
        match span(root, "core.backend", 1, || session.run(&f.flow)) {
            Ok(r) => records.push(f.flow.store_record(&f.label, &r, 0.0)),
            Err(e) => tally.check(Err(format!("run {}: {e}", f.label))),
        }
        let stim = Stimulus::seeded(&f.design, 1, SIM_ITERS as usize);
        if let Err(e) = span(root, "sim", 1, || {
            session.simulate(&f.flow, &stim, SIM_ITERS)
        }) {
            tally.check(Err(format!("simulate {}: {e}", f.label)));
        }
    }

    let fresh = scratch.join("probe-store");
    counts.records = records.len();
    {
        let store = ArtifactStore::open(&fresh)?;
        span(root, "store.put", records.len(), || {
            records.iter().try_for_each(|r| store.put_result(r.clone()))
        })?;
    }
    let reopen = sample.store_dir.as_deref().unwrap_or(&fresh);
    let store = span(root, "store.open", 1, || ArtifactStore::open(reopen))?;
    let hits = span(root, "store.get", records.len(), || {
        records
            .iter()
            .filter(|r| store.get_result(r.key).is_some())
            .count()
    });
    tally.expect(hits == records.len(), || {
        format!("store returned {hits} of {} records", records.len())
    });

    let mut efforts: Vec<PlaceEffort> = Vec::new();
    for f in &sample.place {
        if !efforts.contains(&f.effort) {
            efforts.push(f.effort);
        }
    }
    for effort in efforts {
        tally.check(check_anneal_schedule(effort));
    }
    for f in &sample.place {
        let traced = f.flow.clone().trace(true);
        let (r, netlist, _) = match FlowSession::with_threads(threads).run_detailed(&traced) {
            Ok(out) => out,
            Err(e) => {
                tally.check(Err(format!("run_detailed {}: {e}", f.label)));
                continue;
            }
        };
        let (duplicated, retimed) = trial_counts(r.trace_tree());
        counts.duplicated_regs += duplicated;
        counts.retime_moves += retimed;
        // The final netlist: the implement stage has already duplicated
        // and retimed it, so the fanout and retime calls below time the
        // residual work on an optimized netlist.
        counts.cells += netlist.cell_count();
        let seed = 1;
        span(root, "place.seed", 1, || {
            hlsb_place::place_with(&netlist, &f.device, seed, SEED_ONLY)
        });
        let placed = span(root, "place.full", 1, || {
            hlsb_place::place_with(&netlist, &f.device, seed, anneal_for(f.effort))
        });
        let wire = WireModel::for_device(&f.device);
        let (mut nl, mut pl) = (netlist, placed);
        span(root, "timing.sta", 1, || hlsb_timing::sta(&nl, &pl, &wire));
        span(root, "timing.fanout", 1, || {
            hlsb_timing::optimize_fanout(&mut nl, &mut pl, FanoutOptions::default())
        });
        span(root, "timing.retime", 1, || {
            hlsb_timing::retime(&mut nl, &mut pl, &wire, RetimeOptions::default())
        });
        let (rf, _) = span(root, "timing.refine", 1, || {
            hlsb_timing::refine_critical(&nl, &mut pl, &wire, RefineOptions::default())
        });
        counts.refine_moves += rf.moves;
    }
    Ok(counts)
}

/// Name of the span the probes run under.
pub const PROBES_SPAN: &str = "layers";

/// The per-layer metrics from the probe spans in `tree`, the probe
/// counts, the workload's own counters and the tracing overhead.
pub fn metrics(
    tree: &TraceTree,
    counts: &ProbeCounts,
    sample: &LayerSample,
    overhead_ratio: f64,
) -> BTreeMap<&'static str, f64> {
    let parent = tree.find(PROBES_SPAN).map(|s| s.id);
    // Total milliseconds of the probe spans named `name`.
    let span_ms = |name: &str| -> f64 {
        tree.spans
            .iter()
            .filter(|s| s.parent == parent && s.name == name)
            .map(|s| s.dur_us / 1e3)
            .sum()
    };
    let per = |total: f64, n: usize| total / n.max(1) as f64;
    let seed_ms = span_ms("place.seed");
    let probe_ms = span_ms("core.probe");
    let backend_ms = span_ms("core.backend");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("place.seed_ms", seed_ms),
        ("place.anneal_ms", span_ms("place.full") - seed_ms),
        ("place.cells", counts.cells as f64),
        ("timing.sta_ms", span_ms("timing.sta")),
        ("timing.fanout_ms", span_ms("timing.fanout")),
        ("timing.retime_ms", span_ms("timing.retime")),
        ("timing.refine_ms", span_ms("timing.refine")),
        ("timing.duplicated_regs", counts.duplicated_regs as f64),
        ("timing.retime_moves", counts.retime_moves as f64),
        ("timing.refine_moves", counts.refine_moves as f64),
        ("core.probe_ms", probe_ms),
        ("core.backend_ms", backend_ms),
        ("core.flow_ms", per(probe_ms + backend_ms, counts.flows)),
        ("core.instructions", counts.instructions as f64),
        (
            "serve.parse_us",
            per(span_ms("serve.parse") * 1e3, counts.lines),
        ),
        (
            "serve.resolve_us",
            per(span_ms("serve.resolve") * 1e3, counts.lines),
        ),
        (
            "verify.network_us",
            per(span_ms("verify.network") * 1e3, counts.flows),
        ),
        ("store.open_ms", span_ms("store.open")),
        (
            "store.get_us",
            per(span_ms("store.get") * 1e3, counts.records),
        ),
        (
            "store.put_us",
            per(span_ms("store.put") * 1e3, counts.records),
        ),
        ("sim.ms", span_ms("sim")),
        ("core.fe_hit_ratio", sample.cache.front_end.hit_rate()),
        ("core.sched_hit_ratio", sample.cache.schedule.hit_rate()),
        ("trace.overhead_ratio", overhead_ratio),
    ]);
    m.extend(sample.counters.iter().copied());
    // A workload that bypasses the serve, explore or DSE layer reports
    // none of their counts: it made no calls into them.
    for name in PASS_COUNTERS {
        m.entry(name).or_insert(0.0);
    }
    m
}

/// Per-layer counts a workload takes from its own traced pass.
pub const PASS_COUNTERS: [&str; 8] = [
    "serve.dedup_hits",
    "serve.store_hit_ratio",
    "serve.rejected",
    "explore.full_evals",
    "explore.probe_evals",
    "explore.ms_per_full_eval",
    "dse.full_evals",
    "dse.probe_evals",
];
