//! Implement pass: multi-seed placement, fanout optimization, retiming
//! and timing-driven refinement — the best-timing trial wins.
//!
//! Two placement strategies share the pass:
//!
//! - **Flat** (default): each trial anneals the whole netlist on the whole
//!   device, exactly as before partitioning existed.
//! - **Partitioned** ([`Partitioning::Auto`] / [`Partitioning::Fixed`]):
//!   the netlist is cut at its dataflow seams into islands, every
//!   inter-island net is registered, each island gets a reserved vertical
//!   strip of the device, and all `trials × islands` island placements run
//!   in one work-stealing pool (phase A). Each trial then merges its
//!   island placements and runs the global fanout/retime/refine passes
//!   (phase B, parallel over trials).
//!
//! Both strategies are deterministic and thread-count independent: phase-A
//! results are keyed by `(trial, island)` slot, each island placement is a
//! pure function of `(island netlist, region, seed)`, and the winning
//! trial is picked with the same strictly-better predicate the sequential
//! loop uses.

use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;

use hlsb_fabric::{Device, WireModel};
use hlsb_netlist::{CellId, Netlist, Subgraph};
use hlsb_place::{
    auto_islands, max_islands, partition, place_in_region, place_with, reserve_regions,
    site_shortfall, stitch_crossings, AnnealConfig, Placement, Region,
};
use hlsb_timing::{
    fanout_opt::FanoutOptReport, optimize_fanout, refine_critical, retime, retime::RetimeReport,
    FanoutOptions, RefineOptions, RetimeOptions, TimingReport,
};

use crate::options::{Partitioning, PlaceEffort};

/// The winning trial's netlist, placement and reports.
#[derive(Debug)]
pub(crate) struct ImplementOutput {
    pub netlist: Netlist,
    pub placement: Placement,
    pub timing: TimingReport,
    pub fanout: FanoutOptReport,
    pub retime: RetimeReport,
}

/// Deterministic per-trial provenance, captured inside the worker that
/// ran the trial. The timing window (`start_us`/`dur_us`, relative to the
/// session tracer's epoch) is informational only — everything else is a
/// pure function of the netlist and seed, so trial spans built from these
/// summaries are identical for sequential and parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrialSummary {
    pub idx: u32,
    pub seed: u64,
    pub period_ns: f64,
    pub fmax_mhz: f64,
    pub duplicated_regs: usize,
    pub retime_moves: usize,
    /// Total half-perimeter wirelength of the trial's final placement.
    pub hpwl: f64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Provenance of one island placement of one trial (phase A of the
/// partitioned strategy), for span emission.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IslandSummary {
    pub trial: u32,
    pub island: u32,
    /// Cells placed in this island (crossing registers included).
    pub cells: u32,
    /// HPWL of the island placement, before global optimization.
    pub hpwl: f64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// What the partitioned strategy did, for the result and the trace.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionReport {
    /// Islands actually used (>= 2).
    pub islands: u32,
    /// Nets that crossed an island boundary before stitching.
    pub cut_nets: u32,
    /// Crossing registers inserted.
    pub crossing_registers: u32,
    /// Flip-flop bits those registers cost.
    pub crossing_register_bits: u64,
    /// Cells per island, after stitching.
    pub island_cells: Vec<u32>,
    /// Reserved region per island, as `(x0, y0, w, h)`.
    pub island_regions: Vec<(u16, u16, u16, u16)>,
    /// Per-(trial, island) placement provenance, sorted by trial then
    /// island.
    pub island_summaries: Vec<IslandSummary>,
}

struct TrialOutcome {
    idx: u32,
    out: ImplementOutput,
    summary: TrialSummary,
}

/// Sequential selection order: a later trial wins only on strictly
/// better timing, so ties keep the lowest trial index. The parallel
/// reduction uses the same predicate, which makes parallel ≡ sequential
/// regardless of completion order.
fn better(a: &TrialOutcome, b: &TrialOutcome) -> bool {
    a.out.timing.period_ns < b.out.timing.period_ns
        || (a.out.timing.period_ns == b.out.timing.period_ns && a.idx < b.idx)
}

/// Global optimization of one placed trial: fanout duplication, backward
/// retiming, timing-driven refinement, then the summary.
fn finish_trial(
    mut nl: Netlist,
    mut placement: Placement,
    idx: u32,
    seed: u64,
    wire: &WireModel,
    start_us: f64,
    tracer: &hlsb_trace::Tracer,
) -> TrialOutcome {
    let fanout = optimize_fanout(&mut nl, &mut placement, FanoutOptions::default());
    let (rt, _) = retime(&mut nl, &mut placement, wire, RetimeOptions::default());
    // Timing-driven refinement, as physical synthesis would run.
    let (_refine, timing) = refine_critical(&nl, &mut placement, wire, RefineOptions::default());
    let summary = TrialSummary {
        idx,
        seed,
        period_ns: timing.period_ns,
        fmax_mhz: timing.fmax_mhz,
        duplicated_regs: fanout.duplicated_registers,
        retime_moves: rt.moves,
        hpwl: placement.total_hpwl(&nl),
        start_us,
        dur_us: tracer.now_us() - start_us,
    };
    TrialOutcome {
        idx,
        out: ImplementOutput {
            netlist: nl,
            placement,
            timing,
            fanout,
            retime: rt,
        },
        summary,
    }
}

fn run_trial(
    nl: Netlist,
    idx: u32,
    device: &Device,
    wire: &WireModel,
    anneal: AnnealConfig,
    base_seed: u64,
    tracer: &hlsb_trace::Tracer,
) -> TrialOutcome {
    let start_us = tracer.now_us();
    let seed = hlsb_rng::derive_seed(base_seed, u64::from(idx));
    let placement = place_with(&nl, device, seed, anneal);
    finish_trial(nl, placement, idx, seed, wire, start_us, tracer)
}

/// Everything the partitioned strategy pre-computes once, shared by all
/// trials: the stitched netlist, the per-island subgraphs and the
/// reserved regions.
struct PartitionPlan {
    netlist: Netlist,
    subs: Vec<Subgraph>,
    regions: Vec<Region>,
    cut_nets: u32,
    crossing_registers: u32,
    crossing_register_bits: u64,
}

/// Decides whether (and how) to partition. Returns `None` — flat
/// placement — when partitioning is off, the design resolves to fewer
/// than two islands, or the device cannot host the reserved regions
/// (including an island with more cells of a kind than its region has
/// legal sites for, e.g. a DSP-heavy island in a strip of few DSP
/// columns). The
/// decision is a pure function of `(netlist, device, partitions, seams)`,
/// never of the thread count.
fn plan_partition(
    netlist: &Netlist,
    device: &Device,
    partitions: Partitioning,
    seams: &[CellId],
) -> Option<PartitionPlan> {
    if !partitions.is_enabled() {
        return None;
    }
    let k = match partitions {
        Partitioning::Off => return None,
        Partitioning::Auto => auto_islands(netlist, device),
        Partitioning::Fixed(k) => k.min(max_islands(device)),
    };
    if k < 2 {
        return None;
    }
    let mut part = partition(netlist, seams, k);
    if part.len() < 2 {
        return None;
    }
    // Auto mode only partitions when the cut is cheap (the RapidStream
    // premise: cut at low-bandwidth dataflow boundaries). A fat cut —
    // dense logic split down the middle because no seam exists — costs
    // more in crossing wiring than parallel island annealing buys, so
    // designs whose best cut severs more than ~2% of their nets fall
    // back to flat placement. An explicit `Fixed(k)` is always honored.
    if partitions == Partitioning::Auto {
        let cut = count_cut_nets(netlist, &part);
        if cut * 50 > netlist.cell_count() {
            return None;
        }
    }
    let mut stitched = netlist.clone();
    let crossings = stitch_crossings(&mut stitched, &mut part);
    let sizes: Vec<usize> = part.islands.iter().map(Vec::len).collect();
    let regions = reserve_regions(device, &sizes)?;
    let subs: Vec<Subgraph> = part
        .islands
        .iter()
        .map(|cells| stitched.subgraph(cells))
        .collect();
    if subs
        .iter()
        .zip(&regions)
        .any(|(sub, &region)| site_shortfall(&sub.netlist, region).is_some())
    {
        return None;
    }
    Some(PartitionPlan {
        netlist: stitched,
        subs,
        regions,
        cut_nets: crossings.cut_nets,
        crossing_registers: crossings.registers,
        crossing_register_bits: crossings.register_bits,
    })
}

/// Nets whose driver and some sink live in different islands — what
/// [`stitch_crossings`] would register. Counted on the unstitched
/// netlist so the Auto-mode quality gate can reject a fat cut before
/// cloning anything.
fn count_cut_nets(netlist: &Netlist, part: &hlsb_place::Partition) -> usize {
    netlist
        .nets()
        .filter(|(_, net)| {
            let home = part.island_of[net.driver.index()];
            net.sinks.iter().any(|s| part.island_of[s.index()] != home)
        })
        .count()
}

/// One phase-A task: place island `island` of trial `trial` in its
/// reserved region. Pure function of the plan, the base seed and the
/// slot.
fn place_island(
    plan: &PartitionPlan,
    device: &Device,
    anneal: AnnealConfig,
    base_seed: u64,
    trial: u32,
    island: u32,
    tracer: &hlsb_trace::Tracer,
) -> (Placement, IslandSummary) {
    let start_us = tracer.now_us();
    let trial_seed = hlsb_rng::derive_seed(base_seed, u64::from(trial));
    let island_seed = hlsb_rng::derive_seed(trial_seed, u64::from(island));
    let sub = &plan.subs[island as usize];
    let placement = place_in_region(
        &sub.netlist,
        device,
        plan.regions[island as usize],
        island_seed,
        anneal,
    );
    let summary = IslandSummary {
        trial,
        island,
        cells: sub.netlist.cell_count() as u32,
        hpwl: placement.total_hpwl(&sub.netlist),
        start_us,
        dur_us: tracer.now_us() - start_us,
    };
    (placement, summary)
}

/// Merges one trial's island placements into a full-grid placement.
fn merge_islands(plan: &PartitionPlan, device: &Device, islands: &[&Placement]) -> Placement {
    let mut locs = vec![(0u16, 0u16); plan.netlist.cell_count()];
    for (sub, p) in plan.subs.iter().zip(islands) {
        for (local, &global) in sub.global_of.iter().enumerate() {
            locs[global.index()] = p.loc(CellId(local as u32));
        }
    }
    Placement::from_locs(locs, device.grid_w, device.grid_h)
}

#[allow(clippy::too_many_arguments)]
fn run_partitioned(
    plan: PartitionPlan,
    device: &Device,
    wire: &WireModel,
    anneal: AnnealConfig,
    seed: u64,
    trials: u32,
    threads: usize,
    tracer: &hlsb_trace::Tracer,
) -> (ImplementOutput, Vec<TrialSummary>, u32, PartitionReport) {
    let n_islands = plan.subs.len();
    let tasks = trials as usize * n_islands;

    // Phase A: every (trial, island) placement in one work-stealing pool.
    // Results land in their slot, so worker interleaving is invisible.
    let mut slots: Vec<Option<(Placement, IslandSummary)>> = (0..tasks).map(|_| None).collect();
    let workers = threads.clamp(1, tasks.max(1));
    if workers == 1 {
        for (slot, entry) in slots.iter_mut().enumerate() {
            let trial = (slot / n_islands) as u32;
            let island = (slot % n_islands) as u32;
            *entry = Some(place_island(
                &plan, device, anneal, seed, trial, island, tracer,
            ));
        }
    } else {
        let next = AtomicU32::new(0);
        let plan_ref = &plan;
        let produced: Vec<Vec<(usize, (Placement, IslandSummary))>> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let slot = next.fetch_add(1, Ordering::Relaxed) as usize;
                            if slot >= tasks {
                                break;
                            }
                            let trial = (slot / n_islands) as u32;
                            let island = (slot % n_islands) as u32;
                            mine.push((
                                slot,
                                place_island(plan_ref, device, anneal, seed, trial, island, tracer),
                            ));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("island placement panicked"))
                .collect()
        });
        for (slot, result) in produced.into_iter().flatten() {
            slots[slot] = Some(result);
        }
    }
    let slots: Vec<(Placement, IslandSummary)> = slots
        .into_iter()
        .map(|s| s.expect("every island slot filled"))
        .collect();

    // Phase B: per-trial merge + global fanout/retime/refine, parallel
    // over trials with the same stealing/reduction scheme as flat mode.
    let finish = |idx: u32, nl: Netlist| -> TrialOutcome {
        let trial_slots: Vec<&Placement> = (0..n_islands)
            .map(|i| &slots[idx as usize * n_islands + i].0)
            .collect();
        // The trial's window starts when its first island started.
        let start_us = (0..n_islands)
            .map(|i| slots[idx as usize * n_islands + i].1.start_us)
            .fold(f64::INFINITY, f64::min);
        let placement = merge_islands(&plan, device, &trial_slots);
        let trial_seed = hlsb_rng::derive_seed(seed, u64::from(idx));
        finish_trial(nl, placement, idx, trial_seed, wire, start_us, tracer)
    };

    let workers = threads.clamp(1, trials as usize);
    let (best, mut summaries) = if workers == 1 {
        let mut best: Option<TrialOutcome> = None;
        let mut summaries = Vec::with_capacity(trials as usize);
        let mut source = Some(plan.netlist.clone());
        for idx in 0..trials {
            // The last trial consumes the netlist instead of cloning it.
            let nl = if idx + 1 == trials {
                source.take().expect("source netlist present")
            } else {
                source.as_ref().expect("source netlist present").clone()
            };
            let t = finish(idx, nl);
            summaries.push(t.summary.clone());
            if best.as_ref().is_none_or(|b| better(&t, b)) {
                best = Some(t);
            }
        }
        (best, summaries)
    } else {
        let next = AtomicU32::new(0);
        let nl_ref = &plan.netlist;
        let finish_ref = &finish;
        let per_worker: Vec<(Option<TrialOutcome>, Vec<TrialSummary>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut best: Option<TrialOutcome> = None;
                        let mut summaries = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= trials {
                                break;
                            }
                            let t = finish_ref(idx, nl_ref.clone());
                            summaries.push(t.summary.clone());
                            if best.as_ref().is_none_or(|b| better(&t, b)) {
                                best = Some(t);
                            }
                        }
                        (best, summaries)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("placement trial panicked"))
                .collect()
        });
        let mut best: Option<TrialOutcome> = None;
        let mut summaries = Vec::with_capacity(trials as usize);
        for (wb, ws) in per_worker {
            summaries.extend(ws);
            if let Some(t) = wb {
                if best.as_ref().is_none_or(|b| better(&t, b)) {
                    best = Some(t);
                }
            }
        }
        (best, summaries)
    };
    summaries.sort_by_key(|s| s.idx);
    let best = best.expect("at least one placement trial");

    let report = PartitionReport {
        islands: n_islands as u32,
        cut_nets: plan.cut_nets,
        crossing_registers: plan.crossing_registers,
        crossing_register_bits: plan.crossing_register_bits,
        island_cells: plan
            .subs
            .iter()
            .map(|s| s.netlist.cell_count() as u32)
            .collect(),
        island_regions: plan
            .regions
            .iter()
            .map(|r| (r.x0, r.y0, r.w, r.h))
            .collect(),
        island_summaries: slots.into_iter().map(|(_, s)| s).collect(),
    };
    (best.out, summaries, best.idx, report)
}

/// Places and optimizes `netlist` with `place_seeds` independent seeds
/// (streams of `seed` via [`hlsb_rng::derive_seed`]; stream 0 is `seed`
/// itself) and keeps the best-timing result. Trials run on up to
/// `threads` scoped threads; a single flat trial consumes the netlist
/// without cloning.
///
/// With `partitions` enabled (and a feasible cut — see `plan_partition`),
/// the partitioned strategy runs instead and the fourth return value
/// reports what it did; flat runs return `None` there.
///
/// Returns the winning output plus every trial's summary (sorted by
/// trial index) and the winner's index, for span-trace emission.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    netlist: Netlist,
    device: &Device,
    seed: u64,
    effort: PlaceEffort,
    place_seeds: u32,
    threads: usize,
    partitions: Partitioning,
    seams: &[CellId],
    tracer: &hlsb_trace::Tracer,
) -> (
    ImplementOutput,
    Vec<TrialSummary>,
    u32,
    Option<PartitionReport>,
) {
    let anneal = match effort {
        PlaceEffort::Fast => AnnealConfig {
            moves_per_cell: 12,
            min_moves: 3_000,
            max_moves: 60_000,
            cooling: 0.8,
            batches: 25,
        },
        PlaceEffort::Normal => AnnealConfig::default(),
    };
    let wire = WireModel::for_device(device);
    let trials = place_seeds.max(1);

    if let Some(plan) = plan_partition(&netlist, device, partitions, seams) {
        drop(netlist); // the stitched netlist supersedes it
        let (out, summaries, winner, report) =
            run_partitioned(plan, device, &wire, anneal, seed, trials, threads, tracer);
        return (out, summaries, winner, Some(report));
    }

    if trials == 1 {
        let t = run_trial(netlist, 0, device, &wire, anneal, seed, tracer);
        return (t.out, vec![t.summary], 0, None);
    }

    let workers = threads.clamp(1, trials as usize);
    let (best, mut summaries) = if workers == 1 {
        let mut best: Option<TrialOutcome> = None;
        let mut summaries = Vec::with_capacity(trials as usize);
        let mut source = Some(netlist);
        for idx in 0..trials {
            // The last trial consumes the netlist instead of cloning it.
            let nl = if idx + 1 == trials {
                source.take().expect("source netlist present")
            } else {
                source.as_ref().expect("source netlist present").clone()
            };
            let t = run_trial(nl, idx, device, &wire, anneal, seed, tracer);
            summaries.push(t.summary.clone());
            if best.as_ref().is_none_or(|b| better(&t, b)) {
                best = Some(t);
            }
        }
        (best, summaries)
    } else {
        let next = AtomicU32::new(0);
        let per_worker: Vec<(Option<TrialOutcome>, Vec<TrialSummary>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut best: Option<TrialOutcome> = None;
                        let mut summaries = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= trials {
                                break;
                            }
                            let t = run_trial(
                                netlist.clone(),
                                idx,
                                device,
                                &wire,
                                anneal,
                                seed,
                                tracer,
                            );
                            summaries.push(t.summary.clone());
                            if best.as_ref().is_none_or(|b| better(&t, b)) {
                                best = Some(t);
                            }
                        }
                        (best, summaries)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("placement trial panicked"))
                .collect()
        });
        let mut best: Option<TrialOutcome> = None;
        let mut summaries = Vec::with_capacity(trials as usize);
        for (wb, ws) in per_worker {
            summaries.extend(ws);
            if let Some(t) = wb {
                if best.as_ref().is_none_or(|b| better(&t, b)) {
                    best = Some(t);
                }
            }
        }
        (best, summaries)
    };
    // Deterministic emission order regardless of worker interleaving.
    summaries.sort_by_key(|s| s.idx);
    let best = best.expect("at least one placement trial");
    (best.out, summaries, best.idx, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_netlist::Cell;

    /// Two disconnected islands: a register fanning out to `dsps` DSP
    /// cells, and a register fanning out to 3000 logic cells.
    fn two_islands(dsps: usize) -> Netlist {
        let mut nl = Netlist::new("islands");
        let a = nl.add_cell(Cell::ff("a", 32));
        let sinks: Vec<_> = (0..dsps)
            .map(|i| nl.add_cell(Cell::dsp(format!("d{i}"), 32, 2.0, 1)))
            .collect();
        nl.connect(a, &sinks);
        let b = nl.add_cell(Cell::ff("b", 32));
        let sinks: Vec<_> = (0..3000)
            .map(|i| nl.add_cell(Cell::comb(format!("c{i}"), 32, 0.3, 32)))
            .collect();
        nl.connect(b, &sinks);
        nl
    }

    #[test]
    fn island_with_more_dsps_than_its_strip_falls_back_to_flat() {
        // The DSP island gets a 12-column strip holding one DSP column of
        // 120 rows: 100 DSP cells fit it, 300 do not (the flat grid has
        // 1680 DSP sites, so flat placement still works).
        let device = Device::ultrascale_plus_vu9p();
        let fits = plan_partition(&two_islands(100), &device, Partitioning::Fixed(2), &[])
            .expect("100 DSP cells fit the strip");
        assert_eq!(fits.regions[0].w, 12);
        assert!(plan_partition(&two_islands(300), &device, Partitioning::Fixed(2), &[]).is_none());
    }
}
