//! Timing-driven placement refinement.
//!
//! Simulated-annealing placement minimizes *total* wirelength; the clock
//! period is set by the *worst* path. This pass closes the gap the way
//! physical-synthesis tools do: repeatedly re-run STA, take the cells on
//! the critical path, and move each toward the median position of its
//! connected neighbours (the star-wirelength optimum), keeping the move
//! only if the period improves.
//!
//! Site exclusivity is relaxed for the handful of refined cells (real
//! tools displace neighbours during legalization); the broadcast-spread
//! physics is preserved because a net's many *sinks* stay where global
//! placement put them.

use crate::sta::{StaGraph, TimingReport};
use hlsb_fabric::WireModel;
use hlsb_netlist::{CellId, CellKind, Netlist};
use hlsb_place::sites::snap_column;
use hlsb_place::Placement;

/// Options for [`refine_critical`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineOptions {
    /// Maximum refinement rounds (one critical path per round).
    pub max_rounds: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions { max_rounds: 200 }
    }
}

/// Report of a refinement run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineReport {
    /// Accepted cell moves.
    pub moves: usize,
    /// Rounds executed.
    pub rounds: usize,
}

/// Median location of the cells connected to `cell` (drivers and sinks).
fn neighbor_median(netlist: &Netlist, placement: &Placement, cell: CellId) -> Option<(u16, u16)> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &net in netlist.input_nets(cell) {
        let d = netlist.net(net).driver;
        if d != cell {
            let (x, y) = placement.loc(d);
            xs.push(x);
            ys.push(y);
        }
    }
    if let Some(net) = netlist.output_net(cell) {
        for &s in &netlist.net(net).sinks {
            if s != cell {
                let (x, y) = placement.loc(s);
                xs.push(x);
                ys.push(y);
            }
        }
    }
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    ys.sort_unstable();
    Some((xs[xs.len() / 2], ys[ys.len() / 2]))
}

/// An arc's wire delay, driver and sink.
type ArcDelay = (f64, CellId, CellId);

/// The `k` slowest arcs, slowest first, ties in their original order:
/// the first `k` of a stable descending sort, without sorting the rest.
fn worst_arcs(arcs: Vec<ArcDelay>, k: usize) -> Vec<ArcDelay> {
    let mut ranked: Vec<(usize, ArcDelay)> = arcs.into_iter().enumerate().collect();
    let order = |a: &(usize, ArcDelay), b: &(usize, ArcDelay)| {
        b.1 .0
            .partial_cmp(&a.1 .0)
            .expect("wire delays are finite")
            .then(a.0.cmp(&b.0))
    };
    if ranked.len() > k {
        ranked.select_nth_unstable_by(k, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
    ranked.into_iter().map(|(_, arc)| arc).collect()
}

/// Pulls critical-path cells toward their neighbourhood medians while the
/// clock period improves. Returns the report and the final timing.
///
/// The netlist does not change here, so one [`StaGraph`] times every
/// candidate move; only an accepted move builds a [`TimingReport`].
pub fn refine_critical(
    netlist: &Netlist,
    placement: &mut Placement,
    wire: &WireModel,
    options: RefineOptions,
) -> (RefineReport, TimingReport) {
    let mut report = RefineReport::default();
    let mut graph = StaGraph::new(netlist, wire);
    let mut timing = graph.evaluate(placement);
    let grid_w = placement.grid_w as u16;

    // Phase 1: flatten the global tail of worst arcs. Critical-path
    // refinement alone plays whack-a-mole when many arcs are nearly
    // critical; here every offending arc's endpoints are offered the arc
    // midpoint, accepted when the arc shrinks without hurting the period.
    for _sweep in 0..3 {
        let mut arcs: Vec<ArcDelay> = Vec::new();
        for (_, net) in netlist.nets() {
            let terms = wire.fanout_terms(net.fanout());
            for &s in &net.sinks {
                let d = wire.net_delay_with(placement.dist(net.driver, s), terms);
                arcs.push((d, net.driver, s));
            }
        }
        let mut any = false;
        for (old_delay, a, b) in worst_arcs(arcs, 64) {
            let (ax, ay) = placement.loc(a);
            let (bx, by) = placement.loc(b);
            let mid = ((ax + bx) / 2, (ay + by) / 2);
            for (cell, fo_net) in [(a, netlist.output_net(a)), (b, netlist.output_net(a))] {
                let kind = netlist.cell(cell).kind;
                if matches!(kind, CellKind::Input | CellKind::Output) {
                    continue;
                }
                let target = (snap_column(kind, mid.0, grid_w), mid.1);
                let old_loc = placement.loc(cell);
                if target == old_loc {
                    continue;
                }
                placement.set_loc(cell, target);
                let fo = fo_net.map(|n| netlist.net(n).fanout()).unwrap_or(1);
                let new_delay = wire.net_delay_ns(placement.dist(a, b), fo);
                // Time the move only when the arc shrank: a move that
                // fails the first test is rejected whatever its period.
                if new_delay + 1e-9 < old_delay && graph.run(placement) <= timing.period_ns + 1e-9 {
                    timing = graph.report();
                    report.moves += 1;
                    any = true;
                    break; // next arc
                }
                placement.set_loc(cell, old_loc);
            }
        }
        if !any {
            break;
        }
    }

    // Phase 2: critical-path-directed moves.
    for _ in 0..options.max_rounds {
        report.rounds += 1;
        let path = timing.critical_path.clone();
        if path.is_empty() {
            break;
        }
        let mut improved = false;

        // Candidate relocations: each path cell to its neighbourhood
        // median, and each adjacent path pair's endpoints to their arc
        // midpoint (halving the worst arc even when the median is pinned
        // by other neighbours).
        let mut candidates: Vec<(CellId, (u16, u16))> = Vec::new();
        for &cell in &path {
            if let Some(m) = neighbor_median(netlist, placement, cell) {
                candidates.push((cell, m));
            }
        }
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (ax, ay) = placement.loc(a);
            let (bx, by) = placement.loc(b);
            let mid = ((ax + bx) / 2, (ay + by) / 2);
            candidates.push((a, mid));
            candidates.push((b, mid));
        }

        for (cell, (tx, ty)) in candidates {
            let kind = netlist.cell(cell).kind;
            // Ports stay put; everything else may be pulled.
            if matches!(kind, CellKind::Input | CellKind::Output) {
                continue;
            }
            let target = (snap_column(kind, tx, grid_w), ty);
            let old = placement.loc(cell);
            if target == old {
                continue;
            }
            placement.set_loc(cell, target);
            if graph.run(placement) + 1e-9 < timing.period_ns {
                timing = graph.report();
                report.moves += 1;
                improved = true;
            } else {
                placement.set_loc(cell, old);
            }
        }
        if !improved {
            break;
        }
    }
    (report, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::sta;
    use hlsb_netlist::Cell;

    #[test]
    fn worst_arcs_equal_the_head_of_a_stable_sort() {
        let mut rng = hlsb_rng::Rng::seed_from_u64(5);
        for len in [0usize, 1, 63, 64, 65, 300, 2000] {
            // Delays from a small set, so ties are everywhere.
            let arcs: Vec<ArcDelay> = (0..len as u32)
                .map(|i| (rng.gen_index(8) as f64 * 0.25, CellId(i), CellId(i + 1)))
                .collect();
            let mut sorted = arcs.clone();
            sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            sorted.truncate(64);
            assert_eq!(worst_arcs(arcs, 64), sorted, "{len} arcs");
        }
    }

    #[test]
    fn pulls_outlier_onto_path() {
        // a(0,0) -> x(far corner!) -> b(2,0): refinement must pull x back.
        let mut nl = Netlist::new("r");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let mut p = Placement::from_locs(vec![(0, 0), (120, 100), (2, 0)], 140, 120);
        let w = WireModel::ultrascale_plus();
        let before = sta(&nl, &p, &w);
        let (rep, after) = refine_critical(&nl, &mut p, &w, RefineOptions::default());
        assert!(rep.moves >= 1);
        assert!(
            after.period_ns < before.period_ns / 2.0,
            "{} -> {}",
            before.period_ns,
            after.period_ns
        );
        // The three cells end up clustered (wherever the cluster forms).
        let spread = p.dist(a, x).max(p.dist(x, b)).max(p.dist(a, b));
        assert!(spread <= 8.0, "cells still spread by {spread}");
    }

    #[test]
    fn respects_column_legality() {
        let mut nl = Netlist::new("r");
        let a = nl.add_cell(Cell::ff("a", 8));
        let m = nl.add_cell(Cell::bram("m", 8, 1));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[m]);
        nl.connect(m, &[b]);
        let mut p = Placement::from_locs(vec![(0, 0), (94, 80), (2, 0)], 140, 120);
        let w = WireModel::ultrascale_plus();
        refine_critical(&nl, &mut p, &w, RefineOptions::default());
        assert!(hlsb_place::site_legal(CellKind::Bram, p.loc(m).0));
    }

    #[test]
    fn never_worsens() {
        let mut nl = Netlist::new("r");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let mut p = Placement::from_locs(vec![(0, 0), (1, 0), (2, 0)], 140, 120);
        let w = WireModel::ultrascale_plus();
        let before = sta(&nl, &p, &w);
        let (_, after) = refine_critical(&nl, &mut p, &w, RefineOptions::default());
        assert!(after.period_ns <= before.period_ns + 1e-9);
    }
}
