//! Static timing analysis.

use hlsb_fabric::WireModel;
use hlsb_netlist::{CellId, CellKind, Netlist};
use hlsb_place::Placement;

/// Register setup time in nanoseconds.
pub const SETUP_NS: f64 = 0.04;

/// Result of a timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Achieved minimum clock period, ns.
    pub period_ns: f64,
    /// Achieved maximum frequency, MHz.
    pub fmax_mhz: f64,
    /// Cells on the critical path, launch point first, capture point last.
    pub critical_path: Vec<CellId>,
    /// Worst per-capture-point slack would need a target period; instead we
    /// expose the arrival time at every cell output for diagnostics.
    pub arrival_ns: Vec<f64>,
}

impl TimingReport {
    /// Length of the critical path in cells.
    pub fn depth(&self) -> usize {
        self.critical_path.len()
    }

    /// Renders the critical path as a per-arc breakdown, in the style of a
    /// `report_timing` text report: one line per hop with the cell, its
    /// placed location, the net's fanout, and the incremental delay.
    pub fn path_text(&self, netlist: &Netlist, placement: &Placement, wire: &WireModel) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.3} ns ({:.0} MHz), {} cells",
            self.period_ns,
            self.fmax_mhz,
            self.critical_path.len()
        );
        let mut total = 0.0f64;
        for (i, &c) in self.critical_path.iter().enumerate() {
            let cell = netlist.cell(c);
            let (x, y) = placement.loc(c);
            let logic =
                if i == 0 || cell.kind.is_combinational() || i + 1 == self.critical_path.len() {
                    cell.delay_ns
                } else {
                    0.0
                };
            let net = if i > 0 {
                let prev = self.critical_path[i - 1];
                let fo = netlist
                    .output_net(prev)
                    .map(|n| netlist.net(n).fanout())
                    .unwrap_or(1);
                wire.net_delay_ns(placement.dist(prev, c), fo)
            } else {
                0.0
            };
            let fo_here = netlist
                .output_net(c)
                .map(|n| netlist.net(n).fanout())
                .unwrap_or(0);
            total += logic + net;
            let _ = writeln!(
                out,
                "  {:>2}. {:<10} {:<32} @({x:>3},{y:>3})  net {net:>6.3}  logic {logic:>6.3}  \
                 total {total:>7.3}  fanout {fo_here}",
                i,
                cell.kind.to_string(),
                cell.name,
            );
        }
        let _ = writeln!(out, "  (+ setup {SETUP_NS:.3} ns)");
        out
    }
}

/// Whether the timing graph treats the cell's output as launched at a clock
/// edge (fixed arrival) rather than combinationally propagated.
fn is_launch(kind: CellKind) -> bool {
    matches!(
        kind,
        CellKind::Ff | CellKind::Bram | CellKind::Input | CellKind::Const
    )
}

/// Runs STA over a placed netlist.
///
/// Path delay from a driver output to a sink input is
/// `arrival(driver) + wire(dist(driver, sink), fanout(net))`; sequential and
/// output cells capture with [`SETUP_NS`] of setup. Constants contribute no
/// delay.
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle (validate first).
pub fn sta(netlist: &Netlist, placement: &Placement, wire: &WireModel) -> TimingReport {
    StaGraph::new(netlist, wire).evaluate(placement)
}

/// An arc of the timing graph: its driver and the fanout terms of the
/// net it belongs to.
#[derive(Debug, Clone, Copy)]
struct TimingArc {
    driver: CellId,
    terms: (f64, f64),
}

/// The placement-independent half of [`sta`], built once per netlist and
/// evaluated for any number of placements of it. It holds the
/// combinational topological order, every net's fanout terms, the
/// const-driver flags and the capture arcs; its arrival and predecessor
/// buffers are reused across evaluations. Wire delays are summed in the
/// order [`WireModel::net_delay_ns`] uses, and an evaluation overwrites
/// every value it reads, so a reused graph reports exactly what a fresh
/// one would. Timing-driven refinement, which moves cells but never
/// changes the netlist, evaluates one graph per candidate move.
#[derive(Debug, Clone)]
pub struct StaGraph {
    wire: WireModel,
    /// Non-launch cells in combinational topological order, each with its
    /// logic delay and the end of its input arcs in `inputs`.
    comb: Vec<(CellId, f64, usize)>,
    /// Input arcs of the `comb` cells. Arcs from constants are left out:
    /// they contribute 0, which never beats the running worst arrival
    /// (it starts at 0).
    inputs: Vec<TimingArc>,
    /// Arcs into sequential and output cells, with their sink and whether
    /// the driver is a constant, in net and then sink order.
    captures: Vec<(TimingArc, CellId, bool)>,
    arrival: Vec<f64>,
    best_pred: Vec<Option<CellId>>,
    period_ns: f64,
    critical: Option<(CellId, CellId)>,
}

impl StaGraph {
    /// Builds the timing graph of a netlist under a wire model.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle (validate
    /// first).
    pub fn new(netlist: &Netlist, wire: &WireModel) -> Self {
        let n = netlist.cell_count();
        let order = netlist
            .comb_topo_order()
            .expect("netlist must be free of combinational cycles");
        let is_const = |c: CellId| netlist.cell(c).kind == CellKind::Const;
        // Fanout terms per net, each distinct fanout's logarithm taken once.
        let mut by_fanout: Vec<Option<(f64, f64)>> = Vec::new();
        let terms: Vec<(f64, f64)> = netlist
            .nets()
            .map(|(_, net)| {
                let fo = net.fanout();
                if by_fanout.len() <= fo {
                    by_fanout.resize(fo + 1, None);
                }
                *by_fanout[fo].get_or_insert_with(|| wire.fanout_terms(fo))
            })
            .collect();

        // Launch arrivals are fixed: they are written once here and never
        // overwritten, because evaluation only writes the `comb` cells.
        let mut arrival = vec![0.0f64; n];
        for (c, cell) in netlist.cells() {
            if is_launch(cell.kind) {
                arrival[c.index()] = cell.delay_ns;
            }
        }

        let mut comb = Vec::new();
        let mut inputs = Vec::new();
        for c in order {
            let cell = netlist.cell(c);
            if is_launch(cell.kind) {
                continue;
            }
            for &net_id in netlist.input_nets(c) {
                let driver = netlist.net(net_id).driver;
                if !is_const(driver) {
                    inputs.push(TimingArc {
                        driver,
                        terms: terms[net_id.index()],
                    });
                }
            }
            comb.push((c, cell.delay_ns, inputs.len()));
        }

        let mut captures = Vec::new();
        for (net_id, net) in netlist.nets() {
            let arc = TimingArc {
                driver: net.driver,
                terms: terms[net_id.index()],
            };
            for &s in &net.sinks {
                let k = netlist.cell(s).kind;
                if k.is_sequential() || k == CellKind::Output {
                    captures.push((arc, s, is_const(net.driver)));
                }
            }
        }

        StaGraph {
            wire: *wire,
            comb,
            inputs,
            captures,
            arrival,
            best_pred: vec![None; n],
            period_ns: 0.0,
            critical: None,
        }
    }

    /// Arrival at `sink`'s input through a non-constant arc.
    fn through(&self, placement: &Placement, arc: TimingArc, sink: CellId) -> f64 {
        self.arrival[arc.driver.index()]
            + self
                .wire
                .net_delay_with(placement.dist(arc.driver, sink), arc.terms)
    }

    /// Times a placement of the netlist and returns its clock period, ns.
    /// [`StaGraph::report`] then describes this run.
    pub fn run(&mut self, placement: &Placement) -> f64 {
        let mut start = 0;
        for i in 0..self.comb.len() {
            let (c, delay, end) = self.comb[i];
            // Combinational (Comb/Dsp) or Output. Output cells have no
            // output arrival of interest but we compute it anyway (0-delay
            // pass).
            let mut worst = 0.0f64;
            let mut pred = None;
            for &arc in &self.inputs[start..end] {
                let a = self.through(placement, arc, c);
                if a > worst {
                    worst = a;
                    pred = Some(arc.driver);
                }
            }
            self.arrival[c.index()] = worst + delay;
            self.best_pred[c.index()] = pred;
            start = end;
        }

        // Capture points: sequential or output sinks.
        let mut period = 0.0f64;
        let mut critical = None;
        for &(arc, sink, const_driver) in &self.captures {
            let arrival = if const_driver {
                0.0
            } else {
                self.through(placement, arc, sink)
            };
            let total = arrival + SETUP_NS;
            if total > period {
                period = total;
                critical = Some((arc.driver, sink));
            }
        }
        // A design with no capture points (e.g. a lone register) still
        // needs a positive period.
        if period <= 0.0 {
            period = SETUP_NS + 0.1;
        }
        self.period_ns = period;
        self.critical = critical;
        period
    }

    /// The report of the last [`StaGraph::run`]: its period, critical path
    /// and arrivals.
    pub fn report(&self) -> TimingReport {
        let mut path = Vec::new();
        if let Some((mut cur, sink)) = self.critical {
            path.push(sink);
            loop {
                path.push(cur);
                match self.best_pred[cur.index()] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            path.reverse();
        }
        TimingReport {
            period_ns: self.period_ns,
            fmax_mhz: 1000.0 / self.period_ns,
            critical_path: path,
            arrival_ns: self.arrival.clone(),
        }
    }

    /// Times a placement and reports it: [`StaGraph::run`] then
    /// [`StaGraph::report`].
    pub fn evaluate(&mut self, placement: &Placement) -> TimingReport {
        self.run(placement);
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_fabric::Device;
    use hlsb_netlist::Cell;
    use hlsb_place::Placement;

    /// Places cells at explicit coordinates for hand-computable delays.
    fn fixed_placement(locs: Vec<(u16, u16)>) -> Placement {
        Placement::from_locs(locs, 140, 120)
    }

    fn wire() -> WireModel {
        WireModel::ultrascale_plus()
    }

    #[test]
    fn single_stage_path_delay_is_exact() {
        // a(FF) --net--> x(comb 0.7) --net--> b(FF)
        let mut nl = Netlist::new("t");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.7, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(0, 0), (1, 0), (2, 0)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        let expected = 0.10 // clk-to-q
            + w.net_delay_ns(1.0, 1)
            + 0.7
            + w.net_delay_ns(1.0, 1)
            + SETUP_NS;
        assert!(
            (r.period_ns - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.period_ns
        );
        assert_eq!(r.critical_path, vec![a, x, b]);
    }

    #[test]
    fn fanout_increases_delay() {
        let dev = Device::ultrascale_plus_vu9p();
        let w = WireModel::for_device(&dev);
        // Driver with 1 sink vs driver with 32 sinks at same max distance.
        let mut nl1 = Netlist::new("fo1");
        let a1 = nl1.add_cell(Cell::ff("a", 8));
        let b1 = nl1.add_cell(Cell::ff("b", 8));
        nl1.connect(a1, &[b1]);
        let p1 = fixed_placement(vec![(0, 0), (5, 0)]);
        let r1 = sta(&nl1, &p1, &w);

        let mut nl2 = Netlist::new("fo32");
        let a2 = nl2.add_cell(Cell::ff("a", 8));
        let sinks: Vec<_> = (0..32)
            .map(|i| nl2.add_cell(Cell::ff(format!("s{i}"), 8)))
            .collect();
        nl2.connect(a2, &sinks);
        let mut locs = vec![(0u16, 0u16)];
        locs.extend((0..32).map(|i| (5u16, i as u16)));
        let p2 = fixed_placement(locs);
        let r2 = sta(&nl2, &p2, &w);

        assert!(r2.period_ns > r1.period_ns);
    }

    #[test]
    fn constants_are_free() {
        let mut nl = Netlist::new("c");
        let k = nl.add_cell(Cell::constant("k", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(k, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(0, 0), (50, 50), (51, 50)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        // Path is only x -> b; the 100-unit const net contributes nothing.
        let expected = 0.5 + w.net_delay_ns(1.0, 1) + SETUP_NS;
        assert!((r.period_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn longest_of_parallel_paths_wins() {
        let mut nl = Netlist::new("par");
        let a = nl.add_cell(Cell::ff("a", 8));
        let fast = nl.add_cell(Cell::comb("fast", 8, 0.2, 8));
        let slow = nl.add_cell(Cell::comb("slow", 8, 1.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        let c = nl.add_cell(Cell::ff("c", 8));
        nl.connect(a, &[fast, slow]);
        nl.connect(fast, &[b]);
        nl.connect(slow, &[c]);
        let p = fixed_placement(vec![(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]);
        let r = sta(&nl, &p, &wire());
        assert!(r.critical_path.contains(&slow));
        assert!(!r.critical_path.contains(&fast));
    }

    #[test]
    fn bram_clock_to_out_counts() {
        let mut nl = Netlist::new("mem");
        let m = nl.add_cell(Cell::bram("m", 32, 4));
        let x = nl.add_cell(Cell::comb("x", 32, 0.3, 32));
        let b = nl.add_cell(Cell::ff("b", 32));
        nl.connect(m, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(4, 0), (5, 0), (6, 0)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        let expected = 0.90 + w.net_delay_ns(1.0, 1) + 0.3 + w.net_delay_ns(1.0, 1) + SETUP_NS;
        assert!((r.period_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn path_text_breaks_down_arcs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.7, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(0, 0), (1, 0), (2, 0)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        let text = r.path_text(&nl, &p, &w);
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("x"), "{text}");
        assert!(text.lines().count() >= 5, "{text}");
        // The per-arc totals accumulate to about the period (minus setup).
        assert!(text.contains("setup"), "{text}");
    }

    /// The single-pass STA that [`StaGraph`] replaced, kept verbatim (with
    /// the wire formula it called inlined) as the reference its
    /// evaluations must reproduce bit for bit.
    fn sta_oracle(netlist: &Netlist, placement: &Placement, wire: &WireModel) -> TimingReport {
        let n = netlist.cell_count();
        let order = netlist
            .comb_topo_order()
            .expect("netlist must be free of combinational cycles");
        let mut arrival = vec![0.0f64; n];
        let mut best_pred: Vec<Option<CellId>> = vec![None; n];
        let contribution = |arrival: &[f64], driver: CellId, sink: CellId, fanout: usize| -> f64 {
            if netlist.cell(driver).kind == CellKind::Const {
                return 0.0;
            }
            // `WireModel::net_delay_ns` as it was, inlined, so the oracle
            // does not share the precomputed-terms path under test.
            let fo = fanout.max(1) as f64;
            let wire_ns = wire.speed
                * (wire.base_ns
                    + wire.r_dist_ns * placement.dist(driver, sink)
                    + wire.k_fanout_ns * (1.0 + fo).ln()
                    + wire.c_sink_ns * (fo - 1.0));
            arrival[driver.index()] + wire_ns
        };
        for (c, cell) in netlist.cells() {
            if is_launch(cell.kind) {
                arrival[c.index()] = cell.delay_ns;
            }
        }
        for &c in &order {
            let cell = netlist.cell(c);
            if is_launch(cell.kind) {
                continue;
            }
            let mut worst = 0.0f64;
            let mut pred = None;
            for &net_id in netlist.input_nets(c) {
                let net = netlist.net(net_id);
                let a = contribution(&arrival, net.driver, c, net.fanout());
                if a > worst {
                    worst = a;
                    pred = Some(net.driver);
                }
            }
            arrival[c.index()] = worst + cell.delay_ns;
            best_pred[c.index()] = pred;
        }
        let mut period = 0.0f64;
        let mut crit_sink = None;
        let mut crit_driver = None;
        for (_, net) in netlist.nets() {
            let fo = net.fanout();
            for &s in &net.sinks {
                let k = netlist.cell(s).kind;
                if k.is_sequential() || k == CellKind::Output {
                    let total = contribution(&arrival, net.driver, s, fo) + SETUP_NS;
                    if total > period {
                        period = total;
                        crit_sink = Some(s);
                        crit_driver = Some(net.driver);
                    }
                }
            }
        }
        if period <= 0.0 {
            period = SETUP_NS + 0.1;
        }
        let mut path = Vec::new();
        if let (Some(sink), Some(mut cur)) = (crit_sink, crit_driver) {
            path.push(sink);
            loop {
                path.push(cur);
                match best_pred[cur.index()] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            path.reverse();
        }
        TimingReport {
            period_ns: period,
            fmax_mhz: 1000.0 / period,
            critical_path: path,
            arrival_ns: arrival,
        }
    }

    /// Lowers a design the way the flow's front-end, schedule and lower
    /// stages do (unroll, schedule at 300 MHz, baseline RTL).
    fn lowered(design: &hlsb_ir::Design) -> Netlist {
        use hlsb_rtlgen::{lower_design, RtlOptions, ScheduledDesign, ScheduledLoop};
        let model = hlsb_delay::HlsPredictedModel::new();
        let loops: Vec<Vec<ScheduledLoop>> = design
            .kernels
            .iter()
            .map(|k| {
                k.loops
                    .iter()
                    .map(|lp| {
                        let looop = hlsb_ir::unroll::unroll_loop(lp).looop;
                        let schedule = hlsb_sched::schedule_loop(&looop, design, &model, 3.33);
                        ScheduledLoop {
                            looop,
                            schedule,
                            mem_plan: Default::default(),
                        }
                    })
                    .collect()
            })
            .collect();
        let sd = ScheduledDesign {
            design,
            loops: &loops,
        };
        lower_design(&sd, &RtlOptions::baseline(), &model).netlist
    }

    fn assert_same(got: &TimingReport, want: &TimingReport, what: &str) {
        assert_eq!(
            got.period_ns.to_bits(),
            want.period_ns.to_bits(),
            "{what}: period"
        );
        assert_eq!(got.fmax_mhz.to_bits(), want.fmax_mhz.to_bits(), "{what}");
        assert_eq!(got.critical_path, want.critical_path, "{what}: path");
        let bits = |r: &TimingReport| r.arrival_ns.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: arrivals");
    }

    /// Small netlists for the corners the designs rarely reach: a
    /// constant straight into a register (a capture arc that contributes
    /// only setup), a constant into logic, a lone register with no capture
    /// point, and a reconvergent fan-in whose equal-length branches tie.
    fn corner_netlists() -> Vec<(String, Netlist)> {
        let mut const_ff = Netlist::new("const_ff");
        let k = const_ff.add_cell(Cell::constant("k", 8));
        let b = const_ff.add_cell(Cell::ff("b", 8));
        const_ff.connect(k, &[b]);

        let mut const_comb = Netlist::new("const_comb");
        let k = const_comb.add_cell(Cell::constant("k", 8));
        let a = const_comb.add_cell(Cell::ff("a", 8));
        let x = const_comb.add_cell(Cell::comb("x", 8, 0.4, 8));
        let b = const_comb.add_cell(Cell::ff("b", 8));
        const_comb.connect(k, &[x]);
        const_comb.connect(a, &[x]);
        const_comb.connect(x, &[b]);

        let mut lone = Netlist::new("lone");
        lone.add_cell(Cell::ff("r", 8));

        let mut ties = Netlist::new("ties");
        let src = ties.add_cell(Cell::ff("src", 8));
        let branches: Vec<_> = (0..4)
            .map(|i| ties.add_cell(Cell::comb(format!("m{i}"), 8, 0.3, 8)))
            .collect();
        ties.connect(src, &branches);
        let join = ties.add_cell(Cell::comb("join", 8, 0.3, 8));
        for &m in &branches {
            ties.connect(m, &[join]);
        }
        let out = ties.add_cell(Cell::output("out", 8));
        ties.connect(join, &[out]);

        [const_ff, const_comb, lone, ties]
            .into_iter()
            .map(|nl| (nl.name.clone(), nl))
            .collect()
    }

    #[test]
    fn reused_graph_matches_oracle_over_random_moves() {
        let mut netlists: Vec<(String, Netlist, Device)> = hlsb_benchmarks::all_benchmarks()
            .into_iter()
            .map(|b| (b.name.to_string(), lowered(&b.design), b.device))
            .collect();
        let vu9p = Device::ultrascale_plus_vu9p();
        for seed in 0..6 {
            let nl = lowered(&hlsb_sim::fuzz::random_design(seed));
            netlists.push((format!("fuzz:{seed}"), nl, vu9p.clone()));
        }
        for (name, nl) in corner_netlists() {
            netlists.push((name, nl, vu9p.clone()));
        }
        let mut rng = hlsb_rng::Rng::seed_from_u64(13);
        for (name, nl, device) in &netlists {
            let wire = WireModel::for_device(device);
            // Scattered over the whole die, and packed into a 3x3 window
            // where equal distances, and so tied arrivals, are common.
            for (w, h) in [(device.grid_w as u16, device.grid_h as u16), (3, 3)] {
                let what = format!("{name} in {w}x{h}");
                let random_loc = |rng: &mut hlsb_rng::Rng| {
                    (
                        rng.gen_index(w.into()) as u16,
                        rng.gen_index(h.into()) as u16,
                    )
                };
                let locs = (0..nl.cell_count()).map(|_| random_loc(&mut rng)).collect();
                let mut p = Placement::from_locs(locs, device.grid_w, device.grid_h);
                let mut graph = StaGraph::new(nl, &wire);
                assert_same(&graph.evaluate(&p), &sta_oracle(nl, &p, &wire), &what);
                for step in 0..40 {
                    let cell = CellId(rng.gen_index(nl.cell_count()) as u32);
                    // Mostly short moves, as refinement makes; now and
                    // then a jump across the window.
                    let loc = if rng.gen_bool(0.2) {
                        random_loc(&mut rng)
                    } else {
                        let (x, y) = p.loc(cell);
                        let x = (i64::from(x) + rng.gen_i64(-3, 3)).clamp(0, i64::from(w) - 1);
                        let y = (i64::from(y) + rng.gen_i64(-3, 3)).clamp(0, i64::from(h) - 1);
                        (x as u16, y as u16)
                    };
                    p.set_loc(cell, loc);
                    let want = sta_oracle(nl, &p, &wire);
                    let what = format!("{what}, move {step}");
                    let period = graph.run(&p);
                    assert_eq!(period.to_bits(), want.period_ns.to_bits(), "{what}");
                    assert_same(&graph.report(), &want, &what);
                    assert_same(&sta(nl, &p, &wire), &want, &what);
                }
            }
        }
    }

    #[test]
    fn empty_netlist_has_finite_fmax() {
        let nl = Netlist::new("empty");
        let p = fixed_placement(vec![]);
        let r = sta(&nl, &p, &wire());
        assert!(r.fmax_mhz.is_finite());
        assert!(r.period_ns > 0.0);
    }
}
