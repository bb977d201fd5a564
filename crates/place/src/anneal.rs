//! Levelized seed placement + simulated-annealing refinement.
//!
//! Both entry points funnel into one region-parameterized core:
//! [`place_with`] anneals over the full device grid (the classic flat
//! flow), while [`place_in_region`] confines seeding, annealing moves and
//! the zero-temperature polish to a reserved [`Region`] — the per-island
//! mode of partitioned placement (`crate::partition`). The flat path is
//! the full-grid special case of the region path, so flat results are
//! bit-identical to what the pre-partitioning placer produced.

use crate::placement::{Placement, Region};
use crate::sites::{site_legal, site_shortfall, snap_column_in};
use hlsb_fabric::Device;
use hlsb_netlist::{CellId, CellKind, Netlist};
use hlsb_rng::Rng;
use std::collections::HashMap;

/// Annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Moves per cell (total moves = `moves_per_cell * cell_count`,
    /// clamped to `[min_moves, max_moves]`).
    pub moves_per_cell: u32,
    /// Lower bound on total moves.
    pub min_moves: u32,
    /// Upper bound on total moves.
    pub max_moves: u32,
    /// Geometric cooling factor applied every batch.
    pub cooling: f64,
    /// Number of cooling batches.
    pub batches: u32,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            moves_per_cell: 130,
            min_moves: 8_000,
            max_moves: 2_500_000,
            cooling: 0.90,
            batches: 70,
        }
    }
}

/// Places a netlist on a device with the default annealing configuration.
///
/// # Panics
///
/// Panics if the netlist has more cells than the device has sites of the
/// required kinds (see [`crate::sites::site_shortfall`]).
pub fn place(netlist: &Netlist, device: &Device, seed: u64) -> Placement {
    place_with(netlist, device, seed, AnnealConfig::default())
}

/// Places a netlist with an explicit configuration.
///
/// # Panics
///
/// Panics if the netlist does not fit on the device grid: more cells than
/// half its sites, or more cells of a kind than its legal sites.
pub fn place_with(
    netlist: &Netlist,
    device: &Device,
    seed: u64,
    config: AnnealConfig,
) -> Placement {
    let n = netlist.cell_count();
    if n == 0 {
        return Placement::from_locs(Vec::new(), device.grid_w, device.grid_h);
    }
    assert!(
        (n as u64) < u64::from(device.grid_w) * u64::from(device.grid_h) / 2,
        "netlist ({n} cells) does not fit on {}",
        device.name
    );
    place_impl(netlist, device, Region::full(device), seed, config)
}

/// Places a netlist inside a reserved region of the device (absolute
/// coordinates): the seed, every annealing move and the polish stay in
/// `region`, so disjoint regions can be placed concurrently without a
/// shared occupancy map. Pure function of `(netlist, region, seed,
/// config)` — island placements are identical no matter which thread
/// runs them, or in what order.
///
/// # Panics
///
/// Panics if the netlist does not fit in the region (the same one-cell-
/// per-two-sites margin the flat placer requires of the whole device, and
/// no more cells of a kind than the region has legal sites for it), or if
/// the region leaves the device grid.
pub fn place_in_region(
    netlist: &Netlist,
    device: &Device,
    region: Region,
    seed: u64,
    config: AnnealConfig,
) -> Placement {
    let n = netlist.cell_count();
    if n == 0 {
        return Placement::from_locs(Vec::new(), device.grid_w, device.grid_h);
    }
    assert!(
        u32::from(region.x1()) <= device.grid_w && u32::from(region.y1()) <= device.grid_h,
        "region {region:?} leaves the {} grid",
        device.name
    );
    assert!(
        (n as u64) < region.sites() / 2,
        "island ({n} cells) does not fit in region {region:?}"
    );
    place_impl(netlist, device, region, seed, config)
}

fn place_impl(
    netlist: &Netlist,
    device: &Device,
    bounds: Region,
    seed: u64,
    config: AnnealConfig,
) -> Placement {
    let n = netlist.cell_count();
    // Confine small designs to a proportionate region: spreading a tiny
    // netlist across the whole die (or island across the whole strip)
    // would fabricate wire delay out of thin air. Real placers pack
    // designs into a fraction of the fabric too.
    let side = ((3 * n) as f64).sqrt().ceil() as u16 + 4;
    let rw = side.max(8).min(bounds.w);
    let rh = side.max(8).min(bounds.h);

    if let Some((kind, cells, sites)) = site_shortfall(netlist, bounds) {
        panic!("{cells} {kind:?} cells exceed the {sites} legal sites of {bounds:?}");
    }
    let mut occupied = Occupancy::new(bounds);
    let mut placement = seed_placement(netlist, device, rw, rh, &mut occupied);
    anneal(
        netlist,
        &mut placement,
        &mut occupied,
        rw.max(rh),
        seed,
        config,
    );
    placement
}

/// Which cell occupies each site of a placement region: a dense
/// row-major grid over the region, one slot per site.
struct Occupancy {
    bounds: Region,
    slots: Vec<u32>,
}

impl Occupancy {
    /// Slot value of a free site.
    const FREE: u32 = u32::MAX;

    fn new(bounds: Region) -> Self {
        Occupancy {
            bounds,
            slots: vec![Self::FREE; bounds.sites() as usize],
        }
    }

    fn slot(&self, (x, y): (u16, u16)) -> usize {
        debug_assert!(self.bounds.contains((x, y)));
        usize::from(y - self.bounds.y0) * usize::from(self.bounds.w)
            + usize::from(x - self.bounds.x0)
    }

    /// The cell at `loc`, if any.
    fn get(&self, loc: (u16, u16)) -> Option<CellId> {
        let c = self.slots[self.slot(loc)];
        (c != Self::FREE).then_some(CellId(c))
    }

    fn set(&mut self, loc: (u16, u16), cell: CellId) {
        let i = self.slot(loc);
        self.slots[i] = cell.0;
    }

    fn clear(&mut self, loc: (u16, u16)) {
        let i = self.slot(loc);
        self.slots[i] = Self::FREE;
    }
}

/// Dataflow levels by construction order: `level(c) = max(level(d) + 1)`
/// over drivers `d` with a smaller id (RTL generation emits cells in
/// pipeline order, so this approximates the logical left-to-right flow and
/// is well-defined even with sequential feedback).
fn levels(netlist: &Netlist) -> Vec<u32> {
    let mut level = vec![0u32; netlist.cell_count()];
    for (id, _) in netlist.cells() {
        let mut best = 0;
        for &net in netlist.input_nets(id) {
            let d = netlist.net(net).driver;
            if d.index() < id.index() {
                best = best.max(level[d.index()] + 1);
            }
        }
        level[id.index()] = best;
    }
    level
}

fn seed_placement(
    netlist: &Netlist,
    device: &Device,
    rw: u16,
    rh: u16,
    occupied: &mut Occupancy,
) -> Placement {
    let bounds = occupied.bounds;
    let level = levels(netlist);
    let max_level = level.iter().copied().max().unwrap_or(0).max(1);
    let n = netlist.cell_count();

    // Bucket cells by target column within the seed window `[bounds.x0,
    // bounds.x0 + rw) x [bounds.y0, bounds.y0 + rh)`.
    let mut by_col: HashMap<u16, Vec<CellId>> = HashMap::new();
    for (id, cell) in netlist.cells() {
        let frac = level[id.index()] as f64 / max_level as f64;
        let x = bounds.x0 + (frac * f64::from(rw - 1)).round() as u16;
        let x = snap_column_in(cell.kind, x, bounds.x0, bounds.x1());
        by_col.entry(x).or_default().push(id);
    }

    let mut locs = vec![(0u16, 0u16); n];
    let mut cols: Vec<u16> = by_col.keys().copied().collect();
    cols.sort_unstable();
    for x in cols {
        let cells = &by_col[&x];
        let count = cells.len() as f64;
        for (i, &c) in cells.iter().enumerate() {
            let y = bounds.y0 + (((i as f64 + 0.5) / count) * f64::from(rh)) as u16;
            let want = (x, y.min(bounds.y1() - 1));
            let loc = free_site_near(netlist.cell(c).kind, want, occupied);
            occupied.set(loc, c);
            locs[c.index()] = loc;
        }
    }
    Placement::from_locs(locs, device.grid_w, device.grid_h)
}

/// Finds the nearest free legal site to `want` within the occupancy
/// grid's region: ring `r` holds the sites at Chebyshev distance `r`, and
/// rings are searched outward, each in row order (`dy` ascending, then
/// `dx` ascending). Only the `8r` sites of a ring are visited, clipped to
/// the region.
///
/// # Panics
///
/// Panics if the region has no free legal site for `kind`, which
/// `place_impl` rules out by checking `site_shortfall` first.
fn free_site_near(kind: CellKind, want: (u16, u16), occupied: &Occupancy) -> (u16, u16) {
    let bounds = occupied.bounds;
    let (wx, wy) = (i32::from(want.0), i32::from(want.1));
    let (x0, x1) = (i32::from(bounds.x0), i32::from(bounds.x1()));
    let (y0, y1) = (i32::from(bounds.y0), i32::from(bounds.y1()));
    let free = |x: i32, y: i32| {
        let loc = (x as u16, y as u16);
        site_legal(kind, loc.0) && occupied.get(loc).is_none()
    };
    for radius in 0..bounds.w.max(bounds.h) {
        let r = i32::from(radius);
        for dy in (-r).max(y0 - wy)..=r.min(y1 - 1 - wy) {
            let y = wy + dy;
            if dy == -r || dy == r {
                // Top or bottom edge of the ring: the whole clipped row.
                for x in (wx - r).max(x0)..=(wx + r).min(x1 - 1) {
                    if free(x, y) {
                        return (x as u16, y as u16);
                    }
                }
            } else {
                for x in [wx - r, wx + r] {
                    if x >= x0 && x < x1 && free(x, y) {
                        return (x as u16, y as u16);
                    }
                }
            }
        }
    }
    panic!("no free site for cell kind {kind:?} in {bounds:?}");
}

/// Cost of the wiring adjacent to a cell, as *star* wirelength: the sum of
/// driver-to-sink distances of every arc touching the cell. Unlike HPWL,
/// this gives every sink of a high-fanout net a gradient toward its driver,
/// so broadcast clouds compact into the dense `sqrt(fanout)` disc that site
/// exclusivity permits — the physical effect under study.
fn adjacent_cost(netlist: &Netlist, placement: &Placement, cell: CellId) -> f64 {
    let mut cost = 0.0;
    if let Some(net) = netlist.output_net(cell) {
        for &s in &netlist.net(net).sinks {
            cost += placement.dist(cell, s);
        }
    }
    for &net in netlist.input_nets(cell) {
        cost += placement.dist(netlist.net(net).driver, cell);
    }
    cost
}

fn anneal(
    netlist: &Netlist,
    placement: &mut Placement,
    occupied: &mut Occupancy,
    region: u16,
    seed: u64,
    config: AnnealConfig,
) {
    let bounds = occupied.bounds;
    let n = netlist.cell_count();
    if n < 2 {
        return;
    }
    let mut rng = Rng::seed_from_u64(seed);
    let total_moves = (config.moves_per_cell as usize * n)
        .clamp(config.min_moves as usize, config.max_moves as usize);
    let moves_per_batch = (total_moves / config.batches.max(1) as usize).max(1);

    // Initial temperature: on the scale of a typical per-move cost delta
    // (a few grid units), NOT of the region: the levelized seed is already
    // structured and a hot start would randomize it.
    let mut temp = 2.0;
    let mut window = (f64::from(region) * 0.3).max(6.0);

    for _ in 0..config.batches {
        for _ in 0..moves_per_batch {
            let a = CellId(rng.gen_index(n) as u32);
            let kind_a = netlist.cell(a).kind;
            let (ax, ay) = placement.loc(a);
            let w = i64::from(window.max(2.0) as i32);
            let tx = (i64::from(ax) + rng.gen_i64(-w, w))
                .clamp(i64::from(bounds.x0), i64::from(bounds.x1()) - 1)
                as u16;
            let ty = (i64::from(ay) + rng.gen_i64(-w, w))
                .clamp(i64::from(bounds.y0), i64::from(bounds.y1()) - 1)
                as u16;
            let target = (snap_column_in(kind_a, tx, bounds.x0, bounds.x1()), ty);
            if target == (ax, ay) || !site_legal(kind_a, target.0) {
                continue;
            }

            let other = occupied.get(target);
            if let Some(b) = other {
                // Swap legality: b must be allowed at a's site.
                if !site_legal(netlist.cell(b).kind, ax) {
                    continue;
                }
                let before =
                    adjacent_cost(netlist, placement, a) + adjacent_cost(netlist, placement, b);
                placement.set_loc(a, target);
                placement.set_loc(b, (ax, ay));
                let after =
                    adjacent_cost(netlist, placement, a) + adjacent_cost(netlist, placement, b);
                let delta = after - before;
                if delta <= 0.0 || rng.gen_f64() < (-delta / temp).exp() {
                    occupied.set(target, a);
                    occupied.set((ax, ay), b);
                } else {
                    placement.set_loc(a, (ax, ay));
                    placement.set_loc(b, target);
                }
            } else {
                let before = adjacent_cost(netlist, placement, a);
                placement.set_loc(a, target);
                let after = adjacent_cost(netlist, placement, a);
                let delta = after - before;
                if delta <= 0.0 || rng.gen_f64() < (-delta / temp).exp() {
                    occupied.clear((ax, ay));
                    occupied.set(target, a);
                } else {
                    placement.set_loc(a, (ax, ay));
                }
            }
        }
        temp *= config.cooling;
        window = (window * 0.93).max(2.0);
    }

    polish(netlist, placement, occupied);
}

/// Zero-temperature polish: every cell is offered its neighbourhood-median
/// site (the star-wirelength optimum); the move — or a swap with the
/// occupant — is taken when total adjacent wirelength drops. This kills
/// the distance *outliers* annealing leaves behind, which otherwise set
/// the critical path of deep pipelines.
fn polish(netlist: &Netlist, placement: &mut Placement, occupied: &mut Occupancy) {
    let bounds = occupied.bounds;
    for _sweep in 0..3 {
        let mut improved = false;
        for (a, cell) in netlist.cells() {
            let Some(target) = median_site(netlist, placement, a, cell.kind, bounds) else {
                continue;
            };
            let old = placement.loc(a);
            if target == old {
                continue;
            }
            match occupied.get(target) {
                None => {
                    let before = adjacent_cost(netlist, placement, a);
                    placement.set_loc(a, target);
                    let after = adjacent_cost(netlist, placement, a);
                    if after < before {
                        occupied.clear(old);
                        occupied.set(target, a);
                        improved = true;
                    } else {
                        placement.set_loc(a, old);
                    }
                }
                Some(b) => {
                    if b == a || !site_legal(netlist.cell(b).kind, old.0) {
                        continue;
                    }
                    let before =
                        adjacent_cost(netlist, placement, a) + adjacent_cost(netlist, placement, b);
                    placement.set_loc(a, target);
                    placement.set_loc(b, old);
                    let after =
                        adjacent_cost(netlist, placement, a) + adjacent_cost(netlist, placement, b);
                    if after < before {
                        occupied.set(target, a);
                        occupied.set(old, b);
                        improved = true;
                    } else {
                        placement.set_loc(a, old);
                        placement.set_loc(b, target);
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// The legal site closest to the median of a cell's connected neighbours,
/// clamped into `bounds`.
fn median_site(
    netlist: &Netlist,
    placement: &Placement,
    cell: CellId,
    kind: CellKind,
    bounds: Region,
) -> Option<(u16, u16)> {
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
    let x = snap_column_in(kind, xs[xs.len() / 2], bounds.x0, bounds.x1());
    Some((x, ys[ys.len() / 2].clamp(bounds.y0, bounds.y1() - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_netlist::Cell;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_cell(Cell::ff("c0", 8));
        for i in 1..n {
            let c = nl.add_cell(Cell::comb(format!("c{i}"), 8, 0.4, 8));
            nl.connect(prev, &[c]);
            prev = c;
        }
        nl
    }

    /// The spiral search the ring walk replaced, kept verbatim (over a
    /// `HashMap` occupancy) as the reference it must reproduce; `None`
    /// where the old search panicked.
    fn spiral_oracle(
        kind: CellKind,
        want: (u16, u16),
        bounds: Region,
        occupied: &HashMap<(u16, u16), CellId>,
    ) -> Option<(u16, u16)> {
        let (wx, wy) = want;
        for radius in 0..bounds.w.max(bounds.h) {
            let r = i32::from(radius);
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx.abs().max(dy.abs()) != r {
                        continue; // ring only
                    }
                    let x = i32::from(wx) + dx;
                    let y = i32::from(wy) + dy;
                    if x < i32::from(bounds.x0)
                        || y < i32::from(bounds.y0)
                        || x >= i32::from(bounds.x1())
                        || y >= i32::from(bounds.y1())
                    {
                        continue;
                    }
                    let loc = (x as u16, y as u16);
                    if site_legal(kind, loc.0) && !occupied.contains_key(&loc) {
                        return Some(loc);
                    }
                }
            }
        }
        None
    }

    #[test]
    fn ring_walk_matches_spiral_oracle() {
        const KINDS: [CellKind; 7] = [
            CellKind::Ff,
            CellKind::Comb,
            CellKind::Dsp,
            CellKind::Bram,
            CellKind::Input,
            CellKind::Output,
            CellKind::Const,
        ];
        let vu9p = Device::ultrascale_plus_vu9p();
        let zc706 = Device::zynq_zc706();
        let regions = [
            Region::full(&vu9p),
            Region::full(&zc706),
            // Partition strips: the narrowest legal width at an odd
            // offset, and a wider strip away from the origin.
            Region {
                x0: 7,
                y0: 0,
                w: 12,
                h: 120,
            },
            Region {
                x0: 40,
                y0: 10,
                w: 24,
                h: 60,
            },
            Region {
                x0: 3,
                y0: 5,
                w: 5,
                h: 3,
            },
        ];
        let mut rng = Rng::seed_from_u64(29);
        for bounds in regions {
            for density in [0.0, 0.3, 0.9, 0.995, 1.0] {
                let mut grid = Occupancy::new(bounds);
                let mut map = HashMap::new();
                let mut next = 0u32;
                for y in bounds.y0..bounds.y1() {
                    for x in bounds.x0..bounds.x1() {
                        if rng.gen_f64() < density {
                            grid.set((x, y), CellId(next));
                            map.insert((x, y), CellId(next));
                            next += 1;
                        }
                    }
                }
                for q in 0..40 {
                    let kind = KINDS[rng.gen_index(KINDS.len())];
                    // A quarter of the wants sit on the region's edges and
                    // corners, where rings are clipped.
                    let want = if q % 4 == 0 {
                        let x = [bounds.x0, bounds.x1() - 1][rng.gen_index(2)];
                        let y = [bounds.y0, bounds.y1() - 1][rng.gen_index(2)];
                        if rng.gen_bool(0.5) {
                            (x, bounds.y0 + rng.gen_index(bounds.h.into()) as u16)
                        } else {
                            (bounds.x0 + rng.gen_index(bounds.w.into()) as u16, y)
                        }
                    } else {
                        (
                            bounds.x0 + rng.gen_index(bounds.w.into()) as u16,
                            bounds.y0 + rng.gen_index(bounds.h.into()) as u16,
                        )
                    };
                    let what = format!("{kind:?} at {want:?} in {bounds:?}, density {density}");
                    match spiral_oracle(kind, want, bounds, &map) {
                        Some(loc) => assert_eq!(free_site_near(kind, want, &grid), loc, "{what}"),
                        None => {
                            let walk =
                                std::panic::catch_unwind(|| free_site_near(kind, want, &grid));
                            assert!(walk.is_err(), "{what}: found {walk:?}, oracle found none");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_dsp_cells_panic_before_placing() {
        // VU9P has 14 DSP columns of 120 rows: 1680 DSP sites.
        let mut nl = Netlist::new("dsps");
        let src = nl.add_cell(Cell::ff("src", 32));
        let dsps: Vec<_> = (0..1681)
            .map(|i| nl.add_cell(Cell::dsp(format!("d{i}"), 32, 2.0, 1)))
            .collect();
        nl.connect(src, &dsps);
        let d = Device::ultrascale_plus_vu9p();
        let err = std::panic::catch_unwind(|| place(&nl, &d, 1)).expect_err("cannot fit");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("1681 Dsp cells exceed the 1680 legal sites"),
            "{msg}"
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = chain(50);
        let d = Device::ultrascale_plus_vu9p();
        let p1 = place(&nl, &d, 7);
        let p2 = place(&nl, &d, 7);
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_seeds_differ() {
        let nl = chain(50);
        let d = Device::ultrascale_plus_vu9p();
        let p1 = place(&nl, &d, 1);
        let p2 = place(&nl, &d, 2);
        assert_ne!(p1, p2);
    }

    #[test]
    fn all_cells_in_bounds_and_exclusive() {
        let nl = chain(200);
        let d = Device::zynq_zc706();
        let p = place(&nl, &d, 3);
        assert!(p.in_bounds());
        let mut seen = std::collections::HashSet::new();
        for (id, _) in nl.cells() {
            assert!(seen.insert(p.loc(id)), "site collision at {:?}", p.loc(id));
        }
    }

    #[test]
    fn bram_cells_sit_in_bram_columns() {
        let mut nl = Netlist::new("mem");
        let src = nl.add_cell(Cell::ff("src", 32));
        let brams: Vec<_> = (0..20)
            .map(|i| nl.add_cell(Cell::bram(format!("b{i}"), 32, 4)))
            .collect();
        nl.connect(src, &brams);
        let d = Device::ultrascale_plus_vu9p();
        let p = place(&nl, &d, 11);
        for &b in &brams {
            assert!(site_legal(CellKind::Bram, p.loc(b).0));
        }
    }

    #[test]
    fn annealing_does_not_blow_up_wirelength() {
        // The annealer should leave a short chain reasonably compact.
        let nl = chain(30);
        let d = Device::ultrascale_plus_vu9p();
        let p = place(&nl, &d, 5);
        let total = p.total_hpwl(&nl);
        assert!(total < 30.0 * 40.0, "chain HPWL {total} looks unoptimized");
    }

    #[test]
    fn broadcast_sinks_must_spread() {
        // 64 sinks of one net cannot all sit adjacent to the driver:
        // exclusivity forces a spread that grows with fanout.
        let mut nl = Netlist::new("bcast");
        let src = nl.add_cell(Cell::ff("src", 32));
        let sinks: Vec<_> = (0..64)
            .map(|i| nl.add_cell(Cell::comb(format!("s{i}"), 32, 0.4, 32)))
            .collect();
        nl.connect(src, &sinks);
        let d = Device::ultrascale_plus_vu9p();
        let p = place(&nl, &d, 9);
        let max_dist = sinks.iter().map(|&s| p.dist(src, s)).fold(0.0f64, f64::max);
        assert!(
            max_dist >= 4.0,
            "64 exclusive sites imply spread, got {max_dist}"
        );
    }

    #[test]
    fn empty_netlist_is_ok() {
        let nl = Netlist::new("empty");
        let p = place(&nl, &Device::virtex7(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn region_placement_confines_and_stays_legal() {
        let nl = chain(120);
        let d = Device::ultrascale_plus_vu9p();
        let region = Region {
            x0: 40,
            y0: 10,
            w: 24,
            h: 60,
        };
        let p = place_in_region(&nl, &d, region, 7, AnnealConfig::default());
        let mut seen = std::collections::HashSet::new();
        for (id, cell) in nl.cells() {
            let loc = p.loc(id);
            assert!(region.contains(loc), "cell {id} at {loc:?} left {region:?}");
            assert!(site_legal(cell.kind, loc.0));
            assert!(seen.insert(loc), "site collision at {loc:?}");
        }
    }

    #[test]
    fn region_placement_is_a_pure_function_of_inputs() {
        let nl = chain(80);
        let d = Device::ultrascale_plus_vu9p();
        let region = Region {
            x0: 12,
            y0: 0,
            w: 20,
            h: 120,
        };
        let a = place_in_region(&nl, &d, region, 3, AnnealConfig::default());
        let b = place_in_region(&nl, &d, region, 3, AnnealConfig::default());
        assert_eq!(a, b);
        let c = place_in_region(&nl, &d, region, 4, AnnealConfig::default());
        assert_ne!(a, c);
    }

    #[test]
    fn full_grid_region_matches_flat_placement() {
        // The flat path is the full-grid special case of the region path:
        // the same arithmetic must fall out of both entry points.
        let nl = chain(100);
        let d = Device::zynq_zc706();
        let flat = place_with(&nl, &d, 9, AnnealConfig::default());
        let region = place_in_region(&nl, &d, Region::full(&d), 9, AnnealConfig::default());
        assert_eq!(flat, region);
    }

    #[test]
    fn region_fits_bram_and_dsp_kinds() {
        let mut nl = Netlist::new("mix");
        let src = nl.add_cell(Cell::ff("src", 32));
        let mut sinks = Vec::new();
        for i in 0..6 {
            sinks.push(nl.add_cell(Cell::bram(format!("b{i}"), 32, 1)));
            sinks.push(nl.add_cell(Cell::dsp(format!("d{i}"), 32, 2.0, 1)));
        }
        nl.connect(src, &sinks);
        let d = Device::ultrascale_plus_vu9p();
        // Minimum-width strip: still holds one BRAM and one DSP column.
        let region = Region {
            x0: 7,
            y0: 0,
            w: 12,
            h: 120,
        };
        let p = place_in_region(&nl, &d, region, 5, AnnealConfig::default());
        for (id, cell) in nl.cells() {
            assert!(region.contains(p.loc(id)));
            assert!(site_legal(cell.kind, p.loc(id).0), "{}", cell.name);
        }
    }
}
