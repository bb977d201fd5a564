//! Site legality rules.
//!
//! Real FPGAs dedicate whole columns to BRAM and DSP resources; logic can
//! go anywhere else. Forcing memories and multipliers into columns is part
//! of why large buffers scatter physically (paper §3.1, example #2).

use crate::placement::Region;
use hlsb_netlist::{CellKind, Netlist};

/// Column period of BRAM columns (one in every `BRAM_COL_PERIOD` columns).
pub const BRAM_COL_PERIOD: u16 = 10;
/// Column offset of BRAM columns within the period.
pub const BRAM_COL_OFFSET: u16 = 4;
/// Column period of DSP columns.
pub const DSP_COL_PERIOD: u16 = 10;
/// Column offset of DSP columns within the period.
pub const DSP_COL_OFFSET: u16 = 8;

/// Whether a cell of the given kind may be placed at column `x`.
pub fn site_legal(kind: CellKind, x: u16) -> bool {
    match kind {
        CellKind::Bram => x % BRAM_COL_PERIOD == BRAM_COL_OFFSET,
        CellKind::Dsp => x % DSP_COL_PERIOD == DSP_COL_OFFSET,
        // Logic, registers, ports and constants can go anywhere outside
        // the dedicated columns.
        _ => x % BRAM_COL_PERIOD != BRAM_COL_OFFSET && x % DSP_COL_PERIOD != DSP_COL_OFFSET,
    }
}

/// Number of sites in `region` where a cell of `kind` may be placed: its
/// legal columns times the region's rows.
pub fn legal_sites(kind: CellKind, region: Region) -> u64 {
    let cols = (region.x0..region.x1())
        .filter(|&x| site_legal(kind, x))
        .count();
    cols as u64 * u64::from(region.h)
}

/// The first site class whose cells outnumber their legal sites in
/// `region`, as `(kind, cells, sites)`, checked in the order BRAM, DSP,
/// logic; `None` when every cell can have a site of its own. BRAM and DSP
/// cells own their columns, and every other kind shares the remaining
/// columns, so logic is counted together and reported as
/// [`CellKind::Comb`]. A netlist that passes never makes the placer run
/// out of sites.
pub fn site_shortfall(netlist: &Netlist, region: Region) -> Option<(CellKind, u64, u64)> {
    let mut cells = [0u64; 3];
    for (_, cell) in netlist.cells() {
        cells[site_class(cell.kind)] += 1;
    }
    [CellKind::Bram, CellKind::Dsp, CellKind::Comb]
        .into_iter()
        .zip(cells)
        .map(|(kind, n)| (kind, n, legal_sites(kind, region)))
        .find(|&(_, n, sites)| n > sites)
}

/// Index of a kind's site class: BRAM, DSP or logic.
fn site_class(kind: CellKind) -> usize {
    match kind {
        CellKind::Bram => 0,
        CellKind::Dsp => 1,
        _ => 2,
    }
}

/// Snaps column `x` to the nearest legal column for `kind` on a grid of
/// width `grid_w`.
pub fn snap_column(kind: CellKind, x: u16, grid_w: u16) -> u16 {
    snap_column_in(kind, x, 0, grid_w)
}

/// Snaps column `x` to the nearest legal column for `kind` within the
/// half-open column range `[x0, x1)` — the column window of a reserved
/// placement region. `snap_column` is the full-grid special case. A range
/// spanning at least one full BRAM/DSP period (10 columns) is guaranteed
/// to contain a legal column for every kind; narrower ranges may fall
/// back to the clamped input.
pub fn snap_column_in(kind: CellKind, x: u16, x0: u16, x1: u16) -> u16 {
    debug_assert!(x0 < x1, "empty column range");
    let x = x.clamp(x0, x1 - 1);
    if site_legal(kind, x) {
        return x;
    }
    for d in 1..(x1 - x0) {
        let lo = x.saturating_sub(d).max(x0);
        if site_legal(kind, lo) {
            return lo;
        }
        let hi = x.saturating_add(d).min(x1 - 1);
        if site_legal(kind, hi) {
            return hi;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bram_and_dsp_columns_disjoint() {
        for x in 0..100u16 {
            assert!(
                !(site_legal(CellKind::Bram, x) && site_legal(CellKind::Dsp, x)),
                "column {x} legal for both"
            );
        }
    }

    #[test]
    fn logic_avoids_dedicated_columns() {
        assert!(!site_legal(CellKind::Comb, BRAM_COL_OFFSET));
        assert!(!site_legal(CellKind::Ff, DSP_COL_OFFSET));
        assert!(site_legal(CellKind::Comb, 0));
    }

    #[test]
    fn snap_reaches_legal_column() {
        for x in 0..60u16 {
            let b = snap_column(CellKind::Bram, x, 60);
            assert!(site_legal(CellKind::Bram, b), "x={x} snapped to {b}");
            let d = snap_column(CellKind::Dsp, x, 60);
            assert!(site_legal(CellKind::Dsp, d), "x={x} snapped to {d}");
            let l = snap_column(CellKind::Comb, x, 60);
            assert!(site_legal(CellKind::Comb, l), "x={x} snapped to {l}");
        }
    }

    #[test]
    fn snap_stays_in_bounds() {
        assert!(snap_column(CellKind::Bram, 59, 60) < 60);
    }

    #[test]
    fn bounded_snap_stays_in_range_and_finds_legal_columns() {
        // Any 12-wide window holds one BRAM and one DSP column.
        for x0 in 0..48u16 {
            let x1 = x0 + 12;
            for x in 0..60u16 {
                for kind in [CellKind::Bram, CellKind::Dsp, CellKind::Comb] {
                    let c = snap_column_in(kind, x, x0, x1);
                    assert!(
                        c >= x0 && c < x1,
                        "{kind:?} x={x} -> {c} outside [{x0},{x1})"
                    );
                    assert!(site_legal(kind, c), "{kind:?} x={x} -> illegal column {c}");
                }
            }
        }
    }

    #[test]
    fn legal_sites_count_columns_times_rows() {
        let vu9p = Region::full(&hlsb_fabric::Device::ultrascale_plus_vu9p());
        assert_eq!(legal_sites(CellKind::Dsp, vu9p), 14 * 120);
        assert_eq!(legal_sites(CellKind::Bram, vu9p), 14 * 120);
        assert_eq!(legal_sites(CellKind::Ff, vu9p), (140 - 28) * 120);
        let strip = Region {
            x0: 7,
            y0: 3,
            w: 12,
            h: 10,
        };
        // Columns 7..19 hold DSP column 8 and 18, BRAM column 14.
        assert_eq!(legal_sites(CellKind::Dsp, strip), 20);
        assert_eq!(legal_sites(CellKind::Bram, strip), 10);
        assert_eq!(legal_sites(CellKind::Comb, strip), 90);
    }

    #[test]
    fn shortfall_names_the_first_overfull_class() {
        use hlsb_netlist::Cell;
        let strip = Region {
            x0: 0,
            y0: 0,
            w: 10,
            h: 2,
        };
        let mut nl = Netlist::new("k");
        for i in 0..2 {
            nl.add_cell(Cell::dsp(format!("d{i}"), 8, 1.0, 1));
        }
        assert_eq!(site_shortfall(&nl, strip), None);
        nl.add_cell(Cell::dsp("d2", 8, 1.0, 1));
        assert_eq!(site_shortfall(&nl, strip), Some((CellKind::Dsp, 3, 2)));
        for i in 0..17 {
            nl.add_cell(Cell::ff(format!("f{i}"), 8));
        }
        assert_eq!(site_shortfall(&nl, strip), Some((CellKind::Dsp, 3, 2)));
        nl.add_cell(Cell::bram("b0", 8, 1));
        nl.add_cell(Cell::bram("b1", 8, 1));
        nl.add_cell(Cell::bram("b2", 8, 1));
        assert_eq!(site_shortfall(&nl, strip), Some((CellKind::Bram, 3, 2)));
    }

    #[test]
    fn bounded_snap_with_full_range_matches_snap_column() {
        for x in 0..60u16 {
            for kind in [CellKind::Bram, CellKind::Dsp, CellKind::Comb, CellKind::Ff] {
                assert_eq!(snap_column(kind, x, 60), snap_column_in(kind, x, 0, 60));
            }
        }
    }
}
