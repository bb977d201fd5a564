//! # hlsb-timing — static timing analysis and physical optimizations
//!
//! The downstream half of the "Vivado implementation" substitute:
//!
//! * [`sta()`] — static timing analysis over a placed netlist using the
//!   fabric's distance + fanout wire model, producing the achieved clock
//!   period / Fmax and the critical path;
//! * [`fanout_opt`] — register duplication for high-fanout register-driven
//!   nets (the paper's experiments run Vivado with "retiming and fan-out
//!   optimization enabled"; this is the fan-out half). Combinationally
//!   driven broadcast nets **cannot** be fixed this way — which is exactly
//!   why the paper's behaviour-level optimizations matter;
//! * [`retime()`] — a backward-retiming pass that moves registers across
//!   combinational cells to balance stage delays (the retiming half).
//!
//! # Example
//!
//! ```
//! use hlsb_fabric::{Device, WireModel};
//! use hlsb_netlist::{Cell, Netlist};
//! use hlsb_place::place;
//! use hlsb_timing::sta;
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_cell(Cell::ff("a", 8));
//! let x = nl.add_cell(Cell::comb("x", 8, 0.7, 8));
//! let b = nl.add_cell(Cell::ff("b", 8));
//! nl.connect(a, &[x]);
//! nl.connect(x, &[b]);
//! let dev = Device::ultrascale_plus_vu9p();
//! let p = place(&nl, &dev, 1);
//! let report = sta(&nl, &p, &WireModel::for_device(&dev));
//! assert!(report.fmax_mhz > 100.0);
//! ```

pub mod fanout_opt;
pub mod refine;
pub mod retime;
pub mod sta;

pub use fanout_opt::{optimize_fanout, FanoutOptions};
pub use refine::{refine_critical, RefineOptions};
pub use retime::{retime, RetimeOptions};
pub use sta::{sta, StaGraph, TimingReport, SETUP_NS};
