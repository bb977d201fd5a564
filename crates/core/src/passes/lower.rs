//! Lower pass: RTL generation, netlist validation and the device
//! capacity check.

use hlsb_delay::HlsPredictedModel;
use hlsb_fabric::Device;
use hlsb_ir::Design;
use hlsb_netlist::{CellKind, Netlist};
use hlsb_place::{site_shortfall, Region};
use hlsb_rtlgen::{lower_design, ControlStyle, LowerInfo, RtlOptions, ScheduledDesign};

use crate::error::FlowError;
use crate::options::{OptimizationOptions, Partitioning};
use crate::passes::ScheduleArtifact;

/// The lower pass output: a validated, capacity-checked netlist.
#[derive(Debug)]
pub(crate) struct LowerOutput {
    pub netlist: Netlist,
    pub info: LowerInfo,
}

/// Lowers the scheduled design to a netlist and rejects designs that do
/// not fit the device.
///
/// With island partitioning requested, every inter-kernel channel may
/// gain one registered crossing hop, so the control logic provisions one
/// extra skid slot (`RtlOptions::crossing_slots`). The provisioning is
/// uniform — it does not depend on where the cut lands (or whether the
/// implement stage later falls back to flat placement), which keeps
/// lowering independent of placement and the VC02 contract honest in
/// both outcomes.
pub(crate) fn run(
    design: &Design,
    schedule: &ScheduleArtifact,
    options: &OptimizationOptions,
    partitions: Partitioning,
    device: &Device,
) -> Result<LowerOutput, FlowError> {
    let rtl_options = RtlOptions {
        control: if options.skid_buffer {
            ControlStyle::Skid {
                min_area: options.min_area_skid,
            }
        } else {
            ControlStyle::Stall
        },
        sync_pruning: options.sync_pruning,
        crossing_slots: u64::from(partitions.is_enabled()),
    };
    let sd = ScheduledDesign {
        design,
        loops: &schedule.loops,
    };
    let predicted = HlsPredictedModel::new();
    let lowered = lower_design(&sd, &rtl_options, &predicted);
    let netlist = lowered.netlist;
    netlist.validate()?;

    let stats = netlist.stats();
    let res = device.resources;
    for (used, cap, name) in [
        (stats.luts, res.luts, "LUT"),
        (stats.ffs, res.ffs, "FF"),
        (stats.brams, res.brams, "BRAM"),
        (stats.dsps, res.dsps, "DSP"),
    ] {
        if used > cap {
            return Err(FlowError::DoesNotFit {
                what: format!("{name}: {used} needed, {cap} available"),
            });
        }
    }
    // The placer gives every cell a legal site of its own, and a device's
    // resource totals can exceed its site grid (VU9P: 6840 DSPs, 1680 DSP
    // sites), so check the sites too.
    if let Some((kind, cells, sites)) = site_shortfall(&netlist, Region::full(device)) {
        let class = match kind {
            CellKind::Bram => "BRAM",
            CellKind::Dsp => "DSP",
            _ => "logic",
        };
        return Err(FlowError::DoesNotFit {
            what: format!("{cells} {class} cells exceed the {sites} {class} sites"),
        });
    }
    let site_budget = u64::from(device.grid_w) * u64::from(device.grid_h) / 2;
    if netlist.cell_count() as u64 >= site_budget {
        return Err(FlowError::DoesNotFit {
            what: format!(
                "{} cells exceed the placement budget of {site_budget} sites",
                netlist.cell_count()
            ),
        });
    }
    Ok(LowerOutput {
        netlist,
        info: lowered.info,
    })
}
