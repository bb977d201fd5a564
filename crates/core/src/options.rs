//! Flow options.

/// Which of the paper's optimizations the flow applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizationOptions {
    /// Broadcast-aware scheduling (§4.1): calibrated delays + register
    /// insertion + memory-access pipelining.
    pub broadcast_aware: bool,
    /// Synchronization pruning (§4.2): dataflow loop splitting and
    /// longest-latency-only waits.
    pub sync_pruning: bool,
    /// Skid-buffer-based pipeline control (§4.3).
    pub skid_buffer: bool,
    /// Min-area multi-level skid buffers (DP split). Only meaningful with
    /// `skid_buffer`.
    pub min_area_skid: bool,
}

impl OptimizationOptions {
    /// The paper's baseline: everything off (stock HLS behaviour).
    pub fn none() -> Self {
        OptimizationOptions::default()
    }

    /// All optimizations on (the paper's "Opt" columns).
    pub fn all() -> Self {
        OptimizationOptions {
            broadcast_aware: true,
            sync_pruning: true,
            skid_buffer: true,
            min_area_skid: true,
        }
    }

    /// Only the data-broadcast optimization (Table 3's "Opt. Data" row).
    pub fn data_only() -> Self {
        OptimizationOptions {
            broadcast_aware: true,
            ..OptimizationOptions::default()
        }
    }

    /// Skid control without the min-area split (Table 2's "Skid Buffer").
    pub fn skid_plain() -> Self {
        OptimizationOptions {
            skid_buffer: true,
            ..OptimizationOptions::default()
        }
    }
}

/// Forced pipeline-register injection at named stage boundaries.
///
/// Where [`OptimizationOptions::broadcast_aware`] inserts register
/// modules *reactively* (only where the calibrated model proves a chain
/// violates the budget), this knob forces them *proactively*: every
/// value produced in a named boundary cycle of the pre-injection
/// schedule and consumed combinationally in that same cycle is routed
/// through an extra `Reg` module (`hlsb_sched::inject_registers`). The
/// pipeline gets deeper — the extra latency is real, reported by probes
/// and visible to the timed simulator — in exchange for shorter
/// combinational chains after lowering, which is what the closed-loop
/// Fmax explorer (`hlsb-explore`) trades off against the clock target.
///
/// Boundaries are cycle indices of the pre-injection schedule. A
/// boundary that names a stage no loop of the design has is a
/// configuration error ([`FlowError::BadParameter`]); a boundary that
/// exists but crosses no combinational chain is a no-op.
///
/// [`FlowError::BadParameter`]: crate::FlowError::BadParameter
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum RegisterInjection {
    /// No forced registers (the classic flow).
    #[default]
    Off,
    /// Force a register after every chain source alive at each of these
    /// stage boundaries (sorted, deduplicated cycle indices).
    At(Vec<u32>),
}

impl RegisterInjection {
    /// Injection at the given boundaries, canonicalized: sorted,
    /// deduplicated, and collapsed to [`RegisterInjection::Off`] when
    /// empty — so equal configurations always hash equally in
    /// [`Flow::config_key`](crate::Flow::config_key).
    pub fn at(mut boundaries: Vec<u32>) -> Self {
        boundaries.sort_unstable();
        boundaries.dedup();
        if boundaries.is_empty() {
            RegisterInjection::Off
        } else {
            RegisterInjection::At(boundaries)
        }
    }

    /// The requested boundaries (empty when off).
    pub fn boundaries(&self) -> &[u32] {
        match self {
            RegisterInjection::Off => &[],
            RegisterInjection::At(b) => b,
        }
    }

    /// Whether any boundary is requested.
    pub fn is_enabled(&self) -> bool {
        !self.boundaries().is_empty()
    }

    /// Compact label for reports: `off` or `r1.3` (boundaries joined by
    /// `.`).
    pub fn label(&self) -> String {
        if self.is_enabled() {
            let parts: Vec<String> = self.boundaries().iter().map(u32::to_string).collect();
            format!("r{}", parts.join("."))
        } else {
            "off".to_string()
        }
    }

    /// Parses a [`label`](RegisterInjection::label): `off` or `r1.3`.
    pub fn from_label(s: &str) -> Option<Self> {
        if s == "off" {
            return Some(RegisterInjection::Off);
        }
        let boundaries = s.strip_prefix('r')?.split('.').map(|b| b.parse().ok());
        Some(RegisterInjection::at(boundaries.collect::<Option<_>>()?))
    }
}

/// Placement effort (trade runtime for quality; results stay
/// deterministic for a fixed seed and effort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaceEffort {
    /// Reduced annealing for tests and quick iterations.
    Fast,
    /// Default annealing.
    #[default]
    Normal,
}

impl PlaceEffort {
    /// Wire label: `fast` or `normal`.
    pub fn label(self) -> &'static str {
        match self {
            PlaceEffort::Fast => "fast",
            PlaceEffort::Normal => "normal",
        }
    }

    /// Parses a [`label`](PlaceEffort::label).
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "fast" => Some(PlaceEffort::Fast),
            "normal" => Some(PlaceEffort::Normal),
            _ => None,
        }
    }
}

/// Island partitioning of the implement stage.
///
/// With partitioning on, the netlist is cut along its dataflow seams
/// (inter-kernel FIFOs), every island is annealed independently in a
/// reserved device region, and inter-island nets are registered
/// (`hlsb-place::partition`). Islands place in parallel, yet the result
/// is a pure function of `(netlist, seed, partition)` — never of the
/// worker thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partitioning {
    /// Flat placement: one annealer over the whole device (the classic
    /// flow, bit-identical to pre-partitioning releases).
    #[default]
    Off,
    /// Island count chosen from netlist size and device geometry
    /// (`hlsb_place::auto_islands`); small designs stay flat.
    Auto,
    /// Exactly this many islands (clamped to what the device can host;
    /// `0` and `1` mean flat).
    Fixed(u32),
}

impl Partitioning {
    /// Whether partitioning is enabled at all (`Fixed(0)` and `Fixed(1)`
    /// degenerate to flat placement).
    pub fn is_enabled(self) -> bool {
        match self {
            Partitioning::Off => false,
            Partitioning::Auto => true,
            Partitioning::Fixed(k) => k >= 2,
        }
    }

    /// Wire label: `off`, `auto` or the island count.
    pub fn label(self) -> String {
        match self {
            Partitioning::Off => "off".to_string(),
            Partitioning::Auto => "auto".to_string(),
            Partitioning::Fixed(k) => k.to_string(),
        }
    }

    /// Parses a [`label`](Partitioning::label).
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Partitioning::Off),
            "auto" => Some(Partitioning::Auto),
            n => n.parse().ok().map(Partitioning::Fixed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_canonicalizes() {
        assert_eq!(RegisterInjection::at(vec![]), RegisterInjection::Off);
        assert_eq!(
            RegisterInjection::at(vec![3, 1, 3]),
            RegisterInjection::At(vec![1, 3])
        );
        assert_eq!(RegisterInjection::at(vec![3, 1]).label(), "r1.3");
        assert_eq!(RegisterInjection::Off.label(), "off");
        assert!(!RegisterInjection::Off.is_enabled());
        assert_eq!(RegisterInjection::at(vec![2]).boundaries(), &[2]);
    }

    #[test]
    fn labels_round_trip() {
        for inject in [RegisterInjection::Off, RegisterInjection::at(vec![1, 3])] {
            assert_eq!(RegisterInjection::from_label(&inject.label()), Some(inject));
        }
        assert_eq!(
            RegisterInjection::from_label("r3.1"),
            Some(RegisterInjection::At(vec![1, 3]))
        );
        for bad in ["q9", "r", "r1.", "r-1", "on"] {
            assert_eq!(RegisterInjection::from_label(bad), None, "{bad}");
        }
        for effort in [PlaceEffort::Fast, PlaceEffort::Normal] {
            assert_eq!(PlaceEffort::from_label(effort.label()), Some(effort));
        }
        assert_eq!(PlaceEffort::from_label("slow"), None);
        for p in [
            Partitioning::Off,
            Partitioning::Auto,
            Partitioning::Fixed(3),
        ] {
            assert_eq!(Partitioning::from_label(&p.label()), Some(p));
        }
        assert_eq!(Partitioning::Fixed(12).label(), "12");
        assert_eq!(Partitioning::from_label("many"), None);
    }

    #[test]
    fn presets() {
        assert!(!OptimizationOptions::none().broadcast_aware);
        let all = OptimizationOptions::all();
        assert!(all.broadcast_aware && all.sync_pruning && all.skid_buffer && all.min_area_skid);
        assert!(OptimizationOptions::data_only().broadcast_aware);
        assert!(!OptimizationOptions::data_only().skid_buffer);
        assert!(OptimizationOptions::skid_plain().skid_buffer);
        assert!(!OptimizationOptions::skid_plain().min_area_skid);
    }
}
