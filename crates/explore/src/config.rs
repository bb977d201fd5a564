//! The knob configurations the Fmax explorer sweeps.
//!
//! Unlike [`hlsb_dse`](https://docs.rs)'s `DseConfig`, the clock target
//! is *not* part of an [`ExploreConfig`] — the clock is the search
//! variable. A configuration is the paper's optimization toggles plus
//! forced register injection and the placement knobs; the explorer maps
//! it to a [`Flow`] per trial clock.

use hlsb::{Flow, OptimizationOptions, Partitioning, PlaceEffort, RegisterInjection};
use hlsb_fabric::Device;
use hlsb_ir::Design;

/// One searched configuration: everything that distinguishes two flow
/// variants of the same design and device *except* the clock target.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreConfig {
    /// The paper's optimization toggles (§4.1–§4.3).
    pub options: OptimizationOptions,
    /// Forced pipeline registers at named stage boundaries.
    pub inject: RegisterInjection,
    /// Placement seeds tried per implementation (best timing wins).
    pub place_seeds: u32,
    /// Placement effort.
    pub effort: PlaceEffort,
    /// Island partitioning of the implement stage.
    pub partitions: Partitioning,
}

impl ExploreConfig {
    /// A configuration with the given toggles, no injection, one
    /// placement seed, fast effort, no partitioning.
    pub fn new(options: OptimizationOptions) -> Self {
        ExploreConfig {
            options,
            inject: RegisterInjection::Off,
            place_seeds: 1,
            effort: PlaceEffort::Fast,
            partitions: Partitioning::Off,
        }
    }

    /// Everything off — the unoptimized reference.
    pub fn baseline() -> Self {
        ExploreConfig::new(OptimizationOptions::default())
    }

    /// All paper optimizations on, no injection.
    pub fn optimized() -> Self {
        ExploreConfig::new(OptimizationOptions::all())
    }

    /// All paper optimizations plus forced registers at `boundaries`.
    pub fn injected(boundaries: Vec<u32>) -> Self {
        ExploreConfig {
            inject: RegisterInjection::at(boundaries),
            ..ExploreConfig::optimized()
        }
    }

    /// The default sweep: baseline, fully optimized, and fully optimized
    /// with a forced register after stage 1 — the smallest set that
    /// separates the paper's optimizations from the extra-latency trade.
    pub fn default_set() -> Vec<ExploreConfig> {
        vec![
            ExploreConfig::baseline(),
            ExploreConfig::optimized(),
            ExploreConfig::injected(vec![1]),
        ]
    }

    /// This configuration with injection forced off — the twin the
    /// explorer compares probes against when deciding whether injection
    /// changed the hardware at all.
    pub fn twin(&self) -> ExploreConfig {
        ExploreConfig {
            inject: RegisterInjection::Off,
            ..self.clone()
        }
    }

    /// The flow this configuration denotes at one trial clock. `seed` is
    /// the shared base seed of the exploration.
    pub fn flow(&self, design: &Design, device: &Device, seed: u64, clock_mhz: f64) -> Flow {
        Flow::new(design.clone())
            .device(device.clone())
            .clock_mhz(clock_mhz)
            .options(self.options)
            .inject(self.inject.clone())
            .seed(seed)
            .place_effort(self.effort)
            .place_seeds(self.place_seeds)
            .partitions(self.partitions)
    }

    /// Compact clock-free label, e.g. `BSKM+r1 ×1 fast`: one letter per
    /// enabled optimization (Broadcast-aware, Sync-pruning, sKid,
    /// Min-area skid), a `+rB.B` injection suffix when enabled, then
    /// placement-seed count, effort and partitioning.
    pub fn label(&self) -> String {
        format!(
            "{}{}{}{}{} ×{} {}{}",
            if self.options.broadcast_aware {
                'B'
            } else {
                '-'
            },
            if self.options.sync_pruning { 'S' } else { '-' },
            if self.options.skid_buffer { 'K' } else { '-' },
            if self.options.min_area_skid { 'M' } else { '-' },
            if self.inject.is_enabled() {
                format!("+{}", self.inject.label())
            } else {
                String::new()
            },
            self.place_seeds,
            self.effort.label(),
            match self.partitions {
                Partitioning::Off => String::new(),
                p => format!(" p{}", p.label()),
            }
        )
    }

    /// Parses a configuration spec as accepted by the `explore` CLI:
    /// a preset (`none`/`base`, `all`/`opt`) or a 4-character toggle mask
    /// (`BSKM` with `-` for an off toggle, e.g. `B--M`), optionally
    /// followed by `+rB.B` naming injection boundaries (`all+r1.2`).
    /// Returns `None` for anything else.
    pub fn parse(spec: &str) -> Option<ExploreConfig> {
        let (mask, inject) = match spec.split_once("+r") {
            Some((mask, b)) => {
                let boundaries: Vec<u32> = b
                    .split('.')
                    .map(|tok| tok.parse().ok())
                    .collect::<Option<_>>()?;
                if boundaries.is_empty() {
                    return None;
                }
                (mask, RegisterInjection::at(boundaries))
            }
            None => (spec, RegisterInjection::Off),
        };
        let options = match mask {
            "none" | "base" => OptimizationOptions::default(),
            "all" | "opt" => OptimizationOptions::all(),
            m if m.len() == 4 => {
                let toggle = |ch: char, on: char| match ch {
                    c if c == on => Some(true),
                    '-' => Some(false),
                    _ => None,
                };
                let mut it = m.chars();
                OptimizationOptions {
                    broadcast_aware: toggle(it.next()?, 'B')?,
                    sync_pruning: toggle(it.next()?, 'S')?,
                    skid_buffer: toggle(it.next()?, 'K')?,
                    min_area_skid: toggle(it.next()?, 'M')?,
                }
            }
            _ => return None,
        };
        Some(ExploreConfig {
            inject,
            ..ExploreConfig::new(options)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_compact_and_unique() {
        let set = ExploreConfig::default_set();
        assert_eq!(set[0].label(), "---- ×1 fast");
        assert_eq!(set[1].label(), "BSKM ×1 fast");
        assert_eq!(set[2].label(), "BSKM+r1 ×1 fast");
        let labels: std::collections::HashSet<String> =
            set.iter().map(ExploreConfig::label).collect();
        assert_eq!(labels.len(), set.len());
    }

    #[test]
    fn parse_accepts_presets_masks_and_injection() {
        assert_eq!(
            ExploreConfig::parse("none"),
            Some(ExploreConfig::baseline())
        );
        assert_eq!(
            ExploreConfig::parse("all"),
            Some(ExploreConfig::optimized())
        );
        assert_eq!(
            ExploreConfig::parse("all+r1.2"),
            Some(ExploreConfig::injected(vec![1, 2]))
        );
        let mixed = ExploreConfig::parse("B--M").expect("mask parses");
        assert!(mixed.options.broadcast_aware && mixed.options.min_area_skid);
        assert!(!mixed.options.sync_pruning && !mixed.options.skid_buffer);
        assert_eq!(ExploreConfig::parse("B-"), None);
        assert_eq!(ExploreConfig::parse("XSKM"), None);
        assert_eq!(ExploreConfig::parse("all+r"), None);
        assert_eq!(ExploreConfig::parse("all+rx"), None);
    }

    #[test]
    fn twin_drops_injection_and_keys_differ_per_clock() {
        let cfg = ExploreConfig::injected(vec![1]);
        assert_eq!(cfg.twin(), ExploreConfig::optimized());
        let design = Design::new("d");
        let device = Device::ultrascale_plus_vu9p();
        let a = cfg.flow(&design, &device, 7, 300.0).config_key();
        let b = cfg.flow(&design, &device, 7, 310.0).config_key();
        let c = cfg.twin().flow(&design, &device, 7, 300.0).config_key();
        assert_ne!(a, b, "the clock is part of the trial key");
        assert_ne!(a, c, "injection is part of the trial key");
    }
}
