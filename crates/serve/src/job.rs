//! Job specifications: one JSONL line per requested compile.
//!
//! A job names a design plus the flow knobs to compile it with. Designs
//! are addressed three ways:
//!
//! * a Table-1 benchmark (or synthetic) by case-insensitive substring,
//!   resolved through [`hlsb_benchmarks::find_benchmark`] — the job
//!   inherits the benchmark's device and paper clock target unless the
//!   job overrides the clock;
//! * `fuzz:<seed>` — a seeded random valid design from
//!   [`hlsb_sim::fuzz::random_design`], the compile-farm load-generator
//!   workload;
//! * `dirty:<seed>` — a seeded design with one planted network defect
//!   ([`hlsb_sim::fuzz::random_dirty_design`]), for exercising the
//!   verify pre-gate.
//!
//! Every knob that participates in [`Flow::config_key`] is settable, so
//! two jobs are duplicates exactly when their resolved flows share a
//! config key. Job lines come from clients, so they are parsed strictly
//! (see [`JobSpec::from_json`]) with the workspace's one JSON reader,
//! [`hlsb_findings::Object`].

use hlsb::{Flow, OptimizationOptions, Partitioning, PlaceEffort, RegisterInjection};
use hlsb_findings::{json_escape, Json, Object};

/// Every key a job line may carry.
const JOB_KEYS: [&str; 9] = [
    "id",
    "design",
    "clock_mhz",
    "options",
    "seed",
    "place_seeds",
    "effort",
    "partitions",
    "inject",
];

/// One requested compile, as parsed from a JSONL job line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen tag, echoed on the outcome line. Defaults to
    /// `job-<index>` (assigned by the server from the input position).
    pub id: String,
    /// Design reference: benchmark substring, `fuzz:<seed>` or
    /// `dirty:<seed>`.
    pub design: String,
    /// Clock target override, MHz. `None` uses the benchmark's paper
    /// clock (300 MHz for fuzzed designs).
    pub clock_mhz: Option<f64>,
    /// Optimization mask.
    pub options: OptimizationOptions,
    /// Flow seed.
    pub seed: u64,
    /// Placement seeds tried (best timing wins).
    pub place_seeds: u32,
    /// Placement effort.
    pub effort: PlaceEffort,
    /// Island partitioning.
    pub partitions: Partitioning,
    /// Forced register injection.
    pub inject: RegisterInjection,
}

impl Default for JobSpec {
    /// Server defaults: throughput-oriented (fast placement, one seed),
    /// no optimizations, seed 1 — every field overridable per job.
    fn default() -> Self {
        JobSpec {
            id: String::new(),
            design: String::new(),
            clock_mhz: None,
            options: OptimizationOptions::none(),
            seed: 1,
            place_seeds: 1,
            effort: PlaceEffort::Fast,
            partitions: Partitioning::Off,
            inject: RegisterInjection::Off,
        }
    }
}

/// Renders an optimization mask as a compact flag string: `none`, or a
/// subset of `bskm` (broadcast_aware, sync_pruning, skid_buffer,
/// min_area_skid) in that fixed order — `bskm` is
/// [`OptimizationOptions::all`].
pub fn options_mask(o: &OptimizationOptions) -> String {
    let mut s = String::new();
    for (on, c) in [
        (o.broadcast_aware, 'b'),
        (o.sync_pruning, 's'),
        (o.skid_buffer, 'k'),
        (o.min_area_skid, 'm'),
    ] {
        if on {
            s.push(c);
        }
    }
    if s.is_empty() {
        "none".to_string()
    } else {
        s
    }
}

/// Parses an optimization mask: `none`, `all`, or any combination of
/// the `bskm` flag letters (order-insensitive). Returns `None` for
/// unknown characters.
pub fn parse_options(s: &str) -> Option<OptimizationOptions> {
    match s {
        "none" => return Some(OptimizationOptions::none()),
        "all" => return Some(OptimizationOptions::all()),
        _ => {}
    }
    let mut o = OptimizationOptions::none();
    for c in s.chars() {
        match c {
            'b' => o.broadcast_aware = true,
            's' => o.sync_pruning = true,
            'k' => o.skid_buffer = true,
            'm' => o.min_area_skid = true,
            _ => return None,
        }
    }
    Some(o)
}

/// An optional label-valued job key: absent is `None`, present must be
/// a string `parse` accepts.
fn parse_label<T>(
    o: &Object,
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    o.opt_str(key)?
        .map(|v| parse(v).ok_or_else(|| format!("bad `{key}` value `{v}`")))
        .transpose()
}

impl JobSpec {
    /// Renders the job as one canonical JSON line (no trailing newline).
    /// Optional fields at their defaults are still written, so the line
    /// is self-describing.
    pub fn to_json(&self) -> String {
        let clock = match self.clock_mhz {
            Some(mhz) => format!("{mhz:?}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":\"{}\",\"design\":\"{}\",\"clock_mhz\":{},\"options\":\"{}\",\
             \"seed\":{},\"place_seeds\":{},\"effort\":\"{}\",\"partitions\":\"{}\",\
             \"inject\":\"{}\"}}",
            json_escape(&self.id),
            json_escape(&self.design),
            clock,
            options_mask(&self.options),
            self.seed,
            self.place_seeds,
            self.effort.label(),
            self.partitions.label(),
            self.inject.label(),
        )
    }

    /// Parses one job line. Only `design` is required; every other field
    /// falls back to [`JobSpec::default`]. The line must be one JSON
    /// object (any JSON whitespace) holding only the keys [`to_json`]
    /// writes, each at most once and with the type [`to_json`] writes,
    /// except that `clock_mhz` may be any positive number or `null`. The
    /// error string names the offending key (deterministically, for
    /// stable outcome streams).
    ///
    /// [`to_json`]: JobSpec::to_json
    pub fn from_json(line: &str) -> Result<JobSpec, String> {
        let o = Object::parse(line).map_err(|e| format!("job line is not valid JSON: {e}"))?;
        o.only(&JOB_KEYS)?;
        let design = o.opt_str("design")?.unwrap_or_default();
        if design.is_empty() {
            return Err("job is missing the required `design` field".to_string());
        }
        let defaults = JobSpec::default();
        Ok(JobSpec {
            id: o.opt_str("id")?.unwrap_or_default().to_string(),
            design: design.to_string(),
            clock_mhz: match o.get("clock_mhz") {
                None | Some(Json::Null) => None,
                Some(v) => match v.as_f64() {
                    Some(mhz) if mhz > 0.0 => Some(mhz),
                    _ => return Err("`clock_mhz` must be a positive number or null".into()),
                },
            },
            options: parse_label(&o, "options", parse_options)?.unwrap_or(defaults.options),
            seed: o.opt_u64("seed")?.unwrap_or(defaults.seed),
            place_seeds: match o.opt_u64("place_seeds")? {
                None => defaults.place_seeds,
                Some(n) => u32::try_from(n).map_err(|_| format!("bad `place_seeds` value {n}"))?,
            },
            effort: parse_label(&o, "effort", PlaceEffort::from_label)?.unwrap_or(defaults.effort),
            partitions: parse_label(&o, "partitions", Partitioning::from_label)?
                .unwrap_or(defaults.partitions),
            inject: parse_label(&o, "inject", RegisterInjection::from_label)?
                .unwrap_or(defaults.inject),
        })
    }

    /// Resolves the job to a runnable [`Flow`] plus its human-readable
    /// configuration label (stored in the result record; the config key
    /// stays authoritative). Fails with a deterministic message for an
    /// unknown design reference.
    pub fn resolve(&self) -> Result<(Flow, String), String> {
        let (design, default_clock) = if let Some(seed) = self.design.strip_prefix("fuzz:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad fuzz seed in `{}`", self.design))?;
            (hlsb_sim::fuzz::random_design(seed), 300.0)
        } else if let Some(seed) = self.design.strip_prefix("dirty:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad dirty seed in `{}`", self.design))?;
            (hlsb_sim::fuzz::random_dirty_design(seed).0, 300.0)
        } else {
            let bench = hlsb_benchmarks::find_benchmark(&self.design)
                .ok_or_else(|| format!("no benchmark matches `{}`", self.design))?;
            let clock = bench.clock_mhz;
            let flow = Flow::new(bench.design)
                .device(bench.device)
                .clock_mhz(self.clock_mhz.unwrap_or(clock))
                .options(self.options)
                .seed(self.seed)
                .place_seeds(self.place_seeds)
                .place_effort(self.effort)
                .partitions(self.partitions)
                .inject(self.inject.clone());
            return Ok((flow, self.label(self.clock_mhz.unwrap_or(clock))));
        };
        let clock = self.clock_mhz.unwrap_or(default_clock);
        let flow = Flow::new(design)
            .clock_mhz(clock)
            .options(self.options)
            .seed(self.seed)
            .place_seeds(self.place_seeds)
            .place_effort(self.effort)
            .partitions(self.partitions)
            .inject(self.inject.clone());
        Ok((flow, self.label(clock)))
    }

    /// The job's configuration label: design reference plus every knob,
    /// `design @clock mask xseeds effort pN inject`.
    fn label(&self, clock_mhz: f64) -> String {
        format!(
            "{} @{:?}MHz {} s{} x{} {} p{} {}",
            self.design,
            clock_mhz,
            options_mask(&self.options),
            self.seed,
            self.place_seeds,
            self.effort.label(),
            self.partitions.label(),
            self.inject.label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_json_round_trips() {
        let job = JobSpec {
            id: "j \"1\"".to_string(),
            design: "fuzz:42".to_string(),
            clock_mhz: Some(312.75),
            options: parse_options("bk").unwrap(),
            seed: 7,
            place_seeds: 2,
            effort: PlaceEffort::Normal,
            partitions: Partitioning::Fixed(3),
            inject: RegisterInjection::at(vec![1, 3]),
        };
        let line = "{\"id\":\"j \\\"1\\\"\",\"design\":\"fuzz:42\",\"clock_mhz\":312.75,\
            \"options\":\"bk\",\"seed\":7,\"place_seeds\":2,\"effort\":\"normal\",\
            \"partitions\":\"3\",\"inject\":\"r1.3\"}";
        assert_eq!(job.to_json(), line, "the canonical line never changes");
        assert_eq!(JobSpec::from_json(line), Ok(job));
    }

    #[test]
    fn minimal_job_uses_defaults() {
        let job = JobSpec::from_json("{\"design\":\"genome\"}").expect("parses");
        assert_eq!(
            job,
            JobSpec {
                design: "genome".to_string(),
                ..JobSpec::default()
            }
        );
        assert_eq!(job.clock_mhz, None);
        assert_eq!(job.place_seeds, 1);
    }

    #[test]
    fn bad_jobs_fail_with_named_field() {
        assert!(JobSpec::from_json("not json").unwrap_err().contains("JSON"));
        assert!(JobSpec::from_json("{\"id\":\"x\"}")
            .unwrap_err()
            .contains("design"));
        for (line, field) in [
            ("{\"design\":\"g\",\"clock_mhz\":-3.0}", "clock_mhz"),
            ("{\"design\":\"g\",\"options\":\"xyz\"}", "options"),
            ("{\"design\":\"g\",\"seed\":-1}", "seed"),
            ("{\"design\":\"g\",\"effort\":\"slow\"}", "effort"),
            ("{\"design\":\"g\",\"partitions\":\"many\"}", "partitions"),
            ("{\"design\":\"g\",\"inject\":\"q9\"}", "inject"),
        ] {
            let err = JobSpec::from_json(line).unwrap_err();
            assert!(err.contains(field), "{line} -> {err}");
        }
    }

    #[test]
    fn job_lines_are_strict_and_errors_name_the_key() {
        // Commas inside strings are content, not field separators.
        let job = JobSpec::from_json("{\"id\":\"a,b\",\"design\":\"fuzz:1\"}").unwrap();
        assert_eq!(job.id, "a,b");
        // JSON whitespace is accepted; integer clocks and null stay valid.
        let job =
            JobSpec::from_json(" {\n\"design\" : \"fuzz:1\",\t\"clock_mhz\": 100 } ").unwrap();
        assert_eq!(job.clock_mhz, Some(100.0));
        let job = JobSpec::from_json("{\"design\":\"fuzz:1\",\"clock_mhz\":null}").unwrap();
        assert_eq!(job.clock_mhz, None);
        for (line, key) in [
            ("{\"design\":\"fuzz:1\",\"clok_mhz\":100}", "clok_mhz"),
            ("{\"design\":\"fuzz:1\",\"seed\":3,\"seed\":\"x\"}", "seed"),
            ("{\"design\":\"fuzz:1\",\"seed\":\"3\"}", "seed"),
            ("{\"design\":\"fuzz:1\",\"seed\":1.5}", "seed"),
            ("{\"design\":\"fuzz:1\",\"id\":7}", "id"),
            ("{\"design\":\"fuzz:1\",\"clock_mhz\":\"300\"}", "clock_mhz"),
            ("{\"design\":\"fuzz:1\",\"clock_mhz\":0}", "clock_mhz"),
            (
                "{\"design\":\"fuzz:1\",\"place_seeds\":4294967296}",
                "place_seeds",
            ),
            ("{\"design\":\"fuzz:1\",\"partitions\":3}", "partitions"),
            ("{\"design\":[\"fuzz:1\"]}", "design"),
        ] {
            let err = JobSpec::from_json(line).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{line} -> {err}");
        }
    }

    #[test]
    fn deeply_nested_job_lines_fail_without_crashing() {
        let line = format!("{{\"design\":{}", "[".repeat(200_000));
        let err = JobSpec::from_json(&line).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn masks_round_trip() {
        for mask in ["none", "b", "sk", "bskm"] {
            let o = parse_options(mask).unwrap();
            assert_eq!(options_mask(&o), mask);
        }
        assert_eq!(parse_options("all").unwrap(), OptimizationOptions::all());
        assert_eq!(options_mask(&OptimizationOptions::all()), "bskm");
        assert!(parse_options("bz").is_none());
    }

    #[test]
    fn resolution_covers_benchmarks_fuzz_and_dirty() {
        let bench = JobSpec {
            design: "genome".to_string(),
            ..JobSpec::default()
        };
        let (flow, label) = bench.resolve().expect("genome resolves");
        // Paper clock inherited from the benchmark preset.
        assert!(label.contains("genome @"), "{label}");
        assert_eq!(flow.config_key(), bench.resolve().unwrap().0.config_key());

        let fuzz = JobSpec {
            design: "fuzz:5".to_string(),
            ..JobSpec::default()
        };
        let (flow, label) = fuzz.resolve().expect("fuzz resolves");
        assert!(label.starts_with("fuzz:5 @300.0MHz"), "{label}");
        // Deterministic: same spec, same key.
        assert_eq!(flow.config_key(), fuzz.resolve().unwrap().0.config_key());

        let dirty = JobSpec {
            design: "dirty:0".to_string(),
            ..JobSpec::default()
        };
        dirty.resolve().expect("dirty resolves");

        for bad in ["fuzz:x", "dirty:", "no-such-bench"] {
            let job = JobSpec {
                design: bad.to_string(),
                ..JobSpec::default()
            };
            assert!(job.resolve().is_err(), "{bad} must not resolve");
        }
    }
}
