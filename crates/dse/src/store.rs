//! Persistent JSONL result store with dedup-by-config-key.
//!
//! Every full-flow evaluation appends one self-contained JSON line:
//! the [`Flow::config_key`](hlsb::Flow::config_key) (which covers the
//! design, device and every knob), the human-readable configuration, and
//! the measured objectives. Reopening the store resumes an interrupted
//! search: configurations whose key is already present are served from
//! the store instead of re-running place-and-route, so a killed sweep
//! continues where it stopped and converges to the same frontier as an
//! uninterrupted run.
//!
//! The durability machinery (append+flush per record, partial-line
//! tolerance, later-duplicate-wins, heal-before-append) lives in
//! [`hlsb_store::JsonlTable`]; this module only owns the [`Record`]
//! format — hand-rolled JSON whose floats use Rust's shortest
//! round-trip notation, so a record read back (through
//! [`hlsb_findings::Object`]) is bit-identical to the one written. Files
//! written before the extraction parse unchanged.

use std::path::Path;

use hlsb::{OptimizationOptions, Partitioning, PlaceEffort};
use hlsb_findings::{json_escape, Object};
use hlsb_store::{JsonlRecord, JsonlTable};

use crate::objective::Metrics;
use crate::space::DseConfig;

/// One persisted evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// [`Flow::config_key`](hlsb::Flow::config_key) of the evaluated
    /// flow.
    pub key: u64,
    /// Design name (informational; the key is authoritative).
    pub design: String,
    /// The configuration.
    pub config: DseConfig,
    /// The measured objectives.
    pub metrics: Metrics,
}

impl Record {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        JsonlRecord::to_json(self)
    }

    /// Parses one JSON line written by [`to_json`](Record::to_json).
    /// Returns `None` for malformed input (e.g. a half-written trailing
    /// line after a kill).
    pub fn from_json(line: &str) -> Option<Record> {
        <Record as JsonlRecord>::from_json(line)
    }
}

impl JsonlRecord for Record {
    fn key(&self) -> u64 {
        self.key
    }

    fn to_json(&self) -> String {
        let o = &self.config.options;
        format!(
            "{{\"key\":{},\"design\":\"{}\",\"label\":\"{}\",\
             \"broadcast_aware\":{},\"sync_pruning\":{},\"skid_buffer\":{},\"min_area_skid\":{},\
             \"clock_mhz\":{:?},\"place_seeds\":{},\"effort\":\"{}\",\"partitions\":\"{}\",\
             \"fmax_mhz\":{:?},\"latency_cycles\":{},\"area_cells\":{}}}",
            self.key,
            json_escape(&self.design),
            json_escape(&self.config.label()),
            o.broadcast_aware,
            o.sync_pruning,
            o.skid_buffer,
            o.min_area_skid,
            self.config.clock_mhz,
            self.config.place_seeds,
            self.config.effort.label(),
            self.config.partitions.label(),
            self.metrics.fmax_mhz,
            self.metrics.latency_cycles,
            self.metrics.area_cells,
        )
    }

    fn from_json(line: &str) -> Option<Record> {
        let o = Object::parse(line).ok()?;
        // Records written before island partitioning carry no
        // `partitions` field; they were all flat.
        let partitions = match o.opt_str("partitions").ok()? {
            None => Partitioning::Off,
            Some(label) => Partitioning::from_label(label)?,
        };
        Some(Record {
            key: o.u64("key").ok()?,
            design: o.str("design").ok()?.to_string(),
            config: DseConfig {
                options: OptimizationOptions {
                    broadcast_aware: o.bool("broadcast_aware").ok()?,
                    sync_pruning: o.bool("sync_pruning").ok()?,
                    skid_buffer: o.bool("skid_buffer").ok()?,
                    min_area_skid: o.bool("min_area_skid").ok()?,
                },
                clock_mhz: o.f64("clock_mhz").ok()?,
                place_seeds: u32::try_from(o.u64("place_seeds").ok()?).ok()?,
                effort: PlaceEffort::from_label(o.str("effort").ok()?)?,
                partitions,
            },
            metrics: Metrics {
                fmax_mhz: o.f64("fmax_mhz").ok()?,
                latency_cycles: o.u64("latency_cycles").ok()?,
                area_cells: o.u64("area_cells").ok()?,
            },
        })
    }
}

/// Keyed store of evaluation records, optionally backed by a JSONL file
/// — a thin wrapper over [`hlsb_store::JsonlTable`].
#[derive(Debug, Default)]
pub struct ResultStore {
    table: JsonlTable<Record>,
}

impl ResultStore {
    /// An unbacked store: dedup within one process, nothing persisted.
    pub fn in_memory() -> Self {
        ResultStore::default()
    }

    /// Opens (or creates) a file-backed store and loads every parseable
    /// record. Later duplicates of a key win, matching append semantics.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(ResultStore {
            table: JsonlTable::open(path)?,
        })
    }

    /// The backing path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.table.path()
    }

    /// Number of distinct configurations stored.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The record for a configuration key, if present.
    pub fn get(&self, key: u64) -> Option<&Record> {
        self.table.get(key)
    }

    /// All records in insertion order.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.table.records()
    }

    /// Inserts a record, appending it to the backing file (see
    /// [`JsonlTable::insert`] for the append/flush/heal semantics). A
    /// record whose key is already present replaces the in-memory entry
    /// but is still appended — the file is a log; loads keep the latest.
    ///
    /// # Errors
    ///
    /// I/O errors appending to the backing file.
    pub fn insert(&mut self, rec: Record) -> std::io::Result<()> {
        self.table.insert(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn record(key: u64, fmax: f64) -> Record {
        Record {
            key,
            design: "bench \"x\"".into(),
            config: DseConfig {
                options: OptimizationOptions::all(),
                clock_mhz: 333.25,
                place_seeds: 2,
                effort: PlaceEffort::Fast,
                partitions: Partitioning::Fixed(3),
            },
            metrics: Metrics {
                fmax_mhz: fmax,
                latency_cycles: 1047,
                area_cells: 23456,
            },
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let rec = record(0xDEAD_BEEF_0BAD_F00D, 341.229_999_999_7);
        let line = rec.to_json();
        let back = Record::from_json(&line).expect("parses");
        assert_eq!(back, rec, "round trip must be bit-exact:\n{line}");
        assert!(Record::from_json("{\"key\":1").is_none(), "truncated line");
        assert!(Record::from_json("").is_none());
    }

    #[test]
    fn golden_line_parses_and_re_renders_identically() {
        let line = "{\"key\":7,\"design\":\"d, {x}\",\"label\":\"BSKM @333 ×2 fast p3\",\
             \"broadcast_aware\":true,\"sync_pruning\":true,\"skid_buffer\":true,\
             \"min_area_skid\":true,\"clock_mhz\":333.25,\"place_seeds\":2,\"effort\":\"fast\",\
             \"partitions\":\"3\",\"fmax_mhz\":341.5,\"latency_cycles\":1047,\"area_cells\":23456}";
        let rec = Record::from_json(line).expect("parses");
        assert_eq!(rec.design, "d, {x}");
        assert_eq!(rec.config.partitions, Partitioning::Fixed(3));
        assert_eq!(rec.to_json(), line);
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            assert!(Record::from_json(&line[..cut]).is_none(), "cut at {cut}");
        }
        let bad = line.replace("\"effort\":\"fast\"", "\"effort\":\"slow\"");
        assert!(Record::from_json(&bad).is_none());
    }

    #[test]
    fn pre_partitioning_records_parse_as_flat() {
        // A line written before the `partitions` field existed.
        let line = "{\"key\":7,\"design\":\"d\",\"label\":\"l\",\
             \"broadcast_aware\":true,\"sync_pruning\":false,\"skid_buffer\":true,\
             \"min_area_skid\":false,\"clock_mhz\":300.0,\"place_seeds\":1,\
             \"effort\":\"fast\",\"fmax_mhz\":312.5,\"latency_cycles\":10,\"area_cells\":20}";
        let rec = Record::from_json(line).expect("old records still parse");
        assert_eq!(rec.config.partitions, Partitioning::Off);
    }

    #[test]
    fn file_store_resumes_and_dedups() {
        let dir = std::env::temp_dir().join("hlsb_dse_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("store_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut store = ResultStore::open(&path).unwrap();
        assert!(store.is_empty());
        store.insert(record(1, 300.0)).unwrap();
        store.insert(record(2, 250.0)).unwrap();
        // Later write for the same key wins.
        store.insert(record(1, 310.0)).unwrap();
        assert_eq!(store.len(), 2);
        drop(store);

        // Simulate a kill mid-append: a trailing half-written line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":3,\"design\"").unwrap();
        }

        let resumed = ResultStore::open(&path).unwrap();
        assert_eq!(resumed.len(), 2, "partial line skipped");
        assert_eq!(resumed.get(1).unwrap().metrics.fmax_mhz, 310.0);
        assert_eq!(resumed.get(2).unwrap().metrics.fmax_mhz, 250.0);
        let keys: Vec<u64> = resumed.records().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_store_never_touches_disk() {
        let mut store = ResultStore::in_memory();
        store.insert(record(9, 200.0)).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.path().is_none());
    }
}
