//! Seeded round-trip fuzz over every JSONL codec in the workspace.
//!
//! Each codec is fed records whose string fields hold arbitrary content
//! (commas, braces, brackets, quotes, backslashes, control characters,
//! non-ASCII and astral-plane unicode) and whose floats are arbitrary
//! finite bit patterns. Writing then reading must reproduce the value
//! exactly, and re-writing must reproduce the bytes.

use hlsb::{OptimizationOptions, Partitioning, PlaceEffort, RegisterInjection};
use hlsb_dse::{DseConfig, Metrics, Record};
use hlsb_explore::{TrialKind, TrialRecord};
use hlsb_rng::Rng;
use hlsb_serve::JobSpec;
use hlsb_store::{JsonlRecord, ResultRecord, StageKind, StageRecord};
use hlsb_telemetry::{Baseline, RateRule, RunRecord, StageRule};
use hlsb_trace::{Attr, DecisionEvent, Histogram, SpanNode, TraceTree, Value};

const CASES: usize = 300;

/// Characters that broke or could break a hand-rolled scanner.
const NASTY: &[char] = &[
    ',', '{', '}', '[', ']', ':', '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{1}', '\u{1f}',
    '\u{7f}', ' ', 'é', '×', '\u{2028}', '😀', 'a', 'Z', '0', '-', '.', 'e', 'u',
];

fn text(rng: &mut Rng) -> String {
    let len = rng.gen_index(12);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.7) {
                NASTY[rng.gen_index(NASTY.len())]
            } else {
                char::from_u32(rng.gen_u64(0x20, 0x3000) as u32).unwrap_or('?')
            }
        })
        .collect()
}

/// Any finite `f64`, drawn from raw bits so every exponent occurs.
fn float(rng: &mut Rng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

fn round_trips<R: JsonlRecord + PartialEq + std::fmt::Debug>(rec: &R) {
    let line = rec.to_json();
    assert!(!line.contains('\n'), "one line per record: {line}");
    let back = R::from_json(&line).unwrap_or_else(|| panic!("does not parse: {line}"));
    assert_eq!(&back, rec, "{line}");
    assert_eq!(back.to_json(), line);
}

#[test]
fn store_records_round_trip_arbitrary_content() {
    let mut rng = Rng::seed_from_u64(0x15_0001);
    for _ in 0..CASES {
        round_trips(&ResultRecord {
            key: rng.next_u64(),
            design: text(&mut rng),
            label: text(&mut rng),
            fmax_mhz: float(&mut rng),
            period_ns: float(&mut rng),
            latency_cycles: rng.next_u64(),
            luts: rng.next_u64(),
            ffs: rng.next_u64(),
            brams: rng.next_u64(),
            dsps: rng.next_u64(),
            inserted_regs: rng.next_u64(),
            duplicated_regs: rng.next_u64(),
            retime_moves: rng.next_u64(),
            wall_ms: float(&mut rng),
        });
        round_trips(&StageRecord {
            stage: if rng.gen_bool(0.5) {
                StageKind::FrontEnd
            } else {
                StageKind::Schedule
            },
            key: rng.next_u64(),
            fingerprint: rng.next_u64(),
            wall_ms: float(&mut rng),
        });
    }
}

#[test]
fn dse_and_explorer_records_round_trip_arbitrary_content() {
    let mut rng = Rng::seed_from_u64(0x15_0002);
    for _ in 0..CASES {
        round_trips(&Record {
            key: rng.next_u64(),
            design: text(&mut rng),
            config: DseConfig {
                options: OptimizationOptions {
                    broadcast_aware: rng.gen_bool(0.5),
                    sync_pruning: rng.gen_bool(0.5),
                    skid_buffer: rng.gen_bool(0.5),
                    min_area_skid: rng.gen_bool(0.5),
                },
                clock_mhz: float(&mut rng),
                place_seeds: rng.next_u64() as u32,
                effort: effort(&mut rng),
                partitions: partitions(&mut rng),
            },
            metrics: Metrics {
                fmax_mhz: float(&mut rng),
                latency_cycles: rng.next_u64(),
                area_cells: rng.next_u64(),
            },
        });
        round_trips(&TrialRecord {
            key: rng.next_u64(),
            design: text(&mut rng),
            label: text(&mut rng),
            clock_mhz: float(&mut rng),
            kind: if rng.gen_bool(0.5) {
                TrialKind::Full
            } else {
                TrialKind::Probe
            },
            met: rng.gen_bool(0.5),
            fmax_mhz: float(&mut rng),
            latency_cycles: rng.next_u64(),
            wall_ms: float(&mut rng),
        });
    }
}

#[test]
fn ledger_records_and_baselines_round_trip_arbitrary_content() {
    let mut rng = Rng::seed_from_u64(0x15_0003);
    for _ in 0..CASES {
        // Stage and counter names are internal identifiers packed into
        // one `name=value;...` string; the free-text fields are fuzzed.
        let mut rec = RunRecord::new(
            &text(&mut rng),
            &text(&mut rng),
            rng.next_u64(),
            &text(&mut rng),
            float(&mut rng),
        );
        rec.add_stage("schedule", float(&mut rng));
        rec.add_count("jobs", rng.next_u64());
        rec.key = rng.next_u64();
        rec.digest = rec.compute_digest();
        round_trips(&rec);

        let baseline = Baseline {
            stages: vec![StageRule {
                tool: text(&mut rng),
                design: text(&mut rng),
                stage: text(&mut rng),
                median_ms: float(&mut rng),
                max_ratio: float(&mut rng),
            }],
            rates: vec![RateRule {
                tool: text(&mut rng),
                design: text(&mut rng),
                hits: text(&mut rng),
                total: text(&mut rng),
                min_rate: float(&mut rng),
            }],
        };
        let rendered = baseline.render();
        let back = Baseline::parse(&rendered).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back, baseline);
        assert_eq!(back.render(), rendered);
    }
}

#[test]
fn job_lines_round_trip_arbitrary_content() {
    let mut rng = Rng::seed_from_u64(0x15_0004);
    for _ in 0..CASES {
        let design = format!("x{}", text(&mut rng));
        let job = JobSpec {
            id: text(&mut rng),
            design,
            clock_mhz: if rng.gen_bool(0.2) {
                None
            } else {
                Some(float(&mut rng).abs().max(f64::MIN_POSITIVE))
            },
            options: OptimizationOptions {
                broadcast_aware: rng.gen_bool(0.5),
                sync_pruning: rng.gen_bool(0.5),
                skid_buffer: rng.gen_bool(0.5),
                min_area_skid: rng.gen_bool(0.5),
            },
            seed: rng.next_u64(),
            place_seeds: rng.next_u64() as u32,
            effort: effort(&mut rng),
            partitions: partitions(&mut rng),
            inject: RegisterInjection::at(
                (0..rng.gen_index(4))
                    .map(|_| rng.next_u64() as u32)
                    .collect(),
            ),
        };
        let line = job.to_json();
        let back = JobSpec::from_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(back, job, "{line}");
        assert_eq!(back.to_json(), line);
    }
}

#[test]
fn trace_trees_round_trip_arbitrary_content() {
    let mut rng = Rng::seed_from_u64(0x15_0005);
    for _ in 0..CASES / 10 {
        let mut tree = TraceTree::default();
        for id in 0..1 + rng.gen_index(5) as u32 {
            let attrs = (0..rng.gen_index(4))
                .map(|_| Attr {
                    key: text(&mut rng),
                    value: value(&mut rng),
                    volatile: rng.gen_bool(0.5),
                })
                .collect();
            let events = (0..rng.gen_index(3))
                .map(|_| DecisionEvent {
                    name: text(&mut rng),
                    ts_us: float(&mut rng),
                    attrs: (0..rng.gen_index(3))
                        .map(|_| (text(&mut rng), value(&mut rng)))
                        .collect(),
                })
                .collect();
            tree.spans.push(SpanNode {
                id,
                parent: (id > 0).then(|| rng.gen_index(id as usize) as u32),
                name: text(&mut rng),
                track: rng.next_u64() as u32,
                start_us: float(&mut rng),
                dur_us: float(&mut rng),
                attrs,
                events,
            });
        }
        for _ in 0..rng.gen_index(3) {
            tree.metrics.counters.insert(text(&mut rng), rng.next_u64());
            tree.metrics.histograms.insert(
                text(&mut rng),
                Histogram {
                    bounds: vec![float(&mut rng), float(&mut rng)],
                    counts: vec![rng.next_u64(), rng.next_u64(), rng.next_u64()],
                    total: 1 + rng.gen_u64(0, 1000),
                    sum: float(&mut rng),
                    min: float(&mut rng),
                    max: float(&mut rng),
                },
            );
        }
        let text = tree.to_jsonl();
        let back = TraceTree::from_jsonl(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(back, tree);
        assert_eq!(back.to_jsonl(), text);
    }
}

fn effort(rng: &mut Rng) -> PlaceEffort {
    if rng.gen_bool(0.5) {
        PlaceEffort::Fast
    } else {
        PlaceEffort::Normal
    }
}

fn partitions(rng: &mut Rng) -> Partitioning {
    match rng.gen_index(3) {
        0 => Partitioning::Off,
        1 => Partitioning::Auto,
        _ => Partitioning::Fixed(rng.next_u64() as u32),
    }
}

fn value(rng: &mut Rng) -> Value {
    match rng.gen_index(4) {
        0 => Value::Str(text(rng)),
        1 => Value::U64(rng.next_u64()),
        2 => Value::F64(float(rng)),
        _ => Value::Bool(rng.gen_bool(0.5)),
    }
}
