//! Smoke test of the benchmark: tiny runs print every metric with its
//! unit, `BENCHMARK.json` names the same metrics, and the output checks
//! can fail.

use std::process::Command;

use hlsb_perfbench::farm::{check_identical, check_served, stream, Verdict};
use hlsb_perfbench::layers::check_anneal_schedule;
use hlsb_perfbench::metrics::{Tally, END_TO_END, PER_LAYER};
use hlsb_serve::{JobOutcome, JobServer, ServeConfig};

const WORKLOADS: [&str; 3] = ["paper-cold", "farm-mixed", "explore-campaign"];

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hlsb-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, schema) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = bench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} --trace {trace}: {stdout}"
            );
            assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
            for (name, unit) in schema {
                let field = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&field)
                    .unwrap_or_else(|| panic!("{name} missing: {last}"));
                let rest = &last[at + field.len()..];
                let value: f64 = rest[..rest.find(',').expect("value ends")]
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} has no number: {last}"));
                assert!(value.is_finite(), "{name}");
                assert!(
                    rest.starts_with(&format!("{value:?}, \"unit\": \"{unit}\"}}")),
                    "{name} lacks unit {unit}: {last}"
                );
            }
            // Read back by this test alone, right after the run that
            // wrote it, so no other test can be rewriting the file.
            if trace == "1" {
                assert_span_file_folds(workload);
            }
        }
    }
}

/// The traced run's span file loads and folds into a self-time profile.
fn assert_span_file_folds(workload: &str) {
    let path = format!("{}/out/trace-{workload}.jsonl", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("span file written");
    let tree = hlsb_trace::TraceTree::from_jsonl(&text).expect("span file parses");
    let rows = hlsb_telemetry::self_time(&[&tree]);
    for path in ["perfbench/layers/core.probe", "perfbench/pass"] {
        assert!(
            rows.iter().any(|r| r.path == path),
            "{workload}: {path} in profile"
        );
    }
}

#[test]
fn the_place_probes_anneal_as_the_implement_stage_does() {
    for effort in [hlsb::PlaceEffort::Fast, hlsb::PlaceEffort::Normal] {
        if let Err(e) = check_anneal_schedule(effort) {
            panic!("{e}");
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}

/// Serves a small seeded stream without a store.
fn served(
    seed: u64,
    n: usize,
) -> (
    Vec<hlsb_perfbench::farm::FarmJob>,
    Vec<JobOutcome>,
    hlsb_serve::ServeSummary,
) {
    let jobs = stream(seed, n);
    let mut server = JobServer::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut outcomes = Vec::new();
    let summary = server.process(jobs.iter().map(|j| j.line.clone()), |o| {
        outcomes.push(o.clone())
    });
    (jobs, outcomes, summary)
}

#[test]
fn a_planted_wrong_verdict_raises_fail_ratio() {
    let (mut jobs, outcomes, summary) = served(5, 60);
    let mut clean = Tally::default();
    check_served(&jobs, &outcomes, &summary, &mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.notes);

    let dirty = jobs
        .iter()
        .position(|j| matches!(j.expect, Verdict::Rejected(_)))
        .expect("the stream has a rejected job");
    jobs[dirty].expect = Verdict::Done;
    let mut planted = Tally::default();
    check_served(&jobs, &outcomes, &summary, &mut planted);
    assert_eq!(planted.failed, 1);
    assert!(planted.fail_ratio() > clean.fail_ratio());
}

#[test]
fn a_tampered_outcome_line_raises_fail_ratio() {
    let (_, outcomes, _) = served(6, 30);
    let cold: Vec<String> = outcomes.iter().map(JobOutcome::to_json).collect();
    let mut clean = Tally::default();
    check_identical(&cold, &cold.clone(), &mut clean);
    assert_eq!(clean.failed, 0);

    let mut warm = cold.clone();
    warm[7] = warm[7].replacen("\"status\":\"", "\"status\":\"x", 1);
    let mut tampered = Tally::default();
    check_identical(&cold, &warm, &mut tampered);
    assert_eq!(tampered.failed, 1);
    assert!(tampered.fail_ratio() > clean.fail_ratio());
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "farm-mixed",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "farm-mixed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = bench(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
