//! `trace` — run the flow with span tracing enabled and export the
//! decision provenance.
//!
//! ```text
//! trace [<benchmark>|all] [none|data|skid|all]
//!       [--partitions <n>|auto|off] [--trace-out <path>] [--jsonl-out <path>]
//! ```
//!
//! Runs the selected benchmark(s) at the given optimization level with
//! hierarchical span tracing on, prints each run's span tree (stage
//! timings plus every decision event: chain splits, pruned done-signals,
//! skid insertions, capacity choices) and the metrics registry merged
//! over all runs. `--trace-out` writes the batch as Chrome trace-event
//! JSON — load it in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; each run is a separate process, placement trials
//! ride on their own tracks. `--jsonl-out` writes the lossless JSONL
//! encoding ([`hlsb::TraceTree::from_jsonl`] round-trips it); with
//! several runs, each tree goes to `<stem>.<idx>.<ext>`.

use hlsb::{
    chrome_trace, FlowSession, MetricsRegistry, OptimizationOptions, Partitioning, TraceTree,
};
use hlsb_bench::{benchmark_flow, expect_all, find_benchmark};
use hlsb_benchmarks::all_benchmarks;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: trace [<benchmark>|all] [none|data|skid|all]\n\
         \x20            [--partitions <n>|auto|off]\n\
         \x20            [--trace-out <path>] [--jsonl-out <path>]"
    );
}

/// Per-run output path: the base path as-is for a single run, otherwise
/// the run index is spliced in before the extension.
fn indexed_path(base: &str, idx: usize, runs: usize) -> String {
    if runs == 1 {
        return base.to_string();
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{idx}.{ext}"),
        None => format!("{base}.{idx}"),
    }
}

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut jsonl_out: Option<String> = None;
    let mut partitions = Partitioning::Off;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--partitions" => match it.next().as_deref().and_then(Partitioning::from_label) {
                Some(p) => partitions = p,
                None => {
                    eprintln!("trace: --partitions needs <n>|auto|off");
                    return ExitCode::from(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p),
                None => {
                    eprintln!("trace: --trace-out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--jsonl-out" => match it.next() {
                Some(p) => jsonl_out = Some(p),
                None => {
                    eprintln!("trace: --jsonl-out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => positional.push(arg),
        }
    }
    if positional.len() > 2 {
        usage();
        return ExitCode::from(2);
    }
    let name = positional.first().map(String::as_str).unwrap_or("genome");
    let level = positional.get(1).map(String::as_str).unwrap_or("all");
    let options = match level {
        "all" => OptimizationOptions::all(),
        "data" => OptimizationOptions::data_only(),
        "skid" => OptimizationOptions::skid_plain(),
        "none" => OptimizationOptions::none(),
        other => {
            eprintln!("trace: unknown optimization level `{other}`");
            usage();
            return ExitCode::from(2);
        }
    };

    let benches = if name == "all" {
        all_benchmarks()
    } else {
        match find_benchmark(name) {
            Some(b) => vec![b],
            None => {
                eprintln!("trace: no benchmark matching `{name}`");
                return ExitCode::from(2);
            }
        }
    };

    let flows: Vec<_> = benches
        .iter()
        .map(|b| {
            benchmark_flow(b, options)
                .partitions(partitions)
                .trace(true)
        })
        .collect();
    let labels: Vec<String> = benches
        .iter()
        .map(|b| format!("{} ({level})", b.name))
        .collect();
    let session = FlowSession::new();
    let results = expect_all(&labels, session.run_many(&flows));

    let mut metrics = MetricsRegistry::default();
    let trees: Vec<(&str, &TraceTree)> = labels
        .iter()
        .zip(&results)
        .map(|(label, r)| {
            let tree = r.trace_tree().expect("flow ran with tracing enabled");
            (label.as_str(), tree)
        })
        .collect();
    for (label, tree) in &trees {
        println!("== {label} ==");
        print!("{}", tree.render());
        metrics.merge(&tree.metrics);
        println!();
    }
    if !metrics.is_empty() {
        println!("metrics over {} run(s):", trees.len());
        print!("{}", metrics.render());
    }

    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, chrome_trace(&trees)) {
            eprintln!("trace: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote Chrome trace for {} runs to {path}", trees.len());
    }
    if let Some(base) = &jsonl_out {
        for (idx, (_, tree)) in trees.iter().enumerate() {
            let path = indexed_path(base, idx, trees.len());
            if let Err(e) = std::fs::write(&path, tree.to_jsonl()) {
                eprintln!("trace: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote JSONL trace to {path}");
        }
    }
    ExitCode::SUCCESS
}
