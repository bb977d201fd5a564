//! `profile` — self-time profile of the flow's span tree.
//!
//! ```text
//! profile [<benchmark>|all] [none|data|skid|all]
//!         [--partitions <n>|auto|off] [--trace-in <path>]
//!         [--collapsed-out <path>]
//! ```
//!
//! Runs the selected benchmark(s) with span tracing enabled and folds
//! the resulting trees into a per-stage profile: for every span path,
//! the call count, total (inclusive) time, and self time — total minus
//! the time spent in child spans — sorted by self time so the rows
//! answer "where does the wall clock actually go?" rather than "which
//! stage contains the others?". `--trace-in` profiles an existing JSONL
//! span tree (as written by `trace --jsonl-out` or
//! `hlsb-serve --trace-out`) instead of running anything.
//! `--collapsed-out` writes the same aggregation in collapsed-stack
//! format (`path;sub value`, one line per stack, values in integer
//! microseconds of self time) — feed it to any flamegraph renderer.
//!
//! Exit status is 2 on usage errors, 0 otherwise.

use hlsb::{FlowSession, OptimizationOptions, Partitioning, TraceTree};
use hlsb_bench::{benchmark_flow, expect_all, find_benchmark};
use hlsb_benchmarks::all_benchmarks;
use hlsb_telemetry::{collapsed_stacks, render_table, self_time};
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: profile [<benchmark>|all] [none|data|skid|all]\n\
         \x20              [--partitions <n>|auto|off] [--trace-in <path>]\n\
         \x20              [--collapsed-out <path>]"
    );
}

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_in: Option<String> = None;
    let mut collapsed_out: Option<String> = None;
    let mut partitions = Partitioning::Off;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--partitions" => match it.next().as_deref().and_then(Partitioning::from_label) {
                Some(p) => partitions = p,
                None => {
                    eprintln!("profile: --partitions needs <n>|auto|off");
                    return ExitCode::from(2);
                }
            },
            "--trace-in" => match it.next() {
                Some(p) => trace_in = Some(p),
                None => {
                    eprintln!("profile: --trace-in needs a path");
                    return ExitCode::from(2);
                }
            },
            "--collapsed-out" => match it.next() {
                Some(p) => collapsed_out = Some(p),
                None => {
                    eprintln!("profile: --collapsed-out needs a path");
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
    if positional.len() > 2 || (trace_in.is_some() && !positional.is_empty()) {
        usage();
        return ExitCode::from(2);
    }

    let owned_trees: Vec<TraceTree> = match &trace_in {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("profile: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match TraceTree::from_jsonl(&text) {
                Ok(tree) => vec![tree],
                Err(e) => {
                    eprintln!("profile: cannot parse {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => {
            let name = positional.first().map(String::as_str).unwrap_or("genome");
            let level = positional.get(1).map(String::as_str).unwrap_or("all");
            let options = match level {
                "all" => OptimizationOptions::all(),
                "data" => OptimizationOptions::data_only(),
                "skid" => OptimizationOptions::skid_plain(),
                "none" => OptimizationOptions::none(),
                other => {
                    eprintln!("profile: unknown optimization level `{other}`");
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
                        eprintln!("profile: no benchmark matching `{name}`");
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
            results
                .into_iter()
                .map(|r| {
                    r.trace_tree()
                        .expect("flow ran with tracing enabled")
                        .clone()
                })
                .collect()
        }
    };

    let trees: Vec<&TraceTree> = owned_trees.iter().collect();
    print!("{}", render_table(&self_time(&trees)));

    if let Some(path) = &collapsed_out {
        if let Err(e) = std::fs::write(path, collapsed_stacks(&trees)) {
            eprintln!("profile: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote collapsed stacks to {path}");
    }
    ExitCode::SUCCESS
}
