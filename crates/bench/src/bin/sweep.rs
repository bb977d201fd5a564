//! Clock-target sweep: how the HLS clock target interacts with the
//! achieved frequency (the schedule gets deeper as the target rises, but
//! the physical fabric has the last word).
//!
//! ```text
//! sweep <benchmark-name-substring> [none|data|skid|all]
//!       [--partitions <n>|auto|off] [--trace-out <path>]
//! ```
//!
//! The targets run through one [`hlsb::FlowSession`]: the front-end
//! artifact is clock-independent, so all seven flows unroll once and the
//! sweep parallelizes across clock targets up to the thread budget.
//! `--trace-out` records a span trace per target and writes the batch as
//! Chrome trace-event JSON (one process per clock target; load in
//! Perfetto or `chrome://tracing`).

use hlsb::{chrome_trace, Flow, FlowSession, OptimizationOptions, Partitioning};
use hlsb_bench::{expect_all, find_benchmark, pass_summary, SEED};

const TARGETS: [f64; 7] = [150.0, 200.0, 250.0, 300.0, 333.0, 400.0, 500.0];

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut partitions = Partitioning::Off;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("sweep: --trace-out needs a path");
                    std::process::exit(2);
                }));
            }
            "--partitions" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("sweep: --partitions needs <n>|auto|off");
                    std::process::exit(2);
                });
                partitions = Partitioning::from_label(&v).unwrap_or_else(|| {
                    eprintln!("sweep: bad --partitions value `{v}` (want <n>|auto|off)");
                    std::process::exit(2);
                });
            }
            _ => positional.push(arg),
        }
    }
    let name = positional.first().map(String::as_str).unwrap_or("genome");
    let level = positional.get(1).map(String::as_str).unwrap_or("all");
    let options = match level {
        "all" => OptimizationOptions::all(),
        "data" => OptimizationOptions::data_only(),
        "skid" => OptimizationOptions::skid_plain(),
        _ => OptimizationOptions::none(),
    };
    let bench = find_benchmark(name).unwrap_or_else(|| panic!("no benchmark matching '{name}'"));

    println!("clock-target sweep: {} ({level})", bench.name);
    println!(
        "{:>13} {:>15} {:>7} {:>6}",
        "target (MHz)", "achieved (MHz)", "depth", "regs"
    );
    let flows: Vec<Flow> = TARGETS
        .iter()
        .map(|&target| {
            Flow::new(bench.design.clone())
                .device(bench.device.clone())
                .clock_mhz(target)
                .options(options)
                .seed(SEED)
                .partitions(partitions)
                .trace(trace_out.is_some())
        })
        .collect();
    let labels: Vec<String> = TARGETS
        .iter()
        .map(|t| format!("{} @ {t:.0} MHz", bench.name))
        .collect();
    let session = FlowSession::new();
    let results = expect_all(&labels, session.run_many(&flows));

    for (target, r) in TARGETS.iter().zip(&results) {
        println!(
            "{target:>13.0} {:>15.0} {:>7} {:>6}",
            r.fmax_mhz,
            r.schedule_depths.iter().max().copied().unwrap_or(0),
            r.inserted_regs
        );
    }
    println!();
    println!("{}", pass_summary(&results, &session));

    if let Some(path) = trace_out {
        let runs: Vec<(&str, &hlsb::TraceTree)> = labels
            .iter()
            .zip(&results)
            .filter_map(|(label, r)| r.span_tree.as_ref().map(|t| (label.as_str(), t)))
            .collect();
        std::fs::write(&path, chrome_trace(&runs)).unwrap_or_else(|e| {
            eprintln!("sweep: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote Chrome trace for {} runs to {path}", runs.len());
    }
}
