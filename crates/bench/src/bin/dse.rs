//! `dse` — Pareto design-space exploration over the broadcast-optimization
//! knobs of the flow (see the `hlsb-dse` crate).
//!
//! ```text
//! dse [--design <name>|all] [--strategy grid|random|halving]
//!     [--clocks <mhz>[,<mhz>...]] [--budget <n>] [--seed <n>]
//!     [--seeds <n>[,<n>...]] [--efforts fast|normal|both]
//!     [--partitions <n>|auto|off[,...]] [--store <path>]
//!     [--format table|jsonl] [--verify-iters <n>]
//!     [--trace-out <path>] [--ledger <path>] [--metrics-out <path>]
//!     [--list]
//! ```
//!
//! For every selected benchmark the explorer searches the paper's 4-bit
//! optimization cube (optionally widened with placement seeds/efforts)
//! over the given clock targets, reports the Pareto frontier over
//! (fmax, latency cycles, register+LUT area), and differentially
//! simulates every frontier configuration against the untimed golden
//! evaluator. `--budget` caps *full-flow* (place-and-route) evaluations;
//! with `halving`, cheap front-end/schedule/lint probes rank the whole
//! space first and only the survivors are placed. `--store` persists
//! results as JSONL keyed by the flow's config key — re-running with the
//! same store resumes an interrupted sweep without re-placing anything.
//! `--trace-out` enables span tracing on every fresh full evaluation and
//! writes the collected trees as Chrome trace-event JSON (one process
//! per evaluated configuration; load in Perfetto). `--ledger` appends one
//! run-ledger record per flow evaluation plus one `dse` campaign record
//! per benchmark; `--metrics-out` writes the merged per-evaluation
//! metrics in the Prometheus text format.
//!
//! Exit status is 2 on usage errors, 1 if any frontier configuration
//! fails its differential-simulation check, 0 otherwise.

use hlsb::{FlowSession, Partitioning, PlaceEffort};
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_dse::{report, Explorer, KnobSpace, ResultStore, Strategy, DEFAULT_VERIFY_ITERS};
use hlsb_telemetry::{render_prometheus, RunLedger, RunRecord};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    design: String,
    strategy: Strategy,
    clocks_mhz: Option<Vec<f64>>,
    budget: usize,
    seed: u64,
    place_seeds: Vec<u32>,
    efforts: Vec<PlaceEffort>,
    partitions: Vec<Partitioning>,
    store: Option<String>,
    artifacts: Option<String>,
    format: Format,
    verify_iters: u64,
    trace_out: Option<String>,
    ledger: Option<String>,
    metrics_out: Option<String>,
    list: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Table,
    Jsonl,
}

fn usage() {
    eprintln!(
        "usage: dse [--design <name>|all] [--strategy grid|random|halving]\n\
         \x20          [--clocks <mhz>[,<mhz>...]] [--budget <n>] [--seed <n>]\n\
         \x20          [--seeds <n>[,<n>...]] [--efforts fast|normal|both]\n\
         \x20          [--partitions <n>|auto|off[,...]] [--store <path>]\n\
         \x20          [--artifacts <dir>]\n\
         \x20          [--format table|jsonl]\n\
         \x20          [--verify-iters <n>] [--trace-out <path>]\n\
         \x20          [--ledger <path>] [--metrics-out <path>] [--list]"
    );
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .map(|tok| {
            tok.trim()
                .parse()
                .map_err(|_| format!("bad {what} `{tok}`"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        design: "all".into(),
        strategy: Strategy::Grid,
        clocks_mhz: None,
        budget: usize::MAX,
        seed: hlsb_bench::SEED,
        place_seeds: vec![1],
        efforts: vec![PlaceEffort::Fast],
        partitions: vec![Partitioning::Off],
        store: None,
        artifacts: None,
        format: Format::Table,
        verify_iters: DEFAULT_VERIFY_ITERS,
        trace_out: None,
        ledger: None,
        metrics_out: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--design" => args.design = it.next().ok_or("--design needs a value")?,
            "--strategy" => {
                let s = it.next().ok_or("--strategy needs a value")?;
                args.strategy = Strategy::from_name(&s).ok_or(format!("unknown strategy `{s}`"))?;
            }
            "--clocks" => {
                let c = it.next().ok_or("--clocks needs a value")?;
                let clocks: Vec<f64> = parse_list(&c, "clock")?;
                if clocks.iter().any(|m| !(m.is_finite() && *m > 0.0)) {
                    return Err(format!("bad clocks `{c}`"));
                }
                args.clocks_mhz = Some(clocks);
            }
            "--budget" => {
                let b = it.next().ok_or("--budget needs a value")?;
                args.budget = b.parse().map_err(|_| format!("bad budget `{b}`"))?;
                if args.budget == 0 {
                    return Err("budget must be at least 1".into());
                }
            }
            "--seed" => {
                let s = it.next().ok_or("--seed needs a value")?;
                args.seed = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
            }
            "--seeds" => {
                let s = it.next().ok_or("--seeds needs a value")?;
                args.place_seeds = parse_list(&s, "seed count")?;
                if args.place_seeds.is_empty() || args.place_seeds.contains(&0) {
                    return Err(format!("bad seed counts `{s}`"));
                }
            }
            "--efforts" => {
                args.efforts = match it.next().ok_or("--efforts needs a value")?.as_str() {
                    "both" => vec![PlaceEffort::Fast, PlaceEffort::Normal],
                    e => vec![PlaceEffort::from_label(e)
                        .ok_or_else(|| format!("unknown efforts `{e}`"))?],
                };
            }
            "--partitions" => {
                let p = it.next().ok_or("--partitions needs <n>|auto|off[,...]")?;
                args.partitions = p
                    .split(',')
                    .map(|tok| {
                        Partitioning::from_label(tok.trim())
                            .ok_or(format!("bad partitions value `{tok}` (want <n>|auto|off)"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.partitions.is_empty() {
                    return Err(format!("bad partitions `{p}`"));
                }
            }
            "--store" => args.store = Some(it.next().ok_or("--store needs a value")?),
            "--artifacts" => args.artifacts = Some(it.next().ok_or("--artifacts needs a value")?),
            "--format" => {
                args.format = match it.next().ok_or("--format needs a value")?.as_str() {
                    "table" => Format::Table,
                    "jsonl" => Format::Jsonl,
                    f => return Err(format!("unknown format `{f}`")),
                };
            }
            "--verify-iters" => {
                let v = it.next().ok_or("--verify-iters needs a value")?;
                args.verify_iters = v.parse().map_err(|_| format!("bad verify-iters `{v}`"))?;
            }
            "--trace-out" => args.trace_out = Some(it.next().ok_or("--trace-out needs a path")?),
            "--ledger" => args.ledger = Some(it.next().ok_or("--ledger needs a path")?),
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?);
            }
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            f => return Err(format!("unknown flag `{f}`")),
        }
    }
    Ok(args)
}

fn explore(
    bench: &Benchmark,
    args: &Args,
    session: &FlowSession,
    ledger: Option<&RunLedger>,
) -> std::io::Result<(bool, Vec<(String, hlsb::TraceTree)>)> {
    let clocks = args
        .clocks_mhz
        .clone()
        .unwrap_or_else(|| vec![bench.clock_mhz]);
    let space = KnobSpace {
        place_seeds: args.place_seeds.clone(),
        efforts: args.efforts.clone(),
        partitions: args.partitions.clone(),
        ..KnobSpace::optimization_cube(clocks)
    };
    let store = match &args.store {
        // One store file can serve several benchmarks: the config key
        // covers the design, so entries never collide.
        Some(path) => ResultStore::open(path)?,
        None => ResultStore::in_memory(),
    };
    let campaign_start = Instant::now();
    let mut report = Explorer::new(&bench.design, &bench.device)
        .space(space)
        .strategy(args.strategy)
        .budget(args.budget)
        .seed(args.seed)
        .store(store)
        .verify_iters(args.verify_iters)
        .trace(args.trace_out.is_some() || args.metrics_out.is_some())
        .run(session)?;

    if let Some(ledger) = ledger {
        let status = if report.frontier_semantics_ok() {
            "ok"
        } else {
            "failed"
        };
        let wall_ms = campaign_start.elapsed().as_secs_f64() * 1e3;
        let mut rec = RunRecord::new("dse", &bench.design.name, 0, status, wall_ms);
        for pass in &report.trace.records {
            rec.add_stage(&pass.pass, pass.wall_ms);
        }
        rec.add_count("full-evals", report.full_evals as u64);
        rec.add_count("probe-evals", report.probe_evals as u64);
        rec.add_count("store-hits", report.store_hits as u64);
        rec.add_count("infeasible", report.infeasible as u64);
        rec.add_count("budget-dropped", report.budget_dropped as u64);
        rec.add_count("points", report.points.len() as u64);
        rec.add_count("frontier", report.frontier.len() as u64);
        ledger.append(rec)?;
    }

    match args.format {
        Format::Table => {
            println!("== {} ({}) ==", bench.name, bench.device.name);
            print!("{}", report::frontier_table(&report));
            println!("{}", report::summary_line(&report));
            println!();
        }
        Format::Jsonl => print!("{}", report::frontier_jsonl(&report, &bench.design.name)),
    }
    let trees = std::mem::take(&mut report.span_trees)
        .into_iter()
        .map(|(label, tree)| (format!("{} {label}", bench.design.name), tree))
        .collect();
    Ok((report.frontier_semantics_ok(), trees))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("dse: {e}");
            }
            usage();
            return ExitCode::from(2);
        }
    };

    let benches = all_benchmarks();
    if args.list {
        for b in &benches {
            println!(
                "{:<16} {:>6.0} MHz  {}",
                b.design.name, b.clock_mhz, b.device.name
            );
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&Benchmark> = if args.design == "all" {
        benches.iter().collect()
    } else {
        benches
            .iter()
            .filter(|b| b.design.name == args.design)
            .collect()
    };
    if selected.is_empty() {
        eprintln!(
            "dse: no benchmark named `{}` (try --list; one of: {})",
            args.design,
            benches
                .iter()
                .map(|b| b.design.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    }

    let mut session = match &args.artifacts {
        // The persistent artifact store classifies cross-process warm
        // rebuilds: summary_line's `d` counts come from here.
        Some(dir) => match hlsb_store::ArtifactStore::open(dir) {
            Ok(store) => FlowSession::new().with_backend(Arc::new(store)),
            Err(e) => {
                eprintln!("dse: cannot open artifact store {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        None => FlowSession::new(),
    };
    let ledger = match &args.ledger {
        Some(path) => match RunLedger::open(path) {
            Ok(ledger) => {
                let ledger = Arc::new(ledger);
                session = session.with_ledger(ledger.clone());
                Some(ledger)
            }
            Err(e) => {
                eprintln!("dse: cannot open ledger {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let mut semantics_ok = true;
    let mut traces: Vec<(String, hlsb::TraceTree)> = Vec::new();
    for bench in selected {
        match explore(bench, &args, &session, ledger.as_deref()) {
            Ok((ok, trees)) => {
                semantics_ok &= ok;
                traces.extend(trees);
            }
            Err(e) => {
                eprintln!("dse: store I/O failed for {}: {e}", bench.name);
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        let mut metrics = hlsb::MetricsRegistry::default();
        for (_, tree) in &traces {
            metrics.merge(&tree.metrics);
        }
        if let Err(e) = std::fs::write(path, render_prometheus(&metrics, &[("tool", "dse")])) {
            eprintln!("dse: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace_out {
        let runs: Vec<(&str, &hlsb::TraceTree)> = traces
            .iter()
            .map(|(label, t)| (label.as_str(), t))
            .collect();
        if let Err(e) = std::fs::write(path, hlsb::chrome_trace(&runs)) {
            eprintln!("dse: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote Chrome trace for {} evaluations to {path}",
            runs.len()
        );
    }
    if !semantics_ok {
        eprintln!("dse: a frontier configuration FAILED its differential simulation");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
