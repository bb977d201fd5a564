//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! hlsb-perfbench --workload paper-cold|farm-mixed|explore-campaign
//!                --seed <n> --seconds <n> --trace 0|1
//!                [--threads <n>] [--smoke]
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric, or with
//! `--trace 1` every per-layer metric, each with its unit). Exit status
//! is 2 on usage errors, 1 on I/O errors, 0 otherwise.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hlsb_perfbench::campaign::Campaign;
use hlsb_perfbench::farm::FarmMixed;
use hlsb_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use hlsb_perfbench::paper::PaperCold;
use hlsb_perfbench::workload::{measure, measure_traced, RunReport, Settings, Workload};

const USAGE: &str = "usage: hlsb-perfbench --workload paper-cold|farm-mixed|explore-campaign \
                     --seed <n> --seconds <n> --trace 0|1 [--threads <n>] [--smoke]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        threads: 2,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}`")),
                }
            }
            "--threads" => args.threads = number(value()?)?.max(1) as usize,
            "--smoke" => args.smoke = true,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn run<W: Workload>(args: &Args, settings: &Settings) -> std::io::Result<RunReport> {
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", args.workload));
        measure_traced::<W>(settings, budget, &out)
    } else {
        measure::<W>(settings, budget)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hlsb-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let settings = Settings {
        seed: args.seed,
        threads: args.threads,
        smoke: args.smoke,
        work: work.clone(),
    };
    let report = match args.workload.as_str() {
        "paper-cold" => run::<PaperCold>(&args, &settings),
        "farm-mixed" => run::<FarmMixed>(&args, &settings),
        "explore-campaign" => run::<Campaign>(&args, &settings),
        w => {
            eprintln!("hlsb-perfbench: unknown workload `{w}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The work directory only holds this run's stores and logs; its
    // parent goes too once no other run is using it.
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hlsb-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in report.tally.notes.iter().chain(&report.notes) {
        println!("# {note}");
    }
    let tally = &report.tally;
    println!(
        "# fail_ratio={:.6} ({} failed of {} checked)",
        tally.fail_ratio(),
        tally.failed,
        tally.attempted
    );
    let schema = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in schema {
        if let Some(v) = report.metrics.get(name) {
            println!("# {name:<26} {v:>14.4} {unit}");
        }
    }
    println!("{}", result_line(schema, &report.metrics, &report.tally));
    ExitCode::SUCCESS
}
