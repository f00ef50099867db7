//! The benchmark's command line:
//!
//! ```text
//! perfbench --workload <paper-suite|serve-open|sharded-warm> --seed <n> --seconds <s> --trace <0|1>
//! perfbench golden        print the paper-suite golden line for the current model
//! ```
//!
//! Run it from the repository root.  The last line of standard output is
//! the JSON result; progress and diagnostics go to standard error.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{paper, serve_open, sharded, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <paper-suite|serve-open|sharded-warm> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench golden"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("golden") {
        println!("{}", paper::golden_line());
        return ExitCode::SUCCESS;
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let scratch =
        PathBuf::from(".bench_tmp").join(format!("{workload}-{seed}-{}", std::process::id()));
    let opts = Options {
        seed,
        seconds,
        trace,
        scratch: scratch.clone(),
        spans_out: PathBuf::from(".bench_tmp")
            .join("spans")
            .join(format!("{workload}-seed{seed}.tsv")),
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let result = match workload.as_str() {
        "paper-suite" => paper::run(&opts),
        "serve-open" => serve_open::run(&opts),
        "sharded-warm" => sharded::run(&opts),
        _ => return usage(),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    match result.and_then(|report| Ok((report.to_json(table)?, report.correct))) {
        Ok((json, correct)) => {
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs did not match their references");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
