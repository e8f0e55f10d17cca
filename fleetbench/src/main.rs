//! The fleet benchmark.
//!
//! ```text
//! fleetbench --workload <batch_chaffed|online_stream|store_replay>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, drives the library through
//! its public API in one closed loop, checks every op's outputs, and
//! prints as its last stdout line one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. An untraced run (`--trace 0`)
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics and writes its spans to
//! `.bench_out/trace-<workload>-<seed>.jsonl`. See `README.md`.

mod batch_chaffed;
mod harness;
mod machine;
mod online_stream;
mod probes;
mod stats;
mod store_replay;
mod trace;

use harness::{run, Outcome, RunArgs};
use std::process::ExitCode;

const USAGE: &str = "usage: fleetbench --workload <batch_chaffed|online_stream|store_replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} must lie in (0, 120]"));
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn dispatch(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "batch_chaffed" => run::<batch_chaffed::BatchChaffed>(args),
        "online_stream" => run::<online_stream::OnlineStream>(args),
        "store_replay" => run::<store_replay::StoreReplay>(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(outcome) => {
            println!("{}", outcome.summary());
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
