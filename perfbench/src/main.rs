//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <table1|coldstart|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload with a closed-loop client, checks every result
//! against an interpreter-only reference, and prints one JSON line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separately traced run with `--trace 1`. Exits 1 when the run is not
//! correct (a failed op, exact counts that do not repeat, a blocking
//! store read, or spans that do not account for the op time) and 2 on a
//! usage error. `BENCHMARK.json` at the repository root describes the
//! workloads and metrics; `METRICS.md` beside this file says which
//! end-to-end metric each per-layer metric should move.

mod coldstart;
mod common;
mod host;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod table1;

use common::Config;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <table1|coldstart|serve> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    config: Config,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["table1", "coldstart", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
        },
    })
}

fn run(workload: &str, cfg: &Config) -> report::Report {
    match workload {
        "table1" => table1::run(cfg),
        "coldstart" => coldstart::run(cfg),
        _ => serve::run(cfg),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    let report = run(&args.workload, cfg);
    for note in &report.notes {
        println!("{note}");
    }
    for error in &report.errors {
        eprintln!("error: {error}");
    }
    println!("{}", report.json(cfg.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&args("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "serve");
        assert_eq!(a.config.seed, 3);
        assert_eq!(a.config.seconds, Duration::from_secs(10));
        assert!(a.config.trace);
    }

    /// Each traced run reports every per-layer metric (`json` panics on a
    /// missing one) and its span self times add up to the traced op time.
    #[test]
    fn traced_runs_report_every_layer_and_account_for_op_time() {
        for workload in ["table1", "coldstart", "serve"] {
            let cfg = Config {
                seed: 3,
                seconds: Duration::ZERO,
                trace: true,
            };
            let r = run(workload, &cfg);
            assert!(r.correct(), "{workload}: {:?}", r.errors);
            assert!(r.json(true).contains("\"bench.trace_overhead_pct\""));
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload table1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload table1 --seed x --seconds 1")).is_err());
        assert!(parse_args(&args("--workload table1 --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }
}
