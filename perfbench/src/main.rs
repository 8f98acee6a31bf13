//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its properties, any failed inputs, the
//! per-layer table of a traced run, and as the last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use perfbench::inputs::Workload;
use perfbench::{run, stray_env, SETUP_REPEATS};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <homework|long_file|wide_expr|serve_replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = stray_env() {
        eprintln!("perfbench: refusing to run with {var} set: it changes the default search configuration");
        return ExitCode::from(2);
    }
    match run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        SETUP_REPEATS,
    ) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
