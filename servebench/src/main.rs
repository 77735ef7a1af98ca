//! `servebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it starts an in-process `served` daemon, drives it
//! with closed-loop clients for `--seconds`, checks every returned front
//! and prints the end-to-end metrics. With
//! `--trace 1` it replays the workload's jobs through the public
//! functions of each layer, timing the calls from here, and prints the
//! per-layer metrics; the spans are written to `servebench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod gate;
mod layers;
mod serve;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// Measured metrics of one run, in print order, plus the job tallies.
pub struct Report {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(attempted: u64, failed: u64, notes: Vec<String>) -> Self {
        Self {
            attempted,
            failed,
            notes,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Prints the notes and one `name = value unit` line per metric, then
    /// the JSON summary line. Non-finite values become `null`, which the
    /// summary reports as incorrect.
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        let mut metrics = String::new();
        let mut finite = true;
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("{name} = {value} {unit}");
            finite &= value.is_finite();
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted,
            self.failed
        );
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        serve::run(args.workload, args.seed, args.seconds).map_err(|e| e.to_string())
    };
    match report {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", args.workload.name);
            ExitCode::FAILURE
        }
    }
}
