//! Evaluation-throughput microbench: how many solution evaluations per
//! second the evaluator and the full search loop sustain.
//!
//! ```text
//! cargo run --release -p bench --bin evalbench -- [--size N] [--seed S]
//!     [--raw-evals K] [--search-evals E] [--out BENCH_evals.json]
//! ```
//!
//! Three measurements, written as one JSON document (default
//! `BENCH_evals.json`):
//!
//! - `raw` — a tight loop over [`Solution::evaluate`] on an I1-built
//!   solution: the evaluator's ceiling, no search overhead.
//! - `search` — a sequential TSMO run against the no-op recorder:
//!   end-to-end evaluations per second including neighborhood
//!   generation, tabu checks, and archive maintenance.
//! - `search_profiled` — the same run with the span profiler attached
//!   (a metrics-only recorder), so the profiling overhead is a
//!   side-by-side number instead of a claim.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tsmo_core::{ParallelVariant, RunOptions, TsmoConfig};
use tsmo_obs::MemoryRecorder;
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Solution;

struct Measure {
    evaluations: u64,
    seconds: f64,
}

impl Measure {
    fn rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.evaluations as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn write_json(&self, out: &mut String, key: &str) {
        let _ = write!(
            out,
            "\"{key}\":{{\"evaluations\":{},\"seconds\":{:.6},\"evals_per_sec\":{:.1}}}",
            self.evaluations,
            self.seconds,
            self.rate()
        );
    }
}

fn run_search(inst: &Arc<vrptw::Instance>, cfg: &TsmoConfig, profiled: bool) -> Measure {
    let recorder: Arc<dyn tsmo_obs::Recorder> = if profiled {
        Arc::new(MemoryRecorder::metrics_only())
    } else {
        tsmo_obs::noop()
    };
    let start = Instant::now();
    let opts = RunOptions {
        recorder,
        ..RunOptions::default()
    };
    let outcome = ParallelVariant::Sequential.run_with(inst, cfg, &opts);
    Measure {
        evaluations: outcome.evaluations,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let size: usize = get("--size").map_or(100, |s| s.parse().expect("--size"));
    let seed: u64 = get("--seed").map_or(0, |s| s.parse().expect("--seed"));
    let raw_evals: u64 = get("--raw-evals").map_or(200_000, |s| s.parse().expect("--raw-evals"));
    let search_evals: u64 =
        get("--search-evals").map_or(20_000, |s| s.parse().expect("--search-evals"));
    let out_path = get("--out").unwrap_or_else(|| "BENCH_evals.json".to_string());

    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, size, seed).build());
    eprintln!(
        "evalbench: instance {} ({} customers)",
        inst.name,
        inst.n_customers()
    );

    // Raw evaluator throughput: evaluate one realistic (I1-constructed)
    // solution over and over, folding the objectives into an accumulator
    // so the loop cannot be optimized away.
    let mut rng = detrand::Xoshiro256StarStar::seed_from_u64(seed);
    let solution: Solution = vrptw_construct::randomized_i1(&inst, &mut rng);
    let start = Instant::now();
    let mut sink = 0.0f64;
    for _ in 0..raw_evals {
        let obj = solution.evaluate(&inst);
        sink += obj.distance + obj.tardiness + obj.vehicles as f64;
    }
    let raw = Measure {
        evaluations: raw_evals,
        seconds: start.elapsed().as_secs_f64(),
    };
    eprintln!("raw: {:.0} evals/sec (checksum {sink:.1})", raw.rate());

    let cfg = TsmoConfig {
        max_evaluations: search_evals,
        seed,
        ..TsmoConfig::default()
    };
    let search = run_search(&inst, &cfg, false);
    eprintln!("search (noop recorder): {:.0} evals/sec", search.rate());
    let search_profiled = run_search(&inst, &cfg, true);
    eprintln!(
        "search (span profiler): {:.0} evals/sec ({:+.1}% vs noop)",
        search_profiled.rate(),
        100.0 * (search_profiled.rate() - search.rate()) / search.rate().max(1e-9)
    );

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"instance\":\"{}\",\"customers\":{},\"seed\":{seed},",
        inst.name,
        inst.n_customers()
    );
    raw.write_json(&mut json, "raw");
    json.push(',');
    search.write_json(&mut json, "search");
    json.push(',');
    search_profiled.write_json(&mut json, "search_profiled");
    json.push('}');
    json.push('\n');
    std::fs::write(&out_path, &json).expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");
}
