//! Cancellation contract tests: a run stopped by a [`CancelToken`] is a
//! clean *prefix* of the unstopped run — same trajectory, same telemetry,
//! same archive state, just truncated — and every stop cause is reported.

use std::sync::Arc;
use tsmo_core::{
    CancelToken, Clock, ParallelVariant, RunOptions, StopCause, TsmoConfig, TsmoOutcome,
};
use tsmo_obs::{MemoryRecorder, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn inst() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 7).build())
}

fn cfg() -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 6_000,
        neighborhood_size: 60,
        stagnation_limit: 20,
        ..TsmoConfig::default()
    }
}

fn fronts(out: &TsmoOutcome) -> Vec<[f64; 3]> {
    out.archive
        .iter()
        .map(|e| e.objectives.to_vector())
        .collect()
}

/// The headline determinism proof for the sequential variant: the token is
/// checked at the top of each iteration, before any randomness is drawn,
/// so an iteration-limited run emits a byte-identical prefix of the full
/// run's JSONL event stream (which pins its archive trajectory too).
#[test]
fn sequential_iteration_limited_run_is_a_byte_identical_prefix() {
    let inst = inst();
    let full_rec = MemoryRecorder::shared();
    let full = ParallelVariant::Sequential.run_with(
        &inst,
        &cfg(),
        &RunOptions {
            recorder: Arc::clone(&full_rec) as Arc<dyn Recorder>,
            ..RunOptions::default()
        },
    );
    let k: usize = 10;
    assert!(
        full.iterations > k,
        "full run too short ({} iterations) for a prefix at {k}",
        full.iterations
    );

    let token = CancelToken::with_iteration_limit(k as u64);
    let lim_rec = MemoryRecorder::shared();
    let limited = ParallelVariant::Sequential.run_with(
        &inst,
        &cfg(),
        &RunOptions {
            recorder: Arc::clone(&lim_rec) as Arc<dyn Recorder>,
            cancel: token.clone(),
            ..RunOptions::default()
        },
    );

    assert_eq!(limited.iterations, k, "stopped exactly at the limit");
    assert_eq!(token.cause(), Some(StopCause::IterationLimit));
    assert!(limited.evaluations < full.evaluations);

    let (full_jsonl, lim_jsonl) = (full_rec.events_jsonl(), lim_rec.events_jsonl());
    assert!(!lim_jsonl.is_empty(), "the truncated run emitted no events");
    assert!(
        full_jsonl.starts_with(&lim_jsonl),
        "truncated event stream is not a byte prefix of the full stream"
    );
}

/// The archive a cancelled run returns depends only on the iterations it
/// ran, not on the budget it *would* have had: the same limit under a 25x
/// larger evaluation budget yields a byte-identical front.
#[test]
fn truncated_front_is_independent_of_the_remaining_budget() {
    let inst = inst();
    let k: usize = 12;
    let small = ParallelVariant::Sequential.run_with(
        &inst,
        &cfg(),
        &RunOptions {
            cancel: CancelToken::with_iteration_limit(k as u64),
            ..RunOptions::default()
        },
    );
    let big = ParallelVariant::Sequential.run_with(
        &inst,
        &TsmoConfig {
            max_evaluations: 150_000,
            ..cfg()
        },
        &RunOptions {
            cancel: CancelToken::with_iteration_limit(k as u64),
            ..RunOptions::default()
        },
    );
    assert_eq!(small.iterations, k);
    assert_eq!(big.iterations, k);
    assert_eq!(small.evaluations, big.evaluations);
    assert_eq!(fronts(&small), fronts(&big));
}

/// Parallel prefix determinism: the synchronous variant is bit-identical
/// to the sequential algorithm with the same chunking, so cancelling it at
/// iteration `k` lands on exactly the sequential run cancelled at `k`.
/// (Its *event interleaving* follows thread timing, so the comparison is
/// on outcomes, not bytes of telemetry.)
#[test]
fn sync_cancelled_at_k_equals_sequential_cancelled_at_k() {
    let inst = inst();
    let k: usize = 8;
    let p = 3;
    let seq = ParallelVariant::Sequential.run_with(
        &inst,
        &TsmoConfig { chunks: p, ..cfg() },
        &RunOptions {
            cancel: CancelToken::with_iteration_limit(k as u64),
            ..RunOptions::default()
        },
    );
    let sync = ParallelVariant::Synchronous(p).run_with(
        &inst,
        &cfg(),
        &RunOptions {
            cancel: CancelToken::with_iteration_limit(k as u64),
            ..RunOptions::default()
        },
    );
    assert_eq!(seq.iterations, k);
    assert_eq!(sync.iterations, k);
    assert_eq!(seq.evaluations, sync.evaluations);
    assert_eq!(fronts(&seq), fronts(&sync));
}

/// A wall-clock deadline truncates a long run to a valid best-so-far
/// outcome and reports `DeadlineExceeded`.
#[test]
fn deadline_exceeded_truncates_to_a_valid_outcome() {
    let inst = inst();
    let cfg = TsmoConfig {
        max_evaluations: 100_000_000,
        ..cfg()
    };
    let token = CancelToken::with_deadline(std::time::Duration::from_millis(80));
    let opts = RunOptions {
        cancel: token.clone(),
        ..RunOptions::default()
    };
    let out = ParallelVariant::Sequential.run_with(&inst, &cfg, &opts);
    assert_eq!(token.cause(), Some(StopCause::DeadlineExceeded));
    assert!(out.evaluations < cfg.max_evaluations);
    for entry in &out.archive {
        assert!(
            entry.solution.check(&inst).is_empty(),
            "truncated run returned an invalid solution"
        );
    }
}

/// Explicit cancellation from another thread (the service's Cancel
/// endpoint) stops a threaded parallel run promptly and cleanly.
#[test]
fn explicit_cancel_stops_a_threaded_parallel_run() {
    let inst = inst();
    let cfg = TsmoConfig {
        max_evaluations: 100_000_000,
        ..cfg()
    };
    let token = CancelToken::never();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(60));
            token.cancel();
        })
    };
    let opts = RunOptions {
        cancel: token.clone(),
        ..RunOptions::default()
    };
    let out = ParallelVariant::Asynchronous(3).run_with(&inst, &cfg, &opts);
    canceller.join().expect("canceller thread");
    assert_eq!(token.cause(), Some(StopCause::Cancelled));
    assert!(out.evaluations < cfg.max_evaluations);
}

/// `run_with` threads the token through every variant on either clock:
/// each one stops on a small iteration limit long before the evaluation
/// budget.
#[test]
fn every_variant_honors_the_iteration_limit() {
    let inst = inst();
    let cfg = TsmoConfig {
        max_evaluations: 10_000_000,
        ..cfg()
    };
    for clock in [Clock::Wall, Clock::virtual_uniform()] {
        for variant in [
            ParallelVariant::Sequential,
            ParallelVariant::Synchronous(3),
            ParallelVariant::Asynchronous(3),
            ParallelVariant::Collaborative(3),
        ] {
            let token = CancelToken::with_iteration_limit(5);
            let opts = RunOptions {
                cancel: token.clone(),
                clock: clock.clone(),
                ..RunOptions::default()
            };
            let out = variant.run_with(&inst, &cfg, &opts);
            assert_eq!(
                token.cause(),
                Some(StopCause::IterationLimit),
                "{variant:?} on {clock:?} ignored the iteration limit"
            );
            assert!(
                out.evaluations < cfg.max_evaluations,
                "{variant:?} on {clock:?} ran to budget exhaustion despite the limit"
            );
        }
    }
}
