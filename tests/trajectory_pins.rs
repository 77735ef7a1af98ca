//! Pinned trajectories: for fixed seeds, each variant's front, iteration
//! count, evaluation count and (for every single-threaded run) default
//! telemetry event stream are pinned as FNV-1a digests. Any change to the
//! search loops that moves a trajectory by one RNG draw or one event shows
//! up here.
//!
//! The threaded synchronous run pins only its outcome: its worker-result
//! events interleave by thread timing.

use std::sync::Arc;
use tsmo_core::{CancelToken, Clock, ParallelVariant, RunOptions, TsmoConfig, TsmoOutcome};
use tsmo_faults::{FaultConfig, FaultPlan};
use tsmo_obs::{MemoryRecorder, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the front's objective vectors, sorted so the digest does not
/// depend on archive order.
fn front_digest(out: &TsmoOutcome) -> u64 {
    let mut vectors: Vec<[f64; 3]> = out
        .archive
        .iter()
        .map(|e| e.objectives.to_vector())
        .collect();
    vectors.sort_by(|a, b| a.partial_cmp(b).expect("objectives are not NaN"));
    fnv1a(
        vectors
            .iter()
            .flatten()
            .flat_map(|x| x.to_bits().to_le_bytes()),
    )
}

#[derive(Debug, PartialEq)]
struct Pin {
    iterations: usize,
    evaluations: u64,
    front: u64,
    /// Digest of `events_jsonl()`; `None` for threaded runs.
    events: Option<u64>,
}

fn inst() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 7).build())
}

fn cfg() -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 3_000,
        neighborhood_size: 60,
        stagnation_limit: 8,
        sim_eval_cost: Some(1e-4),
        seed: 41,
        ..TsmoConfig::default()
    }
}

/// Runs `variant` with a default (span-free) recorder and pins its outcome
/// and, when `events` is set, its event stream.
fn run(variant: ParallelVariant, cfg: &TsmoConfig, opts: RunOptions, events: bool) -> Pin {
    let recorder = MemoryRecorder::shared();
    let opts = RunOptions {
        recorder: Arc::clone(&recorder) as Arc<dyn Recorder>,
        ..opts
    };
    let out = variant.run_with(&inst(), cfg, &opts);
    Pin {
        iterations: out.iterations,
        evaluations: out.evaluations,
        front: front_digest(&out),
        events: events.then(|| fnv1a(recorder.events_jsonl().into_bytes())),
    }
}

fn virtual_clock() -> RunOptions {
    RunOptions {
        clock: Clock::virtual_uniform(),
        ..RunOptions::default()
    }
}

fn faulted(plan: FaultConfig) -> RunOptions {
    RunOptions {
        faults: FaultPlan::shared(plan),
        ..virtual_clock()
    }
}

#[test]
fn sequential_one_chunk() {
    let pin = run(
        ParallelVariant::Sequential,
        &cfg(),
        RunOptions::default(),
        true,
    );
    assert_eq!(
        pin,
        Pin {
            iterations: 50,
            evaluations: 3000,
            front: 0x28537d7667e67817,
            events: Some(0x12aec94f7c6ec096),
        }
    );
}

#[test]
fn sequential_three_chunks() {
    let c = TsmoConfig { chunks: 3, ..cfg() };
    let pin = run(ParallelVariant::Sequential, &c, RunOptions::default(), true);
    assert_eq!(
        pin,
        Pin {
            iterations: 50,
            evaluations: 3000,
            front: 0x3ea10b898b014c87,
            events: Some(0xc2bf2c0fe62d60a3),
        }
    );
}

#[test]
fn synchronous_three_threads() {
    let pin = run(
        ParallelVariant::Synchronous(3),
        &cfg(),
        RunOptions::default(),
        false,
    );
    assert_eq!(
        pin,
        Pin {
            iterations: 50,
            evaluations: 3000,
            front: 0x3ea10b898b014c87,
            events: None,
        }
    );
}

#[test]
fn synchronous_three_virtual() {
    let pin = run(
        ParallelVariant::Synchronous(3),
        &cfg(),
        virtual_clock(),
        true,
    );
    assert_eq!(
        pin,
        Pin {
            iterations: 50,
            evaluations: 3000,
            front: 0x3ea10b898b014c87,
            events: Some(0x875ae6343c67d9c6),
        }
    );
}

#[test]
fn asynchronous_three_virtual() {
    let pin = run(
        ParallelVariant::Asynchronous(3),
        &cfg(),
        virtual_clock(),
        true,
    );
    assert_eq!(
        pin,
        Pin {
            iterations: 55,
            evaluations: 3000,
            front: 0xa7088eeeb7a0079a,
            events: Some(0x3c206caf9c68c87f),
        }
    );
}

#[test]
fn collaborative_three_virtual() {
    let pin = run(
        ParallelVariant::Collaborative(3),
        &cfg(),
        virtual_clock(),
        true,
    );
    assert_eq!(
        pin,
        Pin {
            iterations: 164,
            evaluations: 9000,
            front: 0x7edc855190e4bd38,
            events: Some(0xf2edc88f8aa35d9c),
        }
    );
}

#[test]
fn asynchronous_four_virtual_under_task_faults() {
    let pin = run(
        ParallelVariant::Asynchronous(4),
        &cfg(),
        faulted(FaultConfig::uniform(7, 0.25)),
        true,
    );
    assert_eq!(
        pin,
        Pin {
            iterations: 57,
            evaluations: 3000,
            front: 0x20f34ea345dcb6ad,
            events: Some(0x93b15d6c3eb14c9f),
        }
    );
}

#[test]
fn collaborative_three_virtual_under_exchange_faults() {
    let plan = FaultConfig {
        seed: 13,
        exchange_drop_rate: 0.3,
        exchange_delay_rate: 0.3,
        ..FaultConfig::default()
    };
    let pin = run(
        ParallelVariant::Collaborative(3),
        &cfg(),
        faulted(plan),
        true,
    );
    assert_eq!(
        pin,
        Pin {
            iterations: 164,
            evaluations: 9000,
            front: 0x7edc855190e4bd38,
            events: Some(0x836c3499bef42d31),
        }
    );
}

#[test]
fn sequential_cut_at_iteration_twelve() {
    let opts = RunOptions {
        cancel: CancelToken::with_iteration_limit(12),
        ..RunOptions::default()
    };
    let pin = run(ParallelVariant::Sequential, &cfg(), opts, true);
    assert_eq!(
        pin,
        Pin {
            iterations: 12,
            evaluations: 720,
            front: 0x87268fc1931ae244,
            events: Some(0xf073b2a1ecdaaa70),
        }
    );
}
