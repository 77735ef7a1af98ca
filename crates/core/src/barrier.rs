//! The barrier driver: Algorithm 1 with the neighborhood split into
//! seed-derived chunks that all return before selection.
//!
//! One loop serves three schedules:
//!
//! * `Sequential` — every chunk inline on the master;
//! * `Synchronous(p)` on threads (§III.C) — "the master sends to each
//!   worker the current individual and the number of neighbors to generate
//!   … When all neighbors are collected the master continues with the
//!   selection": chunk `i` runs on processor `i`, the master computing
//!   chunk 0 while the `deme` workers compute theirs;
//! * `Synchronous(p)` on a virtual cluster, where the barrier hides
//!   heterogeneity in wasted waiting time — which is exactly what the
//!   makespan then shows.
//!
//! A chunk's content depends only on its seed and the snapshot, and the
//! barrier reassembles chunks in order, so all three produce the same
//! trajectory for the same seed and chunk count — the paper's "the
//! behavior remains unchanged".

use crate::cancel::CancelToken;
use crate::core_search::SearchCore;
use crate::exec::{Exec, Threads, Virtual};
use crate::neighborhood::{Chunk, Task};
use crate::outcome::TsmoOutcome;
use crate::telemetry::{worker_result, worker_task};
use deme::{EvaluationBudget, MasterWorker};
use std::sync::Arc;
use tsmo_obs::{metrics::names, Span};
use vrptw_operators::SampleTally;

/// An executor as the barrier driver sees it.
pub(crate) trait Barrier: Exec {
    /// Waits for every dispatched chunk; returns them with their worker
    /// slots.
    fn gather(&mut self, iteration: usize) -> Vec<(usize, Chunk)>;
}

/// Runs the barrier loop to budget exhaustion or cancellation: chunk `i`
/// on worker `i - 1` (processor `i`) for `0 < i < processors`, every other
/// chunk on the master. The token is consulted at the top of each
/// iteration, before that iteration's randomness is drawn, so a stopped
/// run is a byte-identical prefix of the unstopped run.
pub(crate) fn run(
    mut core: SearchCore,
    mut exec: impl Barrier,
    cancel: &CancelToken,
) -> TsmoOutcome {
    let recorder = Arc::clone(core.recorder());
    let budget = EvaluationBudget::new(core.config().max_evaluations);
    let sizes = core.config().chunk_sizes();
    let workers = exec.workers();
    let mut tally = SampleTally::default();
    while !budget.exhausted() && !cancel.should_stop(core.iteration()) {
        let seeds = core.chunk_seeds();
        // Reserve budget per chunk in chunk order, so every schedule makes
        // the same split.
        let granted: Vec<usize> = sizes
            .iter()
            .map(|&s| budget.try_consume(s as u64) as usize)
            .collect();
        recorder.counter_add(names::EVALUATIONS, granted.iter().map(|&g| g as u64).sum());
        let (trace, parent) = (core.trace_id(), core.span_parent());
        if workers > 0 {
            let _span = Span::enter(&recorder, "dispatch", trace, parent);
            for w in 0..workers {
                worker_task(&*recorder, w + 1, core.iteration(), granted[w + 1]);
                exec.dispatch(w, &core, seeds[w + 1], granted[w + 1]);
            }
        }
        // The "evaluate" span also covers the barrier: waiting for worker
        // chunks is evaluation time from the master's perspective.
        let eval_span = Span::enter(&recorder, "evaluate", trace, parent);
        let mut chunks: Vec<Option<Chunk>> = (0..seeds.len())
            .map(|i| (i == 0 || i > workers).then(|| exec.local(&core, seeds[i], granted[i])))
            .collect();
        for (w, chunk) in exec.gather(core.iteration()) {
            chunks[w + 1] = Some(chunk);
        }
        drop(eval_span);
        let mut pool = Vec::with_capacity(core.config().neighborhood_size);
        for chunk in chunks {
            let chunk = chunk.expect("barrier collected every chunk");
            tally.merge(&chunk.tally);
            pool.extend(chunk.neighbors);
        }
        if pool.is_empty() && budget.exhausted() {
            break;
        }
        exec.step(&mut core, pool);
    }
    let runtime_seconds = exec.finish(core.iteration());
    core.note_tally(&tally);
    core.into_outcome(budget.consumed(), runtime_seconds)
}

impl Barrier for Threads<MasterWorker<Task, Chunk>> {
    fn gather(&mut self, iteration: usize) -> Vec<(usize, Chunk)> {
        let Some(pool) = &self.pool else {
            return Vec::new();
        };
        self.recorder
            .observe(names::RESULT_QUEUE_DEPTH, pool.result_queue_len() as f64);
        (0..pool.n_workers())
            .map(|_| {
                let (w, chunk) = pool
                    .recv()
                    .unwrap_or_else(|e| panic!("synchronous barrier failed: {e}"));
                worker_result(&*self.recorder, w + 1, iteration, chunk.neighbors.len());
                (w, chunk)
            })
            .collect()
    }
}

/// Chunk `i` is charged to processor `i`; the master's clock moves to the
/// last reply's arrival.
impl Barrier for Virtual {
    fn gather(&mut self, iteration: usize) -> Vec<(usize, Chunk)> {
        (0..self.workers.len())
            .map(|w| {
                let (arrival, chunk) = self.workers[w]
                    .outstanding
                    .take()
                    .expect("barrier tasks are never lost");
                worker_result(&*self.recorder, w + 1, iteration, chunk.neighbors.len());
                self.sim.cluster.receive(0, arrival);
                (w, chunk)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ParallelVariant, TsmoConfig};
    use pareto::non_dominated_indices;
    use std::sync::Arc;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn small_cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 3_000,
            neighborhood_size: 50,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn consumes_exactly_the_budget() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 1).build());
        let out = ParallelVariant::Sequential.run(&inst, &small_cfg());
        assert_eq!(out.evaluations, 3_000);
        assert!(out.iterations >= 3_000 / 50);
        assert!(out.runtime_seconds > 0.0);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 40, 2).build());
        let a = ParallelVariant::Sequential.run(&inst, &small_cfg().with_seed(9));
        let b = ParallelVariant::Sequential.run(&inst, &small_cfg().with_seed(9));
        let mut va = a.feasible_vectors();
        let mut vb = b.feasible_vectors();
        let key = |v: &[f64; 3]| (v[0] * 1e6) as i64;
        va.sort_by_key(key);
        vb.sort_by_key(key);
        assert_eq!(va, vb, "same seed must give the same front");
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 40, 2).build());
        let a = ParallelVariant::Sequential.run(&inst, &small_cfg().with_seed(1));
        let b = ParallelVariant::Sequential.run(&inst, &small_cfg().with_seed(2));
        assert_ne!(a.feasible_vectors(), b.feasible_vectors());
    }

    #[test]
    fn archive_is_non_dominated_and_valid() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::RC2, 40, 5).build());
        let out = ParallelVariant::Sequential.run(&inst, &small_cfg());
        let nd = non_dominated_indices(&out.archive);
        assert_eq!(nd.len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn improves_over_the_construction_heuristic() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 60, 4).build());
        let cfg = TsmoConfig {
            max_evaluations: 8_000,
            neighborhood_size: 80,
            ..TsmoConfig::default()
        };
        let out = ParallelVariant::Sequential.run(&inst, &cfg);
        // I1 with default parameters as the reference.
        let start =
            vrptw_construct::i1(&inst, &vrptw_construct::I1Config::default()).evaluate(&inst);
        let best = out.best_distance().expect("feasible solutions exist on R2");
        assert!(
            best < start.distance,
            "search best {best} should beat I1 start {}",
            start.distance
        );
    }

    #[test]
    fn chunked_generation_changes_stream_but_stays_deterministic() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 8).build());
        let cfg1 = TsmoConfig {
            chunks: 1,
            ..small_cfg()
        };
        let cfg3 = TsmoConfig {
            chunks: 3,
            ..small_cfg()
        };
        let a = ParallelVariant::Sequential.run(&inst, &cfg3);
        let b = ParallelVariant::Sequential.run(&inst, &cfg3);
        assert_eq!(a.feasible_vectors(), b.feasible_vectors());
        let c = ParallelVariant::Sequential.run(&inst, &cfg1);
        // chunks=1 and chunks=3 draw different chunk seeds: different (but
        // individually valid) runs.
        assert_ne!(a.feasible_vectors(), c.feasible_vectors());
        for e in &c.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 2_400,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        }
    }

    /// The paper's central claim for the synchronous variant: "the behavior
    /// remains unchanged" w.r.t. the sequential algorithm. With the chunked
    /// neighborhood scheme this is exact: same seed, same trajectory, same
    /// front.
    #[test]
    fn bit_identical_to_sequential_with_matching_chunks() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 6).build());
        for p in [2, 3, 4] {
            let seq_cfg = TsmoConfig { chunks: p, ..cfg() }.with_seed(77);
            let seq = ParallelVariant::Sequential.run(&inst, &seq_cfg);
            let par = ParallelVariant::Synchronous(p).run(&inst, &cfg().with_seed(77));
            assert_eq!(seq.iterations, par.iterations, "p = {p}");
            let sv = seq.feasible_vectors();
            let pv = par.feasible_vectors();
            assert_eq!(sv.len(), pv.len(), "p = {p}");
            let norm = |mut v: Vec<[f64; 3]>| {
                v.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
                v
            };
            assert_eq!(norm(sv), norm(pv), "p = {p}: fronts must be identical");
        }
    }

    #[test]
    fn one_processor_degenerates_to_sequential() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 3).build());
        let seq = ParallelVariant::Sequential.run(&inst, &cfg().with_seed(5));
        let par = ParallelVariant::Synchronous(1).run(&inst, &cfg().with_seed(5));
        assert_eq!(seq.feasible_vectors(), par.feasible_vectors());
    }

    #[test]
    fn consumes_exact_budget_with_workers() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 40, 2).build());
        let out = ParallelVariant::Synchronous(4).run(&inst, &cfg());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_processors_rejected() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 10, 1).build());
        ParallelVariant::Synchronous(0).run(&inst, &cfg());
    }
}
