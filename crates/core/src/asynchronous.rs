//! The Algorithm-2 driver: the asynchronous master–worker loop (§III.D).
//!
//! Like the synchronous variant the master distributes neighborhood chunks
//! "among himself and the workers, but when it is finished with its part,
//! the master will use a decision function to decide if workers should be
//! given more time or if it should continue by selecting the next current
//! individual from the N that has been collected so far" (Algorithm 2).
//! Results that arrive after the master moved on are *folded into a later
//! iteration's pool* — the search "can select solutions that were neighbors
//! of a previous solution", which is why [`Neighbor`] is self-contained.
//!
//! The decision function's four conditions:
//! * `c1` — some worker is idle (has delivered and waits for work);
//! * `c2` — a collected neighbor dominates the current solution;
//! * `c3` — the master has waited longer than `cfg.async_max_wait_ms`;
//! * `c4` — the evaluation budget is exhausted.
//!
//! One loop serves `Asynchronous(p)` on threads, `Asynchronous(p)` on a
//! virtual cluster, and every searcher of the hybrid variant; the
//! [`Workers`] executor decides where chunks run and what time it is.
//!
//! # Robustness
//!
//! On threads the workers run under a [`Supervisor`]: a panicked chunk
//! task is resent (bounded retries with backoff) to the next live worker,
//! repeatedly failing workers are quarantined and respawned once, and if
//! the live pool falls below quorum the master degrades to evaluating
//! chunks alone instead of aborting. A resent task keeps its original
//! `iteration`, so its neighbors count as *stale* in the sense of
//! Algorithm 2 — the recovery path needs no special treatment in the
//! search itself. The virtual executor mirrors the same policy
//! deterministically in virtual time.

use crate::cancel::CancelToken;
use crate::core_search::{SearchCore, StepReport};
use crate::exec::{Exec, Threads, Virtual};
use crate::neighborhood::{Chunk, Neighbor, Task};
use crate::outcome::TsmoOutcome;
use crate::telemetry::{worker_result, worker_task};
use deme::{EvaluationBudget, Supervisor, SupervisorConfig};
use std::sync::Arc;
use std::time::Duration;
use tsmo_faults::FaultHook;
use tsmo_obs::{metrics::names, Recorder, Span};
use vrptw::Instance;
use vrptw_operators::{SampleParams, SampleTally};

/// An executor as the Algorithm-2 driver sees it.
pub(crate) trait Workers: Exec {
    /// Depth of the result queue, where the executor has one.
    fn queue_depth(&self) -> Option<usize> {
        None
    }
    /// Takes every result that has reached the master, in delivery order.
    fn poll(&mut self, iteration: usize) -> Vec<Chunk>;
    /// Live workers with nothing in flight, in slot order.
    fn idle(&self) -> Vec<usize>;
    /// Whether every worker is lost and the master continues alone.
    fn degraded(&self) -> bool;
    /// Waits for the next delivery, but not past `deadline` on the
    /// master's clock. Returns what arrived, or `None` when there is
    /// nothing to wait for.
    fn wait(&mut self, deadline: f64, iteration: usize) -> Option<Vec<Chunk>>;
    /// Whether no task is in flight.
    fn all_idle(&self) -> bool;
}

/// What a multisearch wraps around one Algorithm-2 searcher: incoming
/// solutions before each round, archive improvements after each step.
/// The unit type is a lone searcher.
pub(crate) trait Exchange {
    fn receive(&mut self, _core: &mut SearchCore) {}
    fn after_step(&mut self, _report: StepReport) {}
}

impl Exchange for () {}

/// Runs Algorithm 2 to budget exhaustion or cancellation. The token is
/// checked at the top of each dispatch round; a stopped run skips the
/// final leftover-pool step so its iteration count is an exact prefix.
pub(crate) fn run(
    mut core: SearchCore,
    mut workers: impl Workers,
    cancel: &CancelToken,
    link: &mut impl Exchange,
) -> TsmoOutcome {
    let recorder = Arc::clone(core.recorder());
    let cfg = core.config();
    let budget = EvaluationBudget::new(cfg.max_evaluations);
    let chunk = (cfg.neighborhood_size / (workers.workers() + 1)).max(1);
    let max_wait = cfg.async_max_wait_ms as f64 / 1_000.0;
    let mut pool: Vec<Neighbor> = Vec::new();
    let mut tally = SampleTally::default();
    let mut fold = |chunks: Vec<Chunk>, pool: &mut Vec<Neighbor>| {
        for c in chunks {
            tally.merge(&c.tally);
            pool.extend(c.neighbors);
        }
    };

    'search: loop {
        link.receive(&mut core);
        // Fold everything that arrived since the last selection.
        if let Some(depth) = workers.queue_depth() {
            recorder.observe(names::RESULT_QUEUE_DEPTH, depth as f64);
        }
        fold(workers.poll(core.iteration()), &mut pool);
        if budget.exhausted() || cancel.should_stop(core.iteration()) {
            break 'search;
        }
        // Give every idle live worker a chunk of the *current*
        // neighborhood. A degraded pool has no live workers, so the master
        // continues alone (master-local evaluation).
        if workers.workers() > 0 {
            let _span = Span::enter(&recorder, "dispatch", core.trace_id(), core.span_parent());
            for w in workers.idle() {
                let granted = budget.try_consume(chunk as u64) as usize;
                if granted == 0 {
                    break;
                }
                recorder.counter_add(names::EVALUATIONS, granted as u64);
                worker_task(&*recorder, w + 1, core.iteration(), granted);
                let seed = core.next_seed();
                workers.dispatch(w, &core, seed, granted);
            }
        }
        // The master computes its own part. The "evaluate" span also
        // covers the decision-function wait: from the master's perspective
        // that time is spent collecting evaluations.
        let eval_span = Span::enter(&recorder, "evaluate", core.trace_id(), core.span_parent());
        let granted = budget.try_consume(chunk as u64) as usize;
        if granted > 0 {
            recorder.counter_add(names::EVALUATIONS, granted as u64);
            let seed = core.next_seed();
            let own = workers.local(&core, seed, granted);
            fold(vec![own], &mut pool);
        }
        // Decision function (Algorithm 2).
        let wait_start = workers.now();
        loop {
            fold(workers.poll(core.iteration()), &mut pool);
            let current = core.current().objectives().to_vector();
            let c1 = !workers.idle().is_empty();
            let c2 = pool
                .iter()
                .any(|nb| pareto::dominates(&nb.objectives.to_vector(), &current));
            let c3 = workers.now() - wait_start >= max_wait;
            let c4 = budget.exhausted();
            if c1 || c2 || c3 || c4 || workers.degraded() {
                break;
            }
            match workers.wait(wait_start + max_wait, core.iteration()) {
                Some(arrived) => fold(arrived, &mut pool),
                None => break,
            }
        }
        drop(eval_span);
        if pool.is_empty() {
            if budget.exhausted() && workers.all_idle() {
                break 'search;
            }
            // Nothing collected yet (slow workers): wait another round
            // rather than burning a restart on timing noise.
            continue 'search;
        }
        let report = workers.step(&mut core, std::mem::take(&mut pool));
        link.after_step(report);
    }
    // Final partial pool: give the leftovers one last consideration —
    // unless the run was stopped early, where an extra step would break
    // the prefix property.
    if !pool.is_empty() && !cancel.is_stopped() {
        workers.step(&mut core, std::mem::take(&mut pool));
    }
    let runtime_seconds = workers.finish(core.iteration());
    core.note_tally(&tally);
    core.into_outcome(budget.consumed(), runtime_seconds)
}

/// Workers under a [`Supervisor`].
impl Workers for Threads<Supervisor<Task, Chunk>> {
    fn queue_depth(&self) -> Option<usize> {
        self.pool.as_ref().map(|s| s.pool().result_queue_len())
    }

    fn poll(&mut self, iteration: usize) -> Vec<Chunk> {
        let mut out = Vec::new();
        while let Some((w, chunk)) = self.pool.as_mut().and_then(Supervisor::try_recv) {
            worker_result(&*self.recorder, w + 1, iteration, chunk.neighbors.len());
            out.push(chunk);
        }
        self.publish(iteration);
        out
    }

    fn idle(&self) -> Vec<usize> {
        self.pool
            .as_ref()
            .map_or_else(Vec::new, Supervisor::idle_live_workers)
    }

    fn degraded(&self) -> bool {
        self.pool.as_ref().is_some_and(Supervisor::degraded)
    }

    fn wait(&mut self, _deadline: f64, iteration: usize) -> Option<Vec<Chunk>> {
        // Short blocking receives; the caller re-evaluates the decision
        // function between them.
        let arrived = self.pool.as_mut()?.recv_timeout(Duration::from_micros(500));
        let arrived = arrived.map(|(w, chunk)| {
            worker_result(&*self.recorder, w + 1, iteration, chunk.neighbors.len());
            chunk
        });
        self.publish(iteration);
        Some(arrived.into_iter().collect())
    }

    fn all_idle(&self) -> bool {
        self.pool
            .as_ref()
            .is_none_or(|s| (0..s.n_workers()).all(|w| s.in_flight(w) == 0))
    }
}

impl Threads<Supervisor<Task, Chunk>> {
    /// Spawns the supervised pool of a master with `processors` CPUs.
    pub(crate) fn supervised(
        inst: &Arc<Instance>,
        processors: usize,
        params: SampleParams,
        recorder: &Arc<dyn Recorder>,
        hook: &Arc<dyn FaultHook>,
    ) -> Self {
        Self::spawn(inst, processors, params, recorder, hook, |pool| {
            recorder.gauge_set(names::DEGRADED_MODE, 0.0);
            Supervisor::new(pool, SupervisorConfig::default())
        })
    }
}

/// The decision function runs against the master's virtual clock. Slow
/// workers of a heterogeneous machine simply deliver later and the master
/// moves on without them — the paper's argument for why the asynchronous
/// variant "should perform well on both homogenous and heterogenous
/// systems".
impl Workers for Virtual {
    fn poll(&mut self, iteration: usize) -> Vec<Chunk> {
        let now = self.sim.cluster.clock(0);
        let mut out = Vec::new();
        for (w, state) in self.workers.iter_mut().enumerate() {
            if state.outstanding.as_ref().is_some_and(|(at, _)| *at <= now) {
                let (_, chunk) = state.outstanding.take().expect("checked above");
                worker_result(&*self.recorder, w + 1, iteration, chunk.neighbors.len());
                out.push(chunk);
            }
        }
        out
    }

    fn idle(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].outstanding.is_none() && !self.workers[w].retired)
            .collect()
    }

    fn degraded(&self) -> bool {
        self.degraded
    }

    fn wait(&mut self, deadline: f64, _iteration: usize) -> Option<Vec<Chunk>> {
        // Advance to the next event: the earliest arrival or the wait
        // bound, whichever comes first.
        let next_arrival = self
            .workers
            .iter()
            .filter_map(|st| st.outstanding.as_ref().map(|(at, _)| *at))
            .fold(f64::INFINITY, f64::min);
        let target = deadline.min(next_arrival);
        if !target.is_finite() {
            return None;
        }
        let now = self.now();
        self.sim.cluster.advance_to(0, target.max(now + 1e-9));
        Some(Vec::new())
    }

    fn all_idle(&self) -> bool {
        self.workers.iter().all(|st| st.outstanding.is_none())
    }
}

#[cfg(test)]
mod tests {
    use crate::{ParallelVariant, TsmoConfig};
    use pareto::non_dominated_indices;
    use std::sync::Arc;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 2_400,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn consumes_exact_budget() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 4).build());
        let out = ParallelVariant::Asynchronous(3).run(&inst, &cfg());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
        assert!(out.iterations > 0);
    }

    #[test]
    fn archive_valid_and_non_dominated() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 40, 9).build());
        let out = ParallelVariant::Asynchronous(4).run(&inst, &cfg());
        assert_eq!(non_dominated_indices(&out.archive).len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn trace_shows_stale_neighbors_are_possible() {
        // With several workers and a generous pool the async variant should
        // consider at least some neighbors created in an earlier iteration.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 60, 3).build());
        let mut c = cfg();
        c.trace = true;
        c.max_evaluations = 6_000;
        let out = ParallelVariant::Asynchronous(4).run(&inst, &c);
        let trace = out.trace.expect("tracing enabled");
        assert!(!trace.is_empty());
        // Staleness is timing-dependent; assert the mechanism rather than a
        // specific value: all points have iter_considered >= iter_created.
        for p in trace.iter() {
            assert!(p.iter_considered >= p.iter_created);
        }
    }

    #[test]
    fn single_processor_still_works() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 25, 2).build());
        let out = ParallelVariant::Asynchronous(1).run(&inst, &cfg());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn quality_comparable_to_sequential() {
        // §IV: the async variant "obtains results that are comparable" to
        // the sequential TS on the same evaluation budget. Allow slack —
        // this is a statistical statement — but the fronts should be in the
        // same ballpark.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 50, 11).build());
        let c = TsmoConfig {
            max_evaluations: 6_000,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        };
        let seq = crate::ParallelVariant::Sequential.run(&inst, &c.clone().with_seed(3));
        let asy = ParallelVariant::Asynchronous(3).run(&inst, &c.with_seed(3));
        let (s, a) = (
            seq.best_distance().expect("seq feasible"),
            asy.best_distance().expect("async feasible"),
        );
        assert!(
            a < s * 1.35,
            "async best {a} too far above sequential best {s}"
        );
    }
}
