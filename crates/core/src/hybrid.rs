//! The hybrid variant the paper proposes as future work (§V): "combining
//! the multisearch TS with the asynchronous TS to get the best of both
//! worlds and probably an algorithm that delivers both good solutions and
//! runtime performance".
//!
//! `P` collaborative searchers run concurrently, each of them the
//! Algorithm-2 master–worker loop with its own small supervised worker
//! pool. Searchers exchange archive-improving solutions over the rotating
//! communication list exactly like the collaborative variant, through the
//! same collaboration gate.

use crate::asynchronous::{self, Exchange};
use crate::collaborative::on_threads;
use crate::config::TsmoConfig;
use crate::core_search::{SearchCore, StepReport};
use crate::exec::Threads;
use crate::options::{Clock, RunOptions};
use crate::outcome::{FrontEntry, TsmoOutcome};
use crate::searcher::{receive_entries, send_entry, CollabGate};
use deme::multisearch::Endpoint;
use deme::RunClock;
use std::sync::Arc;
use tsmo_obs::{metrics::names, Recorder};
use vrptw::Instance;

/// Collaborative multisearch of asynchronous master–worker searchers.
pub struct HybridTsmo {
    cfg: TsmoConfig,
    searchers: usize,
    procs_per_searcher: usize,
}

/// One hybrid searcher's side of the multisearch.
struct Link {
    endpoint: Endpoint<FrontEntry>,
    gate: CollabGate,
    recorder: Arc<dyn Recorder>,
    id: usize,
}

impl Exchange for Link {
    fn receive(&mut self, core: &mut SearchCore) {
        receive_entries(&mut self.endpoint, core, self.id);
    }

    fn after_step(&mut self, report: StepReport) {
        if let Some(entry) = self.gate.offer(report.improved_archive) {
            send_entry(&mut self.endpoint, &self.recorder, self.id, entry);
        }
    }
}

impl HybridTsmo {
    /// `searchers` collaborative searchers, each commanding
    /// `procs_per_searcher` processors (its master plus workers).
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(cfg: TsmoConfig, searchers: usize, procs_per_searcher: usize) -> Self {
        assert!(searchers > 0, "need at least one searcher");
        assert!(
            procs_per_searcher > 0,
            "each searcher needs its master processor"
        );
        Self {
            cfg,
            searchers,
            procs_per_searcher,
        }
    }

    /// Runs all searchers to their budgets on threads and merges the
    /// fronts. Each searcher reports to `opts.recorder` under its index,
    /// checks `opts.cancel` every round, and feeds `opts.faults` its
    /// worker tasks.
    ///
    /// # Panics
    /// Panics on a virtual clock: the hybrid has no virtual-time schedule.
    pub fn run(&self, inst: &Arc<Instance>, opts: &RunOptions) -> TsmoOutcome {
        assert!(
            opts.clock == Clock::Wall,
            "the hybrid variant runs on threads only"
        );
        let clock = RunClock::start();
        let procs = self.procs_per_searcher;
        let results = on_threads(&self.cfg, self.searchers, |id, mut cfg, rng, endpoint| {
            cfg.chunks = procs;
            let recorder = &opts.recorder;
            let workers =
                Threads::supervised(inst, procs, cfg.sample_params(), recorder, &opts.faults);
            let mut link = Link {
                endpoint,
                gate: CollabGate::new(&cfg),
                recorder: Arc::clone(recorder),
                id,
            };
            let core = SearchCore::with_recorder(
                Arc::clone(inst),
                cfg,
                rng,
                Arc::clone(recorder),
                id as u32,
            );
            asynchronous::run(core, workers, &opts.cancel, &mut link)
        });
        let runtime_seconds = clock.seconds();
        opts.recorder
            .gauge_set(names::RUNTIME_SECONDS, runtime_seconds);
        TsmoOutcome::merged(
            self.cfg.archive_capacity,
            runtime_seconds,
            results
                .into_iter()
                .map(|o| (o.archive, o.evaluations, o.iterations)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto::non_dominated_indices;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 1_500,
            neighborhood_size: 50,
            stagnation_limit: 10,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn hybrid_runs_and_merges() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let out = HybridTsmo::new(cfg(), 2, 2).run(&inst, &RunOptions::default());
        assert_eq!(out.evaluations, 2 * 1_500);
        assert!(!out.archive.is_empty());
        assert!(out.archive.len() <= cfg().archive_capacity);
        assert_eq!(non_dominated_indices(&out.archive).len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn hybrid_with_single_searcher_behaves_like_async() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 25, 3).build());
        let out = HybridTsmo::new(cfg(), 1, 3).run(&inst, &RunOptions::default());
        assert_eq!(out.evaluations, 1_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn hybrid_with_single_proc_per_searcher_behaves_like_collaborative() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 9).build());
        let out = HybridTsmo::new(cfg(), 3, 1).run(&inst, &RunOptions::default());
        assert_eq!(out.evaluations, 3 * 1_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn hybrid_front_quality_is_at_least_collaboratives_ballpark() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 21).build());
        let coll = crate::ParallelVariant::Collaborative(2).run(&inst, &cfg().with_seed(4));
        let hybrid = HybridTsmo::new(cfg().with_seed(4), 2, 2).run(&inst, &RunOptions::default());
        let (c, h) = (
            coll.best_distance().expect("feasible"),
            hybrid.best_distance().expect("feasible"),
        );
        assert!(
            h < c * 1.3,
            "hybrid best {h} should be near collaborative best {c}"
        );
    }
}
