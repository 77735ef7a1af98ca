//! TSMO — multiobjective tabu search for the CVRPTW, and its three
//! parallel variants (Beham, IPPS 2007).
//!
//! The sequential algorithm (§III.B, Algorithm 1) iterates:
//!
//! 1. **Neighborhood generation** — `neighborhood_size` moves drawn from
//!    the five operators with equal probability, each respecting the local
//!    feasibility criterion;
//! 2. **Evaluation** — each neighbor's three objectives (incremental);
//! 3. **Selection** — one of the non-dominated, non-tabu neighbors becomes
//!    the new current solution; its reversal attributes enter the tabu
//!    list;
//! 4. **Memory update** — neighborhood non-dominated solutions are offered
//!    to the medium-term memory `M_nondom`; the chosen solution is offered
//!    to the bounded crowding archive `M_archive`. If the archive has not
//!    improved for `stagnation_limit` iterations (or no neighbor was
//!    selectable), the search restarts from a remembered solution.
//!
//! The parallel variants ([`ParallelVariant`]):
//!
//! * `Synchronous` (§III.C) — master–worker functional decomposition of
//!   steps 1–2 with a barrier; **bit-identical trajectories** to the
//!   sequential algorithm for the same seed (tested), which is the paper's
//!   "the behavior remains unchanged".
//! * `Asynchronous` (§III.D) — same decomposition without the barrier; the
//!   master continues with a partial neighborhood according to the decision
//!   function of Algorithm 2 and folds late worker results into later
//!   iterations.
//! * `Collaborative` (§III.E) — independent searchers with perturbed
//!   parameters that exchange archive-improving solutions over a rotating
//!   communication list after an initial stagnation phase.
//!
//! # Two drivers, three executors
//!
//! As in DEME, the algorithm and the infrastructure are separate. There
//! are two search loops: the **barrier driver** (steps 1–2 return in full
//! before selection; `Sequential` and `Synchronous`) and the
//! **Algorithm-2 driver** (the asynchronous decision function;
//! `Asynchronous` and each [`HybridTsmo`] searcher). Each is generic over
//! where a chunk of neighbors runs: inline on the master, on the `deme`
//! thread pool, or on a `deme::VirtualCluster` with simulated processor
//! clocks ([`Clock::Virtual`]). The collaborative searchers run
//! [`CollabSearcher`] on threads, or an event loop on the virtual cluster.
//!
//! The thread runtimes are self-healing: the asynchronous master runs its
//! workers under a supervisor (`deme::Supervisor`) that resends panicked
//! tasks, quarantines and respawns repeat offenders, and degrades to
//! master-local evaluation when no worker is left; the collaborative
//! searchers track peer liveness and route around dead peers. Both can be
//! exercised under deterministic fault injection via
//! [`RunOptions::faults`] and the `tsmo-faults` crate.

//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tsmo_core::{Clock, ParallelVariant, RunOptions, TsmoConfig};
//! use vrptw::generator::{GeneratorConfig, InstanceClass};
//!
//! let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 7).build());
//! let cfg = TsmoConfig { max_evaluations: 2_000, neighborhood_size: 50,
//!                        ..TsmoConfig::default() };
//! let outcome = ParallelVariant::Sequential.run(&inst, &cfg);
//! assert_eq!(outcome.evaluations, 2_000);
//! assert!(!outcome.archive.is_empty());
//!
//! // The synchronous variant on a simulated 4-processor machine: the same
//! // trajectory as the sequential algorithm with 4 chunks, and a virtual
//! // makespan as its runtime.
//! let opts = RunOptions { clock: Clock::virtual_uniform(), ..RunOptions::default() };
//! let sync = ParallelVariant::Synchronous(4).run_with(&inst, &cfg, &opts);
//! let seq = ParallelVariant::Sequential.run(&inst, &TsmoConfig { chunks: 4, ..cfg });
//! assert_eq!(sync.iterations, seq.iterations);
//! ```

mod adaptive;
mod asynchronous;
mod barrier;
mod cancel;
mod collaborative;
mod config;
mod core_search;
mod exec;
mod hybrid;
mod neighborhood;
mod options;
mod outcome;
mod scalarized;
mod searcher;
mod simulated;
mod tabu;
mod telemetry;
mod trace;

pub use adaptive::{insert_cheapest, scalarize, AdaptiveMemory, AdaptiveMemoryTs};
pub use cancel::{CancelToken, StopCause};
pub use config::{SelectionRule, TsmoConfig};
pub use core_search::SearchCore;
pub use hybrid::HybridTsmo;
pub use neighborhood::{generate_chunk, Neighbor};
pub use options::{Clock, RunOptions};
pub use outcome::{FrontEntry, TsmoOutcome};
pub use scalarized::{weighted_front, WeightedOutcome, WeightedSumTs};
pub use searcher::{searcher_cfg, CollabSearcher, SearcherResult};
pub use tabu::TabuList;
pub use trace::{Trace, TracePoint};

use detrand::Xoshiro256StarStar;
use exec::{Threads, Virtual};
use simulated::SimClock;
use std::sync::Arc;
use vrptw::Instance;

/// The algorithm variants compared in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelVariant {
    /// Algorithm 1 on one thread.
    Sequential,
    /// Synchronous master–worker with this many processors (incl. master).
    Synchronous(usize),
    /// Asynchronous master–worker with this many processors (incl. master).
    Asynchronous(usize),
    /// Collaborative multisearch with this many searchers.
    Collaborative(usize),
}

impl ParallelVariant {
    /// Runs the variant on `inst` with `cfg`: wall clock, no telemetry,
    /// no faults, no cancellation.
    pub fn run(self, inst: &Arc<Instance>, cfg: &TsmoConfig) -> TsmoOutcome {
        self.run_with(inst, cfg, &RunOptions::default())
    }

    /// Runs the variant with a telemetry sink, cancel token, fault hook
    /// and clock (see [`RunOptions`]).
    ///
    /// * `Sequential` generates its neighborhood in `cfg.chunks` chunks;
    ///   `Synchronous(p)` and `Asynchronous(p)` use `p` chunks. Sequential
    ///   ignores the clock — its wall time is already a faithful serial
    ///   measurement.
    /// * The cancel token is checked at the top of each iteration (per
    ///   searcher for the collaborative variant), so a stopped run returns
    ///   its best-so-far front as a valid, truncated prefix of the
    ///   unstopped run; read [`CancelToken::cause`] to learn why it
    ///   stopped. This is what the solver service (`tsmo-serve`) and the
    ///   `solve --deadline-ms` / `--cancel-after-iters` flags use.
    /// * The fault hook drives the asynchronous variant's worker tasks
    ///   (resent, quarantined, respawned, degraded mode) and the
    ///   collaborative variant's exchanges (dropped or delayed, dead peers
    ///   routed around). `Sequential` and `Synchronous` have no recovery
    ///   path and ignore it.
    /// * On [`Clock::Virtual`] the run is single-threaded, so its event
    ///   stream is byte-reproducible for a fixed seed (fix
    ///   [`TsmoConfig::sim_eval_cost`] to also pin the simulated schedule
    ///   of the asynchronous and collaborative variants — faulted runs
    ///   included). On threads, the *interleaving* of worker and
    ///   multisearch events follows thread timing.
    ///
    /// # Panics
    /// Panics on zero processors, or on a speed vector whose length is not
    /// the processor count.
    pub fn run_with(
        self,
        inst: &Arc<Instance>,
        cfg: &TsmoConfig,
        opts: &RunOptions,
    ) -> TsmoOutcome {
        let (processors, chunks) = match self {
            ParallelVariant::Sequential => (1, cfg.chunks),
            ParallelVariant::Synchronous(p) | ParallelVariant::Asynchronous(p) => (p, p),
            ParallelVariant::Collaborative(p) => (p, cfg.chunks),
        };
        assert!(processors > 0, "{self:?} needs at least one processor");
        let cfg = TsmoConfig {
            chunks,
            ..cfg.clone()
        };
        let speeds = match &opts.clock {
            Clock::Wall => None,
            Clock::Virtual { speeds } => Some(speeds.as_deref()),
        };
        let recorder = &opts.recorder;
        let sim = |speeds| SimClock::new(&cfg, processors, speeds);
        let params = cfg.sample_params();
        let no_faults = tsmo_faults::none();
        // Executors are built before the search core so a wall-clock
        // runtime covers construction.
        match (self, speeds) {
            (ParallelVariant::Sequential, _) | (ParallelVariant::Synchronous(_), None) => {
                let exec = Threads::spawn(inst, processors, params, recorder, &no_faults, |p| p);
                barrier::run(master(inst, &cfg, recorder), exec, &opts.cancel)
            }
            (ParallelVariant::Synchronous(_), Some(speeds)) => {
                let exec = Virtual::new(inst, sim(speeds), recorder, &no_faults);
                barrier::run(master(inst, &cfg, recorder), exec, &opts.cancel)
            }
            (ParallelVariant::Asynchronous(_), None) => {
                let exec = Threads::supervised(inst, processors, params, recorder, &opts.faults);
                asynchronous::run(master(inst, &cfg, recorder), exec, &opts.cancel, &mut ())
            }
            (ParallelVariant::Asynchronous(_), Some(speeds)) => {
                let exec = Virtual::new(inst, sim(speeds), recorder, &opts.faults);
                asynchronous::run(master(inst, &cfg, recorder), exec, &opts.cancel, &mut ())
            }
            (ParallelVariant::Collaborative(n), None) => collaborative::run(inst, &cfg, n, opts),
            (ParallelVariant::Collaborative(n), Some(speeds)) => {
                simulated::run_collaborative(inst, &cfg, n, speeds, opts)
            }
        }
    }

    /// A short label for result tables (`"TSMO sync."` style).
    pub fn label(self) -> String {
        match self {
            ParallelVariant::Sequential => "Sequential TSMO".to_string(),
            ParallelVariant::Synchronous(p) => format!("TSMO sync. ({p})"),
            ParallelVariant::Asynchronous(p) => format!("TSMO async. ({p})"),
            ParallelVariant::Collaborative(p) => format!("TSMO coll. ({p})"),
        }
    }
}

/// The single search core of a master–worker run: searcher 0, seeded
/// directly from `cfg.seed`.
fn master(
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    recorder: &Arc<dyn tsmo_obs::Recorder>,
) -> SearchCore {
    SearchCore::with_recorder(
        Arc::clone(inst),
        cfg.clone(),
        Xoshiro256StarStar::seed_from_u64(cfg.seed),
        Arc::clone(recorder),
        0,
    )
}

#[cfg(test)]
mod variant_tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    #[test]
    fn all_variants_run_and_produce_fronts() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 5).build());
        let cfg = TsmoConfig {
            max_evaluations: 2_000,
            neighborhood_size: 40,
            ..TsmoConfig::default()
        };
        for variant in [
            ParallelVariant::Sequential,
            ParallelVariant::Synchronous(3),
            ParallelVariant::Asynchronous(3),
            ParallelVariant::Collaborative(3),
        ] {
            let out = variant.run(&inst, &cfg);
            assert!(
                !out.archive.is_empty(),
                "{variant:?} produced an empty archive"
            );
            assert!(out.evaluations > 0, "{variant:?} did no evaluations");
            for entry in &out.archive {
                assert!(
                    entry.solution.check(&inst).is_empty(),
                    "{variant:?} invalid solution"
                );
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> = [
            ParallelVariant::Sequential,
            ParallelVariant::Synchronous(3),
            ParallelVariant::Asynchronous(3),
            ParallelVariant::Collaborative(3),
            ParallelVariant::Synchronous(6),
        ]
        .iter()
        .map(|v| v.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
