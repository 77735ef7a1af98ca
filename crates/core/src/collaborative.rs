//! The collaborative multisearch variant (§III.E) on threads.
//!
//! `P` searchers run the sequential algorithm concurrently, each with its
//! own evaluation budget and — except for the first — parameters disturbed
//! by `N(0, param/4)`. After an *initial phase* (which ends once a
//! searcher's archive has stagnated for its stagnation limit), every
//! solution that enters a searcher's archive is sent to exactly one peer:
//! the head of its randomly initialized communication list, which then
//! rotates. Receivers offer incoming solutions to their `M_nondom`, from
//! which the restart mechanism can pick them up.
//!
//! The returned archive is the non-dominated merge of the searchers'
//! archives, truncated to the configured capacity with the same crowding
//! rule; evaluations and iterations are summed over searchers.
//!
//! # Robustness
//!
//! Exchange traffic is fault-injectable: messages can be dropped in
//! transit or delayed by a number of sender iterations. Each endpoint
//! tracks peer liveness — a peer whose mailbox is gone is skipped by the
//! rotation (the message fails over to the next live peer) and probed
//! periodically for re-admission. Undeliverable entries are counted in
//! `tsmo_exchange_undeliverable_total` and simply dropped: collaboration
//! is an optimization, never a correctness dependency.

use crate::config::TsmoConfig;
use crate::options::RunOptions;
use crate::outcome::{FrontEntry, TsmoOutcome};
use crate::searcher::{searcher_cfg, CollabSearcher};
use deme::multisearch::{self, Endpoint};
use deme::RunClock;
use detrand::{streams, Xoshiro256StarStar};
use std::sync::Arc;
use tsmo_obs::metrics::names;
use vrptw::Instance;

/// Runs every searcher of an `n`-searcher network on its own thread:
/// `searcher(id, cfg, rng, endpoint)` gets searcher `id`'s configuration
/// (see [`searcher_cfg`]), the rest of its stream and its endpoint.
pub(crate) fn on_threads<R: Send>(
    base: &TsmoConfig,
    n: usize,
    searcher: impl Fn(usize, TsmoConfig, Xoshiro256StarStar, Endpoint<FrontEntry>) -> R + Sync,
) -> Vec<R> {
    let mut rngs = streams(base.seed, n);
    let endpoints = multisearch::network::<FrontEntry, _>(n, &mut rngs);
    let searcher = &searcher;
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(rngs)
            .enumerate()
            .map(|(id, (endpoint, mut rng))| {
                scope.spawn(move || {
                    let cfg = searcher_cfg(base, id, &mut rng);
                    searcher(id, cfg, rng, endpoint)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("searcher panicked"))
            .collect()
    })
}

/// Runs `n` searchers on threads, one [`CollabSearcher`] each. Events are
/// tagged with the emitting searcher's index and their interleaving across
/// searchers follows thread timing; the cancel token is shared, and each
/// searcher checks it at the top of its own iterations (an iteration limit
/// therefore applies per searcher).
pub(crate) fn run(
    inst: &Arc<Instance>,
    base: &TsmoConfig,
    n: usize,
    opts: &RunOptions,
) -> TsmoOutcome {
    let clock = RunClock::start();
    let results = on_threads(base, n, |id, cfg, rng, mut endpoint| {
        let (recorder, hook) = (Arc::clone(&opts.recorder), Arc::clone(&opts.faults));
        let mut searcher = CollabSearcher::new(
            Arc::clone(inst),
            cfg,
            rng,
            recorder,
            id,
            opts.cancel.clone(),
            hook,
        );
        while searcher.step_once(&mut endpoint) {}
        searcher.finish(&mut endpoint)
    });
    let runtime_seconds = clock.seconds();
    let recorder = &opts.recorder;
    for (id, result) in results.iter().enumerate() {
        // Searchers are peers: "busy" is the fraction of the run they
        // were still searching (they stop when their budget is spent).
        let frac = if runtime_seconds > 0.0 {
            (result.active_seconds / runtime_seconds).min(1.0)
        } else {
            0.0
        };
        recorder.gauge_set(&names::worker_busy_fraction(id), frac);
    }
    recorder.gauge_set(names::RUNTIME_SECONDS, runtime_seconds);
    TsmoOutcome::merged(
        base.archive_capacity,
        runtime_seconds,
        results
            .into_iter()
            .map(|r| (r.archive, r.evaluations, r.iterations)),
    )
}

#[cfg(test)]
mod tests {
    use crate::{ParallelVariant, TsmoConfig};
    use pareto::non_dominated_indices;
    use std::sync::Arc;
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
    fn per_searcher_budgets_are_summed() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let out = ParallelVariant::Collaborative(3).run(&inst, &cfg());
        // Each of the 3 searchers spends its own 1,500 evaluations.
        assert_eq!(out.evaluations, 4_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn merged_archive_is_non_dominated_and_bounded() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 30, 2).build());
        let out = ParallelVariant::Collaborative(4).run(&inst, &cfg());
        assert!(out.archive.len() <= cfg().archive_capacity);
        assert_eq!(non_dominated_indices(&out.archive).len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn single_searcher_matches_sequential_quality_shape() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 8).build());
        let out = ParallelVariant::Collaborative(1).run(&inst, &cfg());
        assert_eq!(out.evaluations, 1_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn more_searchers_do_not_hurt_the_front() {
        // With per-searcher budgets, P searchers explore P× as much; the
        // merged front should (statistically) dominate more than a single
        // searcher's. Use the coverage metric with a fixed seed.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 13).build());
        let one = ParallelVariant::Collaborative(1).run(&inst, &cfg().with_seed(21));
        let four = ParallelVariant::Collaborative(4).run(&inst, &cfg().with_seed(21));
        let c_four_over_one = pareto::coverage(&four.archive, &one.archive);
        let c_one_over_four = pareto::coverage(&one.archive, &four.archive);
        assert!(
            c_four_over_one >= c_one_over_four,
            "4 searchers ({c_four_over_one:.2}) should cover at least as well as 1 ({c_one_over_four:.2})"
        );
    }
}
