//! End-to-end integration: generator → parser round trip → construction →
//! all four algorithm variants → multiobjective metrics, exercised through
//! the public API exactly as a downstream user would.

use std::sync::Arc;
use tsmo_suite::pareto::{coverage, non_dominated_indices};
use tsmo_suite::prelude::*;
use tsmo_suite::vrptw::solomon;
use tsmo_suite::vrptw_construct::{i1, nearest_neighbor, savings};

fn instance() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::RC2, 50, 99).build())
}

#[test]
fn generated_instance_survives_solomon_round_trip_and_solves() {
    let inst = instance();
    let text = solomon::write(&inst);
    let reloaded = Arc::new(solomon::parse(&text).expect("round trip"));
    assert_eq!(reloaded.n_customers(), inst.n_customers());

    let cfg = TsmoConfig {
        max_evaluations: 2_000,
        neighborhood_size: 50,
        ..TsmoConfig::default()
    };
    // Same seed + same instance data => identical fronts even through the
    // serialization round trip.
    let a = ParallelVariant::Sequential.run(&inst, &cfg.clone().with_seed(4));
    let b = ParallelVariant::Sequential.run(&reloaded, &cfg.with_seed(4));
    assert_eq!(a.feasible_vectors(), b.feasible_vectors());
}

#[test]
fn all_constructors_feed_the_search() {
    let inst = instance();
    let mut rng = DefaultRng::seed_from_u64(8);
    for sol in [
        i1(&inst, &I1Config::random(&mut rng)),
        nearest_neighbor(&inst),
        savings(&inst),
    ] {
        assert!(sol.check(&inst).is_empty());
        let obj = sol.evaluate(&inst);
        assert!(obj.distance > 0.0);
        assert!(obj.vehicles >= 1 && obj.vehicles <= inst.max_vehicles());
    }
}

#[test]
fn variants_agree_on_accounting_and_validity() {
    let inst = instance();
    let cfg = TsmoConfig {
        max_evaluations: 2_000,
        neighborhood_size: 40,
        ..TsmoConfig::default()
    };
    for variant in [
        ParallelVariant::Sequential,
        ParallelVariant::Synchronous(3),
        ParallelVariant::Asynchronous(3),
    ] {
        let out = variant.run(&inst, &cfg);
        assert_eq!(out.evaluations, 2_000, "{variant:?}");
        assert_eq!(
            non_dominated_indices(&out.archive).len(),
            out.archive.len(),
            "{variant:?}: archive must be mutually non-dominated"
        );
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty(), "{variant:?}");
            let fresh = e.solution.evaluate(&inst);
            assert!(
                (fresh.distance - e.objectives.distance).abs() < 1e-6,
                "{variant:?}: cached objectives must match re-evaluation"
            );
        }
    }
    // Collaborative: per-searcher budgets.
    let out = ParallelVariant::Collaborative(3).run(&inst, &cfg);
    assert_eq!(out.evaluations, 6_000);
}

#[test]
fn coverage_metric_is_sane_between_real_runs() {
    let inst = instance();
    let cfg = TsmoConfig {
        max_evaluations: 3_000,
        neighborhood_size: 50,
        ..TsmoConfig::default()
    };
    let a = ParallelVariant::Sequential.run(&inst, &cfg.clone().with_seed(1));
    let b = ParallelVariant::Sequential.run(&inst, &cfg.with_seed(2));
    let (fa, fb) = (a.feasible_vectors(), b.feasible_vectors());
    assert!(!fa.is_empty() && !fb.is_empty());
    let cab = coverage(&fa, &fb);
    let cba = coverage(&fb, &fa);
    assert!((0.0..=1.0).contains(&cab));
    assert!((0.0..=1.0).contains(&cba));
    // Self-coverage is always 1.
    assert_eq!(coverage(&fa, &fa), 1.0);
}

#[test]
fn longer_budgets_do_not_produce_worse_fronts() {
    let inst = instance();
    let short = ParallelVariant::Sequential.run(
        &inst,
        &TsmoConfig {
            max_evaluations: 500,
            neighborhood_size: 50,
            seed: 6,
            ..TsmoConfig::default()
        },
    );
    let long = ParallelVariant::Sequential.run(
        &inst,
        &TsmoConfig {
            max_evaluations: 8_000,
            neighborhood_size: 50,
            seed: 6,
            ..TsmoConfig::default()
        },
    );
    let (s, l) = (
        short.best_distance().expect("feasible"),
        long.best_distance().expect("feasible"),
    );
    assert!(
        l <= s * 1.02,
        "16x the budget should not be meaningfully worse: {l} vs {s}"
    );
}
