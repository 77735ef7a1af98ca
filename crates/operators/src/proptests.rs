//! Property-based tests over randomly generated instances and solutions:
//! the operator layer must never break the permutation invariant, the
//! incremental preview must always agree with a from-scratch evaluation,
//! and the closed-form arc deltas and the arc bitset must agree with their
//! brute-force definitions.

use crate::descent::enumerate_moves;
use crate::feasibility::move_feasible;
use crate::moves::{Arc, Move};
use crate::sample::{sample_move, SampleParams};
use detrand::{Rng, Xoshiro256StarStar};
use proptest::prelude::*;
use proptest::TestCaseError;
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::solution::EvaluatedSolution;
use vrptw::{Customer, Instance, SiteId, Solution, DEPOT};

/// Builds a random (structurally valid) solution by dealing customers into
/// `k` routes in shuffled order.
fn random_solution(inst: &Instance, k: usize, seed: u64) -> Solution {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut customers: Vec<u16> = inst.customers().collect();
    rng.shuffle(&mut customers);
    let k = k.clamp(1, inst.max_vehicles());
    let mut routes: Vec<Vec<u16>> = vec![Vec::new(); k];
    for (i, c) in customers.into_iter().enumerate() {
        routes[i % k].push(c);
    }
    Solution::from_routes(routes)
}

/// Like [`random_solution`], but the first `singletons` shuffled customers
/// each get a route of their own, so that Relocate and 2-opt* can empty a
/// route.
fn solution_with_singletons(inst: &Instance, k: usize, singletons: usize, seed: u64) -> Solution {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut customers: Vec<u16> = inst.customers().collect();
    rng.shuffle(&mut customers);
    let singletons = singletons.min(customers.len() - 1);
    let mut routes: Vec<Vec<u16>> = customers[..singletons].iter().map(|&c| vec![c]).collect();
    let k = k.max(1);
    let mut dealt: Vec<Vec<u16>> = vec![Vec::new(); k];
    for (i, &c) in customers[singletons..].iter().enumerate() {
        dealt[i % k].push(c);
    }
    routes.extend(dealt);
    Solution::from_routes(routes)
}

/// Appends the depot-to-depot arc sequence of a route to `out`.
fn collect_arcs(route: &[SiteId], out: &mut Vec<Arc>) {
    if route.is_empty() {
        return;
    }
    out.push((DEPOT, route[0]));
    for w in route.windows(2) {
        out.push((w[0], w[1]));
    }
    out.push((route[route.len() - 1], DEPOT));
}

/// Multiset difference `a \ b`.
fn multiset_minus(a: &[Arc], b: &[Arc]) -> Vec<Arc> {
    let mut remaining: Vec<Arc> = b.to_vec();
    let mut out = Vec::new();
    for &arc in a {
        if let Some(pos) = remaining.iter().position(|&x| x == arc) {
            remaining.swap_remove(pos);
        } else {
            out.push(arc);
        }
    }
    out
}

/// The oracle for [`Move::arcs`]: `(removed, created)` by expanding the
/// move and diffing the touched routes' arc multisets, both sorted.
fn diffed_arcs(mv: &Move, snapshot: &EvaluatedSolution) -> (Vec<Arc>, Vec<Arc>) {
    let patch = mv.expand(snapshot);
    let mut before = Vec::new();
    let mut after = Vec::new();
    for (idx, new_route) in &patch.replace {
        collect_arcs(snapshot.route(*idx), &mut before);
        collect_arcs(new_route, &mut after);
    }
    for new_route in &patch.append {
        collect_arcs(new_route, &mut after);
    }
    let mut removed = multiset_minus(&before, &after);
    let mut created = multiset_minus(&after, &before);
    removed.sort_unstable();
    created.sort_unstable();
    (removed, created)
}

/// For every enumerable move (feasible or not) of `sol`, the closed-form
/// arc delta equals the expand-and-diff oracle as multisets, and the one
/// arc filter agrees with checking the oracle's created arcs against the
/// §II.B formula.
fn check_closed_form(inst: &Instance, sol: Solution) -> Result<(), TestCaseError> {
    prop_assert!(sol.check(inst).is_empty());
    let ev = EvaluatedSolution::new(sol, inst);
    let formula = |(u, v): Arc| {
        inst.site(u).ready + inst.site(u).service + inst.dist(u, v) <= inst.site(v).due
    };
    for mv in enumerate_moves(&ev) {
        let (removed, created) = diffed_arcs(&mv, &ev);
        let delta = mv.arcs(ev.solution());
        let mut closed_removed: Vec<Arc> = delta.removed().collect();
        let mut closed_created: Vec<Arc> = delta.created().collect();
        closed_removed.sort_unstable();
        closed_created.sort_unstable();
        prop_assert_eq!(&closed_removed, &removed, "removed arcs of {:?}", mv);
        prop_assert_eq!(&closed_created, &created, "created arcs of {:?}", mv);
        prop_assert_eq!(
            move_feasible(inst, ev.solution(), &mv),
            created.iter().all(|&arc| formula(arc)),
            "arc filter of {:?}",
            mv
        );
    }
    Ok(())
}

/// An instance whose windows ignore travel times: some customers cannot be
/// reached from the depot by their due date, and some cannot get back
/// before the depot closes.
fn unreachable_windows(n: usize, seed: u64) -> Instance {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let depot = Customer {
        x: 50.0,
        y: 50.0,
        demand: 0.0,
        ready: 0.0,
        due: 150.0,
        service: 0.0,
    };
    let mut sites = vec![depot];
    for _ in 0..n {
        let ready = rng.range_f64(0.0, 100.0);
        sites.push(Customer {
            x: rng.range_f64(0.0, 100.0),
            y: rng.range_f64(0.0, 100.0),
            demand: 1.0,
            ready,
            due: ready + rng.range_f64(0.0, 30.0),
            service: 10.0,
        });
    }
    Instance::new("unreachable", sites, n as f64, n)
}

fn class_from(idx: u8) -> InstanceClass {
    InstanceClass::ALL[idx as usize % InstanceClass::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any chain of sampled moves preserves the permutation invariant.
    #[test]
    fn move_chains_preserve_permutation(
        class_idx in 0u8..6,
        n in 8usize..40,
        k in 2usize..6,
        seed in 0u64..1_000,
        chain_len in 1usize..30,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let sol = random_solution(&inst, k, seed ^ 0xABCD);
        prop_assert!(sol.check(&inst).is_empty());
        let mut ev = EvaluatedSolution::new(sol, &inst);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_add(17));
        let mut applied = 0;
        let mut attempts = 0;
        while applied < chain_len && attempts < chain_len * 50 {
            attempts += 1;
            if let Some(c) = sample_move(&mut rng, &inst, &ev, SampleParams::default()) {
                ev.apply(&inst, c.patch);
                applied += 1;
                prop_assert!(ev.solution().check(&inst).is_empty());
            }
        }
    }

    /// The incremental preview of every sampled candidate equals a full
    /// re-evaluation of the patched solution.
    #[test]
    fn preview_agrees_with_full_evaluation(
        class_idx in 0u8..6,
        n in 8usize..40,
        k in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let sol = random_solution(&inst, k, seed ^ 0x1234);
        let ev = EvaluatedSolution::new(sol, &inst);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_add(99));
        for _ in 0..40 {
            if let Some(c) = sample_move(&mut rng, &inst, &ev, SampleParams::default()) {
                let mut applied = ev.clone();
                applied.apply(&inst, c.patch.clone());
                let full = applied.solution().evaluate(&inst);
                prop_assert!((c.preview.objectives.distance - full.distance).abs() < 1e-6,
                    "distance mismatch for {:?}", c.mv);
                prop_assert_eq!(c.preview.objectives.vehicles, full.vehicles);
                prop_assert!((c.preview.objectives.tardiness - full.tardiness).abs() < 1e-6,
                    "tardiness mismatch for {:?}", c.mv);
            }
        }
    }

    /// Applying a move and then checking arc bookkeeping: every arc the move
    /// reports as created is present afterwards, every arc reported removed
    /// is gone (as a multiset over the touched routes).
    #[test]
    fn arc_delta_is_consistent_with_application(
        n in 8usize..30,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        let inst = GeneratorConfig::new(InstanceClass::R2, n, seed).build();
        let sol = random_solution(&inst, k, seed ^ 0x77);
        let ev = EvaluatedSolution::new(sol, &inst);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_add(5));
        for _ in 0..20 {
            if let Some(c) = sample_move(&mut rng, &inst, &ev, SampleParams::default()) {
                let created = c.mv.arcs_created(&ev);
                let removed = c.mv.arcs_removed(&ev);
                // No arc may appear on both sides.
                for arc in &created {
                    prop_assert!(!removed.contains(arc),
                        "arc {:?} both created and removed by {:?}", arc, c.mv);
                }
                let mut applied = ev.clone();
                applied.apply(&inst, c.patch.clone());
                let all_arcs = |e: &EvaluatedSolution| -> Vec<(u16, u16)> {
                    let mut arcs = Vec::new();
                    for i in 0..e.n_routes() {
                        let r = e.route(i);
                        arcs.push((0, r[0]));
                        for w in r.windows(2) { arcs.push((w[0], w[1])); }
                        arcs.push((r[r.len()-1], 0));
                    }
                    arcs
                };
                let after = all_arcs(&applied);
                for arc in &created {
                    prop_assert!(after.contains(arc),
                        "created arc {:?} missing after {:?}", arc, c.mv);
                }
                let before = all_arcs(&ev);
                for arc in &removed {
                    prop_assert!(before.contains(arc));
                }
            }
        }
    }

    /// Round-trip: every reachable solution encodes to a giant tour of
    /// length N+R+1 and decodes back to itself.
    #[test]
    fn giant_tour_roundtrip_over_random_solutions(
        class_idx in 0u8..6,
        n in 5usize..50,
        k in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let sol = random_solution(&inst, k, seed);
        let tour = sol.giant_tour(&inst);
        prop_assert_eq!(tour.len(), inst.n_customers() + inst.max_vehicles() + 1);
        let back = Solution::from_giant_tour(&inst, &tour).unwrap();
        prop_assert_eq!(back, sol);
    }

    /// For every move of a random solution with singleton routes, on
    /// generated instances of all six classes.
    #[test]
    fn closed_form_arcs_equal_the_diff_for_every_move(
        class_idx in 0u8..6,
        n in 4usize..18,
        k in 1usize..4,
        singletons in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed)
            .with_max_vehicles(n)
            .build();
        let sol = solution_with_singletons(&inst, k, singletons, seed ^ 0x5EED);
        check_closed_form(&inst, sol)?;
    }

    /// The same on instances whose depot arcs can fail the criterion, so
    /// that a move re-creating such an arc it also cuts is accepted only
    /// because the two cancel.
    #[test]
    fn closed_form_arcs_equal_the_diff_on_unreachable_windows(
        n in 4usize..18,
        k in 1usize..4,
        singletons in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let inst = unreachable_windows(n, seed);
        let sol = solution_with_singletons(&inst, k, singletons, seed ^ 0xD0);
        check_closed_form(&inst, sol)?;
    }

    /// The arc bitset equals the `a_u + c_u + t_uv ≤ b_v` expression for
    /// every ordered pair of sites, the diagonal included.
    #[test]
    fn arc_bitset_matches_the_formula(
        class_idx in 0u8..6,
        n in 1usize..70,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let sites = inst.n_sites() as SiteId;
        for u in 0..sites {
            for v in 0..sites {
                let (su, sv) = (inst.site(u), inst.site(v));
                prop_assert_eq!(
                    inst.arc_feasible(u, v),
                    su.ready + su.service + inst.dist(u, v) <= sv.due,
                    "arc {} -> {}", u, v
                );
            }
        }
    }
}
