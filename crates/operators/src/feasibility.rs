//! The paper's local feasibility criterion (§II.B).
//!
//! Each operator discards moves that would *obviously* violate time windows
//! at the splice points. The criterion only inspects the two endpoints of
//! each newly created arc — it is "weak enough that solutions with time
//! window violations occur and strong enough that the algorithm could find
//! back to a solution with all time windows satisfied".

use crate::moves::Move;
use vrptw::{Instance, SiteId, Solution};

/// Whether the directed arc `u → v` passes the local time-window check:
/// leaving `u` at its earliest possible completion (`a_u + c_u`) must reach
/// `v` no later than `v`'s due date (`b_v`).
///
/// With `v` the depot this checks the route can still make it home; with
/// `u` the depot it checks `v` is reachable from the start of the day.
/// The test depends on the instance alone, so it reads the bitset the
/// `Instance` builds on first use ([`Instance::arc_feasible`]).
#[inline]
pub fn arc_feasible(inst: &Instance, u: SiteId, v: SiteId) -> bool {
    inst.arc_feasible(u, v)
}

/// The criterion applied to a whole move: every arc `mv` would create in
/// `snapshot` passes [`arc_feasible`]. Reads the move's closed-form arc
/// delta ([`Move::arcs`]), so a rejected move costs no expansion and no
/// allocation.
#[inline]
pub(crate) fn move_feasible(inst: &Instance, snapshot: &Solution, mv: &Move) -> bool {
    mv.arcs(snapshot)
        .created()
        .all(|(u, v)| arc_feasible(inst, u, v))
}

/// The criterion exactly as the paper words it for Relocate: inserting
/// customer `k` between `i` and `j` is allowed only if neither
/// `a_i + c_i + t_{i,k} > b_k` nor `a_k + c_k + t_{k,j} > b_j` holds.
#[inline]
pub fn insertion_feasible(inst: &Instance, i: SiteId, k: SiteId, j: SiteId) -> bool {
    arc_feasible(inst, i, k) && arc_feasible(inst, k, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::{Customer, Instance};

    fn line_instance() -> Instance {
        // Depot at 0; customers at x = 10, 20, 30 with varied windows.
        let depot = Customer {
            x: 0.0,
            y: 0.0,
            demand: 0.0,
            ready: 0.0,
            due: 1000.0,
            service: 0.0,
        };
        let c = |x: f64, ready: f64, due: f64| Customer {
            x,
            y: 0.0,
            demand: 1.0,
            ready,
            due,
            service: 5.0,
        };
        Instance::new(
            "line",
            vec![
                depot,
                c(10.0, 0.0, 100.0),
                c(20.0, 50.0, 60.0),
                c(30.0, 0.0, 20.0),
            ],
            10.0,
            3,
        )
    }

    #[test]
    fn arc_from_depot_checks_reachability() {
        let inst = line_instance();
        // Depot -> customer 3: t = 30 > due 20 => infeasible.
        assert!(!arc_feasible(&inst, 0, 3));
        // Depot -> customer 1: t = 10 <= 100 => feasible.
        assert!(arc_feasible(&inst, 0, 1));
    }

    #[test]
    fn arc_between_customers_uses_ready_plus_service() {
        let inst = line_instance();
        // Customer 2 (ready 50, service 5) -> customer 3 (due 20):
        // 50 + 5 + 10 = 65 > 20 => infeasible.
        assert!(!arc_feasible(&inst, 2, 3));
        // Customer 1 (ready 0, service 5) -> customer 2 (due 60):
        // 0 + 5 + 10 = 15 <= 60 => feasible.
        assert!(arc_feasible(&inst, 1, 2));
    }

    #[test]
    fn arc_to_depot_checks_the_way_home() {
        let inst = line_instance();
        assert!(arc_feasible(&inst, 3, 0)); // 0+5+30 <= 1000
    }

    #[test]
    fn insertion_requires_both_arcs() {
        let inst = line_instance();
        // Insert 2 between 1 and 3: 1->2 fine, 2->3 violates.
        assert!(!insertion_feasible(&inst, 1, 2, 3));
        // Insert 1 between depot and 2: both arcs fine.
        assert!(insertion_feasible(&inst, 0, 1, 2));
    }

    #[test]
    fn boundary_case_is_feasible() {
        // Exactly meeting the due date is allowed (<=, not <).
        let depot = Customer {
            x: 0.0,
            y: 0.0,
            demand: 0.0,
            ready: 0.0,
            due: 100.0,
            service: 0.0,
        };
        let c = Customer {
            x: 10.0,
            y: 0.0,
            demand: 1.0,
            ready: 0.0,
            due: 10.0,
            service: 0.0,
        };
        let inst = Instance::new("edge", vec![depot, c], 10.0, 1);
        assert!(arc_feasible(&inst, 0, 1));
    }
}
