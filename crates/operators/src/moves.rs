//! The move vocabulary: plain-data descriptions of route edits.

use vrptw::solution::{EvaluatedSolution, RoutePatch};
use vrptw::{SiteId, Solution, DEPOT};

/// A directed arc of the giant tour; `0` is the depot. Arcs are the
/// attributes stored in the tabu list: a move is tabu when it re-creates an
/// arc that a recent move removed (it would start undoing that move).
pub type Arc = (SiteId, SiteId);

/// The five operator families of §II.B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Move one customer to another route.
    Relocate,
    /// Swap two customers of different routes.
    Exchange,
    /// Reverse part of one tour.
    TwoOpt,
    /// Exchange the tails of two tours.
    TwoOptStar,
    /// Move two consecutive customers within their tour.
    OrOpt,
}

impl OperatorKind {
    /// All five operators, in the paper's order.
    pub const ALL: [OperatorKind; 5] = [
        OperatorKind::Relocate,
        OperatorKind::Exchange,
        OperatorKind::TwoOpt,
        OperatorKind::TwoOptStar,
        OperatorKind::OrOpt,
    ];

    /// This operator's position in [`OperatorKind::ALL`] — the index
    /// used by per-operator attribution arrays.
    pub fn index(self) -> usize {
        match self {
            OperatorKind::Relocate => 0,
            OperatorKind::Exchange => 1,
            OperatorKind::TwoOpt => 2,
            OperatorKind::TwoOptStar => 3,
            OperatorKind::OrOpt => 4,
        }
    }

    /// Stable snake_case label used as the `operator` metric label.
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::Relocate => "relocate",
            OperatorKind::Exchange => "exchange",
            OperatorKind::TwoOpt => "two_opt",
            OperatorKind::TwoOptStar => "two_opt_star",
            OperatorKind::OrOpt => "or_opt",
        }
    }
}

/// A sampled neighborhood move, expressed against a specific solution
/// snapshot (the route indices and positions refer to that snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Remove the customer at `from.1` in route `from.0` and insert it at
    /// position `to.1` of route `to.0` (≠ `from.0`); the insertion position
    /// is an index into the *unmodified* target route (`0..=len`).
    Relocate {
        /// `(route, position)` of the customer being moved.
        from: (usize, usize),
        /// `(route, insertion index)` in the target route.
        to: (usize, usize),
    },
    /// Swap the customers at the two `(route, position)` slots (different
    /// routes).
    Exchange {
        /// First slot.
        a: (usize, usize),
        /// Second slot.
        b: (usize, usize),
    },
    /// Reverse positions `i..=j` (inclusive, `i < j`) of `route`.
    TwoOpt {
        /// Route index.
        route: usize,
        /// First position of the reversed segment.
        i: usize,
        /// Last position of the reversed segment.
        j: usize,
    },
    /// Cross routes `a` and `b`: the new `a` keeps its first `cut_a`
    /// customers and receives `b`'s tail from `cut_b`, and vice versa.
    TwoOptStar {
        /// First route index.
        a: usize,
        /// Number of customers route `a` keeps.
        cut_a: usize,
        /// Second route index.
        b: usize,
        /// Number of customers route `b` keeps.
        cut_b: usize,
    },
    /// Move the pair at positions `(from, from+1)` of `route` so that it
    /// starts at position `to` of the route with the pair removed
    /// (`to != from`, `to <= len-2`).
    OrOpt {
        /// Route index.
        route: usize,
        /// Position of the first customer of the pair.
        from: usize,
        /// Insertion position in the pair-less route.
        to: usize,
    },
}

impl Move {
    /// The operator family this move belongs to.
    pub fn kind(&self) -> OperatorKind {
        match self {
            Move::Relocate { .. } => OperatorKind::Relocate,
            Move::Exchange { .. } => OperatorKind::Exchange,
            Move::TwoOpt { .. } => OperatorKind::TwoOpt,
            Move::TwoOptStar { .. } => OperatorKind::TwoOptStar,
            Move::OrOpt { .. } => OperatorKind::OrOpt,
        }
    }

    /// Builds the route patch this move performs on `snapshot`.
    ///
    /// # Panics
    /// Panics if the move's indices do not fit the snapshot (moves must be
    /// expanded against the same snapshot they were sampled from).
    pub fn expand(&self, snapshot: &EvaluatedSolution) -> RoutePatch {
        match *self {
            Move::Relocate { from, to } => {
                let (fr, fp) = from;
                let (tr, tp) = to;
                assert_ne!(fr, tr, "relocate requires distinct routes");
                let mut from_route = snapshot.route(fr).to_vec();
                let customer = from_route.remove(fp);
                let mut to_route = snapshot.route(tr).to_vec();
                to_route.insert(tp, customer);
                RoutePatch {
                    replace: vec![(fr, from_route), (tr, to_route)],
                    append: vec![],
                }
            }
            Move::Exchange { a, b } => {
                let (ra, pa) = a;
                let (rb, pb) = b;
                assert_ne!(ra, rb, "exchange requires distinct routes");
                let mut route_a = snapshot.route(ra).to_vec();
                let mut route_b = snapshot.route(rb).to_vec();
                std::mem::swap(&mut route_a[pa], &mut route_b[pb]);
                RoutePatch {
                    replace: vec![(ra, route_a), (rb, route_b)],
                    append: vec![],
                }
            }
            Move::TwoOpt { route, i, j } => {
                let mut r = snapshot.route(route).to_vec();
                assert!(i < j && j < r.len(), "invalid 2-opt segment");
                r[i..=j].reverse();
                RoutePatch {
                    replace: vec![(route, r)],
                    append: vec![],
                }
            }
            Move::TwoOptStar { a, cut_a, b, cut_b } => {
                assert_ne!(a, b, "2-opt* requires distinct routes");
                let ra = snapshot.route(a);
                let rb = snapshot.route(b);
                let mut new_a = ra[..cut_a].to_vec();
                new_a.extend_from_slice(&rb[cut_b..]);
                let mut new_b = rb[..cut_b].to_vec();
                new_b.extend_from_slice(&ra[cut_a..]);
                RoutePatch {
                    replace: vec![(a, new_a), (b, new_b)],
                    append: vec![],
                }
            }
            Move::OrOpt { route, from, to } => {
                let mut r = snapshot.route(route).to_vec();
                assert!(from + 1 < r.len(), "or-opt pair out of range");
                let second = r.remove(from + 1);
                let first = r.remove(from);
                assert!(to <= r.len() && to != from, "invalid or-opt target");
                r.insert(to, first);
                r.insert(to + 1, second);
                RoutePatch {
                    replace: vec![(route, r)],
                    append: vec![],
                }
            }
        }
    }

    /// The arcs this move removes from the solution (tabu attributes).
    pub fn arcs_removed(&self, snapshot: &EvaluatedSolution) -> Vec<Arc> {
        self.arcs(snapshot.solution()).removed().collect()
    }

    /// The arcs this move creates (checked against the tabu list).
    pub fn arcs_created(&self, snapshot: &EvaluatedSolution) -> Vec<Arc> {
        self.arcs(snapshot.solution()).created().collect()
    }

    /// The move's arc delta against `snapshot`, in closed form: the
    /// multiset difference between the touched routes' arcs before and
    /// after [`expand`](Self::expand), computed from the splice points
    /// alone, without expanding the move or allocating.
    ///
    /// Every operator cuts and adds at most four boundary arcs; 2-opt
    /// also reverses its segment's interior arcs, which never cancel
    /// against anything. An arc both cut and added is in neither result
    /// (relocating a route's first customer to the front of another route
    /// cuts and re-adds the same depot arc), and the depot→depot arc of an
    /// emptied route is dropped (an empty route has no arcs).
    #[inline]
    pub fn arcs<'a>(&self, snapshot: &'a Solution) -> ArcDelta<'a> {
        let route = |i: usize| snapshot.routes()[i].as_slice();
        // The sites on either side of slot `p` of `r`: `before(r, p)` ends
        // the arc into position `p`, `at(r, p)` is whatever sits there (the
        // depot past the end).
        let before = |r: &[SiteId], p: usize| if p == 0 { DEPOT } else { r[p - 1] };
        let at = |r: &[SiteId], p: usize| r.get(p).copied().unwrap_or(DEPOT);
        match *self {
            Move::Relocate {
                from: (fr, fp),
                to: (tr, tp),
            } => {
                let (f, t) = (route(fr), route(tr));
                let c = f[fp];
                let (a, b) = (before(f, fp), at(f, fp + 1));
                let (x, y) = (before(t, tp), at(t, tp));
                ArcDelta::new(&[(a, c), (c, b), (x, y)], &[(a, b), (x, c), (c, y)], &[])
            }
            Move::Exchange {
                a: (ra, pa),
                b: (rb, pb),
            } => {
                let (ra, rb) = (route(ra), route(rb));
                let (ca, cb) = (ra[pa], rb[pb]);
                let (a0, a1) = (before(ra, pa), at(ra, pa + 1));
                let (b0, b1) = (before(rb, pb), at(rb, pb + 1));
                ArcDelta::new(
                    &[(a0, ca), (ca, a1), (b0, cb), (cb, b1)],
                    &[(a0, cb), (cb, a1), (b0, ca), (ca, b1)],
                    &[],
                )
            }
            Move::TwoOpt { route: r, i, j } => {
                let r = route(r);
                let (p, n) = (before(r, i), at(r, j + 1));
                ArcDelta::new(&[(p, r[i]), (r[j], n)], &[(p, r[j]), (r[i], n)], &r[i..=j])
            }
            Move::TwoOptStar { a, cut_a, b, cut_b } => {
                let (ra, rb) = (route(a), route(b));
                let (xa, ya) = (before(ra, cut_a), at(ra, cut_a));
                let (xb, yb) = (before(rb, cut_b), at(rb, cut_b));
                ArcDelta::new(&[(xa, ya), (xb, yb)], &[(xa, yb), (xb, ya)], &[])
            }
            Move::OrOpt { route: r, from, to } => {
                let r = route(r);
                let (p, q) = (r[from], r[from + 1]);
                let (a, b) = (before(r, from), at(r, from + 2));
                // The pair lands in slot `to` of the route without it; the
                // arc it splits there is an original arc (`to != from`).
                let without = |k: usize| if k < from { r[k] } else { r[k + 2] };
                let x = if to == 0 { DEPOT } else { without(to - 1) };
                let y = if to + 2 < r.len() { without(to) } else { DEPOT };
                ArcDelta::new(&[(a, p), (q, b), (x, y)], &[(a, b), (x, p), (q, y)], &[])
            }
        }
    }
}

/// The arcs a move removes and creates ([`Move::arcs`]), held without
/// allocation: the (at most four) boundary arcs the splice cuts and the
/// ones it adds, plus the 2-opt segment whose interior arcs are removed
/// and created reversed.
///
/// Within one move the cut arcs are pairwise distinct, and so are the added
/// ones (all are arcs of one valid solution), so cancelling the two lists
/// as multisets is a set difference, done lazily by the iterators.
#[derive(Debug, Clone, Copy)]
pub struct ArcDelta<'a> {
    /// Cut boundary arcs; unused slots hold the depot→depot arc.
    cut: [Arc; 4],
    /// Added boundary arcs; unused slots, and the arc of a route the move
    /// empties, hold the depot→depot arc.
    added: [Arc; 4],
    /// The segment `r[i..=j]` a 2-opt reverses (empty for other moves).
    segment: &'a [SiteId],
}

/// The depot→depot arc: slot filler, and what an emptied route's splice
/// "creates" (an empty route has no arcs).
const NO_ARC: Arc = (DEPOT, DEPOT);

impl<'a> ArcDelta<'a> {
    #[inline]
    fn new(cut: &[Arc], added: &[Arc], segment: &'a [SiteId]) -> Self {
        let pad = |arcs: &[Arc]| {
            let mut out = [NO_ARC; 4];
            out[..arcs.len()].copy_from_slice(arcs);
            out
        };
        ArcDelta {
            cut: pad(cut),
            added: pad(added),
            segment,
        }
    }

    /// Arcs of the snapshot the move removes.
    pub fn removed(&self) -> impl Iterator<Item = Arc> + 'a {
        let added = self.added;
        self.cut
            .into_iter()
            .filter(move |arc| *arc != NO_ARC && !added.contains(arc))
            .chain(self.segment.windows(2).map(|w| (w[0], w[1])))
    }

    /// Arcs the move creates.
    pub fn created(&self) -> impl Iterator<Item = Arc> + 'a {
        let cut = self.cut;
        self.added
            .into_iter()
            .filter(move |arc| *arc != NO_ARC && !cut.contains(arc))
            .chain(self.segment.windows(2).map(|w| (w[1], w[0])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::{Instance, Solution};

    fn snapshot(routes: Vec<Vec<SiteId>>) -> (Instance, EvaluatedSolution) {
        let inst = Instance::tiny();
        let ev = EvaluatedSolution::new(Solution::from_routes(routes), &inst);
        (inst, ev)
    }

    #[test]
    fn relocate_expands_correctly() {
        let (inst, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::Relocate {
            from: (0, 1),
            to: (1, 0),
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1]), (1, vec![2, 3, 4])]);
        let mut applied = ev.clone();
        applied.apply(&inst, patch);
        assert!(applied.solution().check(&inst).is_empty());
    }

    #[test]
    fn relocate_can_empty_a_route() {
        let (inst, ev) = snapshot(vec![vec![1], vec![2, 3, 4]]);
        let mv = Move::Relocate {
            from: (0, 0),
            to: (1, 3),
        };
        let mut applied = ev.clone();
        applied.apply(&inst, mv.expand(&ev));
        assert_eq!(applied.n_routes(), 1);
        assert_eq!(applied.route(0), &[2, 3, 4, 1]);
    }

    #[test]
    fn exchange_expands_correctly() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::Exchange {
            a: (0, 0),
            b: (1, 1),
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![4, 2]), (1, vec![3, 1])]);
    }

    #[test]
    fn two_opt_reverses_segment() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::TwoOpt {
            route: 0,
            i: 1,
            j: 3,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1, 4, 3, 2])]);
    }

    #[test]
    fn two_opt_star_swaps_tails() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::TwoOptStar {
            a: 0,
            cut_a: 1,
            b: 1,
            cut_b: 1,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1, 4]), (1, vec![3, 2])]);
    }

    #[test]
    fn two_opt_star_with_empty_tail_moves_suffix() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3], vec![4]]);
        // a keeps 3 (empty tail added from b after cut 1 => nothing),
        // b keeps 1 and receives nothing… choose cuts that move 3 to b.
        let mv = Move::TwoOptStar {
            a: 0,
            cut_a: 2,
            b: 1,
            cut_b: 1,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1, 2]), (1, vec![4, 3])]);
    }

    #[test]
    fn or_opt_moves_pair_within_route() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::OrOpt {
            route: 0,
            from: 0,
            to: 2,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![3, 4, 1, 2])]);
    }

    #[test]
    fn or_opt_backward_move() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::OrOpt {
            route: 0,
            from: 2,
            to: 0,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![3, 4, 1, 2])]);
    }

    #[test]
    fn arcs_for_relocate() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::Relocate {
            from: (0, 0),
            to: (1, 1),
        };
        let (removed, created) = (mv.arcs_removed(&ev), mv.arcs_created(&ev));
        // Before: 0-1,1-2,2-0 / 0-3,3-4,4-0  After: 0-2,2-0? no: route0=[2]
        // => 0-2,2-0 ; route1=[3,1,4] => 0-3,3-1,1-4,4-0.
        let rm: std::collections::HashSet<Arc> = removed.into_iter().collect();
        let cr: std::collections::HashSet<Arc> = created.into_iter().collect();
        assert_eq!(rm, [(0, 1), (1, 2), (3, 4)].into_iter().collect());
        assert_eq!(cr, [(0, 2), (3, 1), (1, 4)].into_iter().collect());
    }

    #[test]
    fn arcs_for_two_opt_ignore_unchanged_arcs() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::TwoOpt {
            route: 0,
            i: 1,
            j: 2,
        };
        let (removed, created) = (mv.arcs_removed(&ev), mv.arcs_created(&ev));
        // 1-2,2-3,3-4 -> 1-3,3-2,2-4.
        let rm: std::collections::HashSet<Arc> = removed.into_iter().collect();
        let cr: std::collections::HashSet<Arc> = created.into_iter().collect();
        assert_eq!(rm, [(1, 2), (2, 3), (3, 4)].into_iter().collect());
        assert_eq!(cr, [(1, 3), (3, 2), (2, 4)].into_iter().collect());
    }

    #[test]
    fn identity_like_moves_have_empty_delta() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        // Whole-route swap via 2-opt*: relabeling only.
        let mv = Move::TwoOptStar {
            a: 0,
            cut_a: 0,
            b: 1,
            cut_b: 0,
        };
        assert!(mv.arcs_removed(&ev).is_empty());
        assert!(mv.arcs_created(&ev).is_empty());
    }

    #[test]
    #[should_panic]
    fn relocate_same_route_panics() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        Move::Relocate {
            from: (0, 0),
            to: (0, 1),
        }
        .expand(&ev);
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(
            Move::TwoOpt {
                route: 0,
                i: 0,
                j: 1
            }
            .kind(),
            OperatorKind::TwoOpt
        );
        assert_eq!(OperatorKind::ALL.len(), 5);
    }
}
