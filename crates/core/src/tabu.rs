//! The short-term memory: an arc-attribute tabu list.

use std::collections::HashMap;
use std::collections::VecDeque;
use vrptw_operators::Arc;

/// A fixed-length queue of recent moves' reversal attributes.
///
/// Tabu Search "stores recent moves in the tabu list \[and\] forbids to make
/// moves towards a configuration that it had already visited before". We
/// represent each accepted move by the set of giant-tour arcs it *removed*;
/// a candidate move is tabu if it would re-create any of those arcs (it
/// starts rebuilding a recently abandoned configuration). Arc attributes
/// are stable across route reindexing, which matters for the asynchronous
/// variant where neighbors of older solutions are still considered.
///
/// The queue holds the attributes of the last `tenure` accepted moves —
/// "because every iteration there is only one move made this is also the
/// number of iterations the solutions will stay in the tabu list".
#[derive(Debug, Clone)]
pub struct TabuList {
    tenure: usize,
    queue: VecDeque<Vec<Arc>>,
    /// Multiset of all arcs currently in the queue.
    counts: HashMap<Arc, usize>,
}

impl TabuList {
    /// An empty list remembering the last `tenure` moves.
    pub fn new(tenure: usize) -> Self {
        Self {
            tenure,
            queue: VecDeque::with_capacity(tenure + 1),
            counts: HashMap::new(),
        }
    }

    /// The configured tenure.
    pub fn tenure(&self) -> usize {
        self.tenure
    }

    /// Number of moves currently remembered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no moves are remembered yet.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Records an accepted move by the arcs it removed; forgets the oldest
    /// move when the tenure is exceeded. A zero tenure disables the memory.
    pub fn push(&mut self, removed_arcs: Vec<Arc>) {
        if self.tenure == 0 {
            return;
        }
        for &arc in &removed_arcs {
            *self.counts.entry(arc).or_insert(0) += 1;
        }
        self.queue.push_back(removed_arcs);
        while self.queue.len() > self.tenure {
            let old = self.queue.pop_front().expect("queue non-empty");
            for arc in old {
                match self.counts.get_mut(&arc) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        self.counts.remove(&arc);
                    }
                    None => unreachable!("count bookkeeping out of sync"),
                }
            }
        }
    }

    /// Whether a move creating these arcs is forbidden.
    pub fn is_tabu(&self, created_arcs: impl IntoIterator<Item = Arc>) -> bool {
        created_arcs
            .into_iter()
            .any(|arc| self.counts.contains_key(&arc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recent_arcs_are_tabu_until_they_age_out() {
        let mut t = TabuList::new(2);
        t.push(vec![(1, 2), (3, 4)]);
        assert!(t.is_tabu([(1, 2)]));
        assert!(t.is_tabu([(9, 9), (3, 4)]));
        assert!(!t.is_tabu([(2, 1)]));
        t.push(vec![(5, 6)]);
        assert!(t.is_tabu([(1, 2)]));
        // Third push evicts the first move's arcs.
        t.push(vec![(7, 8)]);
        assert!(!t.is_tabu([(1, 2)]));
        assert!(!t.is_tabu([(3, 4)]));
        assert!(t.is_tabu([(5, 6)]));
        assert!(t.is_tabu([(7, 8)]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicate_arcs_counted_as_multiset() {
        let mut t = TabuList::new(3);
        t.push(vec![(1, 2)]);
        t.push(vec![(1, 2)]);
        t.push(vec![(0, 0)]);
        // Aging out one (1,2) must keep the other active.
        t.push(vec![(9, 9)]); // evicts first (1,2)
        assert!(t.is_tabu([(1, 2)]));
        t.push(vec![(8, 8)]); // evicts second (1,2)
        assert!(!t.is_tabu([(1, 2)]));
    }

    #[test]
    fn empty_move_is_allowed_and_remembered() {
        let mut t = TabuList::new(2);
        t.push(vec![]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_tabu(std::iter::empty()));
        assert!(!t.is_tabu([(1, 1)]));
    }

    #[test]
    fn zero_tenure_never_forbids() {
        let mut t = TabuList::new(0);
        t.push(vec![(1, 2)]);
        assert!(t.is_empty());
        assert!(!t.is_tabu([(1, 2)]));
    }

    #[test]
    fn empty_candidate_is_never_tabu() {
        let mut t = TabuList::new(2);
        t.push(vec![(1, 2)]);
        assert!(!t.is_tabu(std::iter::empty()));
    }

    #[test]
    fn tenure_bounds_queue_length() {
        let mut t = TabuList::new(5);
        for i in 0..100u16 {
            t.push(vec![(i, i + 1)]);
            assert!(t.len() <= 5);
        }
        // Only the last 5 remain tabu.
        assert!(t.is_tabu([(99, 100)]));
        assert!(t.is_tabu([(95, 96)]));
        assert!(!t.is_tabu([(94, 95)]));
    }
}
