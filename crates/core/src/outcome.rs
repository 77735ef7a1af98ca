//! Run results: the archive front and run statistics.

use crate::trace::Trace;
use vrptw::{Objectives, Solution};

/// One member of a Pareto front: solution plus cached objective vector.
#[derive(Debug, Clone)]
pub struct FrontEntry {
    /// The solution.
    pub solution: Solution,
    /// Its objectives.
    pub objectives: Objectives,
    /// `objectives` as the minimization vector `[f1, f2, f3]`.
    vector: [f64; 3],
}

impl FrontEntry {
    /// Wraps a solution with its objectives.
    pub fn new(solution: Solution, objectives: Objectives) -> Self {
        Self {
            solution,
            objectives,
            vector: objectives.to_vector(),
        }
    }
}

impl pareto::Dominance for FrontEntry {
    fn objectives(&self) -> &[f64] {
        &self.vector
    }
}

/// The result of one TSMO run.
#[derive(Debug, Clone)]
pub struct TsmoOutcome {
    /// Final contents of `M_archive` (mutually non-dominated).
    pub archive: Vec<FrontEntry>,
    /// Evaluations actually consumed.
    pub evaluations: u64,
    /// Master iterations performed (per searcher summed, for the
    /// collaborative variant).
    pub iterations: usize,
    /// Wall-clock runtime in seconds.
    pub runtime_seconds: f64,
    /// Optional search trace (Fig. 1 data).
    pub trace: Option<Trace>,
}

impl TsmoOutcome {
    /// Merges the per-searcher `(archive, evaluations, iterations)` of a
    /// multisearch run: the non-dominated union of the archives, truncated
    /// to `capacity` with the archive's crowding rule; evaluations and
    /// iterations are summed over searchers.
    pub(crate) fn merged(
        capacity: usize,
        runtime_seconds: f64,
        parts: impl IntoIterator<Item = (Vec<FrontEntry>, u64, usize)>,
    ) -> Self {
        let mut merged = pareto::Archive::new(capacity);
        let (mut evaluations, mut iterations) = (0, 0);
        for (archive, evals, iters) in parts {
            evaluations += evals;
            iterations += iters;
            for entry in archive {
                merged.insert(entry);
            }
        }
        TsmoOutcome {
            archive: merged.into_items(),
            evaluations,
            iterations,
            runtime_seconds,
            trace: None,
        }
    }

    /// The archive members with no time-window violation — the paper's
    /// tables "only \[consider\] those solutions that did not violate the
    /// time window and capacity constraints" (capacity is structural here:
    /// the operators never create overloads).
    pub fn feasible_front(&self) -> Vec<&FrontEntry> {
        self.archive
            .iter()
            .filter(|e| e.objectives.is_time_feasible(1e-6))
            .collect()
    }

    /// Mean distance over the feasible front (`None` if it is empty).
    pub fn mean_distance(&self) -> Option<f64> {
        let front = self.feasible_front();
        if front.is_empty() {
            return None;
        }
        Some(front.iter().map(|e| e.objectives.distance).sum::<f64>() / front.len() as f64)
    }

    /// Mean deployed vehicles over the feasible front.
    pub fn mean_vehicles(&self) -> Option<f64> {
        let front = self.feasible_front();
        if front.is_empty() {
            return None;
        }
        Some(
            front
                .iter()
                .map(|e| e.objectives.vehicles as f64)
                .sum::<f64>()
                / front.len() as f64,
        )
    }

    /// Smallest total distance on the feasible front.
    pub fn best_distance(&self) -> Option<f64> {
        self.feasible_front()
            .iter()
            .map(|e| e.objectives.distance)
            .min_by(|a, b| a.partial_cmp(b).expect("distances are not NaN"))
    }

    /// Fewest vehicles on the feasible front.
    pub fn best_vehicles(&self) -> Option<usize> {
        self.feasible_front()
            .iter()
            .map(|e| e.objectives.vehicles)
            .min()
    }

    /// The feasible front's objective vectors (for indicator computations).
    pub fn feasible_vectors(&self) -> Vec<[f64; 3]> {
        self.feasible_front()
            .iter()
            .map(|e| e.objectives.to_vector())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::Objectives;

    fn entry(d: f64, v: usize, t: f64) -> FrontEntry {
        FrontEntry::new(
            Solution::from_routes(vec![vec![1]]),
            Objectives {
                distance: d,
                vehicles: v,
                tardiness: t,
            },
        )
    }

    fn outcome(entries: Vec<FrontEntry>) -> TsmoOutcome {
        TsmoOutcome {
            archive: entries,
            evaluations: 100,
            iterations: 10,
            runtime_seconds: 0.5,
            trace: None,
        }
    }

    #[test]
    fn feasible_front_filters_tardy_solutions() {
        let o = outcome(vec![
            entry(10.0, 2, 0.0),
            entry(8.0, 2, 5.0),
            entry(12.0, 1, 0.0),
        ]);
        let front = o.feasible_front();
        assert_eq!(front.len(), 2);
        assert_eq!(o.best_distance(), Some(10.0));
        assert_eq!(o.best_vehicles(), Some(1));
        assert_eq!(o.mean_distance(), Some(11.0));
        assert_eq!(o.mean_vehicles(), Some(1.5));
    }

    #[test]
    fn empty_feasible_front_yields_none() {
        let o = outcome(vec![entry(10.0, 2, 3.0)]);
        assert!(o.feasible_front().is_empty());
        assert_eq!(o.mean_distance(), None);
        assert_eq!(o.best_vehicles(), None);
    }

    #[test]
    fn dominance_vector_matches_objectives() {
        use pareto::Dominance;
        let e = entry(10.0, 2, 1.5);
        assert_eq!(e.objectives(), &[10.0, 2.0, 1.5]);
    }
}
