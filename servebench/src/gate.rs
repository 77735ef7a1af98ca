//! The correctness gate every returned front passes through.
//!
//! A job counts as valid only when its front respects the instance's
//! hard constraints, its objectives re-evaluate to the reported values,
//! its points are mutually non-dominated, and it did not charge more
//! evaluations than its budget. The caller also requires the front to
//! match an in-process run of the same spec bit for bit.

use pareto::{non_dominated_indices, Dominance};
use tsmo_core::FrontEntry;
use tsmo_serve::{FrontPoint, JobResult};
use vrptw::{Instance, Solution};

struct Point([f64; 3]);

impl Dominance for Point {
    fn objectives(&self) -> &[f64] {
        &self.0
    }
}

/// Relative tolerance between a reported objective and its full
/// re-evaluation: the search updates objectives incrementally per route,
/// so the two sums may differ in their last bits.
const REL_TOL: f64 = 1e-9;

/// Whether a full re-evaluation `full` confirms incrementally computed
/// objectives: vehicles exactly, distance and tardiness up to `REL_TOL`.
pub fn objectives_match(full: [f64; 3], incremental: [f64; 3]) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0);
    full[1] == incremental[1] && close(full[0], incremental[0]) && close(full[2], incremental[2])
}

/// Checks one served result against its instance and the evaluation
/// budget its spec grants. Returns the front's normalised hypervolume.
pub fn check_result(inst: &Instance, budget: u64, result: &JobResult) -> Result<f64, String> {
    if result.truncated {
        return Err(format!("job stopped early: {:?}", result.stop_cause));
    }
    if result.evaluations > budget {
        return Err(format!(
            "{} evaluations charged against a budget of {budget}",
            result.evaluations
        ));
    }
    if result.front.is_empty() {
        return Err("empty front".to_string());
    }
    for (k, point) in result.front.iter().enumerate() {
        check_point(inst, point).map_err(|e| format!("front point {k}: {e}"))?;
    }
    let points: Vec<Point> = result.front.iter().map(|p| Point(p.objectives)).collect();
    if non_dominated_indices(&points).len() != points.len() {
        return Err("front is not mutually non-dominated".to_string());
    }
    Ok(hypervolume(inst, &points))
}

fn check_point(inst: &Instance, point: &FrontPoint) -> Result<(), String> {
    if point.routes.len() > inst.max_vehicles() {
        return Err(format!(
            "{} routes for {} vehicles",
            point.routes.len(),
            inst.max_vehicles()
        ));
    }
    let mut seen = vec![false; inst.n_sites()];
    for (r, route) in point.routes.iter().enumerate() {
        let mut load = 0.0;
        for &c in route {
            let c = usize::from(c);
            if c == 0 || c >= inst.n_sites() {
                return Err(format!("route {r} visits invalid site {c}"));
            }
            if std::mem::replace(&mut seen[c], true) {
                return Err(format!("customer {c} visited twice"));
            }
            load += inst.site(c as u16).demand;
        }
        if load > inst.capacity() {
            return Err(format!(
                "route {r} carries {load} over capacity {}",
                inst.capacity()
            ));
        }
    }
    if let Some(c) = (1..inst.n_sites()).find(|&c| !seen[c]) {
        return Err(format!("customer {c} not visited"));
    }
    let full = Solution::from_routes(point.routes.clone())
        .evaluate(inst)
        .to_vector();
    let reported = point.objectives;
    if !objectives_match(full, reported) {
        return Err(format!(
            "reported objectives {reported:?} re-evaluate to {full:?}"
        ));
    }
    Ok(())
}

/// An archive as the wire shapes it: objective vectors and the deployed
/// routes.
pub fn front_points(archive: &[FrontEntry]) -> Vec<FrontPoint> {
    archive
        .iter()
        .map(|e| FrontPoint {
            objectives: e.objectives.to_vector(),
            routes: e.solution.routes().to_vec(),
        })
        .collect()
}

/// Whether a front is bit-identical to an archive: same points, same
/// order, same objective bits, same routes.
pub fn same_front(front: &[FrontPoint], archive: &[FrontEntry]) -> bool {
    let local = front_points(archive);
    front.len() == local.len()
        && front.iter().zip(&local).all(|(a, b)| {
            a.routes == b.routes
                && a.objectives
                    .iter()
                    .zip(b.objectives)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Reference point computed from the instance alone:
/// - distance: every customer served by its own round trip, an upper
///   bound on any solution's length by the triangle inequality;
/// - vehicles: one more than the fleet size;
/// - tardiness: every customer late by a full horizon.
fn reference(inst: &Instance) -> [f64; 3] {
    let round_trips: f64 = inst.customers().map(|c| 2.0 * inst.dist(0, c)).sum();
    [
        round_trips,
        (inst.max_vehicles() + 1) as f64,
        inst.horizon() * inst.n_customers() as f64,
    ]
}

/// 3-D hypervolume of `points` against the instance's reference point,
/// divided by the reference box's volume (so it lies in `[0, 1]`).
fn hypervolume(inst: &Instance, points: &[Point]) -> f64 {
    let r = reference(inst);
    let scaled: Vec<Point> = points
        .iter()
        .map(|p| Point([p.0[0] / r[0], p.0[1] / r[1], p.0[2] / r[2]]))
        .collect();
    pareto::hypervolume_3d(&scaled, [1.0, 1.0, 1.0])
}
