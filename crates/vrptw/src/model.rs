//! Instance model: sites, customers, travel-cost matrix, fleet parameters.

use std::sync::OnceLock;

/// Index of a site. `0` is always the depot; customers are `1..=N`.
pub type SiteId = u16;

/// The depot's site id.
pub const DEPOT: SiteId = 0;

/// One customer (or the depot, which is stored as customer-like record 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Customer {
    /// X coordinate in the plane.
    pub x: f64,
    /// Y coordinate in the plane.
    pub y: f64,
    /// Demand `d_i`; the depot has demand 0.
    pub demand: f64,
    /// Ready time `a_i` — a vehicle arriving earlier waits.
    pub ready: f64,
    /// Due date `b_i` — arriving later incurs tardiness (soft windows).
    pub due: f64,
    /// Service time `c_i` spent at the site after arrival.
    pub service: f64,
}

/// A CVRPTW instance.
///
/// The travel-cost matrix `T` is precomputed from Euclidean coordinates at
/// construction, matching the paper (§II: "This matrix is computed by
/// calculating the Euclidean distance between the location's x and y
/// coordinates"). Travel *time* equals travel cost, the Solomon convention.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance name (e.g. `"R1_4_1"` or a generator tag).
    pub name: String,
    /// Sites: index 0 is the depot, `1..=n_customers` the customers.
    sites: Vec<Customer>,
    /// Flattened `(N+1)×(N+1)` travel-cost matrix, row-major.
    dist: Vec<f64>,
    /// Packed `(N+1)×(N+1)` bitset, one run of `⌈(N+1)/64⌉` words per row:
    /// bit `v` of row `u` is set when the arc `u → v` passes the local
    /// feasibility criterion (see [`Instance::arc_feasible`]). Built on
    /// first use, so parsing an instance that is never searched costs no
    /// more than the distance matrix.
    arc_ok: OnceLock<Vec<u64>>,
    /// Vehicle capacity `m` (homogeneous fleet).
    capacity: f64,
    /// Maximum number of vehicles `R` available at the depot.
    max_vehicles: usize,
}

impl Instance {
    /// Builds an instance from site records.
    ///
    /// `sites[0]` must be the depot (demand 0). The distance matrix is
    /// computed eagerly — for the paper's largest problems (600 customers)
    /// this is a ~2.9 MB allocation done once per instance.
    ///
    /// # Panics
    /// Panics if there are no customers, if the depot has non-zero demand,
    /// if `capacity <= 0`, or if `max_vehicles == 0`.
    pub fn new(
        name: impl Into<String>,
        sites: Vec<Customer>,
        capacity: f64,
        max_vehicles: usize,
    ) -> Self {
        assert!(
            sites.len() >= 2,
            "an instance needs a depot and at least one customer"
        );
        assert!(
            sites.len() <= SiteId::MAX as usize,
            "site ids are u16; at most {} sites supported",
            SiteId::MAX
        );
        assert_eq!(sites[0].demand, 0.0, "the depot must have zero demand");
        assert!(capacity > 0.0, "vehicle capacity must be positive");
        assert!(max_vehicles > 0, "at least one vehicle is required");
        let n = sites.len();
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = sites[i].x - sites[j].x;
                let dy = sites[i].y - sites[j].y;
                let d = (dx * dx + dy * dy).sqrt();
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        Self {
            name: name.into(),
            sites,
            dist,
            arc_ok: OnceLock::new(),
            capacity,
            max_vehicles,
        }
    }

    /// Number of customers `N` (excluding the depot).
    #[inline]
    pub fn n_customers(&self) -> usize {
        self.sites.len() - 1
    }

    /// Number of sites including the depot (`N + 1`).
    #[inline]
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Vehicle capacity `m`.
    #[inline]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Maximum number of vehicles `R`.
    #[inline]
    pub fn max_vehicles(&self) -> usize {
        self.max_vehicles
    }

    /// The site record for `id` (0 = depot).
    #[inline]
    pub fn site(&self, id: SiteId) -> &Customer {
        &self.sites[id as usize]
    }

    /// The depot record.
    #[inline]
    pub fn depot(&self) -> &Customer {
        &self.sites[0]
    }

    /// Travel cost (= travel time) between two sites.
    #[inline]
    pub fn dist(&self, from: SiteId, to: SiteId) -> f64 {
        self.dist[from as usize * self.sites.len() + to as usize]
    }

    /// Whether the directed arc `u → v` passes the paper's local
    /// feasibility criterion (§II.B): `a_u + c_u + t_uv ≤ b_v`, i.e.
    /// leaving `u` at its earliest possible completion reaches `v` no
    /// later than `v`'s due date. The criterion depends on the instance
    /// alone: the first call evaluates it for every site pair (~48 KB of
    /// bits at 600 customers), and every call reads one bit.
    #[inline]
    pub fn arc_feasible(&self, u: SiteId, v: SiteId) -> bool {
        let n = self.sites.len();
        let bits = self.arc_ok.get_or_init(|| self.arc_bitset());
        let (u, v) = (u as usize, v as usize);
        bits[u * n.div_ceil(64) + v / 64] & (1 << (v % 64)) != 0
    }

    /// Evaluates the arc criterion for every site pair, row by row.
    fn arc_bitset(&self) -> Vec<u64> {
        let n = self.sites.len();
        let row_words = n.div_ceil(64);
        let mut bits = vec![0u64; n * row_words];
        for (u, (row, words)) in self
            .dist
            .chunks_exact(n)
            .zip(bits.chunks_exact_mut(row_words))
            .enumerate()
        {
            let earliest = self.sites[u].ready + self.sites[u].service;
            for ((word, dists), sites) in words
                .iter_mut()
                .zip(row.chunks(64))
                .zip(self.sites.chunks(64))
            {
                for (k, (&d, v)) in dists.iter().zip(sites).enumerate() {
                    *word |= u64::from(earliest + d <= v.due) << k;
                }
            }
        }
        bits
    }

    /// Iterator over customer ids `1..=N`.
    pub fn customers(&self) -> impl Iterator<Item = SiteId> + '_ {
        1..self.sites.len() as SiteId
    }

    /// Total demand over all customers.
    pub fn total_demand(&self) -> f64 {
        self.sites[1..].iter().map(|c| c.demand).sum()
    }

    /// The scheduling horizon — the depot's due date.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.sites[0].due
    }

    /// Sanity-checks invariants that the rest of the workspace relies on.
    ///
    /// Returns a list of human-readable violations (empty = valid). The
    /// generator asserts this is empty for everything it emits, and the
    /// Solomon parser runs it on loaded files.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.depot().ready != 0.0 {
            problems.push("depot ready time should be 0".into());
        }
        for (i, c) in self.sites.iter().enumerate() {
            if c.ready > c.due {
                problems.push(format!("site {i}: ready {} > due {}", c.ready, c.due));
            }
            if c.demand < 0.0 || c.service < 0.0 {
                problems.push(format!("site {i}: negative demand or service time"));
            }
            if i > 0 && c.demand > self.capacity {
                problems.push(format!(
                    "customer {i}: demand {} exceeds vehicle capacity {}",
                    c.demand, self.capacity
                ));
            }
        }
        if self.total_demand() > self.capacity * self.max_vehicles as f64 {
            problems.push("total demand exceeds total fleet capacity".into());
        }
        problems
    }

    /// A tiny handcrafted instance used across the workspace's unit tests:
    /// depot at the origin, four customers on the axes, capacity 10,
    /// three vehicles.
    pub fn tiny() -> Self {
        let depot = Customer {
            x: 0.0,
            y: 0.0,
            demand: 0.0,
            ready: 0.0,
            due: 1000.0,
            service: 0.0,
        };
        let mk = |x: f64, y: f64, demand: f64, ready: f64, due: f64| Customer {
            x,
            y,
            demand,
            ready,
            due,
            service: 1.0,
        };
        Instance::new(
            "tiny",
            vec![
                depot,
                mk(10.0, 0.0, 4.0, 0.0, 100.0),
                mk(0.0, 10.0, 4.0, 0.0, 100.0),
                mk(-10.0, 0.0, 4.0, 0.0, 100.0),
                mk(0.0, -10.0, 4.0, 0.0, 100.0),
            ],
            10.0,
            3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_are_symmetric_euclidean() {
        let inst = Instance::tiny();
        assert_eq!(inst.dist(0, 1), 10.0);
        assert_eq!(inst.dist(1, 0), 10.0);
        let d13 = inst.dist(1, 3);
        assert!((d13 - 20.0).abs() < 1e-12);
        let d12 = inst.dist(1, 2);
        assert!((d12 - 200f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality_holds_for_euclidean() {
        let inst = Instance::tiny();
        let n = inst.n_sites() as SiteId;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    assert!(inst.dist(i, j) <= inst.dist(i, k) + inst.dist(k, j) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn accessors() {
        let inst = Instance::tiny();
        assert_eq!(inst.n_customers(), 4);
        assert_eq!(inst.n_sites(), 5);
        assert_eq!(inst.capacity(), 10.0);
        assert_eq!(inst.max_vehicles(), 3);
        assert_eq!(inst.total_demand(), 16.0);
        assert_eq!(inst.horizon(), 1000.0);
        assert_eq!(inst.customers().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn tiny_is_valid() {
        assert!(Instance::tiny().validate().is_empty());
    }

    #[test]
    fn validate_flags_bad_windows_and_demand() {
        let mut sites = vec![
            Customer {
                x: 0.0,
                y: 0.0,
                demand: 0.0,
                ready: 0.0,
                due: 100.0,
                service: 0.0,
            },
            Customer {
                x: 1.0,
                y: 0.0,
                demand: 50.0,
                ready: 10.0,
                due: 5.0,
                service: 0.0,
            },
        ];
        let inst = Instance::new("bad", sites.clone(), 10.0, 1);
        let problems = inst.validate();
        assert!(problems.iter().any(|p| p.contains("ready")));
        assert!(problems
            .iter()
            .any(|p| p.contains("exceeds vehicle capacity")));

        sites[1].demand = 8.0;
        sites[1].due = 50.0;
        let inst = Instance::new("ok", sites, 10.0, 1);
        assert!(inst.validate().is_empty());
    }

    #[test]
    #[should_panic]
    fn depot_with_demand_rejected() {
        let sites = vec![
            Customer {
                x: 0.0,
                y: 0.0,
                demand: 1.0,
                ready: 0.0,
                due: 100.0,
                service: 0.0,
            },
            Customer {
                x: 1.0,
                y: 0.0,
                demand: 1.0,
                ready: 0.0,
                due: 100.0,
                service: 0.0,
            },
        ];
        Instance::new("bad", sites, 10.0, 1);
    }

    #[test]
    #[should_panic]
    fn needs_at_least_one_customer() {
        let sites = vec![Customer {
            x: 0.0,
            y: 0.0,
            demand: 0.0,
            ready: 0.0,
            due: 100.0,
            service: 0.0,
        }];
        Instance::new("bad", sites, 10.0, 1);
    }
}
