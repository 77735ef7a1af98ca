//! The benchmark's workloads: which instances are generated, how jobs
//! are shaped, and how the daemon's clients are sized.
//!
//! Every instance comes from the in-tree generator, seeded from the
//! workload seed, so the same seed always drives the same inputs. The
//! reasons each workload exists are recorded in `BENCHMARK.json`.

use std::sync::Arc;
use tsmo_core::{ParallelVariant, TsmoConfig};
use tsmo_serve::JobSpec;
use vrptw::generator::{GeneratorConfig, InstanceClass};

/// One traffic mix against a daemon with one worker.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Generated instance class.
    pub class: InstanceClass,
    /// Customers per instance.
    pub customers: usize,
    /// Variant (and processor count) of every job.
    pub variant: ParallelVariant,
    /// Evaluation budget per job.
    pub evals: u64,
    /// Neighbourhood size per iteration.
    pub neighborhood: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Distinct instances a run cycles through (job `i` runs on instance
    /// `i % instances`, so every submit after the first `instances` hits
    /// the daemon's instance cache); 0 generates a fresh instance per
    /// job, so every submit misses it. Several instances per run keep a
    /// run's figures from hinging on one instance's difficulty.
    pub instances: u64,
}

/// All workloads, in `BENCHMARK.json` order. None uses more than two
/// compute threads at a time, and every job's front is a pure function
/// of its spec, so it can be compared with an in-process run.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tight-r1-200",
        class: InstanceClass::R1,
        customers: 200,
        variant: ParallelVariant::Sequential,
        evals: 8_000,
        neighborhood: 50,
        clients: 2,
        instances: 8,
    },
    Workload {
        name: "wide-r2-400-sync",
        class: InstanceClass::R2,
        customers: 400,
        variant: ParallelVariant::Synchronous(2),
        evals: 20_000,
        neighborhood: 50,
        clients: 1,
        instances: 0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Solomon text of the run's `k`-th instance.
    fn instance_text(&self, seed: u64, k: u64) -> Arc<String> {
        let instance_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
        let inst = GeneratorConfig::new(self.class, self.customers, instance_seed).build();
        Arc::new(vrptw::solomon::write(&inst))
    }

    /// The wire spec of job `job`; its search seed is `seed ^ job`.
    pub fn spec(&self, seed: u64, job: u64, text: &str) -> JobSpec {
        let (variant, processors) = match self.variant {
            ParallelVariant::Sequential => ("sequential", 1),
            ParallelVariant::Synchronous(p) => ("synchronous", p),
            ParallelVariant::Asynchronous(p) => ("asynchronous", p),
            ParallelVariant::Collaborative(p) => ("collaborative", p),
        };
        JobSpec {
            instance_text: text.to_string(),
            variant: variant.to_string(),
            processors,
            max_evaluations: self.evals,
            neighborhood_size: self.neighborhood,
            seed: seed ^ job,
            ..JobSpec::default()
        }
    }

    /// Neighbourhood chunks per iteration of the job's trajectory: the
    /// synchronous variant splits each neighbourhood into one chunk per
    /// processor, and a sequential run with the same chunk count follows
    /// the same trajectory.
    pub fn trajectory_chunks(&self) -> usize {
        match self.variant {
            ParallelVariant::Synchronous(p) => p,
            _ => 1,
        }
    }
}

/// The instances of one run, generated from the workload seed.
pub struct Instances {
    workload: &'static Workload,
    seed: u64,
    cycled: Vec<Arc<String>>,
}

impl Instances {
    /// Generates the instances a cycling workload reuses.
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        let cycled = (0..workload.instances)
            .map(|k| workload.instance_text(seed, k))
            .collect();
        Self {
            workload,
            seed,
            cycled,
        }
    }

    /// Solomon text of job `job`'s instance.
    pub fn text(&self, job: u64) -> Arc<String> {
        match self.cycled.len() as u64 {
            0 => self.workload.instance_text(self.seed, job),
            n => Arc::clone(&self.cycled[(job % n) as usize]),
        }
    }
}

/// The search configuration `served` builds from a spec (its worker
/// loop's mapping, for a job that records no events).
pub fn job_config(spec: &JobSpec) -> TsmoConfig {
    TsmoConfig {
        max_evaluations: spec.max_evaluations,
        neighborhood_size: spec.neighborhood_size.max(2),
        ..TsmoConfig::default()
    }
    .with_seed(spec.seed)
}
