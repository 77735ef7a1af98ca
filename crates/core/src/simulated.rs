//! Virtual-time execution: the cost model shared by the virtual-clock
//! executors, and the collaborative multisearch on a virtual cluster.
//!
//! The paper's runtime and speedup columns were measured on a 128-processor
//! SGI Origin 3800. On hosts with fewer cores than the experiment's
//! processor count — in the limit a single-core CI container, where OS
//! threads merely timeshare — thread-based runs cannot exhibit real
//! speedup. With [`Clock::Virtual`](crate::Clock::Virtual) the *same
//! algorithms* run single-threaded: each work item's true serial cost is
//! measured (or fixed by [`TsmoConfig::sim_eval_cost`]) and charged to its
//! processor on a [`VirtualCluster`] with per-message latency, and the
//! reported `runtime_seconds` is the cluster's virtual makespan — the wall
//! time a real P-processor machine would have needed.
//!
//! The barrier and Algorithm-2 drivers take a virtual executor like any
//! other; the collaborative multisearch keeps its own event loop here,
//! interleaving the searchers by their virtual clocks. Its messages are
//! charged `latency · P/2` to model interconnect contention on the
//! shared-memory machine, which is what makes the collaborative runtime
//! *grow* with the processor count as in the paper's tables.

use crate::config::TsmoConfig;
use crate::core_search::SearchCore;
use crate::neighborhood::generate_chunk_tallied;
use crate::options::RunOptions;
use crate::outcome::{FrontEntry, TsmoOutcome};
use crate::searcher::{searcher_cfg, CollabGate};
use crate::telemetry::{exchange, record_fault};
use deme::{EvaluationBudget, VirtualCluster};
use detrand::{streams, Rng as _};
use std::sync::Arc;
use tsmo_faults::MsgFault;
use tsmo_obs::{metrics::names, ExchangeDirection, FaultKind, Recorder};
use vrptw::Instance;

/// A virtual cluster plus the cost model for the work charged to it.
pub(crate) struct SimClock {
    pub(crate) cluster: VirtualCluster,
    /// Fixed virtual cost per evaluation; `None` measures wall cost.
    unit_cost: Option<f64>,
}

impl SimClock {
    /// A cluster of `processors` with `cfg`'s latency and cost model;
    /// `speeds` makes it heterogeneous.
    ///
    /// # Panics
    /// Panics if `speeds` does not hold one speed per processor.
    pub(crate) fn new(cfg: &TsmoConfig, processors: usize, speeds: Option<&[f64]>) -> Self {
        let cluster = match speeds {
            Some(s) => {
                assert_eq!(s.len(), processors, "one speed per processor");
                VirtualCluster::heterogeneous(s.to_vec(), cfg.sim_comm_latency)
            }
            None => VirtualCluster::new(processors, cfg.sim_comm_latency),
        };
        Self {
            cluster,
            unit_cost: cfg.sim_eval_cost,
        }
    }

    /// The fixed virtual cost of `units` evaluations, if costs are fixed.
    pub(crate) fn cost(&self, units: usize) -> Option<f64> {
        self.unit_cost.map(|c| c * units as f64)
    }

    /// Executes `f` as `units` evaluations of processor `p`'s work: with
    /// fixed costs the schedule is independent of the host's timing (which
    /// makes the event-driven schedules deterministic), otherwise the
    /// *measured* wall cost is charged ([`VirtualCluster::charge`]).
    pub(crate) fn charge<R>(&mut self, p: usize, units: usize, f: impl FnOnce() -> R) -> R {
        match self.cost(units) {
            Some(c) => {
                let out = f();
                self.cluster.advance(p, c);
                out
            }
            None => self.cluster.charge(p, f),
        }
    }

    /// Publishes virtual-runtime metrics and returns the makespan: per
    /// processor, the fraction of the makespan covered by its virtual clock
    /// (a utilization proxy — the clock stops at the processor's last
    /// activity). These are *metrics*, derived from measured work costs, so
    /// they vary run to run; the event stream does not.
    pub(crate) fn finish(&self, recorder: &dyn Recorder) -> f64 {
        let makespan = self.cluster.makespan();
        recorder.gauge_set(names::RUNTIME_SECONDS, makespan);
        for p in 0..self.cluster.n_processors() {
            let frac = if makespan > 0.0 {
                (self.cluster.clock(p) / makespan).min(1.0)
            } else {
                0.0
            };
            recorder.gauge_set(&names::worker_busy_fraction(p), frac);
        }
        makespan
    }
}

/// One searcher's state in the event-interleaved simulation.
struct SearcherSim {
    core: SearchCore,
    cfg: TsmoConfig,
    budget: EvaluationBudget,
    inbox: Vec<(f64, FrontEntry)>,
    /// Rotating communication list (peer indices).
    comm_list: Vec<usize>,
    next_peer: usize,
    gate: CollabGate,
    done: bool,
}

/// Collaborative multisearch with `n` searchers on a virtual cluster.
///
/// Exchange faults are mirrored in virtual time: a dropped improvement
/// vanishes in flight (the communication-list rotation still advances), a
/// delayed one arrives `ticks` extra latency units later. With a fixed
/// [`TsmoConfig::sim_eval_cost`] the cross-searcher event stream is
/// byte-reproducible, and an inactive hook leaves it byte-identical to a
/// run without a hook. The cancel token is checked per searcher before
/// each of its iterations.
pub(crate) fn run_collaborative(
    inst: &Arc<Instance>,
    base: &TsmoConfig,
    n: usize,
    speeds: Option<&[f64]>,
    opts: &RunOptions,
) -> TsmoOutcome {
    let recorder = &opts.recorder;
    let mut sim = SimClock::new(base, n, speeds);
    // Interconnect contention grows with the searcher count (shared
    // memory bus on the modeled Origin 3800): half a latency unit per
    // searcher, so collaborative overhead grows roughly linearly in P
    // as in the paper's tables.
    let congestion = (n as f64 / 2.0).max(1.0);
    let hook = &opts.faults;
    let mut exch_seqs: Vec<u64> = vec![0; n];

    let mut searchers: Vec<SearcherSim> = streams(base.seed, n)
        .into_iter()
        .enumerate()
        .map(|(id, mut rng)| {
            // Perturbation before the communication-list shuffle: this
            // simulation's own draw order, pinned by its event streams.
            let cfg = searcher_cfg(base, id, &mut rng);
            let mut comm_list: Vec<usize> = (0..n).filter(|&x| x != id).collect();
            rng.shuffle(&mut comm_list);
            SearcherSim {
                core: SearchCore::with_recorder(
                    Arc::clone(inst),
                    cfg.clone(),
                    rng,
                    Arc::clone(recorder),
                    id as u32,
                ),
                budget: EvaluationBudget::new(cfg.max_evaluations),
                inbox: Vec::new(),
                comm_list,
                next_peer: 0,
                gate: CollabGate::new(&cfg),
                done: false,
                cfg,
            }
        })
        .collect();

    // Event loop: always advance the live searcher with the earliest
    // virtual clock by one iteration.
    while let Some(s) = next_live(&searchers, &sim.cluster) {
        if opts.cancel.should_stop(searchers[s].core.iteration()) {
            searchers[s].done = true;
            continue;
        }
        let now = sim.cluster.clock(s);
        // Deliver due messages (charged with the congestion factor).
        let mut due: Vec<FrontEntry> = Vec::new();
        searchers[s].inbox.retain(|(arrival, entry)| {
            if *arrival <= now {
                due.push(entry.clone());
                false
            } else {
                true
            }
        });
        for entry in due {
            let objectives = entry.objectives.to_vector();
            exchange(&**recorder, s, s, ExchangeDirection::Received, objectives);
            let searcher = &mut searchers[s];
            sim.charge(s, 1, || {
                searcher.core.offer_to_nondom(entry);
            });
        }
        let searcher = &mut searchers[s];
        let granted = searcher
            .budget
            .try_consume(searcher.cfg.neighborhood_size as u64) as usize;
        if granted == 0 {
            searcher.done = true;
            continue;
        }
        recorder.counter_add(names::EVALUATIONS, granted as u64);
        let seed = searcher.core.next_seed();
        let report = sim.charge(s, granted, || {
            let chunk = generate_chunk_tallied(
                inst,
                searcher.core.current(),
                seed,
                granted,
                searcher.core.sample_params(),
                searcher.core.iteration(),
            );
            searcher.core.note_tally(&chunk.tally);
            searcher.core.step(chunk.neighbors)
        });
        // Collaboration protocol. Skipped improvements precede the fault
        // draw, so they consume no fault sequence numbers.
        let Some(entry) = searcher.gate.offer(report.improved_archive) else {
            continue;
        };
        if searcher.comm_list.is_empty() {
            continue;
        }
        let peer = searcher.comm_list[searcher.next_peer];
        searcher.next_peer = (searcher.next_peer + 1) % searcher.comm_list.len();
        let fault = if hook.active() {
            let seq = exch_seqs[s];
            exch_seqs[s] += 1;
            (seq, hook.on_exchange(s, seq))
        } else {
            (0, MsgFault::Deliver)
        };
        let extra_delay = match fault {
            (seq, MsgFault::Drop) => {
                // The message vanishes in flight; the rotation has already
                // moved on, as in the thread-based variant.
                record_fault(&**recorder, s as u32, seq, FaultKind::ExchangeDrop);
                continue;
            }
            (seq, MsgFault::Delay { ticks }) => {
                record_fault(&**recorder, s as u32, seq, FaultKind::ExchangeDelay);
                sim.cluster.latency() * congestion * ticks.max(1) as f64
            }
            (_, MsgFault::Deliver) => 0.0,
        };
        let objectives = entry.objectives.to_vector();
        exchange(&**recorder, s, peer, ExchangeDirection::Sent, objectives);
        // Sending occupies the sender's processor too.
        sim.cluster.advance(s, sim.cluster.latency() * congestion);
        let arrival = sim.cluster.send_at(s, congestion) + extra_delay;
        searchers[peer].inbox.push((arrival, entry));
    }

    let makespan = sim.finish(&**recorder);
    TsmoOutcome::merged(
        base.archive_capacity,
        makespan,
        searchers.into_iter().map(|s| {
            let evaluations = s.budget.consumed();
            let (archive, _, iterations) = s.core.finish();
            (archive, evaluations, iterations)
        }),
    )
}

/// The live searcher with the earliest virtual clock, if any.
fn next_live(searchers: &[SearcherSim], cluster: &VirtualCluster) -> Option<usize> {
    searchers
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.done)
        .min_by(|(a, _), (b, _)| {
            cluster
                .clock(*a)
                .partial_cmp(&cluster.clock(*b))
                .expect("clocks are not NaN")
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use crate::{Clock, ParallelVariant, RunOptions, TsmoConfig};
    use std::sync::Arc;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 2_400,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        }
    }

    fn virtual_clock() -> RunOptions {
        RunOptions {
            clock: Clock::virtual_uniform(),
            ..RunOptions::default()
        }
    }

    fn norm(mut v: Vec<[f64; 3]>) -> Vec<[f64; 3]> {
        v.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
        v
    }

    #[test]
    fn sim_sync_reproduces_sequential_trajectory() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 6).build());
        for p in [2usize, 3] {
            let mut seq_cfg = cfg().with_seed(7);
            seq_cfg.chunks = p;
            let seq = ParallelVariant::Sequential.run(&inst, &seq_cfg);
            let sim = ParallelVariant::Synchronous(p).run_with(
                &inst,
                &cfg().with_seed(7),
                &virtual_clock(),
            );
            assert_eq!(
                norm(seq.feasible_vectors()),
                norm(sim.feasible_vectors()),
                "p = {p}"
            );
            assert_eq!(seq.iterations, sim.iterations);
        }
    }

    #[test]
    fn sim_sync_shows_virtual_speedup() {
        // On ANY host — even single-core — the virtual makespan of the
        // synchronous variant must beat the sequential wall time, because
        // chunk generation dominates and parallelizes.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 80, 3).build());
        let c = TsmoConfig {
            max_evaluations: 6_000,
            neighborhood_size: 120,
            sim_comm_latency: 0.0001,
            ..TsmoConfig::default()
        };
        let mut seq_cfg = c.clone();
        seq_cfg.chunks = 4;
        let seq = ParallelVariant::Sequential.run(&inst, &seq_cfg);
        let sim = ParallelVariant::Synchronous(4).run_with(&inst, &c, &virtual_clock());
        assert!(
            sim.runtime_seconds < seq.runtime_seconds,
            "virtual {:.3}s should beat sequential {:.3}s",
            sim.runtime_seconds,
            seq.runtime_seconds
        );
    }

    #[test]
    fn sim_async_consumes_budget_and_produces_front() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 40, 4).build());
        let out = ParallelVariant::Asynchronous(3).run_with(&inst, &cfg(), &virtual_clock());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
        assert!(out.runtime_seconds > 0.0);
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn sim_async_is_faster_than_sim_sync_with_heterogeneous_latency() {
        // The async variant's reason to exist: it avoids barrier waiting.
        // Under the same latency its virtual makespan should not exceed the
        // synchronous one by much; typically it is smaller.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 80, 8).build());
        let c = TsmoConfig {
            max_evaluations: 6_000,
            neighborhood_size: 120,
            sim_comm_latency: 0.002,
            ..TsmoConfig::default()
        };
        let sync = ParallelVariant::Synchronous(6).run_with(
            &inst,
            &c.clone().with_seed(5),
            &virtual_clock(),
        );
        let asy =
            ParallelVariant::Asynchronous(6).run_with(&inst, &c.with_seed(5), &virtual_clock());
        assert!(
            asy.runtime_seconds <= sync.runtime_seconds * 1.15,
            "async virtual {:.3}s should be at most ~sync virtual {:.3}s",
            asy.runtime_seconds,
            sync.runtime_seconds
        );
    }

    #[test]
    fn sim_collaborative_merges_and_sums() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let out = ParallelVariant::Collaborative(3).run_with(&inst, &cfg(), &virtual_clock());
        assert_eq!(out.evaluations, 3 * 2_400);
        assert!(out.archive.len() <= cfg().archive_capacity);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn sim_collaborative_runtime_grows_with_searchers() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 50, 13).build());
        let c = TsmoConfig {
            max_evaluations: 4_000,
            neighborhood_size: 80,
            stagnation_limit: 10,
            sim_comm_latency: 0.002,
            ..TsmoConfig::default()
        };
        let small = ParallelVariant::Collaborative(2).run_with(
            &inst,
            &c.clone().with_seed(2),
            &virtual_clock(),
        );
        let large =
            ParallelVariant::Collaborative(8).run_with(&inst, &c.with_seed(2), &virtual_clock());
        // Each searcher does the same work; more searchers add comm cost,
        // so the makespan must not shrink.
        assert!(
            large.runtime_seconds >= small.runtime_seconds * 0.9,
            "8 searchers {:.3}s vs 2 searchers {:.3}s",
            large.runtime_seconds,
            small.runtime_seconds
        );
    }
}
