//! The executors the two drivers run on: where a chunk of neighbors is
//! generated, and what time it is. Worker slot `w` is processor `w + 1`;
//! the master is processor 0.
//!
//! * [`Threads`] — `deme` worker threads, or none at all: with one
//!   processor every chunk runs inline on the master.
//! * [`Virtual`] — a [`VirtualCluster`](deme::VirtualCluster): chunks run
//!   single-threaded, each charged to its processor's virtual clock, and
//!   the runtime is the virtual makespan.

use crate::core_search::{SearchCore, StepReport};
use crate::neighborhood::{generate_chunk_tallied, Chunk, Neighbor, Task};
use crate::simulated::SimClock;
use crate::telemetry::{publish_recovery, record_fault};
use deme::{MasterWorker, RecoveryEvent, RunClock, Supervisor, SupervisorConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsmo_faults::{FaultHook, TaskFault};
use tsmo_obs::{metrics::names, FaultKind, Recorder};
use vrptw::Instance;
use vrptw_operators::SampleParams;

/// The master's handle on a worker pool: the plain [`MasterWorker`]
/// behind the barrier, or a [`Supervisor`] for Algorithm 2.
pub(crate) trait ChunkPool {
    fn workers(&self) -> &MasterWorker<Task, Chunk>;
    fn send(&mut self, worker: usize, task: Task);
    /// Recovery actions taken since the last call.
    fn take_events(&mut self) -> Vec<RecoveryEvent> {
        Vec::new()
    }
    /// Releases the threads at the end of the run.
    fn close(self);
}

impl ChunkPool for MasterWorker<Task, Chunk> {
    fn workers(&self) -> &MasterWorker<Task, Chunk> {
        self
    }

    fn send(&mut self, worker: usize, task: Task) {
        MasterWorker::send(self, worker, task);
    }

    fn close(self) {
        self.shutdown();
    }
}

impl ChunkPool for Supervisor<Task, Chunk> {
    fn workers(&self) -> &MasterWorker<Task, Chunk> {
        self.pool()
    }

    fn send(&mut self, worker: usize, task: Task) {
        Supervisor::send(self, worker, task);
    }

    fn take_events(&mut self) -> Vec<RecoveryEvent> {
        Supervisor::take_events(self)
    }

    fn close(self) {
        // Workers see the disconnect and exit; a stalled one need not be
        // waited for.
        drop(self);
    }
}

/// What both drivers need from an executor.
pub(crate) trait Exec {
    /// Worker slots (live and retired).
    fn workers(&self) -> usize;
    /// Sends worker `w` the task of `count` neighbors of the current
    /// solution from `seed`.
    fn dispatch(&mut self, w: usize, core: &SearchCore, seed: u64, count: usize);
    /// Generates a chunk on the master.
    fn local(&mut self, core: &SearchCore, seed: u64, count: usize) -> Chunk;
    /// Selection and memory update on the master.
    fn step(&mut self, core: &mut SearchCore, pool: Vec<Neighbor>) -> StepReport;
    /// The master's clock, in seconds.
    fn now(&self) -> f64;
    /// Publishes runtime and utilization metrics; returns the runtime.
    fn finish(self, iteration: usize) -> f64;
}

/// Chunks on `deme` worker threads, the rest inline on the master.
pub(crate) struct Threads<P> {
    inst: Arc<Instance>,
    params: SampleParams,
    pub(crate) pool: Option<P>,
    pub(crate) recorder: Arc<dyn Recorder>,
    clock: RunClock,
}

impl<P: ChunkPool> Threads<P> {
    /// Spawns `processors - 1` workers (none for one processor) and hands
    /// the pool to `wrap`. Worker tasks consult `hook` before computing:
    /// they may be made to panic (through the pool's real `catch_unwind`
    /// path), stall, or return late. Each worker's execution counter
    /// drives its fault decisions, so they are deterministic in (worker,
    /// execution index), independent of cross-thread interleaving.
    pub(crate) fn spawn(
        inst: &Arc<Instance>,
        processors: usize,
        params: SampleParams,
        recorder: &Arc<dyn Recorder>,
        hook: &Arc<dyn FaultHook>,
        wrap: impl FnOnce(MasterWorker<Task, Chunk>) -> P,
    ) -> Self {
        let clock = RunClock::start();
        let pool = (processors > 1).then(|| {
            let (inst, hook, rec) = (Arc::clone(inst), Arc::clone(hook), Arc::clone(recorder));
            let fault_seqs: Vec<AtomicU64> = (1..processors).map(|_| AtomicU64::new(0)).collect();
            wrap(MasterWorker::spawn(processors - 1, move |w, t: Task| {
                let mut late_millis = None;
                if hook.active() {
                    let seq = fault_seqs[w].fetch_add(1, Ordering::Relaxed);
                    let site = (w + 1) as u32;
                    match hook.on_task(w + 1, seq) {
                        TaskFault::None => {}
                        TaskFault::Panic => {
                            record_fault(&*rec, site, seq, FaultKind::TaskPanic);
                            panic!("injected fault: task panic (worker {w}, seq {seq})");
                        }
                        TaskFault::Stall { millis } => {
                            record_fault(&*rec, site, seq, FaultKind::TaskStall);
                            std::thread::sleep(Duration::from_millis(millis));
                        }
                        TaskFault::Late { millis } => {
                            record_fault(&*rec, site, seq, FaultKind::TaskLate);
                            late_millis = Some(millis);
                        }
                    }
                }
                let out = generate_chunk_tallied(
                    &inst,
                    &t.snapshot,
                    t.seed,
                    t.count,
                    params,
                    t.iteration,
                );
                if let Some(millis) = late_millis {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                out
            }))
        });
        Self {
            inst: Arc::clone(inst),
            params,
            pool,
            recorder: Arc::clone(recorder),
            clock,
        }
    }

    /// Forwards the pool's recovery actions into telemetry.
    pub(crate) fn publish(&mut self, iteration: usize) {
        if let Some(pool) = self.pool.as_mut() {
            publish_recovery(&*self.recorder, pool.take_events(), iteration as u64);
        }
    }
}

impl<P: ChunkPool> Exec for Threads<P> {
    fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.workers().n_workers())
    }

    fn dispatch(&mut self, w: usize, core: &SearchCore, seed: u64, count: usize) {
        let task = Task {
            snapshot: core.current().clone(),
            seed,
            count,
            iteration: core.iteration(),
        };
        self.pool
            .as_mut()
            .expect("dispatch needs workers")
            .send(w, task);
    }

    fn local(&mut self, core: &SearchCore, seed: u64, count: usize) -> Chunk {
        generate_chunk_tallied(
            &self.inst,
            core.current(),
            seed,
            count,
            self.params,
            core.iteration(),
        )
    }

    fn step(&mut self, core: &mut SearchCore, pool: Vec<Neighbor>) -> StepReport {
        core.step(pool)
    }

    fn now(&self) -> f64 {
        self.clock.seconds()
    }

    /// Also publishes per-worker busy fractions and task counters.
    fn finish(mut self, iteration: usize) -> f64 {
        let runtime_seconds = self.clock.seconds();
        self.publish(iteration);
        if let Some(pool) = self.pool {
            for (w, stats) in pool.workers().worker_stats().iter().enumerate() {
                let frac = if runtime_seconds > 0.0 {
                    (stats.busy_seconds / runtime_seconds).min(1.0)
                } else {
                    0.0
                };
                self.recorder
                    .gauge_set(&names::worker_busy_fraction(w + 1), frac);
                self.recorder
                    .counter_add(&names::worker_tasks(w + 1), stats.tasks_completed);
            }
            pool.close();
        }
        self.recorder
            .gauge_set(names::RUNTIME_SECONDS, runtime_seconds);
        // The master is always busy.
        self.recorder
            .gauge_set(&names::worker_busy_fraction(0), 1.0);
        runtime_seconds
    }
}

/// Per-worker state of [`Virtual`].
#[derive(Default)]
pub(crate) struct VirtualWorker {
    /// The chunk in flight and the virtual time it reaches the master.
    pub(crate) outstanding: Option<(f64, Chunk)>,
    /// Fault decisions drawn so far.
    fault_seq: u64,
    consecutive_panics: u32,
    respawns_used: u32,
    pub(crate) retired: bool,
}

/// Chunks on a virtual cluster. A dispatched chunk is computed at once
/// (its content does not depend on virtual time), charged to its
/// processor, and delivered at the simulated completion instant.
///
/// Faults are mirrored deterministically: one fault draw per virtual
/// execution, with the same retry/quarantine/respawn policy (and the same
/// default knobs) as the thread-based `deme::Supervisor`. An injected
/// panic costs the worker a re-execution (bounded retries, then the task
/// is lost), repeated panics quarantine and once respawn the virtual
/// worker, and with every worker retired the master continues alone. All
/// of it is skipped for an inactive hook, so the no-fault event stream is
/// byte-identical to a run without a hook.
pub(crate) struct Virtual {
    inst: Arc<Instance>,
    pub(crate) sim: SimClock,
    pub(crate) recorder: Arc<dyn Recorder>,
    hook: Arc<dyn FaultHook>,
    policy: SupervisorConfig,
    pub(crate) workers: Vec<VirtualWorker>,
    pub(crate) degraded: bool,
}

impl Virtual {
    pub(crate) fn new(
        inst: &Arc<Instance>,
        sim: SimClock,
        recorder: &Arc<dyn Recorder>,
        hook: &Arc<dyn FaultHook>,
    ) -> Self {
        if hook.active() {
            recorder.gauge_set(names::DEGRADED_MODE, 0.0);
        }
        let n = sim.cluster.n_processors() - 1;
        Self {
            inst: Arc::clone(inst),
            sim,
            recorder: Arc::clone(recorder),
            hook: Arc::clone(hook),
            policy: SupervisorConfig::default(),
            workers: (0..n).map(|_| VirtualWorker::default()).collect(),
            degraded: false,
        }
    }

    /// Generates a chunk of `count` neighbors on processor `proc`.
    fn charge_chunk(&mut self, proc: usize, core: &SearchCore, seed: u64, count: usize) -> Chunk {
        let inst = &self.inst;
        self.sim.charge(proc, count, || {
            generate_chunk_tallied(
                inst,
                core.current(),
                seed,
                count,
                core.sample_params(),
                core.iteration(),
            )
        })
    }

    /// Draws faults for worker `w`'s execution until it completes or is
    /// lost; returns whether the chunk is delivered. `cost` is the
    /// execution's fixed virtual cost, if costs are fixed.
    fn survive_faults(&mut self, w: usize, cost: Option<f64>, iteration: usize) -> bool {
        let proc = w + 1;
        let mut attempt: u32 = 0;
        loop {
            let seq = self.workers[w].fault_seq;
            self.workers[w].fault_seq += 1;
            let fault = self.hook.on_task(proc, seq);
            let kind = match fault {
                TaskFault::None => {
                    self.workers[w].consecutive_panics = 0;
                    return true;
                }
                TaskFault::Panic => FaultKind::TaskPanic,
                TaskFault::Stall { .. } => FaultKind::TaskStall,
                TaskFault::Late { .. } => FaultKind::TaskLate,
            };
            record_fault(&*self.recorder, proc as u32, seq, kind);
            if let TaskFault::Stall { millis } | TaskFault::Late { millis } = fault {
                self.sim.cluster.advance(proc, millis as f64 / 1_000.0);
                self.workers[w].consecutive_panics = 0;
                return true;
            }
            attempt += 1;
            let mut actions = Vec::new();
            let state = &mut self.workers[w];
            state.consecutive_panics += 1;
            if state.consecutive_panics >= self.policy.quarantine_after {
                actions.push(RecoveryEvent::WorkerQuarantined { worker: w });
                if state.respawns_used < self.policy.max_respawns {
                    state.respawns_used += 1;
                    state.consecutive_panics = 0;
                    actions.push(RecoveryEvent::WorkerRespawned { worker: w });
                } else {
                    state.retired = true;
                    if !self.degraded && self.workers.iter().all(|st| st.retired) {
                        self.degraded = true;
                        actions.push(RecoveryEvent::Degraded { live_workers: 0 });
                    }
                }
            }
            let lost = self.workers[w].retired || attempt > self.policy.max_retries;
            actions.push(if lost {
                RecoveryEvent::TaskLost { worker: w }
            } else {
                RecoveryEvent::TaskResent { worker: w, attempt }
            });
            publish_recovery(&*self.recorder, actions, iteration as u64);
            if lost {
                return false;
            }
            // The retried execution costs virtual time again (a nominal
            // slice in measured mode).
            self.sim.cluster.advance(proc, cost.unwrap_or(1e-4));
        }
    }
}

impl Exec for Virtual {
    fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker starts once the master's message arrives; its result
    /// goes in flight unless faults lose it.
    fn dispatch(&mut self, w: usize, core: &SearchCore, seed: u64, count: usize) {
        let proc = w + 1;
        let arrival = self.sim.cluster.send_at(0, 1.0);
        self.sim.cluster.receive(proc, arrival);
        let chunk = self.charge_chunk(proc, core, seed, count);
        let cost = self.sim.cost(count);
        if self.hook.active() && !self.survive_faults(w, cost, core.iteration()) {
            return;
        }
        let arrival = self.sim.cluster.send_at(proc, 1.0);
        self.workers[w].outstanding = Some((arrival, chunk));
    }

    fn local(&mut self, core: &SearchCore, seed: u64, count: usize) -> Chunk {
        self.charge_chunk(0, core, seed, count)
    }

    fn step(&mut self, core: &mut SearchCore, pool: Vec<Neighbor>) -> StepReport {
        self.sim.charge(0, pool.len(), || core.step(pool))
    }

    fn now(&self) -> f64 {
        self.sim.cluster.clock(0)
    }

    fn finish(self, _iteration: usize) -> f64 {
        self.sim.finish(&*self.recorder)
    }
}
