//! Run-time settings shared by every entry point: where telemetry goes,
//! when to stop, which faults to inject, and which clock to run on.

use crate::cancel::CancelToken;
use std::sync::Arc;
use tsmo_faults::FaultHook;
use tsmo_obs::Recorder;

/// Which clock a run's parallelism is measured on.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Clock {
    /// Real threads; `runtime_seconds` is wall time.
    #[default]
    Wall,
    /// Single-threaded execution on a simulated cluster
    /// ([`deme::VirtualCluster`]): each work item's cost is measured (or
    /// fixed by [`TsmoConfig::sim_eval_cost`](crate::TsmoConfig::sim_eval_cost))
    /// and charged to its virtual processor, and `runtime_seconds` is the
    /// virtual makespan. Use it on hosts with fewer cores than the
    /// experiment's processor count; it is also the deterministic path —
    /// with a fixed evaluation cost the whole event stream is
    /// byte-reproducible.
    Virtual {
        /// Relative processor speeds for a heterogeneous machine
        /// (`speeds[p]` for processor `p`, the master is 0); `None` is a
        /// homogeneous machine. The length must equal the processor count.
        speeds: Option<Vec<f64>>,
    },
}

impl Clock {
    /// A homogeneous virtual cluster.
    pub fn virtual_uniform() -> Self {
        Clock::Virtual { speeds: None }
    }
}

/// Everything about a run that is not a search parameter. The default
/// is a silent, uncancellable, fault-free wall-clock run — exactly what
/// [`ParallelVariant::run`](crate::ParallelVariant::run) does.
#[derive(Clone)]
pub struct RunOptions {
    /// Telemetry sink (see `tsmo-obs`); recording never changes the search.
    pub recorder: Arc<dyn Recorder>,
    /// Cooperative stop signal, checked at the top of every iteration
    /// (per searcher in multisearch runs), so a stopped run is a prefix of
    /// the unstopped one.
    pub cancel: CancelToken,
    /// Fault-injection hook (see `tsmo-faults`). The asynchronous master
    /// feeds it worker tasks, the multisearch variants exchange messages;
    /// an inactive hook takes exactly the unfaulted code path.
    pub faults: Arc<dyn FaultHook>,
    /// Wall or virtual time.
    pub clock: Clock,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            recorder: tsmo_obs::noop(),
            cancel: CancelToken::never(),
            faults: tsmo_faults::none(),
            clock: Clock::Wall,
        }
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("cancel", &self.cancel)
            .field("faults", &self.faults.active())
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}
