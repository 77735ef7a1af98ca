//! Telemetry shared by the executors: worker traffic, injected faults and
//! supervisor recovery actions become `tsmo-obs` counters and structured
//! events. Kept in one place so the thread-based and virtual-clock
//! executors publish identical shapes.

use deme::RecoveryEvent;
use tsmo_obs::{metrics::names, ExchangeDirection, FaultKind, Recorder, SearchEvent};

/// A chunk of `count` neighbors was sent to processor `worker`.
pub(crate) fn worker_task(recorder: &dyn Recorder, worker: usize, iteration: usize, count: usize) {
    if recorder.enabled() {
        recorder.event(SearchEvent::WorkerTask {
            worker: worker as u32,
            iteration: iteration as u64,
            count: count as u32,
        });
    }
}

/// Processor `worker`'s chunk of `neighbors` reached the master.
pub(crate) fn worker_result(
    recorder: &dyn Recorder,
    worker: usize,
    iteration: usize,
    neighbors: usize,
) {
    if recorder.enabled() {
        recorder.event(SearchEvent::WorkerResult {
            worker: worker as u32,
            iteration: iteration as u64,
            neighbors: neighbors as u32,
        });
    }
}

/// One exchange message left searcher `searcher` for `peer` (`Sent`) or
/// reached it (`Received`: the wire format carries no sender id, so
/// `peer` is the receiver itself).
pub(crate) fn exchange(
    recorder: &dyn Recorder,
    searcher: usize,
    peer: usize,
    direction: ExchangeDirection,
    objectives: [f64; 3],
) {
    recorder.counter_add(
        match direction {
            ExchangeDirection::Sent => names::EXCHANGE_SENT,
            ExchangeDirection::Received => names::EXCHANGE_RECEIVED,
        },
        1,
    );
    if recorder.enabled() {
        recorder.event(SearchEvent::Exchange {
            searcher: searcher as u32,
            peer: peer as u32,
            direction,
            objectives,
        });
    }
}

/// Publishes one injected fault: bumps `tsmo_faults_injected_total` and
/// (when events are on) appends a `fault_injected` event.
pub(crate) fn record_fault(recorder: &dyn Recorder, site: u32, seq: u64, kind: FaultKind) {
    recorder.counter_add(names::FAULTS_INJECTED, 1);
    if recorder.enabled() {
        recorder.event(SearchEvent::FaultInjected { site, seq, kind });
    }
}

/// Publishes a batch of supervisor recovery actions. `iteration` is the
/// master's iteration at drain time; workers are shifted by one so the
/// master keeps id 0 in the event stream (matching worker task/result
/// events).
pub(crate) fn publish_recovery(
    recorder: &dyn Recorder,
    events: Vec<RecoveryEvent>,
    iteration: u64,
) {
    for ev in events {
        match ev {
            RecoveryEvent::TaskResent { worker, attempt } => {
                recorder.counter_add(names::TASKS_RESENT, 1);
                if recorder.enabled() {
                    recorder.event(SearchEvent::TaskResent {
                        worker: (worker + 1) as u32,
                        iteration,
                        attempt,
                    });
                }
            }
            RecoveryEvent::TaskLost { .. } => {
                recorder.counter_add(names::TASKS_LOST, 1);
            }
            RecoveryEvent::WorkerQuarantined { worker } => {
                recorder.counter_add(names::WORKERS_QUARANTINED, 1);
                if recorder.enabled() {
                    recorder.event(SearchEvent::WorkerQuarantined {
                        worker: (worker + 1) as u32,
                        iteration,
                    });
                }
            }
            RecoveryEvent::WorkerRespawned { worker } => {
                recorder.counter_add(names::WORKERS_RESPAWNED, 1);
                if recorder.enabled() {
                    recorder.event(SearchEvent::WorkerRespawned {
                        worker: (worker + 1) as u32,
                        iteration,
                    });
                }
            }
            RecoveryEvent::Degraded { live_workers } => {
                recorder.gauge_set(names::DEGRADED_MODE, 1.0);
                if recorder.enabled() {
                    recorder.event(SearchEvent::DegradedMode {
                        iteration,
                        live_workers: live_workers as u32,
                    });
                }
            }
        }
    }
}
