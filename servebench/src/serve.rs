//! The end-to-end run: an in-process `served` daemon driven by
//! closed-loop clients over its wire protocol, with tracing off.
//!
//! Each client waits for its job's result before it submits the next.
//! Only public client calls touch the daemon: `submit`, `wait_result`,
//! `cancel` and `metrics_json`.

use crate::gate;
use crate::stats::{median, tail};
use crate::workload::{job_config, Instances, Workload};
use crate::Report;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tsmo_cluster::{NodeConfig, Noded};
use tsmo_obs::metrics::names;
use tsmo_obs::MetricsRegistry;
use tsmo_serve::{Client, JobResult, JobSpec, Server, ServerConfig};
use vrptw::Instance;

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Longest a single job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Starts an in-process `served` daemon with one worker.
pub fn start_daemon() -> io::Result<Server> {
    Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
}

/// Starts `n` in-process mesh nodes; on failure halts those already up.
pub fn start_nodes(n: usize) -> io::Result<Vec<Noded>> {
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        match Noded::start(NodeConfig::default()) {
            Ok(node) => nodes.push(node),
            Err(e) => {
                nodes.into_iter().for_each(Noded::halt);
                return Err(e);
            }
        }
    }
    Ok(nodes)
}

/// Submits `spec`, retrying on `QueueFull` backpressure; each retry is
/// counted in `retries`.
pub fn submit(client: &mut Client, spec: &JobSpec, retries: &AtomicU64) -> io::Result<u64> {
    loop {
        match client.submit(spec.clone())? {
            Ok(id) => return Ok(id),
            Err(_capacity) => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Sum of every sample of a counter family, whatever its labels.
fn counter_family(registry: &MetricsRegistry, family: &str) -> u64 {
    registry
        .counters()
        .filter(|(name, _)| {
            name.strip_prefix(family)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Neighbours produced so far by the daemon's jobs.
fn neighbours_produced(addr: &str) -> io::Result<u64> {
    let text = Client::connect(addr)?.metrics_json()?;
    let registry = MetricsRegistry::from_json(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(counter_family(&registry, names::OPERATOR_FEASIBLE))
}

/// One finished (or failed) job of the closed loop.
struct JobRecord {
    job: u64,
    text: Arc<String>,
    latency_ms: f64,
    result: Result<JobResult, String>,
}

/// A submitted job whose result a client still awaits.
struct Pending {
    job: u64,
    id: u64,
    sent: Instant,
    text: Arc<String>,
}

/// What the closed-loop clients share.
struct ClosedLoop<'a> {
    w: &'static Workload,
    seed: u64,
    instances: &'a Instances,
    next_job: AtomicU64,
    deadline: Instant,
    retries: &'a AtomicU64,
}

impl ClosedLoop<'_> {
    /// Runs one client: it waits for each result before it submits the
    /// next job, submits nothing after the deadline, and stops at its
    /// first failed job.
    fn client(&self, client: &mut Client, mut pending: Option<Pending>) -> Vec<JobRecord> {
        let mut records = Vec::new();
        loop {
            let p = match pending.take() {
                Some(p) => p,
                None if Instant::now() >= self.deadline => break,
                None => {
                    let job = self.next_job.fetch_add(1, Ordering::Relaxed);
                    let text = self.instances.text(job);
                    let spec = self.w.spec(self.seed, job, &text);
                    let sent = Instant::now();
                    match submit(client, &spec, self.retries) {
                        Ok(id) => Pending {
                            job,
                            id,
                            sent,
                            text,
                        },
                        Err(e) => {
                            records.push(JobRecord {
                                job,
                                text,
                                latency_ms: 0.0,
                                result: Err(format!("submit: {e}")),
                            });
                            break;
                        }
                    }
                }
            };
            let result = client
                .wait_result(p.id, JOB_TIMEOUT)
                .map_err(|e| format!("wait_result: {e}"));
            let failed = result.is_err();
            records.push(JobRecord {
                job: p.job,
                text: p.text,
                latency_ms: p.sent.elapsed().as_secs_f64() * 1e3,
                result,
            });
            if failed {
                break;
            }
        }
        records
    }
}

/// A started daemon with the first job already accepted.
struct Started {
    daemon: Server,
    client: Client,
    first_id: u64,
    first_sent: Instant,
    setup_s: Vec<f64>,
}

/// Starts the daemon `SETUP_REPS` times and times each start up to the
/// first accepted submit. All but the last daemon are cancelled and
/// stopped; the last one carries on into the measured window.
fn set_up(first: &JobSpec, retries: &AtomicU64) -> io::Result<Started> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let daemon = start_daemon()?;
        let mut client = Client::connect(daemon.local_addr())?;
        let first_sent = Instant::now();
        let first_id = submit(&mut client, first, retries)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok(Started {
                daemon,
                client,
                first_id,
                first_sent,
                setup_s,
            });
        }
        let _ = client.cancel(first_id);
        drop(client);
        daemon.shutdown();
    }
    unreachable!("SETUP_REPS is positive")
}

/// Runs the closed loop for `seconds`, then checks every returned front.
pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> io::Result<Report> {
    let instances = Instances::new(w, seed);
    let first_text = instances.text(0);
    let retries = AtomicU64::new(0);
    let first = w.spec(seed, 0, &first_text);
    let started = set_up(&first, &retries)?;
    let addr = started.daemon.local_addr().to_string();
    let window = started.first_sent;
    let closed_loop = ClosedLoop {
        w,
        seed,
        instances: &instances,
        next_job: AtomicU64::new(1),
        deadline: window + Duration::from_secs(seconds),
        retries: &retries,
    };
    let first_job = Pending {
        job: 0,
        id: started.first_id,
        sent: window,
        text: Arc::clone(&first_text),
    };
    let first_client = Mutex::new(Some((started.client, first_job)));
    let records = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..w.clients {
            scope.spawn(|| {
                let first = first_client
                    .lock()
                    .expect("first-client slot poisoned")
                    .take();
                let mine = match first {
                    Some((mut client, job)) => closed_loop.client(&mut client, Some(job)),
                    None => match Client::connect(&addr) {
                        Ok(mut client) => closed_loop.client(&mut client, None),
                        Err(e) => vec![JobRecord {
                            job: u64::MAX,
                            text: Arc::clone(&first_text),
                            latency_ms: 0.0,
                            result: Err(format!("connect: {e}")),
                        }],
                    },
                };
                records.lock().expect("records poisoned").extend(mine);
            });
        }
    });
    let wall_s = window.elapsed().as_secs_f64();
    let neighbours = neighbours_produced(&addr);
    started.daemon.shutdown();
    let neighbours = neighbours?;
    let mut records = records.into_inner().expect("records poisoned");
    records.sort_by_key(|r| r.job);

    let verdicts = verify(w, seed, &records);
    let attempted = records.len() as u64;
    let mut failed = 0u64;
    let mut hv = Vec::new();
    let mut latencies = Vec::new();
    let mut notes = Vec::new();
    for (record, verdict) in records.iter().zip(&verdicts) {
        match verdict {
            Ok(front_hv) => {
                hv.push(*front_hv);
                latencies.push(record.latency_ms);
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("job {} invalid: {e}", record.job));
            }
        }
    }
    let completed = latencies.len() as f64;
    let (tail_ms, tail_pct) = tail(&latencies);
    notes.push(format!(
        "{} jobs in {wall_s:.3} s; job_tail_ms is p{tail_pct:.1} of {} jobs; \
         {} QueueFull retries",
        attempted,
        latencies.len(),
        retries.load(Ordering::Relaxed)
    ));
    let mut report = Report::new(attempted, failed, notes);
    report.metric("job_p50_ms", median(&latencies), "ms");
    report.metric("job_tail_ms", tail_ms, "ms");
    report.metric("jobs_per_s", completed / wall_s, "1/s");
    report.metric("neighbors_per_s", neighbours as f64 / wall_s, "1/s");
    report.metric("front_hv", hv.iter().sum::<f64>() / completed, "ratio");
    report.metric(
        "ok_share",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    report.metric("setup_s", median(&started.setup_s), "s");
    Ok(report)
}

/// Gates every record, then re-runs its spec in-process and requires the
/// identical front. Two checker threads.
fn verify(w: &Workload, seed: u64, records: &[JobRecord]) -> Vec<Result<f64, String>> {
    let instances: Mutex<HashMap<usize, Arc<Instance>>> = Mutex::new(HashMap::new());
    let instance_of = |text: &Arc<String>| -> Result<Arc<Instance>, String> {
        let key = Arc::as_ptr(text) as usize;
        if let Some(inst) = instances.lock().expect("instances poisoned").get(&key) {
            return Ok(Arc::clone(inst));
        }
        let inst = Arc::new(vrptw::solomon::parse(text).map_err(|e| format!("parse: {e}"))?);
        instances
            .lock()
            .expect("instances poisoned")
            .insert(key, Arc::clone(&inst));
        Ok(inst)
    };
    let check = |record: &JobRecord| -> Result<f64, String> {
        let result = record.result.as_ref().map_err(Clone::clone)?;
        let inst = instance_of(&record.text)?;
        let spec = w.spec(seed, record.job, &record.text);
        let hv = gate::check_result(&inst, spec.max_evaluations, result)?;
        let local = w.variant.run(&inst, &job_config(&spec));
        if !gate::same_front(&result.front, &local.archive) {
            return Err("served front differs from the in-process run".to_string());
        }
        Ok(hv)
    };
    let next = AtomicU64::new(0);
    let verdicts: Vec<Mutex<Option<Result<f64, String>>>> =
        records.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(record) = records.get(k) else { break };
                *verdicts[k].lock().expect("verdict poisoned") = Some(check(record));
            });
        }
    });
    verdicts
        .into_iter()
        .map(|v| {
            v.into_inner()
                .expect("verdict poisoned")
                .expect("every record checked")
        })
        .collect()
}
