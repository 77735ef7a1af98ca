//! The traced run: replays the workload's jobs through the public
//! functions of each layer and times those calls from here.
//!
//! Each round replays one job (one per client on the daemon) through:
//!
//! - `vrptw`: `solomon::parse`, and `EvaluatedSolution::preview` and
//!   `Solution::evaluate` on every neighbour the job produced;
//! - `server`: `Client::submit`, status polling (queue wait, then run)
//!   and `Client::result`, against a daemon shaped like the workload's;
//! - `core` and `operators`: the search loop rebuilt from
//!   `SearchCore` + `generate_chunk`, and every chunk replayed draw by
//!   draw with `sample_move_tallied` followed by the neighbour's
//!   materialisation (`Solution::patched`, `arcs_created`, `arcs_removed`);
//! - `cluster`: `run_mesh` over two in-process nodes, against an
//!   in-process `Collaborative(2)` run of the same spec.
//!
//! The replay checks itself: the rebuilt loop must reproduce the
//! library's front bit for bit, and each draw-by-draw chunk must
//! reproduce the library chunk's neighbours. Reference runs (`ref.*`
//! spans) measure the untraced library and the variants it is compared
//! with. Every per-layer number is derived from the spans, which are
//! written to `servebench/out/<workload>.spans.jsonl`; the shares are
//! recomputed from that file before they are reported.

use crate::gate;
use crate::serve::{start_daemon, start_nodes, submit};
use crate::spans::{child_share, read_jsonl, self_times, totals, write_jsonl, Span, Tracer};
use crate::stats::median;
use crate::workload::{job_config, Instances, Workload};
use crate::Report;
use deme::EvaluationBudget;
use detrand::Xoshiro256StarStar;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsmo_cluster::mesh::MeshClient;
use tsmo_cluster::{MeshJob, Noded};
use tsmo_core::{generate_chunk, FrontEntry, ParallelVariant, SearchCore, TsmoConfig};
use tsmo_obs::metrics::names;
use tsmo_obs::MetricsRegistry;
use tsmo_serve::{Client, JobResult, Response};
use vrptw::solution::EvaluatedSolution;
use vrptw::Instance;
use vrptw_operators::{sample_move_tallied, OperatorKind, SampleParams, SampleTally};

/// Nodes of the mesh the cluster layer is replayed on (one searcher each).
const MESH_NODES: usize = 2;
/// Status round trips timed per node per round.
const RTT_PROBES: usize = 5;
/// Status poll interval while a traced job is queued or running.
const POLL: Duration = Duration::from_millis(1);
const LAYERS: [&str; 5] = ["vrptw", "operators", "core", "server", "cluster"];

/// What the traced rounds observed besides their spans.
#[derive(Default)]
struct Counts {
    tally: SampleTally,
    neighbours: u64,
    charged: u64,
    exchanges: u64,
    /// Self-checks made, and the description of each that failed.
    checks: u64,
    failures: Vec<String>,
}

impl Counts {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs traced rounds for `seconds` (at least one), then derives and
/// prints the per-layer metrics.
pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let daemon = start_daemon().map_err(|e| format!("start daemon: {e}"))?;
    let nodes = match start_nodes(MESH_NODES) {
        Ok(nodes) => nodes,
        Err(e) => {
            daemon.shutdown();
            return Err(format!("start mesh nodes: {e}"));
        }
    };
    let peers: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let outcome = trace_rounds(w, seed, seconds, &daemon.local_addr().to_string(), &peers);
    daemon.shutdown();
    nodes.into_iter().for_each(Noded::halt);
    let (tracer, counts, cache_hit_rate) = outcome?;
    report(w, &tracer, counts, cache_hit_rate)
}

/// Replays one job per round until `seconds` have passed; returns the
/// spans, the counts, and the daemon's instance-cache hit rate over the
/// rounds.
fn trace_rounds(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    addr: &str,
    peers: &[String],
) -> Result<(Tracer, Counts, f64), String> {
    let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut clients = (0..w.clients)
        .map(|_| connect())
        .collect::<Result<Vec<_>, _>>()?;
    let cache = |client: &mut Client| -> Result<(u64, u64), String> {
        let text = client.metrics_json().map_err(|e| format!("metrics: {e}"))?;
        let reg = MetricsRegistry::from_json(&text)?;
        Ok((
            reg.counter(names::INSTANCE_CACHE_HITS),
            reg.counter(names::INSTANCE_CACHE_MISSES),
        ))
    };
    let before = cache(&mut clients[0])?;
    let mesh: Vec<MeshClient> = peers
        .iter()
        .map(|p| MeshClient::new(p.clone(), tsmo_cluster::DEFAULT_NET_TIMEOUT))
        .collect();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let instances = Instances::new(w, seed);
    let mut round = 0u64;
    loop {
        let first_job = round * w.clients as u64;
        // All of a round's jobs share one instance, so on cycling
        // workloads a round's later submits hit the instance cache.
        let text = instances.text(round);
        let root = tracer.open("bench.round", 0);
        let start = tracer.now();
        let inst = vrptw::solomon::parse(&text).map_err(|e| format!("parse: {e}"))?;
        tracer.record("vrptw.parse", root, start, tracer.now(), 1);
        let inst = Arc::new(inst);
        let served = serve_round(w, seed, first_job, &text, &mut clients, &mut tracer, root);
        let spec = w.spec(seed, first_job, &text);
        let cfg = TsmoConfig {
            chunks: w.trajectory_chunks(),
            ..job_config(&spec)
        };
        let replayed = replay_job(&inst, &cfg, &mut tracer, root, &mut counts);
        let reference = timed(&mut tracer, root, "ref.sequential", || {
            ParallelVariant::Sequential.run(&inst, &cfg)
        });
        counts.require(
            gate::same_front(&gate::front_points(&replayed), &reference.archive),
            || format!("round {round}: replayed loop's front differs from the library's"),
        );
        for (c, result) in served.into_iter().enumerate() {
            let job = first_job + c as u64;
            match result {
                Err(e) => counts.require(false, || format!("served job {job}: {e}")),
                Ok(result) => {
                    let gated = gate::check_result(&inst, w.evals, &result);
                    counts.require(gated.is_ok(), || {
                        format!("served job {job}: {}", gated.unwrap_err())
                    });
                    if c == 0 {
                        counts.require(gate::same_front(&result.front, &reference.archive), || {
                            format!("served job {job}: front differs from the in-process run")
                        });
                    }
                }
            }
        }
        compare_sync2(&inst, &job_config(&spec), &mut tracer, root, &mut counts);
        mesh_round(
            &inst,
            &text,
            spec.seed,
            &cfg,
            peers,
            &mesh,
            &mut tracer,
            root,
            &mut counts,
        )?;
        tracer.close(root, round);
        round += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let after = cache(&mut clients[0])?;
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    Ok((tracer, counts, hits as f64 / (hits + misses).max(1) as f64))
}

/// Runs `f` inside a span called `name`.
fn timed<T>(tracer: &mut Tracer, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = tracer.now();
    let out = f();
    tracer.record(name, parent, start, tracer.now(), 1);
    out
}

/// Instants one traced client observed for its job.
struct Marks {
    sent: Instant,
    accepted: Instant,
    running: Instant,
    done: Instant,
    fetched: Instant,
    bytes: u64,
}

/// One job per client, submitted together; each client polls its job's
/// status to split the wait into queue wait and run.
fn serve_round(
    w: &Workload,
    seed: u64,
    first_job: u64,
    text: &str,
    clients: &mut [Client],
    tracer: &mut Tracer,
    root: u32,
) -> Vec<Result<JobResult, String>> {
    let retries = AtomicU64::new(0);
    let outcomes: Vec<Result<(Marks, JobResult), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let spec = w.spec(seed, first_job + c as u64, text);
                let retries = &retries;
                scope.spawn(move || -> Result<(Marks, JobResult), String> {
                    let sent = Instant::now();
                    let id = submit(client, &spec, retries).map_err(|e| format!("submit: {e}"))?;
                    let accepted = Instant::now();
                    let mut running = None;
                    let done = loop {
                        let state = client.status(id).map_err(|e| format!("status: {e}"))?;
                        let now = Instant::now();
                        match state.as_str() {
                            "queued" => {}
                            "done" => break now,
                            "failed" => return Err(format!("job {id} failed")),
                            _ => {
                                running.get_or_insert(now);
                            }
                        }
                        std::thread::sleep(POLL);
                    };
                    let result = client.result(id).map_err(|e| format!("result: {e}"))?;
                    let fetched = Instant::now();
                    let bytes = Response::JobResult {
                        job: id,
                        result: result.clone(),
                    }
                    .to_json()
                    .len() as u64;
                    let marks = Marks {
                        sent,
                        accepted,
                        running: running.unwrap_or(done),
                        done,
                        fetched,
                        bytes,
                    };
                    Ok((marks, result))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client thread panicked"))
            .collect()
    });
    outcomes
        .into_iter()
        .map(|outcome| {
            let (m, result) = outcome?;
            let job = tracer.record(
                "server.job",
                root,
                tracer.at(m.sent),
                tracer.at(m.fetched),
                1,
            );
            let at = |t: Instant| tracer.at(t);
            let phases = [
                ("server.submit", at(m.sent), at(m.accepted), 1),
                ("server.queue_wait", at(m.accepted), at(m.running), 1),
                ("server.run", at(m.running), at(m.done), 1),
                ("server.result", at(m.done), at(m.fetched), m.bytes),
            ];
            for (name, start, end, count) in phases {
                tracer.record(name, job, start, end, count);
            }
            Ok(result)
        })
        .collect()
}

/// Rebuilds the sequential search loop from the library's public parts,
/// replaying every chunk draw by draw, and returns the final archive.
fn replay_job(
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    tracer: &mut Tracer,
    root: u32,
    counts: &mut Counts,
) -> Vec<FrontEntry> {
    let replay = tracer.open("core.replay", root);
    let mut core = timed(tracer, replay, "core.construct", || {
        SearchCore::new(
            Arc::clone(inst),
            cfg.clone(),
            Xoshiro256StarStar::seed_from_u64(cfg.seed),
        )
    });
    let budget = EvaluationBudget::new(cfg.max_evaluations);
    let sizes = cfg.chunk_sizes();
    let mut produced = 0u64;
    while !budget.exhausted() {
        let seeds = core.chunk_seeds();
        let mut pool = Vec::with_capacity(cfg.neighborhood_size);
        for (&seed, &size) in seeds.iter().zip(&sizes) {
            let granted = budget.try_consume(size as u64) as usize;
            if granted == 0 {
                break;
            }
            let (snapshot, params, iteration) =
                (core.current(), core.sample_params(), core.iteration());
            let start = tracer.now();
            let chunk = generate_chunk(inst, snapshot, seed, granted, params, iteration);
            tracer.record(
                "core.chunk",
                replay,
                start,
                tracer.now(),
                chunk.len() as u64,
            );
            let replayed = replay_chunk(
                inst, snapshot, seed, granted, params, tracer, replay, counts,
            );
            counts.require(
                replayed.len() == chunk.len()
                    && replayed
                        .iter()
                        .zip(&chunk)
                        .all(|(a, b)| a.to_vector() == b.objectives.to_vector()),
                || {
                    format!(
                        "draw replay produced {} of {} neighbours",
                        replayed.len(),
                        chunk.len()
                    )
                },
            );
            produced += chunk.len() as u64;
            pool.extend(chunk);
        }
        if pool.is_empty() && budget.exhausted() {
            break;
        }
        timed(tracer, replay, "core.step", || core.step(pool));
    }
    counts.neighbours += produced;
    counts.charged += budget.consumed();
    let (archive, _, _) = core.finish();
    tracer.close(replay, produced);
    archive
}

/// Replays one chunk draw by draw, exactly as `generate_chunk` draws it:
/// the chunk seed's own RNG, the same attempt cap, one
/// `sample_move_tallied` call per draw, and each success materialised.
/// Consecutive draws up to and including a success form one
/// `operators.draw` span (its count is the number of draws); the
/// materialisation that follows is one `core.materialize` span. The
/// neighbours are then previewed and fully evaluated again to time the
/// `vrptw` kernels on them. Returns the neighbours' objectives.
#[allow(clippy::too_many_arguments)]
fn replay_chunk(
    inst: &Instance,
    snapshot: &EvaluatedSolution,
    seed: u64,
    count: usize,
    params: SampleParams,
    tracer: &mut Tracer,
    parent: u32,
    counts: &mut Counts,
) -> Vec<vrptw::Objectives> {
    let chunk = tracer.open("core.replay_chunk", parent);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    // `generate_chunk`'s attempt cap.
    let max_attempts = count.saturating_mul(60).max(64);
    let mut candidates = Vec::with_capacity(count);
    let mut solutions = Vec::with_capacity(count);
    let mut attempts = 0;
    let mut run_start = tracer.now();
    let mut run_draws = 0;
    while candidates.len() < count && attempts < max_attempts {
        attempts += 1;
        run_draws += 1;
        if let Some(c) = sample_move_tallied(&mut rng, inst, snapshot, params, &mut counts.tally) {
            let drawn = tracer.now();
            tracer.record("operators.draw", chunk, run_start, drawn, run_draws);
            let solution = snapshot.solution().patched(&c.patch);
            let arcs = (c.mv.arcs_created(snapshot), c.mv.arcs_removed(snapshot));
            let made = tracer.now();
            tracer.record("core.materialize", chunk, drawn, made, 1);
            black_box(arcs);
            solutions.push(solution);
            candidates.push(c);
            (run_start, run_draws) = (made, 0);
        }
    }
    if run_draws > 0 {
        tracer.record("operators.draw", chunk, run_start, tracer.now(), run_draws);
    }
    tracer.close(chunk, candidates.len() as u64);

    let n = candidates.len() as u64;
    let start = tracer.now();
    let previews: Vec<vrptw::Objectives> = candidates
        .iter()
        .map(|c| black_box(snapshot.preview(inst, &c.patch)).objectives)
        .collect();
    tracer.record("vrptw.preview", parent, start, tracer.now(), n);
    let start = tracer.now();
    let full: Vec<vrptw::Objectives> = solutions
        .iter()
        .map(|s| black_box(s.evaluate(inst)))
        .collect();
    tracer.record("vrptw.evaluate", parent, start, tracer.now(), n);
    let sampled: Vec<vrptw::Objectives> = candidates.iter().map(|c| c.preview.objectives).collect();
    counts.require(previews == sampled, || {
        "preview disagrees with the sampled candidate".to_string()
    });
    counts.require(
        full.iter()
            .zip(&sampled)
            .all(|(a, b)| gate::objectives_match(a.to_vector(), b.to_vector())),
        || "full evaluation disagrees with the preview".to_string(),
    );
    sampled
}

/// Sequential with two chunks against `Synchronous(2)`: the same
/// trajectory, so the fronts must match and the wall-time ratio is the
/// variant-orchestration layer's speed-up.
fn compare_sync2(
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    tracer: &mut Tracer,
    root: u32,
    counts: &mut Counts,
) {
    let seq_cfg = TsmoConfig {
        chunks: 2,
        ..cfg.clone()
    };
    let seq = timed(tracer, root, "ref.sequential_2chunks", || {
        ParallelVariant::Sequential.run(inst, &seq_cfg)
    });
    let sync = timed(tracer, root, "ref.synchronous_2", || {
        ParallelVariant::Synchronous(2).run(inst, cfg)
    });
    counts.require(
        gate::same_front(&gate::front_points(&seq.archive), &sync.archive),
        || "Synchronous(2) left the sequential trajectory".to_string(),
    );
}

/// The spec as a collaborative job over the two-node mesh (one searcher
/// per node), shaped as `served` dispatches mesh jobs, against an
/// in-process `Collaborative(2)` run; plus status round trips to each
/// node.
#[allow(clippy::too_many_arguments)]
fn mesh_round(
    inst: &Arc<Instance>,
    text: &str,
    seed: u64,
    cfg: &TsmoConfig,
    peers: &[String],
    mesh: &[MeshClient],
    tracer: &mut Tracer,
    root: u32,
    counts: &mut Counts,
) -> Result<(), String> {
    let exchanges = || -> Result<u64, String> {
        mesh.iter()
            .map(|m| {
                m.metrics_registry()
                    .map(|r| r.counter(names::EXCHANGES_SENT))
                    .map_err(|e| format!("node metrics: {e}"))
            })
            .sum()
    };
    let before = exchanges()?;
    let job = MeshJob {
        instance_text: text.to_string(),
        peers: peers.to_vec(),
        searchers_per_node: 1,
        seed,
        max_evaluations: cfg.max_evaluations,
        neighborhood_size: cfg.neighborhood_size,
        stagnation_limit: cfg.stagnation_limit,
        trace_id: tsmo_obs::trace_id_from_seed(seed),
        replication_ms: 1_000,
        ..MeshJob::default()
    };
    let outcome = timed(tracer, root, "cluster.mesh_job", || {
        tsmo_cluster::run_mesh(
            &job,
            tsmo_cluster::DEFAULT_NET_TIMEOUT,
            Duration::from_secs(60),
        )
    })
    .map_err(|e| format!("run_mesh: {e}"))?;
    counts.exchanges += exchanges()? - before;
    // Every searcher (one per node) has its own budget.
    let budget = cfg.max_evaluations * MESH_NODES as u64;
    counts.require(
        outcome.evaluations <= budget && !outcome.front.is_empty(),
        || {
            format!(
                "mesh job charged {} of {budget} evaluations",
                outcome.evaluations
            )
        },
    );
    let collab_cfg = TsmoConfig {
        chunks: 1,
        ..cfg.clone()
    };
    timed(tracer, root, "ref.collaborative_2", || {
        ParallelVariant::Collaborative(2).run(inst, &collab_cfg)
    });
    for m in mesh {
        for _ in 0..RTT_PROBES {
            let state = timed(tracer, root, "cluster.peer_rtt", || m.status());
            counts.require(state.is_ok(), || "node status failed".to_string());
        }
    }
    Ok(())
}

/// Mean duration in `scale` units of the spans called `name`, per unit
/// of their counts.
fn per_count<N: AsRef<str>>(spans: &[Span<N>], name: &str, scale: f64) -> f64 {
    let (dur, count) = totals(spans, name);
    dur as f64 / scale / count as f64
}

/// Median duration in `scale` units of the spans called `name`.
fn median_dur<N: AsRef<str>>(spans: &[Span<N>], name: &str, scale: f64) -> f64 {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.as_ref() == name)
        .map(|s| s.dur() as f64 / scale)
        .collect();
    median(&durs)
}

/// Derives the per-layer metrics from the spans and counts, saves the
/// spans, and re-derives the shares from the saved file.
fn report(
    w: &Workload,
    tracer: &Tracer,
    mut counts: Counts,
    cache_hit_rate: f64,
) -> Result<Report, String> {
    let spans = tracer.spans();
    let rounds = spans.iter().filter(|s| s.name == "bench.round").count() as f64;
    let draw_share = child_share(spans, "operators.draw", "core.replay_chunk");
    let materialize_share = child_share(spans, "core.materialize", "core.replay_chunk");

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let span_path = out.join(format!("{}.spans.jsonl", w.name));
    write_jsonl(spans, &span_path).map_err(|e| format!("write {}: {e}", span_path.display()))?;
    let saved = read_jsonl(&span_path).map_err(|e| format!("read back spans: {e}"))?;
    counts.require(
        child_share(&saved, "operators.draw", "core.replay_chunk") == draw_share
            && child_share(&saved, "core.materialize", "core.replay_chunk") == materialize_share,
        || "shares recomputed from the saved spans differ".to_string(),
    );

    let selfs = self_times(spans);
    let mut layer_self_ms = [0.0; LAYERS.len()];
    for (s, own) in spans.iter().zip(&selfs) {
        if let Some(k) = LAYERS.iter().position(|l| *l == s.layer()) {
            layer_self_ms[k] += *own as f64 / 1e6;
        }
    }
    let draws: u64 = counts.tally.proposed.iter().sum();
    let feasible: u64 = counts.tally.feasible.iter().sum();
    let mut layers_json = format!(
        "{{\"workload\": \"{}\", \"rounds\": {rounds}, \"draw_share\": {draw_share}, \
         \"materialize_share\": {materialize_share}, \"self_ms_per_round\": {{",
        w.name
    );
    for (k, layer) in LAYERS.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        layers_json += &format!("{sep}\"{layer}\": {}", layer_self_ms[k] / rounds);
    }
    layers_json += "}}\n";
    let layers_path = out.join(format!("{}.layers.json", w.name));
    std::fs::write(&layers_path, layers_json)
        .map_err(|e| format!("write {}: {e}", layers_path.display()))?;

    let mut notes = counts.failures.clone();
    notes.push(format!(
        "{rounds} traced rounds; spans in {} ({} spans); layer shares in {}",
        span_path.display(),
        spans.len(),
        layers_path.display()
    ));
    let mut r = Report::new(counts.checks, counts.failures.len() as u64, notes);
    r.metric(
        "operators.draw_ns",
        per_count(spans, "operators.draw", 1.0),
        "ns",
    );
    r.metric(
        "operators.draws_per_neighbor",
        draws as f64 / feasible as f64,
        "count",
    );
    for op in OperatorKind::ALL {
        let i = op.index();
        r.metric(
            format!("operators.feasible_rate.{}", op.label()),
            counts.tally.feasible[i] as f64 / counts.tally.proposed[i].max(1) as f64,
            "ratio",
        );
    }
    r.metric("operators.draw_share", draw_share, "ratio");
    r.metric(
        "core.materialize_ns",
        per_count(spans, "core.materialize", 1.0),
        "ns",
    );
    r.metric("core.materialize_share", materialize_share, "ratio");
    r.metric(
        "core.chunk_ns_per_neighbor",
        per_count(spans, "core.chunk", 1.0),
        "ns",
    );
    r.metric("core.step_us", median_dur(spans, "core.step", 1e3), "us");
    r.metric(
        "core.construct_ms",
        median_dur(spans, "core.construct", 1e6),
        "ms",
    );
    r.metric(
        "core.neighbors_per_charged_eval",
        counts.neighbours as f64 / counts.charged as f64,
        "ratio",
    );
    r.metric(
        "core.sync2_speedup",
        totals(spans, "ref.sequential_2chunks").0 as f64
            / totals(spans, "ref.synchronous_2").0 as f64,
        "ratio",
    );
    r.metric(
        "vrptw.preview_ns",
        per_count(spans, "vrptw.preview", 1.0),
        "ns",
    );
    r.metric(
        "vrptw.evaluate_ns",
        per_count(spans, "vrptw.evaluate", 1.0),
        "ns",
    );
    r.metric(
        "vrptw.parse_ms",
        median_dur(spans, "vrptw.parse", 1e6),
        "ms",
    );
    r.metric(
        "server.submit_ms",
        median_dur(spans, "server.submit", 1e6),
        "ms",
    );
    r.metric("server.cache_hit_rate", cache_hit_rate, "ratio");
    r.metric(
        "server.queue_wait_ms",
        median_dur(spans, "server.queue_wait", 1e6),
        "ms",
    );
    r.metric("server.run_ms", median_dur(spans, "server.run", 1e6), "ms");
    r.metric(
        "server.result_ms",
        median_dur(spans, "server.result", 1e6),
        "ms",
    );
    let results = spans.iter().filter(|s| s.name == "server.result").count();
    r.metric(
        "server.result_bytes",
        totals(spans, "server.result").1 as f64 / results as f64,
        "bytes",
    );
    r.metric(
        "cluster.mesh_job_ms",
        median_dur(spans, "cluster.mesh_job", 1e6),
        "ms",
    );
    r.metric(
        "cluster.mesh_overhead_ms",
        median_dur(spans, "cluster.mesh_job", 1e6) - median_dur(spans, "ref.collaborative_2", 1e6),
        "ms",
    );
    r.metric(
        "cluster.exchanges_per_job",
        counts.exchanges as f64 / rounds,
        "count",
    );
    r.metric(
        "cluster.peer_rtt_ms",
        median_dur(spans, "cluster.peer_rtt", 1e6),
        "ms",
    );
    r.metric(
        "trace.overhead_ratio",
        totals(spans, "core.replay").0 as f64 / totals(spans, "ref.sequential").0 as f64,
        "ratio",
    );
    for (k, layer) in LAYERS.iter().enumerate() {
        r.metric(format!("{layer}.self_ms"), layer_self_ms[k] / rounds, "ms");
    }
    Ok(r)
}
