//! The multi-worker, virtual-time workload runner.
//!
//! Workers are OS threads, each owning a [`WorkerClient`] with its own
//! virtual clock; throughput and latency are computed from **virtual**
//! time, so results are meaningful regardless of host core count (the
//! simulation thesis of DESIGN.md §2). Between the load and run phases the
//! NIC queues and worker clocks are reset, and the run phase starts with a
//! warm-up fraction so caches reach steady state before measurement.

use std::sync::{Arc, Barrier, Mutex};

use dm_sim::{ClientStats, ClusterStats, LatencyHistogram};
use ycsb::{value_for, KeySpace, Op, OpStream, SharedInsertCursor, Workload};

use crate::gate::VirtualGate;
use crate::systems::{SystemHandle, WorkerClient};

/// How far ahead of the slowest worker a clock may run (see
/// [`VirtualGate`]). Roughly two operations at the common three-round-trip
/// cost.
const GATE_WINDOW_NS: u64 = 15_000;

/// Parameters of one measured run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Key dataset.
    pub keyspace: KeySpace,
    /// Preloaded key count.
    pub num_keys: u64,
    /// Workload mix.
    pub workload: Workload,
    /// Total worker count, distributed round-robin over the CNs.
    pub workers: usize,
    /// Measured operations per worker.
    pub ops_per_worker: u64,
    /// Warm-up operations per worker (run before clocks reset).
    pub warmup_per_worker: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Operations kept in flight per worker on the read path. `1` keeps
    /// the legacy blocking loop; larger depths chunk consecutive YCSB
    /// reads through [`WorkerClient::multi_get_pipelined`] so their round
    /// trips fuse into shared doorbells (see DESIGN.md "Pipelined
    /// execution").
    pub pipeline_depth: usize,
    /// Uniform head-sampling period for causal tracing: every N-th leased
    /// op is traced unconditionally. `0` disables head sampling (the
    /// always-on tail sampler still runs when `trace_tail_k > 0`).
    pub trace_head_every: u64,
    /// Tail-retention depth for causal tracing: each worker keeps its
    /// `trace_tail_k` slowest and `trace_tail_k` most-retried operations.
    /// `0` together with `trace_head_every == 0` turns tracing off.
    pub trace_tail_k: usize,
    /// Metrics-sampling interval on the virtual clock, ns. Worker 0
    /// polls per-MN gauges into a ring-buffer [`obs::Sampler`] whenever an
    /// op boundary crosses the interval; `0` (the default everywhere)
    /// turns time-series sampling off. Sampling reads atomics only — it
    /// never issues verbs or advances any virtual clock — but mid-run
    /// gauge values depend on thread interleaving, so byte-stable exports
    /// need `workers == 1`.
    pub sample_interval_ns: u64,
    /// Ring capacity (rows) for the metrics sampler; when the run outlives
    /// `capacity × interval` the oldest rows are overwritten and counted.
    pub sample_capacity: usize,
}

impl RunConfig {
    /// A laptop-scale default: 100k keys, 24 workers, 2k measured ops per
    /// worker.
    pub fn quick(keyspace: KeySpace, workload: Workload) -> Self {
        RunConfig {
            keyspace,
            num_keys: 100_000,
            workload,
            workers: 24,
            ops_per_worker: 2_000,
            warmup_per_worker: 400,
            seed: 0xBEAC_0001,
            pipeline_depth: 1,
            trace_head_every: 0,
            trace_tail_k: obs::DEFAULT_TAIL_K,
            sample_interval_ns: 0,
            sample_capacity: 0,
        }
    }
}

/// Aggregated outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Throughput in million operations per second (virtual time).
    pub mops: f64,
    /// Mean operation latency, microseconds.
    pub avg_latency_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_latency_us: f64,
    /// Total measured operations.
    pub total_ops: u64,
    /// Network round trips per operation.
    pub round_trips_per_op: f64,
    /// Physical doorbells per operation. Equal to
    /// [`round_trips_per_op`](Self::round_trips_per_op) when every
    /// operation runs blocking; lower when pipelining fuses round trips
    /// from different in-flight operations into one doorbell.
    pub doorbells_per_op: f64,
    /// Wire bytes per operation.
    pub bytes_per_op: f64,
    /// Merged telemetry: every worker's phase-attributed registry plus the
    /// index-level counters (SFC filter stats, fault injections). Spans
    /// cover each worker's whole lifetime — warm-up included — unlike the
    /// scalar fields above, which cover only the measured window.
    pub telemetry: obs::Registry,
    /// Retained causal traces from the measured window, across all
    /// workers (tail-sampled slowest/most-retried plus any uniform head
    /// samples; see [`obs::Tracer`]). Warm-up traces are discarded at the
    /// phase barrier. Empty when tracing is off or the system has no
    /// pipelined path.
    pub traces: Vec<obs::OpTrace>,
    /// The cluster metrics plane's view of the measured window: per-MN
    /// server-side accounting, the summed client-side ledger (which the
    /// server side provably conserves against — the window runs from the
    /// post-warm-up barrier through each worker's reclaim deregistration),
    /// worker 0's time-series samples when sampling was on, and the
    /// health monitor's verdict. Exports as `sphinx.metrics.v1`.
    pub metrics: obs::MetricsReport,
}

/// Mints one client per worker, round-robin over the CNs, on the calling
/// thread: a registration that fails (more workers than reclamation pin
/// slots) panics here with its typed error, before any worker thread
/// exists that could be left waiting at a barrier.
fn mint_workers(handle: &SystemHandle, workers: usize) -> Vec<WorkerClient> {
    let num_cns = handle.cluster().num_cns() as usize;
    (0..workers)
        .map(|w| handle.worker((w % num_cns) as u16))
        .collect()
}

/// Loads `num_keys` keys (indexes `0..num_keys`) through `load_workers`
/// parallel workers. Values are the deterministic 64-byte YCSB payloads.
///
/// # Panics
///
/// Panics on index errors (bench context).
pub fn load_phase(handle: &SystemHandle, keyspace: KeySpace, num_keys: u64, load_workers: usize) {
    let clients = mint_workers(handle, load_workers);
    std::thread::scope(|s| {
        for (w, mut client) in clients.into_iter().enumerate() {
            s.spawn(move || {
                let mut i = w as u64;
                while i < num_keys {
                    client.insert(&keyspace.key(i), &value_for(i, 0));
                    i += load_workers as u64;
                }
                // Leave epoch gating: a dropped loader's stale pin slot
                // would block every later worker's reclamation.
                client.reclaim_deregister();
            });
        }
    });
    // The load phase must not pollute run-phase clocks or NIC queues.
    handle.cluster().reset_network();
}

/// Sorted initial keys — used to translate YCSB `Scan(start, len)` into
/// the `[low, high]` ranges the indexes serve.
pub fn sorted_keys(keyspace: KeySpace, num_keys: u64) -> Arc<Vec<Vec<u8>>> {
    let mut keys: Vec<Vec<u8>> = (0..num_keys).map(|i| keyspace.key(i)).collect();
    keys.sort();
    Arc::new(keys)
}

struct WorkerOutcome {
    clock_ns: u64,
    ops: u64,
    hist: LatencyHistogram,
    round_trips: u64,
    doorbells: u64,
    bytes: u64,
    telemetry: obs::Registry,
    traces: Vec<obs::OpTrace>,
    /// Client-side network delta over the conservation window: measured
    /// loop *plus* the reclaim deregistration verbs, so it balances the
    /// cluster-side snapshot taken after every worker joined.
    net_full: ClientStats,
    /// Worker 0's metrics sampler (None for other workers / sampling off).
    samples: Option<obs::Sampler>,
}

/// Column schema for the metrics sampler: three gauges per MN plus the
/// driving worker's client and SFC scalars.
fn sampler_columns(num_mns: u16) -> Vec<String> {
    let mut cols = Vec::with_capacity(num_mns as usize * 3 + 4);
    for m in 0..num_mns {
        cols.push(format!("mn{m}.verbs"));
        cols.push(format!("mn{m}.doorbells"));
        cols.push(format!("mn{m}.queue_ns"));
    }
    for c in [
        "client.round_trips",
        "client.bytes",
        "sfc.lookups",
        "sfc.frozen",
    ] {
        cols.push(c.to_string());
    }
    cols
}

/// Executes the measured phase and aggregates virtual-time results.
///
/// # Panics
///
/// Panics on index errors (bench context).
pub fn run_phase(handle: &SystemHandle, cfg: &RunConfig) -> RunResult {
    let clients = mint_workers(handle, cfg.workers);
    let cursor = SharedInsertCursor::new(cfg.num_keys);
    let sorted = if cfg.workload.scan > 0.0 {
        sorted_keys(cfg.keyspace, cfg.num_keys)
    } else {
        Arc::new(Vec::new())
    };

    let barrier = Arc::new(Barrier::new(cfg.workers));
    let gate = Arc::new(VirtualGate::new(cfg.workers, GATE_WINDOW_NS));
    // The leader snapshots the cluster-side accounting between the two
    // post-warm-up barriers (every worker is blocked, so no verb is in
    // flight): the conservation window's server-side base.
    let cluster_base: Arc<Mutex<Option<ClusterStats>>> = Arc::new(Mutex::new(None));
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(cfg.workers);
        for (w, mut client) in clients.into_iter().enumerate() {
            let handle = handle.clone();
            let cursor = cursor.clone();
            let sorted = sorted.clone();
            let cfg = cfg.clone();
            let barrier = barrier.clone();
            let gate = gate.clone();
            let cluster_base = cluster_base.clone();
            joins.push(s.spawn(move || {
                client.set_trace_sampling(cfg.trace_head_every, cfg.trace_tail_k);
                client.set_trace_worker(w as u32);
                let mut stream = OpStream::with_cursor(
                    cfg.workload.clone(),
                    cfg.num_keys,
                    cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    cursor,
                );
                // Warm-up: populate filter/node caches…
                for _ in 0..cfg.warmup_per_worker {
                    execute_op(&mut client, &mut stream, &cfg, &sorted);
                    gate.sync(w, client.clock_ns());
                }
                // …then synchronize everyone, drain the virtual NIC queues
                // exactly once, and restart all clocks at zero so the
                // measured interval is a clean steady-state window.
                gate.finish(w);
                if barrier.wait().is_leader() {
                    handle.cluster().reset_network();
                    gate.reset();
                    *cluster_base.lock().expect("cluster base poisoned") =
                        Some(handle.cluster().cluster_stats());
                }
                barrier.wait();
                client.set_clock_ns(0);
                // Warm-up samples would pollute the tail ranking (their
                // clocks predate the reset): drop them at the barrier.
                client.take_traces();
                let base_stats = client.net_stats();

                // Worker 0 drives the metrics sampler. `cfg!` rather than
                // an attribute so the off path stays type-checked; the
                // optimizer removes it entirely with telemetry disabled.
                let cluster = handle.cluster();
                let num_mns = cluster.num_mns();
                let mut sampler = (w == 0
                    && cfg.sample_interval_ns > 0
                    && cfg!(feature = "telemetry"))
                .then(|| {
                    obs::Sampler::new(
                        sampler_columns(num_mns),
                        cfg.sample_capacity.max(1),
                        cfg.sample_interval_ns,
                    )
                });
                let mut row: Vec<u64> =
                    Vec::with_capacity(sampler.as_ref().map_or(0, |s| s.width()));
                let hist = {
                    let mut probe = |c: &WorkerClient| {
                        let Some(s) = sampler.as_mut() else { return };
                        let now = c.clock_ns();
                        if !s.due(now) {
                            return;
                        }
                        row.clear();
                        for m in 0..num_mns {
                            let mn = cluster.mn_stats(m).expect("mn id in range");
                            row.push(mn.verbs());
                            row.push(mn.doorbells);
                            row.push(mn.queue_ns);
                        }
                        let net = c.net_stats();
                        row.push(net.round_trips);
                        row.push(net.bytes_total());
                        let sfc = c.sfc_gauges();
                        row.push(sfc[0]);
                        row.push(sfc[2]);
                        s.record(now, &row);
                    };
                    measured_loop(
                        &mut client,
                        &mut stream,
                        &cfg,
                        &sorted,
                        &gate,
                        w,
                        &mut probe,
                    )
                };
                gate.finish(w);
                let net = client.net_stats().since(&base_stats);
                let clock_ns = client.clock_ns();
                let telemetry = client.telemetry();
                let traces = client.take_traces();
                client.reclaim_deregister();
                WorkerOutcome {
                    clock_ns,
                    ops: cfg.ops_per_worker,
                    hist,
                    round_trips: net.round_trips,
                    doorbells: net.doorbells,
                    bytes: net.bytes_total(),
                    telemetry,
                    traces,
                    // Includes the deregistration verbs: the cluster-side
                    // snapshot is taken after workers join, so the client
                    // ledger must cover everything up to that point.
                    net_full: client.net_stats().since(&base_stats),
                    samples: sampler,
                }
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("worker panicked"))
            .collect()
    });

    let total_ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    let makespan_ns = outcomes
        .iter()
        .map(|o| o.clock_ns)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut hist = LatencyHistogram::new();
    for o in &outcomes {
        hist.merge(&o.hist);
    }
    let round_trips: u64 = outcomes.iter().map(|o| o.round_trips).sum();
    let doorbells: u64 = outcomes.iter().map(|o| o.doorbells).sum();
    let bytes: u64 = outcomes.iter().map(|o| o.bytes).sum();
    let mut telemetry = handle.index_telemetry();
    for o in &outcomes {
        telemetry.merge(&o.telemetry);
    }

    // Close the conservation window: every worker has joined (and
    // deregistered), so the cluster-side delta must balance the summed
    // client-side deltas exactly.
    let cluster_base = cluster_base
        .lock()
        .expect("cluster base poisoned")
        .take()
        .expect("leader must snapshot the cluster base");
    let cluster_window = handle.cluster().cluster_stats().since(&cluster_base);
    let mut client_sum = ClientStats::default();
    for o in &outcomes {
        client_sum.merge(&o.net_full);
    }
    let health = obs::evaluate_health(&cluster_window, &telemetry, &obs::HealthConfig::default());
    health.stamp(&mut telemetry);

    let mut outcomes = outcomes;
    let samples = outcomes.iter_mut().find_map(|o| o.samples.take());
    let mut traces: Vec<obs::OpTrace> = outcomes.into_iter().flat_map(|o| o.traces).collect();
    traces.sort_by_key(|t| t.id);
    let metrics = obs::MetricsReport {
        cluster: cluster_window,
        client_sum,
        window_ns: makespan_ns,
        samples,
        health,
    };
    RunResult {
        mops: total_ops as f64 / makespan_ns as f64 * 1e3,
        avg_latency_us: hist.mean_ns() as f64 / 1e3,
        p99_latency_us: hist.quantile_ns(0.99) as f64 / 1e3,
        total_ops,
        round_trips_per_op: round_trips as f64 / total_ops as f64,
        doorbells_per_op: doorbells as f64 / total_ops as f64,
        bytes_per_op: bytes as f64 / total_ops as f64,
        telemetry,
        traces,
        metrics,
    }
}

/// The measured window: the depth-1 path times every op individually; at
/// larger depths consecutive YCSB reads are chunked through
/// [`WorkerClient::multi_get_pipelined`] so up to `pipeline_depth` lookups
/// share the wire, while writes/scans flush the chunk and run blocking —
/// each worker's stream keeps its program order either way. `probe` runs
/// at every gate-sync op boundary (the metrics sampler's hook; a no-op
/// closure when sampling is off).
fn measured_loop(
    client: &mut WorkerClient,
    stream: &mut OpStream,
    cfg: &RunConfig,
    sorted: &[Vec<u8>],
    gate: &VirtualGate,
    w: usize,
    probe: &mut dyn FnMut(&WorkerClient),
) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    if cfg.pipeline_depth <= 1 {
        for _ in 0..cfg.ops_per_worker {
            let before = client.clock_ns();
            execute_op(client, stream, cfg, sorted);
            hist.record(client.clock_ns() - before);
            // Keep virtual clocks in lockstep so the NIC FIFO sees
            // near-monotonic arrivals (see gate.rs).
            gate.sync(w, client.clock_ns());
            probe(client);
        }
        return hist;
    }
    // Chunks hold a few pipeline-fulls so admission never starves the
    // in-flight window, without letting one worker's clock run far ahead
    // of the gate between sync points.
    let chunk = cfg.pipeline_depth * 4;
    let mut pending: Vec<u64> = Vec::with_capacity(chunk);
    for _ in 0..cfg.ops_per_worker {
        match stream.next_op() {
            Op::Read(idx) => {
                pending.push(idx);
                if pending.len() >= chunk {
                    flush_reads(client, &mut pending, cfg, &mut hist);
                    gate.sync(w, client.clock_ns());
                    probe(client);
                }
            }
            op => {
                flush_reads(client, &mut pending, cfg, &mut hist);
                let before = client.clock_ns();
                apply_op(client, op, cfg, sorted);
                hist.record(client.clock_ns() - before);
                gate.sync(w, client.clock_ns());
                probe(client);
            }
        }
    }
    flush_reads(client, &mut pending, cfg, &mut hist);
    gate.sync(w, client.clock_ns());
    probe(client);
    hist
}

/// Drains the buffered read chunk through the pipelined path. Latency is
/// attributed evenly: the chunk's virtual-time span divided by its length
/// (individual completion times interleave and are not observable at this
/// layer).
fn flush_reads(
    client: &mut WorkerClient,
    pending: &mut Vec<u64>,
    cfg: &RunConfig,
    hist: &mut LatencyHistogram,
) {
    if pending.is_empty() {
        return;
    }
    let keys: Vec<Vec<u8>> = pending.iter().map(|&i| cfg.keyspace.key(i)).collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let before = client.clock_ns();
    client.multi_get_pipelined(&refs, cfg.pipeline_depth);
    let per_op = (client.clock_ns() - before) / pending.len() as u64;
    for _ in 0..pending.len() {
        hist.record(per_op);
    }
    pending.clear();
}

fn execute_op(
    client: &mut WorkerClient,
    stream: &mut OpStream,
    cfg: &RunConfig,
    sorted: &[Vec<u8>],
) {
    apply_op(client, stream.next_op(), cfg, sorted);
}

fn apply_op(client: &mut WorkerClient, op: Op, cfg: &RunConfig, sorted: &[Vec<u8>]) {
    match op {
        Op::Read(idx) => {
            client.get(&cfg.keyspace.key(idx));
        }
        Op::Update(idx) => {
            client.update(&cfg.keyspace.key(idx), &value_for(idx, 1));
        }
        Op::Insert(idx) => {
            client.insert(&cfg.keyspace.key(idx), &value_for(idx, 0));
        }
        Op::ReadModifyWrite(idx) => {
            let key = cfg.keyspace.key(idx);
            let version = client
                .get(&key)
                .map_or(0, |v| v.first().copied().unwrap_or(0) as u32);
            client.update(&key, &value_for(idx, version.wrapping_add(1)));
        }
        Op::Scan(idx, len) => {
            if sorted.is_empty() {
                return;
            }
            let j = (idx as usize) % sorted.len();
            let hi = (j + len.max(1) - 1).min(sorted.len() - 1);
            client.scan(&sorted[j], &sorted[hi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::System;

    #[test]
    fn quick_run_produces_sane_numbers() {
        let handle = System::Sphinx.build(64 << 20, Some(1 << 20));
        load_phase(&handle, KeySpace::U64, 2_000, 4);
        let cfg = RunConfig {
            keyspace: KeySpace::U64,
            num_keys: 2_000,
            workload: Workload::c(),
            workers: 6,
            ops_per_worker: 300,
            warmup_per_worker: 50,
            seed: 7,
            pipeline_depth: 1,
            trace_head_every: 0,
            trace_tail_k: obs::DEFAULT_TAIL_K,
            sample_interval_ns: 5_000,
            sample_capacity: 64,
        };
        let r = run_phase(&handle, &cfg);
        assert_eq!(r.total_ops, 1800);
        r.metrics
            .conservation()
            .expect("server-side accounting must conserve the client ledger");
        assert_eq!(r.metrics.health.checks, 4, "all detectors must run");
        assert!(r.metrics.window_ns > 0);
        assert!(r.mops > 0.0);
        assert!(
            r.avg_latency_us > 1.0,
            "latency below one RTT: {}",
            r.avg_latency_us
        );
        assert!(r.round_trips_per_op >= 1.0);
        #[cfg(feature = "telemetry")]
        {
            use obs::{OpKind, Phase};
            assert!(r.telemetry.total_ops() > 0, "spans must reach the registry");
            assert!(
                r.telemetry.phase(OpKind::Get, Phase::SfcProbe).count > 0,
                "gets must attribute SfcProbe intervals"
            );
            assert!(
                r.telemetry.phase(OpKind::Get, Phase::LeafRead).round_trips > 0,
                "gets must attribute LeafRead round trips"
            );
            assert!(
                r.telemetry.counter("sfc.lookups") > 0,
                "index-level SFC stats merged"
            );
            let samples = r.metrics.samples.as_ref().expect("sampler ran on worker 0");
            assert!(!samples.is_empty(), "sampler must capture rows");
            assert_eq!(
                r.telemetry.counter("health.checks"),
                4,
                "health verdict must be stamped into the registry"
            );
        }
    }

    fn tiny_read_run(workers: usize) -> RunConfig {
        RunConfig {
            num_keys: 500,
            workers,
            ops_per_worker: 5,
            warmup_per_worker: 2,
            ..RunConfig::quick(KeySpace::U64, Workload::c())
        }
    }

    /// More workers than reclamation pin slots used to panic the surplus
    /// workers inside their threads and leave the rest at the warm-up
    /// barrier forever (fig4's default 96 workers against 64 slots). The
    /// clients are now minted before any thread starts, so the typed
    /// registration error ends the run.
    #[test]
    fn more_workers_than_pin_slots_fail_with_the_typed_error_not_a_hang() {
        let cluster = dm_sim::DmCluster::new(dm_sim::ClusterConfig::default());
        let config = sphinx::SphinxConfig {
            reclaim: reclaim::ReclaimConfig {
                max_clients: 2,
                ..Default::default()
            },
            ..sphinx::SphinxConfig::small()
        };
        let handle = SystemHandle::Sphinx(sphinx::SphinxIndex::create(&cluster, config).unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_phase(&handle, &tiny_read_run(3));
            }));
            let _ = tx.send(run.map_err(|p| *p.downcast::<String>().expect("message")));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_phase must end, not wait for workers that never arrive");
        let message = outcome.expect_err("three workers cannot share two pin slots");
        assert!(message.contains("OutOfMemory"), "{message}");
    }

    #[test]
    fn ninety_six_workers_run_to_completion() {
        let handle = System::Sphinx.build_scaled(64 << 20, 500, 96 + 4);
        load_phase(&handle, KeySpace::U64, 500, 4);
        let r = run_phase(&handle, &tiny_read_run(96));
        assert_eq!(r.total_ops, 96 * 5);
    }

    #[test]
    fn pipelined_run_fuses_doorbells() {
        let handle = System::Sphinx.build(64 << 20, Some(1 << 20));
        load_phase(&handle, KeySpace::U64, 2_000, 4);
        let mk = |depth| RunConfig {
            keyspace: KeySpace::U64,
            num_keys: 2_000,
            workload: Workload::c(),
            workers: 4,
            ops_per_worker: 400,
            warmup_per_worker: 100,
            seed: 11,
            pipeline_depth: depth,
            trace_head_every: 0,
            trace_tail_k: obs::DEFAULT_TAIL_K,
            sample_interval_ns: 0,
            sample_capacity: 0,
        };
        let r1 = run_phase(&handle, &mk(1));
        let r8 = run_phase(&handle, &mk(8));
        // The conservation identity must survive doorbell fusion.
        r1.metrics.conservation().expect("depth-1 conservation");
        r8.metrics.conservation().expect("depth-8 conservation");
        // Pipelining rearranges round trips; it must not add any.
        assert!(
            (r8.round_trips_per_op - r1.round_trips_per_op).abs() < 0.25,
            "round trips changed: {} vs {}",
            r1.round_trips_per_op,
            r8.round_trips_per_op
        );
        assert!(
            r8.doorbells_per_op < r1.doorbells_per_op * 0.7,
            "depth 8 must fuse doorbells: {} vs {}",
            r1.doorbells_per_op,
            r8.doorbells_per_op
        );
        assert!(
            r8.mops > r1.mops * 1.3,
            "depth 8 must speed up YCSB-C: {} vs {} mops",
            r1.mops,
            r8.mops
        );
        assert!((r1.doorbells_per_op - r1.round_trips_per_op).abs() < 1e-9);
    }

    #[test]
    fn scan_workload_runs() {
        let handle = System::Smart.build(64 << 20, Some(1 << 20));
        load_phase(&handle, KeySpace::U64, 1_000, 4);
        let cfg = RunConfig {
            keyspace: KeySpace::U64,
            num_keys: 1_000,
            workload: Workload::e(),
            workers: 3,
            ops_per_worker: 30,
            warmup_per_worker: 5,
            seed: 7,
            pipeline_depth: 1,
            trace_head_every: 0,
            trace_tail_k: obs::DEFAULT_TAIL_K,
            sample_interval_ns: 0,
            sample_capacity: 0,
        };
        let r = run_phase(&handle, &cfg);
        assert!(r.total_ops == 90 && r.mops > 0.0);
    }

    #[test]
    fn load_phase_inserts_all_keys() {
        let handle = System::Art.build(64 << 20, None);
        load_phase(&handle, KeySpace::Email, 500, 3);
        let mut w = handle.worker(0);
        for i in (0..500).step_by(71) {
            assert!(
                w.get(&KeySpace::Email.key(i)).is_some(),
                "key {i} missing after load"
            );
        }
    }
}
