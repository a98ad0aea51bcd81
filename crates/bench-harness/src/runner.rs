//! The multi-worker, virtual-time workload runner.
//!
//! Every worker owns a [`WorkerClient`] with its own virtual clock, and all
//! of them run on the calling thread: each step advances the unfinished
//! worker whose clock is smallest (ties to the lowest index) by one step —
//! one op, or at depth > 1 one flushed read chunk or one non-read op — so
//! the NIC model sees arrivals in virtual order and a run is a function of
//! its inputs, byte for byte. Throughput and latency are computed from
//! **virtual** time (the simulation thesis of DESIGN.md §2). Between the
//! load and run phases the NIC queues and worker clocks are reset, and the
//! run phase starts with a warm-up fraction so caches reach steady state
//! before measurement.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use dm_sim::{ClientStats, LatencyHistogram};
use ycsb::{value_for, KeySpace, Op, OpStream, SharedInsertCursor, Workload};

use crate::systems::{SystemHandle, WorkerClient};

/// Ring capacity (rows) of the metrics sampler; when a run outlives
/// `capacity × interval` the oldest rows are overwritten and counted.
const SAMPLE_CAPACITY: usize = 256;

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
    /// polls per-MN gauges into a ring-buffer [`obs::Sampler`] whenever one
    /// of its steps crosses the interval; `0` (the default everywhere)
    /// turns time-series sampling off. Sampling reads atomics only — it
    /// never issues verbs or advances any virtual clock — and workers step
    /// in clock order on one thread, so exports are byte-stable at any
    /// worker count.
    pub sample_interval_ns: u64,
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
    /// samples; see [`obs::Tracer`]). Warm-up traces are discarded when
    /// the window opens. Empty when tracing is off or the system has no
    /// pipelined path.
    pub traces: Vec<obs::OpTrace>,
    /// The cluster metrics plane's view of the measured window: per-MN
    /// server-side accounting, the summed client-side ledger (which the
    /// server side provably conserves against — the window runs from the
    /// end of the warm-up through each worker's reclaim deregistration),
    /// worker 0's time-series samples when sampling was on, and the
    /// health monitor's verdict. Exports as `sphinx.metrics.v1`.
    pub metrics: obs::MetricsReport,
}

/// Mints one client per worker, round-robin over the CNs: a registration
/// that fails (more workers than reclamation pin slots) panics here with
/// its typed error.
fn mint_workers(handle: &SystemHandle, workers: usize) -> Vec<WorkerClient> {
    let num_cns = handle.cluster().num_cns() as usize;
    (0..workers)
        .map(|w| handle.worker((w % num_cns) as u16))
        .collect()
}

/// Steps `workers` one step at a time, always the one whose virtual clock is
/// smallest (ties to the lowest index), until `step` has said of every worker
/// that it has nothing left. `step` runs one step of worker `i` (nothing
/// when it has none) and returns whether the worker has more.
fn in_clock_order<L>(
    workers: &mut [L],
    clock: impl Fn(&L) -> u64,
    mut step: impl FnMut(usize, &mut L) -> bool,
) {
    let mut ready: BinaryHeap<Reverse<(u64, usize)>> = workers
        .iter()
        .enumerate()
        .map(|(i, worker)| Reverse((clock(worker), i)))
        .collect();
    while let Some(Reverse((_, i))) = ready.pop() {
        if step(i, &mut workers[i]) {
            ready.push(Reverse((clock(&workers[i]), i)));
        }
    }
}

/// Loads `num_keys` keys (indexes `0..num_keys`) through `load_workers`
/// loader clients, loader `w` inserting indexes `w`, `w + load_workers`, …
/// one insert per step in clock order. Values are the deterministic
/// 64-byte YCSB payloads.
///
/// # Panics
///
/// Panics on index errors (bench context).
pub fn load_phase(handle: &SystemHandle, keyspace: KeySpace, num_keys: u64, load_workers: usize) {
    let mut loaders: Vec<(WorkerClient, u64)> = mint_workers(handle, load_workers)
        .into_iter()
        .zip(0..)
        .collect();
    in_clock_order(
        &mut loaders,
        |(client, _)| client.clock_ns(),
        |_, (client, i)| {
            if *i < num_keys {
                client.insert(&keyspace.key(*i), &value_for(*i, 0));
                *i += load_workers as u64;
            }
            if *i < num_keys {
                return true;
            }
            // Leave epoch gating: a finished loader's stale pin slot would
            // block every later worker's reclamation.
            client.reclaim_deregister();
            false
        },
    );
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

/// One worker of a run: its client, its op stream and what is left of the
/// current phase.
struct RunWorker {
    client: WorkerClient,
    stream: OpStream,
    /// Ops still to draw from `stream` in this phase.
    left: u64,
    /// Reads drawn for the next pipelined chunk.
    pending: Vec<u64>,
    hist: LatencyHistogram,
    /// The client's counters when the measured window opened.
    base: ClientStats,
    /// Clock and counters since `base` when the worker finished its window,
    /// before its reclaim deregistration.
    end: (u64, ClientStats),
}

impl RunWorker {
    /// Runs one step and returns whether ops are left: at `depth` 1 one op;
    /// deeper, the reads drawn up to a full chunk of `depth × 4` (or the
    /// end of the phase) as one pipelined flush, or the non-read op that
    /// ends a shorter chunk, flushed before it. Each worker's stream keeps
    /// its program order either way.
    fn step(&mut self, depth: usize, cfg: &RunConfig, sorted: &[Vec<u8>]) -> bool {
        while self.left > 0 {
            self.left -= 1;
            match self.stream.next_op() {
                Op::Read(idx) if depth > 1 => {
                    self.pending.push(idx);
                    if self.pending.len() >= depth * 4 {
                        break;
                    }
                }
                op => {
                    self.flush_reads(depth, cfg);
                    let before = self.client.clock_ns();
                    apply_op(&mut self.client, op, cfg, sorted);
                    self.hist.record(self.client.clock_ns() - before);
                    return self.left > 0;
                }
            }
        }
        self.flush_reads(depth, cfg);
        self.left > 0
    }

    /// Drains the drawn reads through [`WorkerClient::multi_get_pipelined`]
    /// so up to `depth` lookups share the wire. Latency is attributed
    /// evenly: the chunk's virtual-time span divided by its length
    /// (individual completion times interleave and are not observable at
    /// this layer).
    fn flush_reads(&mut self, depth: usize, cfg: &RunConfig) {
        if self.pending.is_empty() {
            return;
        }
        let keys: Vec<Vec<u8>> = self.pending.iter().map(|&i| cfg.keyspace.key(i)).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let before = self.client.clock_ns();
        self.client.multi_get_pipelined(&refs, depth);
        let per_op = (self.client.clock_ns() - before) / self.pending.len() as u64;
        for _ in 0..self.pending.len() {
            self.hist.record(per_op);
        }
        self.pending.clear();
    }
}

/// Executes the measured phase and aggregates virtual-time results.
///
/// # Panics
///
/// Panics on index errors (bench context).
pub fn run_phase(handle: &SystemHandle, cfg: &RunConfig) -> RunResult {
    let cursor = SharedInsertCursor::new(cfg.num_keys);
    let sorted = if cfg.workload.scan > 0.0 {
        sorted_keys(cfg.keyspace, cfg.num_keys)
    } else {
        Arc::default()
    };
    let mut workers: Vec<RunWorker> = mint_workers(handle, cfg.workers)
        .into_iter()
        .enumerate()
        .map(|(w, mut client)| {
            client.set_trace_sampling(cfg.trace_head_every, cfg.trace_tail_k);
            client.set_trace_worker(w as u32);
            let stream = OpStream::with_cursor(
                cfg.workload.clone(),
                cfg.num_keys,
                cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                cursor.clone(),
            );
            RunWorker {
                client,
                stream,
                left: cfg.warmup_per_worker,
                pending: Vec::with_capacity(cfg.pipeline_depth * 4),
                hist: LatencyHistogram::new(),
                base: ClientStats::default(),
                end: (0, ClientStats::default()),
            }
        })
        .collect();
    let clock = |worker: &RunWorker| worker.client.clock_ns();

    // Warm-up, one op a step: populate filter/node caches…
    in_clock_order(&mut workers, clock, |_, w| w.step(1, cfg, &sorted));
    // …then drain the virtual NIC queues, open the conservation window on
    // the cluster side and restart every clock at zero, so the measured
    // interval is a clean steady-state window.
    let cluster = handle.cluster();
    cluster.reset_network();
    let cluster_base = cluster.cluster_stats();
    for worker in &mut workers {
        worker.client.set_clock_ns(0);
        // Warm-up samples would pollute the tail ranking (their clocks
        // predate the reset).
        worker.client.take_traces();
        worker.base = worker.client.net_stats();
        worker.left = cfg.ops_per_worker;
        worker.hist = LatencyHistogram::new();
    }

    // Worker 0 drives the metrics sampler after each of its steps.
    let num_mns = cluster.num_mns();
    let mut sampler = (cfg.sample_interval_ns > 0).then(|| {
        obs::Sampler::new(
            sampler_columns(num_mns),
            SAMPLE_CAPACITY,
            cfg.sample_interval_ns,
        )
    });
    let mut row: Vec<u64> = Vec::with_capacity(sampler.as_ref().map_or(0, |s| s.width()));
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
    in_clock_order(&mut workers, clock, |w, worker| {
        let more = worker.step(cfg.pipeline_depth, cfg, &sorted);
        if w == 0 {
            probe(&worker.client);
        }
        if !more {
            worker.end = (
                worker.client.clock_ns(),
                worker.client.net_stats().since(&worker.base),
            );
            worker.client.reclaim_deregister();
        }
        more
    });

    let total_ops = cfg.ops_per_worker * cfg.workers as u64;
    let makespan_ns = workers.iter().map(|w| w.end.0).max().unwrap_or(1).max(1);
    let mut hist = LatencyHistogram::new();
    let mut window = ClientStats::default();
    // Includes the deregistration verbs, so it balances the cluster-side
    // delta, which closes after every worker deregistered.
    let mut client_sum = ClientStats::default();
    let mut telemetry = handle.index_telemetry();
    let mut traces: Vec<obs::OpTrace> = Vec::new();
    for worker in &mut workers {
        hist.merge(&worker.hist);
        window.merge(&worker.end.1);
        client_sum.merge(&worker.client.net_stats().since(&worker.base));
        telemetry.merge(&worker.client.telemetry());
        traces.extend(worker.client.take_traces());
    }
    traces.sort_by_key(|t| t.id);
    let cluster_window = cluster.cluster_stats().since(&cluster_base);
    let health = obs::evaluate_health(&cluster_window, &telemetry);
    health.stamp(&mut telemetry);
    let metrics = obs::MetricsReport {
        cluster: cluster_window,
        client_sum,
        window_ns: makespan_ns,
        samples: sampler,
        health,
    };
    RunResult {
        mops: total_ops as f64 / makespan_ns as f64 * 1e3,
        avg_latency_us: hist.mean_ns() as f64 / 1e3,
        p99_latency_us: hist.quantile_ns(0.99) as f64 / 1e3,
        total_ops,
        round_trips_per_op: window.round_trips as f64 / total_ops as f64,
        doorbells_per_op: window.doorbells as f64 / total_ops as f64,
        bytes_per_op: window.bytes_total() as f64 / total_ops as f64,
        telemetry,
        traces,
        metrics,
    }
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
    use obs::{OpKind, Phase};

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

    fn tiny_read_run(workers: usize) -> RunConfig {
        RunConfig {
            num_keys: 500,
            workers,
            ops_per_worker: 5,
            warmup_per_worker: 2,
            ..RunConfig::quick(KeySpace::U64, Workload::c())
        }
    }

    /// More workers than reclamation pin slots (fig4's default 96 workers
    /// against 64 slots) end the run with the typed registration error.
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
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_phase(&handle, &tiny_read_run(3));
        }));
        let message = *run
            .expect_err("three workers cannot share two pin slots")
            .downcast::<String>()
            .expect("message");
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
