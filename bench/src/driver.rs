//! The closed-loop driver: cluster set-up and preload, the per-call loop
//! (generator → client call → oracle check) on both clocks, and passes
//! (warm-up, measured window, traced pass) over one loaded index.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bench_harness::systems::{System, SystemHandle};
use dm_sim::{ClusterConfig, ClusterStats, DmCluster, Schedule, ScheduleConfig};
use obs::{OpTrace, Phase};
use sphinx::{SphinxClient, SphinxError, SphinxIndex};
use ycsb::{Op, OpStream};

use crate::alloc;
use crate::oracle::{HotOracle, Items, Oracle, ScanRange};
use crate::spans::{Span, SpanLog};
use crate::stats::SLICES;
use crate::workloads::{scaled, Shape, Spec};

/// Per-MN heap. Enough for every workload at full scale; 1 GiB would cost
/// seconds of zero-fill and double the noise of `setup_s`.
const MN_CAPACITY: usize = 128 << 20;

/// Causal-trace sampling of the traced pass: every 64th get plus the 32
/// slowest / most-retried.
const TRACE_HEAD_EVERY: u64 = 64;
const TRACE_TAIL_K: usize = 32;

/// Named monotone counters of one client (or the sum over participants).
pub type Counters = BTreeMap<String, u64>;

/// Run parameters shared by every pass.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// `seconds / 10`: the common factor on every key and call count.
    pub scale: f64,
}

/// A cluster with a preloaded Sphinx index and the model of its contents.
pub struct Loaded {
    pub spec: Spec,
    pub params: Params,
    pub cluster: DmCluster,
    pub index: SphinxIndex,
    /// The loader; also the one worker of the single-worker shapes.
    pub client: SphinxClient,
    pub oracle: Oracle,
    pub hot: Option<Arc<Mutex<HotOracle>>>,
    /// Keys preloaded by the set-up.
    pub preloaded: u64,
    streams: Vec<OpStream>,
    /// Host seconds: cluster build + single-threaded preload.
    pub setup_s: f64,
    /// YCSB-LOAD throughput of the preload, virtual time.
    pub load_vt_mops: f64,
    passes: u64,
}

/// Everything one pass measured.
pub struct Pass {
    pub calls: u64,
    pub ops: u64,
    /// Largest participant clock at the end of the pass.
    pub vt_ns: u64,
    /// Virtual latency of every client call, ascending.
    pub vt_lat: Vec<u64>,
    /// Host ns per op of each equal-work slice, in time order.
    pub host_slices: Vec<f64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub counters: Counters,
    pub cluster: ClusterStats,
    pub limbo_max: u64,
    pub rows: u64,
    pub scans: u64,
    pub traces: Vec<OpTrace>,
    pub spans: Option<SpanLog>,
}

/// Time the calling thread has spent on a CPU, ns (`schedstat`; wall time
/// since the first call where that file is missing). The lock-step
/// workload's host cost is taken on this clock: its wall time is the
/// condvar hand-off between two vCPUs, which on a virtual machine flips
/// between ~14 and ~60 us per step with the hypervisor's halt polling.
pub fn thread_cpu_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64)
}

fn stream_seed(seed: u64, pid: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ pid.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Builds the cluster and the index and preloads `preload × scale` keys
/// through `insert`, single-threaded.
pub fn setup(spec: &Spec, params: Params) -> Result<Loaded, SphinxError> {
    let t = Instant::now();
    let keys = ((spec.preload as f64 * params.scale) as u64).max(64);
    let cluster = DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 3,
        mn_capacity: MN_CAPACITY,
        net: spec.net.clone(),
        ..Default::default()
    });
    let cache_bytes = (keys / spec.sfc_div) as usize;
    let SystemHandle::Sphinx(index) = System::Sphinx.build_on(&cluster, Some(cache_bytes)) else {
        unreachable!("System::Sphinx builds a Sphinx index");
    };
    let mut client = index.client(0)?;
    let items = Items::new(spec.keyspace, params.seed);
    let mut oracle = Oracle::new(items, spec.mix.scan > 0.0);
    for i in 0..keys {
        let key = items.key(i);
        match client.insert(&key, &items.value(i, 0)) {
            Ok(()) => oracle.inserted(i, &key),
            Err(e) => oracle.call_failed(1, &e),
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    let load_vt_mops = keys as f64 / client.clock_ns().max(1) as f64 * 1e3;

    let (hot, streams) = match spec.shape {
        Shape::Sched { hot_keys } => {
            // Hot keys spread evenly over the preload, offset by the seed.
            let stride = keys / hot_keys;
            let hot: Vec<u64> = (0..hot_keys)
                .map(|j| j * stride + params.seed % stride)
                .collect();
            // The loader stays idle during the scheduled passes: withdraw
            // it so its pin slot does not gate the participants' frees.
            client.reclaim_deregister();
            let streams = (0..spec.participants() as u64)
                .map(|pid| OpStream::new(spec.mix.clone(), hot_keys, stream_seed(params.seed, pid)))
                .collect();
            (
                Some(Arc::new(Mutex::new(HotOracle::new(items, hot)))),
                streams,
            )
        }
        _ => (
            None,
            vec![OpStream::new(
                spec.mix.clone(),
                keys,
                stream_seed(params.seed, 0),
            )],
        ),
    };
    Ok(Loaded {
        spec: spec.clone(),
        params,
        cluster,
        index,
        client,
        preloaded: oracle.live(),
        oracle,
        hot,
        streams,
        setup_s,
        load_vt_mops,
        passes: 0,
    })
}

/// The named counters of one client: its telemetry registry's counters
/// plus network, op, per-phase round-trip and filter statistics.
pub fn counters(client: &SphinxClient) -> Counters {
    let reg = client.telemetry();
    let mut c = reg.counters.clone();
    let net = client.net_stats();
    for (k, v) in [
        ("net.round_trips", net.round_trips),
        ("net.doorbells", net.doorbells),
        ("net.verbs", net.verbs()),
        ("net.bytes", net.bytes_total()),
        ("net.cas", net.cas),
        ("net.reads", net.reads),
        ("net.writes", net.writes),
    ] {
        c.insert(k.into(), v);
    }
    // Blocking ops attribute their round trips to phases in the span
    // recorder; pipelined gets do it in `pipeline.rts.<Phase>` (already
    // among the registry counters) while their enclosing MultiGet span
    // books the same trips under `Other`, which is therefore left out.
    for phase in Phase::ALL {
        if phase != Phase::Other {
            c.insert(
                format!("rts.{}", phase.name()),
                reg.phase_total(phase).round_trips,
            );
        }
    }
    c.insert("op.retries".into(), reg.ops.iter().map(|o| o.retries).sum());
    let s = client.filter_handle().stats();
    for (k, v) in [
        ("filter.lookups", s.lookups),
        ("filter.hits", s.hits),
        ("filter.inserts", s.inserts),
        ("filter.evictions", s.evictions),
        ("filter.false_positives", s.false_positives),
        ("filter.rebuilds", s.rebuilds),
    ] {
        c.insert(k.into(), v);
    }
    c
}

fn sub(after: Counters, before: &Counters) -> Counters {
    after
        .into_iter()
        .map(|(k, v)| {
            let b = before.get(&k).copied().unwrap_or(0);
            (k, v.saturating_sub(b))
        })
        .collect()
}

fn add(into: &mut Counters, other: Counters) {
    for (k, v) in other {
        *into.entry(k).or_default() += v;
    }
}

/// What one participant records during a pass.
struct Rec {
    vt_lat: Vec<u64>,
    /// Host ns of generator + client call, per call.
    host: Vec<u64>,
    allocs: u64,
    alloc_bytes: u64,
    limbo_max: u64,
    rows: u64,
    scans: u64,
    spans: Option<(SpanLog, u32)>,
    /// This thread's on-CPU ns at each slice boundary (scheduled shape).
    cpu_marks: Vec<u64>,
}

impl Rec {
    fn new(calls: u64, traced: bool) -> Self {
        let spans = traced.then(|| {
            let mut log = SpanLog::with_capacity(2 * calls as usize + 1);
            let root = log.open_root("bench.traced_pass", 0);
            (log, root)
        });
        Rec {
            vt_lat: Vec::with_capacity(calls as usize),
            host: Vec::with_capacity(calls as usize),
            allocs: 0,
            alloc_bytes: 0,
            limbo_max: 0,
            rows: 0,
            scans: 0,
            spans,
            cpu_marks: Vec::with_capacity(SLICES + 2),
        }
    }
}

/// Whose model a participant checks against.
enum Model<'a> {
    Own(&'a mut Oracle),
    Hot(&'a Mutex<HotOracle>),
}

/// One participant of a pass.
struct Worker<'a> {
    client: &'a mut SphinxClient,
    stream: &'a mut OpStream,
    shape: Shape,
    items: Items,
    /// Item index of each hot key (scheduled shape).
    hot: Vec<u64>,
    pid: u64,
}

/// A generated call: keys and values materialized, nothing sent yet.
enum Prepared {
    Get {
        idx: u64,
        key: Vec<u8>,
    },
    Update {
        idx: u64,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Insert {
        idx: u64,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Scan {
        start: u64,
        len: usize,
    },
    GetMany {
        idxs: Vec<u64>,
        keys: Vec<Vec<u8>>,
    },
}

impl Prepared {
    fn span_name(&self) -> &'static str {
        match self {
            Prepared::Get { .. } => "core.get",
            Prepared::Update { .. } => "core.update",
            Prepared::Insert { .. } => "core.insert",
            Prepared::Scan { .. } => "core.scan",
            Prepared::GetMany { .. } => "core.get_many",
        }
    }
}

/// Key/value rows as `SphinxClient::scan` returns them.
type Rows = Vec<(Vec<u8>, Vec<u8>)>;

enum Outcome {
    Get(Result<Option<Vec<u8>>, SphinxError>),
    Update(Result<bool, SphinxError>),
    Insert(Result<(), SphinxError>),
    Scan(Result<Rows, SphinxError>),
    GetMany(Result<Vec<Option<Vec<u8>>>, SphinxError>),
}

impl Worker<'_> {
    /// The generator: draws the next op(s) and materializes keys/values.
    fn prepare(&mut self, model: &mut Model) -> Prepared {
        if let Shape::Pipe { batch, .. } = self.shape {
            let mut idxs = Vec::with_capacity(batch);
            let mut keys = Vec::with_capacity(batch);
            for _ in 0..batch {
                let Op::Read(idx) = self.stream.next_op() else {
                    unreachable!("the pipelined workload is read-only");
                };
                idxs.push(idx);
                keys.push(self.items.key(idx));
            }
            return Prepared::GetMany { idxs, keys };
        }
        match (self.stream.next_op(), model) {
            (Op::Read(i), Model::Own(_)) => Prepared::Get {
                idx: i,
                key: self.items.key(i),
            },
            (Op::Update(i), Model::Own(o)) => Prepared::Update {
                idx: i,
                key: self.items.key(i),
                value: self.items.value(i, o.next_version(i)),
            },
            (Op::Insert(i), Model::Own(_)) => Prepared::Insert {
                idx: i,
                key: self.items.key(i),
                value: self.items.value(i, 0),
            },
            (Op::Scan(start, len), Model::Own(_)) => Prepared::Scan { start, len },
            // Scheduled shape: the stream draws a hot-key slot.
            (Op::Read(slot), Model::Hot(_)) => Prepared::Get {
                idx: slot,
                key: self.items.key(self.hot[slot as usize]),
            },
            (Op::Update(slot), Model::Hot(h)) => Prepared::Update {
                idx: slot,
                key: self.items.key(self.hot[slot as usize]),
                value: h
                    .lock()
                    .expect("oracle poisoned")
                    .start_update(slot as usize),
            },
            (op, _) => unreachable!("workload mix produced {op:?}"),
        }
    }

    fn call(&mut self, p: &Prepared, scan: Option<&ScanRange>) -> Outcome {
        match p {
            Prepared::Get { key, .. } => Outcome::Get(self.client.get(key)),
            Prepared::Update { key, value, .. } => Outcome::Update(self.client.update(key, value)),
            Prepared::Insert { key, value, .. } => Outcome::Insert(self.client.insert(key, value)),
            Prepared::Scan { .. } => {
                let range = scan.expect("scan range prepared");
                Outcome::Scan(self.client.scan(&range.low, &range.high))
            }
            Prepared::GetMany { keys, .. } => {
                let Shape::Pipe { depth, .. } = self.shape else {
                    unreachable!("GetMany is only prepared for the pipelined shape");
                };
                let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                Outcome::GetMany(self.client.get_many_pipelined(&refs, depth))
            }
        }
    }
}

fn check(model: &mut Model, p: &Prepared, scan: Option<&ScanRange>, out: Outcome, rec: &mut Rec) {
    match model {
        Model::Own(o) => match (p, out) {
            (Prepared::Get { idx, .. }, Outcome::Get(Ok(v))) => o.got(*idx, v.as_deref()),
            (Prepared::Update { idx, .. }, Outcome::Update(Ok(found))) => o.updated(*idx, found),
            (Prepared::Insert { idx, key, .. }, Outcome::Insert(Ok(()))) => o.inserted(*idx, key),
            (Prepared::Scan { .. }, Outcome::Scan(Ok(rows))) => {
                rec.scans += 1;
                rec.rows += rows.len() as u64;
                o.scanned(&scan.expect("scan range prepared").rows, &rows);
            }
            (Prepared::GetMany { idxs, .. }, Outcome::GetMany(Ok(vals))) => {
                for (idx, v) in idxs.iter().zip(&vals) {
                    o.got(*idx, v.as_deref());
                }
            }
            (Prepared::GetMany { idxs, .. }, Outcome::GetMany(Err(e))) => {
                o.call_failed(idxs.len() as u64, &e);
            }
            (_, Outcome::Get(Err(e)))
            | (_, Outcome::Update(Err(e)))
            | (_, Outcome::Insert(Err(e)))
            | (_, Outcome::Scan(Err(e))) => o.call_failed(1, &e),
            _ => unreachable!("outcome kind differs from the prepared call"),
        },
        Model::Hot(h) => {
            let mut h = h.lock().expect("oracle poisoned");
            match (p, out) {
                (Prepared::Get { idx, .. }, Outcome::Get(Ok(v))) => {
                    h.got(*idx as usize, v.as_deref())
                }
                (Prepared::Update { idx, .. }, Outcome::Update(Ok(found))) => {
                    h.updated(*idx as usize, found);
                }
                (_, Outcome::Get(Err(e))) | (_, Outcome::Update(Err(e))) => h.call_failed(&e),
                _ => unreachable!("the hot workload only gets and updates"),
            }
        }
    }
}

/// The closed loop: `calls` times generate, call, check. Host time and
/// allocations are taken over the generator and the client call only, so
/// the oracle's own cost stays out of `host_ns_per_op`.
fn run_calls(w: &mut Worker, model: &mut Model, calls: u64, rec: &mut Rec) {
    let slice = (calls / SLICES as u64).max(1);
    let scheduled = matches!(w.shape, Shape::Sched { .. });
    if scheduled {
        rec.cpu_marks.push(thread_cpu_ns());
    }
    for n in 0..calls {
        let (a0, b0) = alloc::snapshot();
        let t0 = Instant::now();
        let prepared = w.prepare(model);
        let t1 = Instant::now();
        let (a1, b1) = alloc::snapshot();

        let scan = match (&prepared, &*model) {
            (Prepared::Scan { start, len }, Model::Own(o)) => Some(o.scan_range(*start, *len)),
            _ => None,
        };
        let vt0 = w.client.clock_ns();

        let (a2, b2) = alloc::snapshot();
        let t2 = Instant::now();
        let out = w.call(&prepared, scan.as_ref());
        let t3 = Instant::now();
        let (a3, b3) = alloc::snapshot();

        let vt1 = w.client.clock_ns();
        rec.vt_lat.push(vt1 - vt0);
        rec.host.push(((t1 - t0) + (t3 - t2)).as_nanos() as u64);
        rec.allocs += (a1 - a0) + (a3 - a2);
        rec.alloc_bytes += (b1 - b0) + (b3 - b2);
        if let Some((log, root)) = rec.spans.as_mut() {
            let op_id = (w.pid << 48) | n;
            let (h0, h1, h2, h3) = (
                log.host_ns(t0),
                log.host_ns(t1),
                log.host_ns(t2),
                log.host_ns(t3),
            );
            log.push(Span {
                name: "ycsb.next_op",
                start_host_ns: h0,
                end_host_ns: h1,
                start_vt_ns: vt0,
                end_vt_ns: vt0,
                parent: *root,
                op_id,
            });
            log.push(Span {
                name: prepared.span_name(),
                start_host_ns: h2,
                end_host_ns: h3,
                start_vt_ns: vt0,
                end_vt_ns: vt1,
                parent: *root,
                op_id,
            });
        }
        check(model, &prepared, scan.as_ref(), out, rec);

        if (n + 1) % slice == 0 {
            rec.limbo_max = rec.limbo_max.max(w.client.reclaim_limbo_len() as u64);
            if scheduled {
                rec.cpu_marks.push(thread_cpu_ns());
            }
        }
    }
    if let Some((log, root)) = rec.spans.as_mut() {
        log.close(*root, w.client.clock_ns());
    }
}

impl Loaded {
    /// Calls per participant of the measured window.
    pub fn window_calls(&self) -> u64 {
        scaled(self.spec.calls, self.params.scale)
    }

    /// Runs one pass of `calls` calls per participant on a drained network
    /// with clocks at zero. With `traced`, benchmark-side spans are kept
    /// and the program's causal-trace sampling is on.
    pub fn run_pass(&mut self, calls: u64, traced: bool) -> Result<Pass, SphinxError> {
        self.passes += 1;
        let (head, tail) = if traced {
            (TRACE_HEAD_EVERY, TRACE_TAIL_K)
        } else {
            (0, 0)
        };
        self.cluster.reset_network();
        let ops_per_call = self.spec.ops_per_call();
        let participants = self.spec.participants() as u64;

        // What each participant hands back: its record, counter deltas,
        // causal traces and final clock.
        type Out = (Rec, Counters, Vec<OpTrace>, u64);
        let cluster_base;
        let outs: Vec<Out> = if let Some(hot) = self.hot.clone() {
            // Two participants in lock-step. A schedule handle cannot be
            // detached, and a finished participant must drop it or the
            // other parks forever: every scheduled pass runs on fresh
            // clients that are dropped inside their threads.
            let schedule = Schedule::new(ScheduleConfig::quiet(
                self.params.seed.wrapping_add(self.passes),
            ));
            let mut clients = Vec::new();
            for pid in 0..participants {
                let mut c = self.index.client(pid as u16)?;
                c.set_trace_sampling(head, tail);
                c.set_trace_worker(pid as u32);
                c.attach_schedule(schedule.register());
                clients.push(c);
            }
            cluster_base = self.cluster.cluster_stats();
            let (items, shape) = (self.oracle.items, self.spec.shape);
            let hot_idx = hot.lock().expect("oracle poisoned").hot.clone();
            std::thread::scope(|s| {
                let joins: Vec<_> = clients
                    .into_iter()
                    .zip(self.streams.iter_mut())
                    .enumerate()
                    .map(|(pid, (mut client, stream))| {
                        let (hot, hot_idx) = (hot.clone(), hot_idx.clone());
                        s.spawn(move || {
                            let base = counters(&client);
                            // First gate: from here on exactly one
                            // participant runs at a time, so shared-oracle
                            // accesses are ordered by the seed alone.
                            client.schedule_tick();
                            let mut rec = Rec::new(calls, traced);
                            let mut worker = Worker {
                                client: &mut client,
                                stream,
                                shape,
                                items,
                                hot: hot_idx,
                                pid: pid as u64,
                            };
                            run_calls(&mut worker, &mut Model::Hot(&hot), calls, &mut rec);
                            let delta = sub(counters(&client), &base);
                            let out = (rec, delta, client.take_traces(), client.clock_ns());
                            client.reclaim_deregister();
                            out
                        })
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("participant panicked"))
                    .collect()
            })
        } else {
            // One worker on the calling thread.
            let client = &mut self.client;
            client.set_trace_sampling(head, tail);
            client.set_clock_ns(0);
            client.take_traces();
            let base = counters(client);
            cluster_base = self.cluster.cluster_stats();
            let mut rec = Rec::new(calls, traced);
            let mut worker = Worker {
                client,
                stream: &mut self.streams[0],
                shape: self.spec.shape,
                items: self.oracle.items,
                hot: Vec::new(),
                pid: 0,
            };
            run_calls(
                &mut worker,
                &mut Model::Own(&mut self.oracle),
                calls,
                &mut rec,
            );
            let client = &mut self.client;
            let delta = sub(counters(client), &base);
            vec![(rec, delta, client.take_traces(), client.clock_ns())]
        };

        let mut pass = Pass {
            calls: calls * participants,
            ops: calls * participants * ops_per_call,
            vt_ns: 0,
            vt_lat: Vec::with_capacity((calls * participants) as usize),
            host_slices: Vec::new(),
            allocs: 0,
            alloc_bytes: 0,
            counters: Counters::new(),
            cluster: self.cluster.cluster_stats().since(&cluster_base),
            limbo_max: 0,
            rows: 0,
            scans: 0,
            traces: Vec::new(),
            spans: None,
        };
        for (pid, (rec, delta, traces, vt_ns)) in outs.into_iter().enumerate() {
            pass.vt_ns = pass.vt_ns.max(vt_ns);
            pass.vt_lat.extend(rec.vt_lat);
            pass.allocs += rec.allocs;
            pass.alloc_bytes += rec.alloc_bytes;
            pass.limbo_max = pass.limbo_max.max(rec.limbo_max);
            pass.rows += rec.rows;
            pass.scans += rec.scans;
            add(&mut pass.counters, delta);
            pass.traces.extend(traces);
            if self.hot.is_none() {
                pass.host_slices = crate::stats::slice_means(&rec.host, ops_per_call as f64);
            } else {
                // Slice i of every participant covers the same share of
                // the pass: add their CPU times, divide by their combined
                // ops.
                let per_op = participants as f64 * (calls / SLICES as u64).max(1) as f64;
                let costs = rec
                    .cpu_marks
                    .windows(2)
                    .map(|w| (w[1] - w[0]) as f64 / per_op);
                if pid == 0 {
                    pass.host_slices = costs.collect();
                } else {
                    for (sum, c) in pass.host_slices.iter_mut().zip(costs) {
                        *sum += c;
                    }
                }
            }
            if let Some((log, _)) = rec.spans {
                match pass.spans.as_mut() {
                    None => pass.spans = Some(log),
                    Some(all) => all.absorb(log),
                }
            }
        }
        pass.vt_lat.sort_unstable();
        Ok(pass)
    }

    /// Live keys according to the model.
    pub fn live_keys(&self) -> u64 {
        self.oracle.live()
    }

    /// Reads back every live key through `get` and checks it against the
    /// model. Returns the number of keys read.
    pub fn read_back(&mut self) -> u64 {
        let live = self.oracle.live();
        let hot = self.hot.clone();
        let mut hot_guard = hot.as_ref().map(|h| h.lock().expect("oracle poisoned"));
        let hot_slot: BTreeMap<u64, usize> = hot_guard
            .as_ref()
            .map(|h| h.hot.iter().enumerate().map(|(s, &i)| (i, s)).collect())
            .unwrap_or_default();
        for idx in 0..live {
            let key = self.oracle.items.key(idx);
            match (self.client.get(&key), hot_slot.get(&idx)) {
                (Err(e), _) => self.oracle.call_failed(1, &e),
                (Ok(v), Some(&slot)) => hot_guard
                    .as_mut()
                    .expect("hot slots imply a hot oracle")
                    .got(slot, v.as_deref()),
                (Ok(v), None) => self.oracle.got(idx, v.as_deref()),
            }
        }
        live
    }
}
