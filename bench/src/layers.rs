//! The per-layer numbers of a traced run: count metrics from the public
//! statistics of the measured window, per-op-kind and critical-path figures
//! from the traced pass, host unit costs from a replay of each layer's
//! public functions, and the baseline reference rows.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use art_core::hash::{fp12, mix64, prefix_hash64};
use art_core::layout::{HashEntry, InnerNode, LeafNode};
use art_core::NodeKind;
use bench_harness::systems::{System, WorkerClient};
use dm_sim::{
    ClusterConfig, DmClient, DmCluster, DoorbellBatch, RemotePtr, RetryPolicy, Schedule,
    ScheduleConfig, Verb,
};
use node_engine::{read_inner_consistent, read_validated_leaf, LeafReadStats};
use obs::Phase;
use race_hash::{RaceTable, TableConfig};
use ycsb::{Op, OpStream};

use crate::catalog::{Metric, PER_LAYER};
use crate::driver::{thread_cpu_ns, Loaded, Params, Pass};
use crate::oracle::{Items, Oracle, Tally};
use crate::spans::{Span, SpanLog};
use crate::stats::{fast_decile, fast_decile_cost, iqr_frac, median, percentile, SLICES};
use crate::workloads::{scaled, Shape, Spec};

/// A replayed function stops after this many calls or this much time,
/// whichever comes first (but never before ten batches).
const REPLAY_CALLS: usize = 200_000;
const REPLAY_TIME: Duration = Duration::from_millis(250);

/// Keys whose root-to-leaf paths feed the replay.
const REPLAY_KEYS: u64 = 2048;

/// The paper's Sphinx-over-best-baseline band on the email dataset.
pub const EMAIL_BAND: (f64, f64) = (1.9, 7.3);

/// Host unit costs from the replay, by span name, in ns per call.
pub type UnitCosts = BTreeMap<&'static str, f64>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("replay: {what}: {e}")
}

/// Times `f` in batches of `batch` calls — one span per batch — and
/// returns the fast-decile cost of one call.
fn time_batches(
    log: &mut SpanLog,
    root: u32,
    name: &'static str,
    batch: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut per_call = Vec::new();
    let started = Instant::now();
    let mut n = 0usize;
    while per_call.len() < 10 || (n < REPLAY_CALLS && started.elapsed() < REPLAY_TIME) {
        let t0 = Instant::now();
        for i in 0..batch {
            f(n + i);
        }
        let t1 = Instant::now();
        per_call.push((t1 - t0).as_nanos() as f64 / batch as f64);
        log.push(Span {
            name,
            start_host_ns: log.host_ns(t0),
            end_host_ns: log.host_ns(t1),
            start_vt_ns: 0,
            end_vt_ns: 0,
            parent: root,
            op_id: n as u64,
        });
        n += batch;
    }
    fast_decile(&per_call)
}

/// Replay inputs drawn from the workload's own keys: the inner nodes and
/// leaves on their lookup paths, as addresses and as raw bytes.
struct Inputs {
    keys: Vec<Vec<u8>>,
    leaves: Vec<RemotePtr>,
    inners: Vec<(RemotePtr, NodeKind)>,
    leaf_bytes: Vec<Vec<u8>>,
    inner_bytes: Vec<Vec<u8>>,
}

fn collect_inputs(ld: &Loaded, dm: &mut DmClient) -> Result<Inputs, String> {
    let live = ld.live_keys();
    let items = ld.oracle.items;
    let keys: Vec<Vec<u8>> = (0..REPLAY_KEYS.min(live))
        .map(|i| items.key(mix64(ld.params.seed ^ i) % live))
        .collect();

    // The root is reachable only through the INHT, under the empty prefix.
    let h = prefix_hash64(&[]);
    let mn = ld.cluster.place(h) as usize;
    let mut table = RaceTable::open(dm, ld.index.inht_metas()[mn]).map_err(err("open INHT"))?;
    let root = table
        .search(dm, h)
        .map_err(err("root search"))?
        .iter()
        .filter_map(|e| HashEntry::decode(e.word))
        .find(|he| he.fp == fp12(&[]))
        .ok_or("replay: no root entry in the INHT")?;

    let mut leaves = Vec::new();
    let mut inners = BTreeMap::new();
    for key in &keys {
        let (mut addr, mut kind) = (root.addr, root.kind);
        loop {
            let node = read_inner_consistent(dm, addr, kind).map_err(err("inner read"))?;
            inners.insert(addr, kind);
            let plen = node.header.prefix_len as usize;
            let slot = if key.len() <= plen {
                node.value_slot
            } else {
                node.find_child(key[plen]).map(|(_, s)| s)
            };
            match slot {
                Some(s) if s.is_leaf || key.len() <= plen => {
                    leaves.push(s.addr);
                    break;
                }
                Some(s) => (addr, kind) = (s.addr, s.child_kind),
                None => break,
            }
        }
    }
    if leaves.is_empty() {
        return Err("replay: no leaf reachable from the sampled keys".into());
    }
    let inners: Vec<_> = inners.into_iter().collect();
    let leaf_bytes = leaves
        .iter()
        .map(|&p| dm.read(p, 128))
        .collect::<Result<_, _>>()
        .map_err(err("leaf bytes"))?;
    let inner_bytes = inners
        .iter()
        .map(|&(p, k)| dm.read(p, InnerNode::byte_size(k)))
        .collect::<Result<_, _>>()
        .map_err(err("inner bytes"))?;
    Ok(Inputs {
        keys,
        leaves,
        inners,
        leaf_bytes,
        inner_bytes,
    })
}

/// Host cost of one scheduler-granted step: two raw clients in lock-step,
/// each reading one word per step; on-CPU time of both over their steps.
fn sched_step_cost(
    cluster: &DmCluster,
    seed: u64,
    log: &mut SpanLog,
    root: u32,
) -> Result<f64, String> {
    const STEPS: usize = 4_000;
    const PER_SLICE: usize = STEPS / SLICES;
    let schedule = Schedule::new(ScheduleConfig::quiet(seed));
    let mut setup = cluster.client(0);
    let word = setup.alloc(0, 64).map_err(err("alloc step word"))?;
    let clients: Vec<DmClient> = (0..2)
        .map(|cn| {
            let mut c = cluster.client(cn);
            c.attach_schedule(schedule.register());
            c
        })
        .collect();
    let t0 = Instant::now();
    let marks: Vec<Vec<u64>> = std::thread::scope(|s| {
        let joins: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                s.spawn(move || {
                    let mut marks = vec![thread_cpu_ns()];
                    for n in 1..=STEPS {
                        black_box(c.read(word, 8).expect("scheduled read"));
                        if n % PER_SLICE == 0 {
                            marks.push(thread_cpu_ns());
                        }
                    }
                    marks
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("step participant panicked"))
            .collect()
    });
    let t1 = Instant::now();
    log.push(Span {
        name: "dm-sim.sched_step",
        start_host_ns: log.host_ns(t0),
        end_host_ns: log.host_ns(t1),
        start_vt_ns: 0,
        end_vt_ns: 0,
        parent: root,
        op_id: 2 * STEPS as u64,
    });
    setup.free(word).map_err(err("free step word"))?;
    let per_step: Vec<f64> = (0..SLICES)
        .map(|i| {
            let cpu: u64 = marks.iter().map(|m| m[i + 1] - m[i]).sum();
            cpu as f64 / (2 * PER_SLICE) as f64
        })
        .collect();
    Ok(fast_decile(&per_step))
}

/// The layer replay: times each layer's public functions on inputs drawn
/// from the loaded index. Runs on raw clients and scratch structures, so
/// the index and its worker's statistics are left as they were.
pub fn replay(ld: &mut Loaded, log: &mut SpanLog) -> Result<(UnitCosts, f64), String> {
    let root = log.open_root("bench.replay", 0);
    let mut dm = ld.cluster.client(2);
    let inp = collect_inputs(ld, &mut dm)?;
    let policy = RetryPolicy::default();
    let mut costs = UnitCosts::new();

    // dm-sim: one read, one CAS, one 4-read doorbell batch.
    let leaves = &inp.leaves;
    costs.insert(
        "dm-sim.read",
        time_batches(log, root, "dm-sim.read", 1024, |i| {
            black_box(dm.read(leaves[i % leaves.len()], 128).expect("replay read"));
        }),
    );
    let word = dm.alloc(0, 64).map_err(err("alloc cas word"))?;
    dm.write_u64(word, 0).map_err(err("zero cas word"))?;
    costs.insert(
        "dm-sim.cas",
        time_batches(log, root, "dm-sim.cas", 1024, |i| {
            black_box(dm.cas(word, i as u64, i as u64 + 1).expect("replay cas"));
        }),
    );
    dm.free(word).map_err(err("free cas word"))?;
    costs.insert(
        "dm-sim.execute4",
        time_batches(log, root, "dm-sim.execute4", 512, |i| {
            let mut batch = DoorbellBatch::with_capacity(4);
            for j in 0..4 {
                batch.push(Verb::Read {
                    ptr: leaves[(4 * i + j) % leaves.len()],
                    len: 128,
                });
            }
            black_box(dm.execute(batch).expect("replay batch"));
        }),
    );
    if matches!(ld.spec.shape, Shape::Sched { .. }) {
        costs.insert(
            "dm-sim.sched_step",
            sched_step_cost(&ld.cluster, ld.params.seed, log, root)?,
        );
    }

    // node-engine: validated leaf read, consistent inner read.
    let mut io = LeafReadStats::default();
    costs.insert(
        "node-engine.read_validated_leaf",
        time_batches(log, root, "node-engine.read_validated_leaf", 1024, |i| {
            black_box(
                read_validated_leaf(&mut dm, leaves[i % leaves.len()], 128, &policy, &mut io)
                    .expect("replay leaf read"),
            );
        }),
    );
    let inners = &inp.inners;
    costs.insert(
        "node-engine.read_inner_consistent",
        time_batches(log, root, "node-engine.read_inner_consistent", 1024, |i| {
            let (p, k) = inners[i % inners.len()];
            black_box(read_inner_consistent(&mut dm, p, k).expect("replay inner read"));
        }),
    );

    // art-core: prefix hash and the two decoders.
    let keys = &inp.keys;
    costs.insert(
        "art-core.prefix_hash64",
        time_batches(log, root, "art-core.prefix_hash64", 8192, |i| {
            black_box(prefix_hash64(black_box(&keys[i % keys.len()])));
        }),
    );
    let leaf_bytes = &inp.leaf_bytes;
    costs.insert(
        "art-core.LeafNode.decode",
        time_batches(log, root, "art-core.LeafNode.decode", 2048, |i| {
            black_box(LeafNode::decode(&leaf_bytes[i % leaf_bytes.len()]).expect("replay leaf"));
        }),
    );
    let inner_bytes = &inp.inner_bytes;
    costs.insert(
        "art-core.InnerNode.decode",
        time_batches(log, root, "art-core.InnerNode.decode", 2048, |i| {
            black_box(
                InnerNode::decode(&inner_bytes[i % inner_bytes.len()]).expect("replay inner"),
            );
        }),
    );

    // race-hash: search the index's own tables, insert into a scratch one.
    let mut tables = Vec::new();
    for &meta in ld.index.inht_metas() {
        tables.push(RaceTable::open(&mut dm, meta).map_err(err("open INHT"))?);
    }
    let hashes: Vec<u64> = keys
        .iter()
        .flat_map(|k| [k.len(), k.len() / 2].map(|l| prefix_hash64(&k[..l])))
        .collect();
    let before = dm.stats().round_trips;
    let mut searches = 0u64;
    costs.insert(
        "race-hash.search",
        time_batches(log, root, "race-hash.search", 1024, |i| {
            let h = hashes[i % hashes.len()];
            let mn = dm.place(h) as usize;
            black_box(tables[mn].search(&mut dm, h).expect("replay search"));
            searches += 1;
        }),
    );
    let search_rts = (dm.stats().round_trips - before) as f64 / searches as f64;
    let scratch_cfg = TableConfig {
        initial_depth: 4,
        max_depth: 12,
    };
    let scratch = RaceTable::create(&mut dm, 0, &scratch_cfg).map_err(err("scratch table"))?;
    let mut scratch = RaceTable::open(&mut dm, scratch).map_err(err("open scratch table"))?;
    costs.insert(
        "race-hash.insert",
        time_batches(log, root, "race-hash.insert", 1024, |i| {
            // Top bit keeps the word non-zero; the low 42 bits are the
            // hash's, which is all the split oracle has to agree on.
            let h = mix64(i as u64 + 1);
            scratch
                .insert(&mut dm, h, h | 1 << 63, |_, w| Ok(w))
                .expect("replay insert");
        }),
    );

    // sfc: probe the live filter; insert into and rebuild scratch ones.
    let filter = ld.client.filter_handle().clone();
    costs.insert(
        "sfc.deepest_hit",
        time_batches(log, root, "sfc.deepest_hit", 2048, |i| {
            let k = &keys[i % keys.len()];
            black_box(filter.deepest_hit(k, k.len()));
        }),
    );
    let cfg = ld.index.config();
    let budget = cfg.cache_bytes.max(64);
    let scratch_filter = sfc::FilterCache::new(budget, cfg.sfc, cfg.seed);
    costs.insert(
        "sfc.insert",
        time_batches(log, root, "sfc.insert", 2048, |i| {
            let k = &keys[i % keys.len()];
            scratch_filter.insert(&k[..1 + i % k.len()]);
        }),
    );
    let rebuilt = sfc::FilterCache::new(budget, cfg.sfc, cfg.seed);
    let resident = filter.len().max(256) as u64;
    for i in 0..resident {
        rebuilt.insert(&mix64(i).to_be_bytes());
    }
    rebuilt.force_rebuild();
    let mut fresh = resident;
    costs.insert(
        "sfc.force_rebuild",
        time_batches(log, root, "sfc.force_rebuild", 1, |_| {
            // A rebuild folds a pending delta into the frozen generation;
            // give it one of typical size (untimed share is small).
            for _ in 0..256 {
                rebuilt.insert(&mix64(fresh).to_be_bytes());
                fresh += 1;
            }
            black_box(rebuilt.force_rebuild());
        }),
    );

    // reclaim: one amortized scan on the worker's own handle.
    costs.insert(
        "reclaim.scan",
        time_batches(log, root, "reclaim.scan", 256, |_| ld.client.reclaim_scan()),
    );
    log.close(root, 0);
    Ok((costs, search_rts))
}

/// Virtual-time throughput of `sys` on the workload at 1/10 length (same
/// key and op streams), checked against a model like the main run.
fn reference_vt_mops(sys: System, spec: &Spec, params: Params) -> (f64, Tally) {
    let keys = ((spec.preload as f64 * params.scale / 10.0) as u64).max(64);
    let calls = scaled(spec.calls, params.scale / 10.0);
    let cluster = DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 3,
        mn_capacity: 64 << 20,
        net: spec.net.clone(),
        ..Default::default()
    });
    // The paper's cache proportions: Sphinx and SMART get the scaled
    // 20 MB budget, SMART+C ten times that, ART none.
    let cache = (keys / spec.sfc_div) as usize;
    let budget = if sys == System::SmartC {
        10 * cache
    } else {
        cache
    };
    let handle = sys.build_on(&cluster, Some(budget));
    let mut client = handle.worker(0);
    let items = Items::new(spec.keyspace, params.seed);
    let mut oracle = Oracle::new(items, false);
    for i in 0..keys {
        let key = items.key(i);
        client.insert(&key, &items.value(i, 0));
        oracle.inserted(i, &key);
    }
    let mut stream = OpStream::new(spec.mix.clone(), keys, params.seed);
    let mut run = |n: u64, client: &mut WorkerClient, oracle: &mut Oracle| {
        for _ in 0..n {
            match stream.next_op() {
                Op::Read(i) => oracle.got(i, client.get(&items.key(i)).as_deref()),
                Op::Update(i) => {
                    let value = items.value(i, oracle.next_version(i));
                    oracle.updated(i, client.update(&items.key(i), &value));
                }
                op => unreachable!("reference rows run a get/update mix, got {op:?}"),
            }
        }
    };
    run(calls / 10, &mut client, &mut oracle);
    cluster.reset_network();
    client.set_clock_ns(0);
    run(calls, &mut client, &mut oracle);
    let mops = calls as f64 / client.clock_ns().max(1) as f64 * 1e3;
    (mops, oracle.tally)
}

/// Baseline reference rows (`smart`, `smartc`, `art`, `sphinx_over_best`)
/// and the failures they saw.
pub fn baseline_rows(spec: &Spec, params: Params) -> ([f64; 4], Tally) {
    let mut tally = Tally::default();
    let mut row = |sys| {
        let (mops, t) = reference_vt_mops(sys, spec, params);
        tally.merge(&t);
        mops
    };
    let sphinx = row(System::Sphinx);
    let (smart, smartc, art) = (row(System::Smart), row(System::SmartC), row(System::Art));
    let best = smart.max(smartc).max(art);
    ([smart, smartc, art, sphinx / best], tally)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Structure sizes at the end of the measured window (before the traced
/// pass and the replay's scratch allocations change them).
#[derive(Debug, Clone, Copy)]
pub struct Gauges {
    pub inht_load_factor: f64,
    pub inht_overhead_frac: f64,
    pub sfc_mem_bytes: f64,
    pub sfc_entries: f64,
}

pub fn gauges(ld: &Loaded) -> Result<Gauges, String> {
    let mut dm = ld.cluster.client(2);
    let (mut entries, mut slots) = (0usize, 0usize);
    for &meta in ld.index.inht_metas() {
        let mut t = RaceTable::open(&mut dm, meta).map_err(err("open INHT"))?;
        let s = t.stats(&mut dm).map_err(err("INHT stats"))?;
        entries += s.entries;
        slots += s.segments * TableConfig::segment_capacity();
    }
    let space = ld.index.space_breakdown().map_err(err("space breakdown"))?;
    let filter = ld.client.filter_handle();
    Ok(Gauges {
        inht_load_factor: entries as f64 / slots.max(1) as f64,
        inht_overhead_frac: space.inht_overhead(),
        sfc_mem_bytes: filter.memory_bytes() as f64,
        sfc_entries: filter.len() as f64,
    })
}

/// What the traced run hands over for the per-layer report.
pub struct LayerInputs<'a> {
    pub window: &'a Pass,
    pub gauges: Gauges,
    pub traced: &'a Pass,
    pub costs: &'a UnitCosts,
    pub search_rts: f64,
    /// `[smart, smartc, art, sphinx_over_best]`; zeros off the NIC-bound
    /// workload.
    pub baselines: [f64; 4],
    pub verify_problems: u64,
}

/// Assembles every per-layer metric, in catalogue order.
pub fn layer_metrics(ld: &Loaded, inp: &LayerInputs) -> Result<Vec<Metric>, String> {
    let w = inp.window;
    let ops = w.ops as f64;
    let kop = ops / 1000.0;
    let c = |k: &str| w.counters.get(k).copied().unwrap_or(0) as f64;
    let phase =
        |p: Phase| c(&format!("rts.{}", p.name())) + c(&format!("pipeline.rts.{}", p.name()));
    let cost = |k: &str| inp.costs.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let opc = ld.spec.ops_per_call() as f64;

    // Spans of the traced pass, by name, in time order.
    let spans = inp
        .traced
        .spans
        .as_ref()
        .ok_or("traced pass kept no spans")?;
    let mut by_name: BTreeMap<&str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in &spans.spans {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.end_host_ns - s.start_host_ns);
        e.1.push(s.end_vt_ns - s.start_vt_ns);
    }
    let kind = |names: &[&str]| -> (f64, f64, u64) {
        let mut host = Vec::new();
        let mut vt = Vec::new();
        let mut per_call = 1.0;
        for n in names {
            if let Some((h, v)) = by_name.get(n) {
                host.extend(h);
                vt.extend(v);
                if *n == "core.get_many" {
                    per_call = opc;
                }
            }
        }
        if vt.is_empty() {
            return (0.0, 0.0, 0);
        }
        vt.sort_unstable();
        (
            percentile(&vt, 0.5) as f64 / 1e3,
            fast_decile_cost(&host, per_call),
            vt.len() as u64,
        )
    };
    let get = kind(&["core.get", "core.get_many"]);
    let update = kind(&["core.update"]);
    let insert = kind(&["core.insert"]);
    let scan = kind(&["core.scan"]);
    let gen_ns = by_name
        .get("ycsb.next_op")
        .map_or(0.0, |(h, _)| fast_decile_cost(h, opc));

    // Critical path of the head-sampled (uniform 1-in-64) traced gets.
    let mut cp = [0u64; 5];
    let mut cp_n = 0u64;
    let sampled_get =
        |t: &&obs::OpTrace| t.kind == obs::OpKind::Get && t.head_sampled && t.complete;
    for t in inp.traced.traces.iter().filter(sampled_get) {
        let p = obs::critical_path(t);
        if !p.is_exact() {
            return Err(format!(
                "critical path of trace {:#x} sums to {} ns, latency is {} ns",
                t.id,
                p.segments_sum(),
                p.total_ns
            ));
        }
        for (acc, v) in cp.iter_mut().zip([
            p.queue_ns,
            p.fusion_ns,
            p.service_ns,
            p.stall_ns,
            p.compute_ns,
        ]) {
            *acc += v;
        }
        cp_n += 1;
    }
    let cp_mean = |i: usize| ratio(cp[i] as f64, cp_n as f64);

    // MN-side view of the window.
    let mns = &w.cluster.mns;
    let verbs: Vec<f64> = mns.iter().map(|m| m.verbs() as f64).collect();
    let mean_verbs = verbs.iter().sum::<f64>() / verbs.len() as f64;
    let busy = mns
        .iter()
        .map(|m| m.service_ns as f64 / w.vt_ns.max(1) as f64)
        .fold(0.0, f64::max);
    let queue_ns: u64 = mns.iter().map(|m| m.queue_ns).sum();

    let g = inp.gauges;

    // Host time per op that no lower layer's unit cost explains.
    let host = fast_decile(&w.host_slices);
    let searches = c("inht.searches");
    let leaf_reads = phase(Phase::LeafRead);
    let inner_reads = (phase(Phase::InhtLookup) - searches).max(0.0) + phase(Phase::Traversal);
    let other_reads = (c("net.reads") - searches - leaf_reads - inner_reads).max(0.0);
    let explained = gen_ns
        + ((c("sfc.probe_hit") + c("sfc.probe_miss")) * cost("sfc.deepest_hit")
            + c("filter.inserts") * cost("sfc.insert")
            + c("filter.rebuilds") * cost("sfc.force_rebuild")
            + searches * cost("race-hash.search")
            + leaf_reads * cost("node-engine.read_validated_leaf")
            + inner_reads * cost("node-engine.read_inner_consistent")
            + (other_reads + c("net.writes")) * cost("dm-sim.read")
            + c("net.cas") * cost("dm-sim.cas")
            + c("reclaim.scans") * cost("reclaim.scan")
            + w.rows as f64 * cost("art-core.LeafNode.decode"))
            / ops;

    let traced_host = fast_decile(&inp.traced.host_slices);
    let first_hits = c("sphinx.filter_first_hits");
    let fused = c("pipeline.fused_batches");
    let lone = c("pipeline.depth_le_1");

    let values: Vec<(&str, f64, u64)> = vec![
        ("ycsb.gen_host_ns", gen_ns, 0),
        ("dm-sim.rts_per_op", c("net.round_trips") / ops, 0),
        ("dm-sim.doorbells_per_op", c("net.doorbells") / ops, 0),
        ("dm-sim.verbs_per_op", c("net.verbs") / ops, 0),
        ("dm-sim.bytes_per_op", c("net.bytes") / ops, 0),
        ("dm-sim.cas_per_op", c("net.cas") / ops, 0),
        ("dm-sim.nic_busy_frac_max", busy, 0),
        ("dm-sim.nic_queue_ns_per_op", queue_ns as f64 / ops, 0),
        (
            "dm-sim.mn_verb_imbalance",
            ratio(verbs.iter().copied().fold(0.0, f64::max), mean_verbs),
            0,
        ),
        ("dm-sim.read128_host_ns", cost("dm-sim.read"), 0),
        ("dm-sim.cas_host_ns", cost("dm-sim.cas"), 0),
        ("dm-sim.batch4_host_ns", cost("dm-sim.execute4"), 0),
        ("dm-sim.sched_step_host_ns", cost("dm-sim.sched_step"), 0),
        (
            "node-engine.leaf_read_host_ns",
            cost("node-engine.read_validated_leaf"),
            0,
        ),
        (
            "node-engine.inner_read_host_ns",
            cost("node-engine.read_inner_consistent"),
            0,
        ),
        (
            "node-engine.leaf_checksum_retries_per_kop",
            c("sphinx.checksum_retries") / kop,
            0,
        ),
        (
            "node-engine.extended_leaf_reads_per_kop",
            c("sphinx.extended_leaf_reads") / kop,
            0,
        ),
        (
            "node-engine.pipe_flushes_per_op",
            c("pipeline.flushes") / ops,
            0,
        ),
        ("node-engine.pipe_fused_frac", ratio(fused, fused + lone), 0),
        (
            "node-engine.pipe_stalls_per_kop",
            c("pipeline.stalls") / kop,
            0,
        ),
        (
            "node-engine.pipe_depth_mean",
            ratio(fused + lone, c("pipeline.flushes")),
            0,
        ),
        (
            "art-core.prefix_hash_host_ns",
            cost("art-core.prefix_hash64"),
            0,
        ),
        (
            "art-core.leaf_decode_host_ns",
            cost("art-core.LeafNode.decode"),
            0,
        ),
        (
            "art-core.inner_decode_host_ns",
            cost("art-core.InnerNode.decode"),
            0,
        ),
        ("race-hash.search_host_ns", cost("race-hash.search"), 0),
        ("race-hash.search_rts", inp.search_rts, 0),
        ("race-hash.insert_host_ns", cost("race-hash.insert"), 0),
        ("race-hash.splits", c("inht.splits"), 0),
        (
            "race-hash.stale_retries_per_kop",
            c("inht.stale_retries") / kop,
            0,
        ),
        ("race-hash.load_factor", g.inht_load_factor, 0),
        ("sfc.probe_host_ns", cost("sfc.deepest_hit"), 0),
        ("sfc.insert_host_ns", cost("sfc.insert"), 0),
        ("sfc.rebuild_host_ms", cost("sfc.force_rebuild") / 1e6, 0),
        ("sfc.rebuilds", c("filter.rebuilds"), 0),
        (
            "sfc.first_hit_frac",
            ratio(first_hits, first_hits + c("sphinx.entry_misses")),
            0,
        ),
        (
            "sfc.fp_frac",
            ratio(c("filter.false_positives"), c("sfc.probe_hit")),
            0,
        ),
        ("sfc.evictions_per_kop", c("filter.evictions") / kop, 0),
        (
            "sfc.bits_per_entry",
            ratio(g.sfc_mem_bytes * 8.0, g.sfc_entries),
            0,
        ),
        ("sfc.mem_bytes", g.sfc_mem_bytes, 0),
        ("reclaim.scans_per_kop", c("reclaim.scans") / kop, 0),
        (
            "reclaim.retired_bytes_per_op",
            c("reclaim.retired_bytes") / ops,
            0,
        ),
        (
            "reclaim.freed_frac",
            ratio(c("reclaim.freed_bytes"), c("reclaim.retired_bytes")),
            0,
        ),
        ("reclaim.limbo_max", w.limbo_max as f64, 0),
        ("core.get.vt_p50_us", get.0, get.2),
        ("core.get.host_ns", get.1, get.2),
        ("core.update.vt_p50_us", update.0, update.2),
        ("core.update.host_ns", update.1, update.2),
        ("core.insert.vt_p50_us", insert.0, insert.2),
        ("core.insert.host_ns", insert.1, insert.2),
        ("core.scan.vt_p50_us", scan.0, scan.2),
        ("core.scan.host_ns", scan.1, scan.2),
        ("core.rts.sfc_probe", phase(Phase::SfcProbe) / ops, 0),
        ("core.rts.inht_lookup", phase(Phase::InhtLookup) / ops, 0),
        ("core.rts.traversal", phase(Phase::Traversal) / ops, 0),
        ("core.rts.leaf_read", phase(Phase::LeafRead) / ops, 0),
        ("core.rts.leaf_write", phase(Phase::LeafWrite) / ops, 0),
        ("core.rts.lock_acquire", phase(Phase::LockAcquire) / ops, 0),
        ("core.rts.retry", phase(Phase::Retry) / ops, 0),
        ("core.rts.maintenance", phase(Phase::Maintenance) / ops, 0),
        ("core.cp.queue_ns", cp_mean(0), cp_n),
        ("core.cp.fusion_ns", cp_mean(1), cp_n),
        ("core.cp.service_ns", cp_mean(2), cp_n),
        ("core.cp.stall_ns", cp_mean(3), cp_n),
        ("core.cp.compute_ns", cp_mean(4), cp_n),
        (
            "core.pipeline_fallbacks_per_kop",
            c("pipeline.fallbacks") / kop,
            0,
        ),
        ("core.lock_contended_per_kop", c("lock.contended") / kop, 0),
        ("core.retries_per_kop", c("op.retries") / kop, 0),
        ("core.host_self_ns_per_op", host - explained, 0),
        ("core.load_vt_mops", ld.load_vt_mops, 0),
        ("core.inht_overhead_frac", g.inht_overhead_frac, 0),
        ("core.verify_problems", inp.verify_problems as f64, 0),
        (
            "core.rows_per_scan",
            ratio(w.rows as f64, w.scans as f64),
            w.scans,
        ),
        (
            "obs.trace_overhead_frac",
            ratio(traced_host - host, host),
            0,
        ),
        ("baselines.smart.vt_mops", inp.baselines[0], 0),
        ("baselines.smartc.vt_mops", inp.baselines[1], 0),
        ("baselines.art.vt_mops", inp.baselines[2], 0),
        ("baselines.sphinx_over_best", inp.baselines[3], 0),
        ("bench.allocs_per_op", w.allocs as f64 / ops, 0),
        ("bench.alloc_bytes_per_op", w.alloc_bytes as f64 / ops, 0),
        ("bench.peak_rss_mib", peak_rss_mib(), 0),
        (
            "bench.host_ns_per_op_med",
            median(&w.host_slices),
            w.host_slices.len() as u64,
        ),
        (
            "bench.host_slice_iqr_frac",
            iqr_frac(&w.host_slices),
            w.host_slices.len() as u64,
        ),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "every catalogued layer metric is reported"
    );
    Ok(values
        .into_iter()
        .zip(PER_LAYER)
        .map(|((name, value, samples), d)| {
            assert_eq!(
                name, d.name,
                "layer metrics are assembled in catalogue order"
            );
            Metric {
                def: d,
                value,
                samples,
            }
        })
        .collect())
}
