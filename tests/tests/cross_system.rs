//! Cross-system agreement: Sphinx, SMART, SMART+C and ART must produce
//! identical answers on identical operation sequences — they differ only
//! in how many packets it takes.

use bench_harness::systems::System;
use dm_sim::{ClusterConfig, DmCluster};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ycsb::{value_for, KeySpace};

#[test]
fn four_systems_agree_on_a_mixed_history() {
    let systems = [System::Sphinx, System::Smart, System::SmartC, System::Art];
    let mut workers: Vec<_> = systems
        .iter()
        .map(|s| {
            let h = s.build(128 << 20, Some(64 << 10));
            (h.worker(0), h)
        })
        .collect();
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(0xC0FE);

    for step in 0..1500u64 {
        let idx = rng.gen_range(0..400u64);
        let key = KeySpace::Email.key(idx);
        match rng.gen_range(0..10) {
            0..=4 => {
                let value = value_for(idx, step as u32);
                for (w, _) in &mut workers {
                    w.insert(&key, &value);
                }
                oracle.insert(key, value);
            }
            5..=6 => {
                let value = value_for(idx, step as u32 + 1);
                let expect = oracle.contains_key(&key);
                for (w, _) in &mut workers {
                    assert_eq!(
                        w.update(&key, &value),
                        expect,
                        "update disagreement @{step}"
                    );
                }
                if expect {
                    oracle.insert(key, value);
                }
            }
            _ => {
                let expect = oracle.get(&key).cloned();
                for ((w, _), sys) in workers.iter_mut().zip(&systems) {
                    assert_eq!(
                        w.get(&key),
                        expect,
                        "{} disagrees on {:?} @{step}",
                        sys.label(),
                        String::from_utf8_lossy(&key)
                    );
                }
            }
        }
    }

    // Identical full scans at the end.
    let full: Vec<usize> = workers
        .iter_mut()
        .map(|(w, _)| w.scan(b"", &[0xFF; 40]))
        .collect();
    for (count, sys) in full.iter().zip(&systems) {
        assert_eq!(*count, oracle.len(), "{} scan count", sys.label());
    }
}

/// On the u64 dataset all FIVE systems (including the B+-tree extension)
/// must agree on a mixed history.
#[test]
fn five_systems_agree_on_u64_history() {
    let systems = [
        System::Sphinx,
        System::Smart,
        System::SmartC,
        System::Art,
        System::BpTree,
    ];
    let mut workers: Vec<_> = systems
        .iter()
        .map(|s| {
            let h = s.build(128 << 20, Some(64 << 10));
            (h.worker(0), h)
        })
        .collect();
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(0xB0B5);

    for step in 0..1200u64 {
        let idx = rng.gen_range(0..300u64);
        let key = KeySpace::U64.key(idx);
        match rng.gen_range(0..10) {
            0..=4 => {
                let value = value_for(idx, step as u32);
                for (w, _) in &mut workers {
                    w.insert(&key, &value);
                }
                oracle.insert(key, value);
            }
            5..=6 => {
                let value = value_for(idx, step as u32 + 1);
                let expect = oracle.contains_key(&key);
                for (w, _) in &mut workers {
                    assert_eq!(w.update(&key, &value), expect, "update @{step}");
                }
                if expect {
                    oracle.insert(key, value);
                }
            }
            _ => {
                let expect = oracle.get(&key).cloned();
                for ((w, _), sys) in workers.iter_mut().zip(&systems) {
                    let got = w.get(&key);
                    match (&got, &expect) {
                        (Some(g), Some(e)) => assert_eq!(
                            &g[..e.len().min(g.len())],
                            &e[..e.len().min(g.len())],
                            "{} value mismatch @{step}",
                            sys.label()
                        ),
                        (None, None) => {}
                        _ => panic!(
                            "{} presence disagreement @{step}: got {:?} expected {:?}",
                            sys.label(),
                            got.is_some(),
                            expect.is_some()
                        ),
                    }
                }
            }
        }
    }
    // Identical scan counts over the full range.
    let (lo, hi) = (0u64.to_be_bytes(), u64::MAX.to_be_bytes());
    for ((w, _), sys) in workers.iter_mut().zip(&systems) {
        assert_eq!(w.scan(&lo, &hi), oracle.len(), "{} scan count", sys.label());
    }

    // ... and identical answers from eight lookups in flight, over keys
    // present, deleted just now, and never inserted.
    for idx in (0..300u64).step_by(5) {
        let key = KeySpace::U64.key(idx);
        let expect = oracle.remove(&key).is_some();
        for ((w, _), sys) in workers.iter_mut().zip(&systems) {
            assert_eq!(w.remove(&key), expect, "{} remove {idx}", sys.label());
        }
    }
    let keys: Vec<Vec<u8>> = (0..330u64).map(|idx| KeySpace::U64.key(idx)).collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    for ((w, _), sys) in workers.iter_mut().zip(&systems) {
        for (key, got) in keys.iter().zip(w.multi_get_pipelined(&refs, 8)) {
            // The B+-tree keeps 62 bytes of a value.
            let kept = |v: Option<&Vec<u8>>| v.map(|v| v[..v.len().min(62)].to_vec());
            assert_eq!(
                kept(got.as_ref()),
                kept(oracle.get(key)),
                "{} depth 8 {key:?}",
                sys.label()
            );
        }
    }
}

#[test]
fn ycsb_smoke_every_workload_every_system() {
    use bench_harness::runner::{load_phase, run_phase, RunConfig};
    use ycsb::Workload;

    for sys in System::paper_lineup() {
        let handle = sys.build(128 << 20, Some(16 << 10));
        load_phase(&handle, KeySpace::U64, 1_500, 3);
        for wl in ["A", "B", "C", "D", "E", "LOAD"] {
            let workload = Workload::by_name(wl).expect("workload");
            let r = run_phase(
                &handle,
                &RunConfig {
                    keyspace: KeySpace::U64,
                    num_keys: 1_500,
                    workload,
                    workers: 3,
                    ops_per_worker: if wl == "E" { 15 } else { 80 },
                    warmup_per_worker: 10,
                    seed: 99,
                    pipeline_depth: 1,
                    trace_head_every: 0,
                    trace_tail_k: obs::DEFAULT_TAIL_K,
                    sample_interval_ns: 0,
                },
            );
            assert!(r.mops > 0.0, "{} {wl}", sys.label());
            assert!(r.round_trips_per_op > 0.5, "{} {wl}", sys.label());
        }
    }
}

/// `(leaves, empty_inner_nodes)` of a clean structural audit.
fn audited(handle: &bench_harness::systems::SystemHandle, what: &str) -> (usize, usize) {
    use bench_harness::systems::SystemHandle;
    let (leaves, empty, problems) = match handle {
        SystemHandle::Sphinx(index) => {
            let r = index.verify().expect("verify");
            (r.leaves, r.empty_inner_nodes, r.problems)
        }
        SystemHandle::Baseline(index) => {
            let r = index.verify().expect("verify");
            (r.leaves, r.empty_inner_nodes, r.problems)
        }
        SystemHandle::BpTree(_) => unreachable!("no audit for the B+-tree"),
    };
    assert!(problems.is_empty(), "{what}: {problems:#?}");
    (leaves, empty)
}

/// The emptied-subtree shape: keys behind one compressed path, all
/// deleted, then a lookup that leaves that path in the middle. It used to
/// end in `RetriesExhausted{locate}` on all three ART systems — the
/// sampler was asked, forever, for a leaf that no longer existed. Sphinx
/// unlinks emptied nodes in `remove`; the baselines leave them (the second
/// shape leaves a chain of two) for the insert that next diverges there.
#[test]
fn a_lookup_diverging_inside_an_emptied_subtree_ends() {
    let shapes: [&[&[u8]]; 2] = [
        &[b"abcdefgh1", b"abcdefgh2"],
        &[b"abcdefgh1x", b"abcdefgh1y", b"abcdefgh2"],
    ];
    for sys in [System::Sphinx, System::Smart, System::Art] {
        for (doomed, then_insert) in [(shapes[0], false), (shapes[0], true), (shapes[1], true)] {
            let what = format!(
                "{} {} keys then_insert={then_insert}",
                sys.label(),
                doomed.len()
            );
            let handle = sys.build(64 << 20, Some(64 << 10));
            let mut w = handle.worker(0);
            for key in doomed {
                w.insert(key, b"1");
            }
            w.insert(b"b", b"3");
            for key in doomed {
                assert!(w.remove(key), "{what}");
            }
            let (leaves, leftover) = audited(&handle, &what);
            assert_eq!(leaves, 1, "{what}");
            let expect_leftover = if sys == System::Sphinx {
                0
            } else {
                doomed.len() - 1
            };
            assert_eq!(leftover, expect_leftover, "{what}");

            if then_insert {
                w.insert(b"abcxyz", b"4");
                assert_eq!(w.get(b"abcxyz").as_deref(), Some(&b"4"[..]), "{what}");
                assert_eq!(audited(&handle, &what), (2, 0), "{what}");
            } else {
                assert_eq!(w.get(b"abcxyz"), None, "{what}");
                assert!(!w.update(b"abcxyz", b"4"), "{what}");
                assert!(!w.remove(b"abcxyz"), "{what}");
            }
            assert_eq!(w.get(doomed[0]), None, "{what}");
            assert_eq!(w.get(b"b").as_deref(), Some(&b"3"[..]), "{what}");
            assert_eq!(w.scan(b"", &[0xFF; 16]), 1 + then_insert as usize, "{what}");
        }
    }
}

/// One range walker, three hosts: Sphinx, SMART and ART return the same
/// pairs — the oracle's — for the same ranges over email-shaped keys
/// (long shared prefixes, so pruning runs on resolved prefixes), before
/// and after a delete wave that empties whole subtrees. What differs is
/// the price: ART reads a level in groups of eight where SMART rings one
/// doorbell.
#[test]
fn three_art_systems_scan_alike_around_a_delete_wave() {
    let systems = [System::Sphinx, System::Smart, System::Art];
    let handles: Vec<_> = systems
        .iter()
        .map(|s| s.build(128 << 20, Some(64 << 10)))
        .collect();
    let mut workers: Vec<_> = handles.iter().map(|h| h.worker(0)).collect();
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for idx in 0..600u64 {
        let (key, value) = (KeySpace::Email.key(idx), value_for(idx, 0));
        for w in &mut workers {
            w.insert(&key, &value);
        }
        oracle.insert(key, value);
    }
    let sorted: Vec<Vec<u8>> = oracle.keys().cloned().collect();
    let ranges: Vec<(Vec<u8>, Vec<u8>)> = [(0, 599), (10, 11), (100, 180), (300, 420), (590, 599)]
        .iter()
        .map(|&(lo, hi)| (sorted[lo].clone(), sorted[hi].clone()))
        .chain([
            (b"a".to_vec(), b"b".to_vec()),
            (b"zzzz".to_vec(), vec![0xFF; 8]),
        ])
        .collect();

    type Workers = [bench_harness::systems::WorkerClient];
    let check = |workers: &mut Workers, oracle: &BTreeMap<Vec<u8>, Vec<u8>>, when: &str| {
        for (low, high) in &ranges {
            let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                .range(low.clone()..=high.clone())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let mut round_trips = Vec::new();
            for (w, sys) in workers.iter_mut().zip(&systems) {
                let before = w.net_stats().round_trips;
                let got = w.scan_pairs(low, high);
                round_trips.push(w.net_stats().round_trips - before);
                assert_eq!(got, want, "{} {when} {:?}", sys.label(), (low, high));
            }
            if want.len() >= 64 {
                assert!(
                    round_trips[2] > round_trips[1],
                    "{when}: ART's grouped level reads ({} round trips) must cost more \
                     than SMART's batched ones ({}) over {} keys",
                    round_trips[2],
                    round_trips[1],
                    want.len()
                );
            }
        }
    };
    check(&mut workers, &oracle, "before the wave");

    // Every third key, and two whole runs of neighbours (emptied nodes).
    let doomed: Vec<Vec<u8>> = sorted
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0 || (200..260).contains(i) || (400..420).contains(i))
        .map(|(_, k)| k.clone())
        .collect();
    for key in &doomed {
        for (w, sys) in workers.iter_mut().zip(&systems) {
            assert!(w.remove(key), "{} remove", sys.label());
        }
        oracle.remove(key);
    }
    check(&mut workers, &oracle, "after the wave");

    // The same descent, eight lookups in flight: keys present, deleted by
    // the wave (whole emptied subtrees among them), never inserted, and
    // leaving a survivor's compressed path in the middle.
    let probes: Vec<Vec<u8>> = sorted
        .iter()
        .cloned()
        .chain((600..640).map(|idx| KeySpace::Email.key(idx)))
        .chain(oracle.keys().step_by(7).map(|key| {
            let mut key = key.clone();
            let mid = key.len() / 2;
            key[mid] ^= 0x15;
            key
        }))
        .collect();
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
    for (w, sys) in workers.iter_mut().zip(&systems) {
        for (key, got) in probes.iter().zip(w.multi_get_pipelined(&refs, 8)) {
            assert_eq!(
                got.as_ref(),
                oracle.get(key),
                "{} depth 8 {:?}",
                sys.label(),
                String::from_utf8_lossy(key)
            );
        }
    }
    for (handle, sys) in handles.iter().zip(&systems) {
        assert_eq!(
            audited(handle, sys.label()).0,
            oracle.len(),
            "{}",
            sys.label()
        );
    }
}

/// Serves the first read of `target` whose length is the image's as the
/// image, and every other read as it is.
struct RewriteOnce {
    target: dm_sim::RemotePtr,
    image: Vec<u8>,
    left: AtomicU64,
}

impl dm_sim::FaultHook for RewriteOnce {
    fn corrupt_read(&self, ptr: dm_sim::RemotePtr, data: &mut [u8]) {
        if ptr == self.target
            && data.len() == self.image.len()
            && self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            data.copy_from_slice(&self.image);
        }
    }
}

/// The level read of an inner node is served mid type-switch (`Invalid`)
/// under a scan: every ART system backs off and reads it again, a counted
/// retry — none drops the node's ten rows. `aa-000 … ab-199` on one MN;
/// the node is `ab-01`.
#[test]
fn a_node_switching_under_a_scan_is_reread_on_every_art_system() {
    use bench_harness::systems::WorkerClient;
    use node_engine::WriteHost;
    for sys in [System::Sphinx, System::Smart, System::Art] {
        for limit in [None, Some(200)] {
            let what = format!("{} limit {limit:?}", sys.label());
            let cluster = DmCluster::new(ClusterConfig {
                num_mns: 1,
                ..ClusterConfig::default()
            });
            let handle = sys.build_on(&cluster, Some(64 << 10));
            let mut w = handle.worker(0);
            let want: Vec<(Vec<u8>, Vec<u8>)> = ["aa", "ab"]
                .iter()
                .flat_map(|group| (0..200).map(move |i| format!("{group}-{i:03}").into_bytes()))
                .map(|key| (key.clone(), key))
                .collect();
            for (key, value) in &want {
                w.insert(key, value);
            }
            let (d, _) = match &mut w {
                WorkerClient::Sphinx(c) => c.locate(b"ab-010", false).unwrap(),
                WorkerClient::Baseline(c) => c.locate(b"ab-010", false).unwrap(),
                WorkerClient::BpTree(_) => unreachable!("not an ART"),
            };
            assert_eq!(d.node.header.prefix_len, 5, "{what}");
            let mut image = d.node.clone();
            image.header.status = art_core::layout::NodeStatus::Invalid;
            cluster.set_fault_hook(Some(Arc::new(RewriteOnce {
                target: d.node_ptr,
                image: image.encode(),
                left: AtomicU64::new(1),
            })));
            let got = match limit {
                None => w.scan_pairs(b"ab-000", b"ab-199"),
                Some(limit) => w.scan_n(b"ab-000", limit),
            };
            assert_eq!(cluster.fault_injections(), 1, "{what}");
            assert_eq!(got.len(), 200, "{what}");
            assert_eq!(got, want[200..], "{what}");
            assert_eq!(w.telemetry().op(obs::OpKind::Scan).retries, 1, "{what}");
        }
    }
}

/// Charge for charge at depth 1: every baseline point op drives the shared
/// descent alone, and that must cost what the blocking `locate_once` cost.
/// A fixed get/insert/update/remove stream over 5 000 email keys (half
/// preloaded; SMART's cache small enough to evict) ends with the network
/// counters and the virtual clock of commit 1684881, the last with the
/// blocking traversal — `[round trips, doorbells, verbs, bytes, CAS,
/// clock_ns]`, re-derived there with this very test (docs/TESTING.md).
#[test]
fn baseline_ops_at_depth_one_cost_what_the_blocking_traversal_cost() {
    let pins: [(System, usize, [u64; 6]); 3] = [
        (
            System::Smart,
            64 << 10,
            [24_826, 24_826, 27_896, 37_116_144, 3_533, 57_084_813],
        ),
        (
            System::SmartC,
            640 << 10,
            [17_708, 17_708, 20_778, 22_367_648, 3_533, 40_535_463],
        ),
        (
            System::Art,
            0,
            [30_535, 30_535, 33_806, 4_223_824, 3_791, 66_677_830],
        ),
    ];
    for (sys, cache_bytes, want) in pins {
        let handle = sys.build(128 << 20, Some(cache_bytes));
        let mut w = handle.worker(0);
        for idx in 0..2500u64 {
            w.insert(&KeySpace::Email.key(idx), &value_for(idx, 0));
        }
        let mut rng = SmallRng::seed_from_u64(0x5EED_0021);
        for step in 0..2000u32 {
            let idx = rng.gen_range(0..5000u64);
            let key = KeySpace::Email.key(idx);
            match rng.gen_range(0..20) {
                0..=7 => {
                    w.get(&key);
                }
                8..=12 => w.insert(&key, &value_for(idx, step)),
                13..=16 => {
                    w.update(&key, &value_for(idx, step));
                }
                _ => {
                    w.remove(&key);
                }
            }
        }
        let s = w.net_stats();
        let got = [
            s.round_trips,
            s.doorbells,
            s.reads + s.writes + s.cas + s.faa + s.frees,
            s.bytes_read + s.bytes_written,
            s.cas,
            w.clock_ns(),
        ];
        assert_eq!(got, want, "{}", sys.label());
    }
}
