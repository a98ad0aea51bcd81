//! Substrate stress tests: heavier, longer-running checks of the DM
//! simulator, the RACE table under mixed concurrent churn, and the
//! filter's statistical behaviour at the paper's operating points.

use dm_sim::{ClusterConfig, DmCluster, DoorbellBatch, NetConfig, Verb, VerbResult};
use integration_tests::mix64 as mix;
use race_hash::{RaceTable, TableConfig};

#[test]
fn heap_survives_concurrent_mixed_verbs() {
    // 6 clients hammer disjoint and shared regions with every verb type;
    // counters and disjoint regions must come out exact.
    let cluster = DmCluster::new(ClusterConfig {
        num_mns: 2,
        num_cns: 3,
        mn_capacity: 4 << 20,
        ..Default::default()
    });
    let shared = cluster.mn(0).unwrap().alloc(8).unwrap();
    let threads = 6u64;
    let per = 2_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let cluster = cluster.clone();
            s.spawn(move || {
                let mut cl = cluster.client((t % 3) as u16);
                let private = cl.alloc((t % 2) as u16, 256).unwrap();
                for i in 0..per {
                    // Private region: write-read roundtrip must be exact.
                    let payload = [((t * 37 + i) % 251) as u8; 64];
                    cl.write(private, &payload).unwrap();
                    assert_eq!(cl.read(private, 64).unwrap(), payload, "t{t} i{i}");
                    // Shared counter via FAA.
                    cl.faa(shared, 1).unwrap();
                    // Doorbell batch spanning both MNs.
                    let mut batch = DoorbellBatch::new();
                    batch.push(Verb::Read {
                        ptr: private,
                        len: 8,
                    });
                    batch.push(Verb::Read {
                        ptr: shared,
                        len: 8,
                    });
                    let res = cl.execute(batch).unwrap();
                    assert!(matches!(res[0], VerbResult::Read(_)));
                }
                cl.free(private).unwrap();
            });
        }
    });
    let total = cluster.mn(0).unwrap().load_u64(shared.offset()).unwrap();
    assert_eq!(total, threads * per, "FAA lost increments");
}

#[test]
fn fluid_queue_saturates_at_capacity() {
    // Offered load beyond NIC capacity must produce completion times that
    // stretch to (work / capacity): the saturation mechanics behind Fig. 5.
    let net = NetConfig {
        rtt_ns: 1000,
        msg_ns: 100,
        byte_ns_x1000: 0,
        client_op_ns: 0,
    };
    let cluster = DmCluster::new(ClusterConfig {
        num_mns: 1,
        num_cns: 1,
        mn_capacity: 1 << 20,
        net,
        ..Default::default()
    });
    let ptr = cluster.mn(0).unwrap().alloc(8).unwrap();
    // 1000 batches arriving "simultaneously" at t=0 from one client whose
    // clock we pin: service = 100 ns each → last completion ≥ 100 µs.
    let mut cl = cluster.client(0);
    let mut last = 0;
    for _ in 0..1000 {
        cl.set_clock_ns(0);
        cl.read(ptr, 8).unwrap();
        last = last.max(cl.clock_ns());
    }
    assert!(
        last >= 1000 * 100,
        "backlog should stretch completions to work/capacity: {last}"
    );
}

#[test]
fn race_table_concurrent_mixed_churn() {
    // Four clients interleave inserts, removes and replaces over an
    // overlapping key population while the table grows through splits;
    // final state must equal the per-key last-operation outcome computed
    // from a deterministic schedule.
    let cluster = DmCluster::new(ClusterConfig {
        num_mns: 1,
        num_cns: 2,
        mn_capacity: 64 << 20,
        ..Default::default()
    });
    let mut boot = cluster.client(0);
    let meta = RaceTable::create(
        &mut boot,
        0,
        &TableConfig {
            initial_depth: 1,
            max_depth: 12,
        },
    )
    .unwrap();

    let keys_per_thread = 600u64;
    let threads = 4u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let cluster = cluster.clone();
            s.spawn(move || {
                let mut cl = cluster.client((t % 2) as u16);
                let mut table = RaceTable::open(&mut cl, meta).unwrap();
                let oracle = |_c: &mut dm_sim::DmClient, ws: Vec<u64>| {
                    Ok(ws.iter().map(|w| w & ((1 << 42) - 1)).collect())
                };
                // Each thread owns a disjoint key set: ops on them are
                // exactly reproducible.
                for i in 0..keys_per_thread {
                    let h = mix(t * keys_per_thread + i);
                    let w = (h & ((1 << 42) - 1)) | (1 << 43);
                    table.insert(&mut cl, h, w, oracle).unwrap();
                    match i % 3 {
                        0 => {
                            // leave as inserted
                        }
                        1 => {
                            assert!(table.replace(&mut cl, h, w, w | 1 << 50).unwrap());
                        }
                        _ => {
                            assert!(table.remove(&mut cl, h, w).unwrap());
                        }
                    }
                }
            });
        }
    });

    let mut cl = cluster.client(0);
    let mut table = RaceTable::open(&mut cl, meta).unwrap();
    for t in 0..threads {
        for i in 0..keys_per_thread {
            let h = mix(t * keys_per_thread + i);
            let w = (h & ((1 << 42) - 1)) | (1 << 43);
            let found = table.search(&mut cl, h).unwrap();
            match i % 3 {
                0 => assert!(
                    found.iter().any(|e| e.word == w),
                    "plain insert lost (t{t} i{i})"
                ),
                1 => assert!(
                    found.iter().any(|e| e.word == (w | 1 << 50)),
                    "replace lost (t{t} i{i})"
                ),
                _ => assert!(
                    !found
                        .iter()
                        .any(|e| e.word & ((1 << 42) - 1) == w & ((1 << 42) - 1)),
                    "remove resurrected (t{t} i{i})"
                ),
            }
        }
    }
    let stats = table.stats(&mut cl).unwrap();
    assert_eq!(stats.entries as u64, threads * keys_per_thread * 2 / 3);
}

#[test]
fn filter_false_positive_rate_at_paper_operating_point() {
    // §III-B: "a 10-bit fingerprint per item is sufficient for <1% false
    // positives". We run 12-bit fingerprints at 85% occupancy — the rate
    // must stay well under 1%.
    let mut f = cuckoo::CuckooFilter::with_capacity_and_seed(1 << 16, 11);
    let target = (f.capacity() as f64 * 0.85) as u64;
    let mut inserted = 0u64;
    let mut i = 0u64;
    while inserted < target {
        f.insert(&mix(i).to_le_bytes());
        inserted = f.len() as u64;
        i += 1;
    }
    let probes = 200_000u64;
    let fps = (0..probes)
        .filter(|j| f.contains_quiet(&(0xDEAD_0000_0000 + j).to_le_bytes()))
        .count();
    let rate = fps as f64 / probes as f64;
    assert!(rate < 0.01, "fp rate at 85% load: {rate}");
}

#[test]
fn latest_distribution_tracks_inserts_through_the_stack() {
    // Workload D end-to-end: inserts grow the population while "latest"
    // reads must keep finding the newest keys (a cross-check of cursor,
    // distribution and index together).
    use bench_harness::systems::System;
    use ycsb::{value_for, KeySpace, Op, OpStream, Workload};

    let handle = System::Sphinx.build(128 << 20, Some(64 << 10));
    let mut w = handle.worker(0);
    let preloaded = 2_000u64;
    for i in 0..preloaded {
        w.insert(&KeySpace::U64.key(i), &value_for(i, 0));
    }
    let mut stream = OpStream::new(
        Workload {
            insert: 0.05,
            read: 0.95,
            update: 0.0,
            ..Workload::d()
        },
        preloaded,
        9,
    );
    let mut found = 0u64;
    let mut reads = 0u64;
    for _ in 0..4_000 {
        match stream.next_op() {
            Op::Insert(idx) => w.insert(&KeySpace::U64.key(idx), &value_for(idx, 0)),
            Op::Read(idx) => {
                reads += 1;
                if w.get(&KeySpace::U64.key(idx)).is_some() {
                    found += 1;
                }
            }
            _ => {}
        }
    }
    // Every "latest" read targets a key that has been inserted (preloaded
    // or by this stream), so the hit rate must be ~100%.
    assert!(
        found as f64 / reads as f64 > 0.999,
        "latest reads missed fresh inserts: {found}/{reads}"
    );
}

const KINDS: [art_core::NodeKind; 4] = [
    art_core::NodeKind::Node4,
    art_core::NodeKind::Node16,
    art_core::NodeKind::Node48,
    art_core::NodeKind::Node256,
];

/// The node census of the path-compressed ART over `keys`, from the sorted,
/// deduplicated keys alone: every inner node is the longest common prefix
/// of two adjacent keys, its children are the next bytes those pairs show,
/// its kind is the smallest that holds them, and a key equal to a node's
/// prefix is that node's inner value. Returns the inner-node count per kind
/// (Node4, Node16, Node48, Node256), the leaves and the inner values.
fn art_census(mut keys: Vec<Vec<u8>>) -> ([usize; 4], usize, usize) {
    use art_core::key::common_prefix_len;
    use std::collections::{BTreeMap, BTreeSet};

    keys.sort_unstable();
    keys.dedup();
    let mut nodes: BTreeMap<&[u8], BTreeSet<u8>> = BTreeMap::new();
    for pair in keys.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let at = common_prefix_len(a, b);
        let children = nodes.entry(&a[..at]).or_default();
        children.extend(a.get(at).into_iter().chain(b.get(at)).copied());
    }
    let mut kinds = [0; 4];
    for children in nodes.values() {
        let kind = KINDS.iter().position(|k| children.len() <= k.capacity());
        kinds[kind.expect("at most 256 children")] += 1;
    }
    let inner_values = keys
        .iter()
        .filter(|k| nodes.contains_key(k.as_slice()))
        .count();
    (kinds, keys.len() - inner_values, inner_values)
}

/// Cross-validation of the memory accounting: loading the same keys into
/// remote Sphinx, the estimate built from the keys' node census (node
/// sizes of `art_core::layout` plus one leaf per key) must agree with the
/// allocator's measured live bytes (within size-class rounding and
/// hash-table exclusion), and the census with the remote tree's shape. Both
/// key spaces: email keys reach Node16 and Node48, u64 keys barely do.
#[test]
fn census_estimate_matches_measured_art_bytes() {
    use art_core::layout::{InnerNode, LeafNode};
    use bench_harness::systems::{System, SystemHandle};
    use ycsb::{value_for, KeySpace, VALUE_LEN};

    let n = 20_000u64;
    for space in [KeySpace::U64, KeySpace::Email] {
        let keys: Vec<Vec<u8>> = (0..n).map(|i| space.key(i)).collect();
        let avg_key_len = keys.iter().map(Vec::len).sum::<usize>() / keys.len();
        let (kinds, leaves, inner_values) = art_census(keys);
        let inner_bytes: usize = (0..4)
            .map(|i| kinds[i] * InnerNode::byte_size(KINDS[i]))
            .sum();
        let leaf_bytes = (leaves + inner_values) * LeafNode::encoded_size(avg_key_len, VALUE_LEN);
        let estimate = (inner_bytes + leaf_bytes) as u64;

        // Remote tree over the same keys.
        let handle = System::Sphinx.build(1 << 30, Some(64 << 10));
        {
            let mut w = handle.worker(0);
            for i in 0..n {
                w.insert(&space.key(i), &value_for(i, 0));
            }
        }
        let SystemHandle::Sphinx(index) = &handle else {
            unreachable!()
        };
        let measured = index.space_breakdown().expect("space").art_bytes;

        let ratio = measured as f64 / estimate as f64;
        assert!(
            (0.9..1.4).contains(&ratio),
            "{space:?}: accounting drift: estimate {estimate}, measured {measured} (ratio {ratio:.3})"
        );
        // And the structures themselves must agree.
        let remote = index.verify().expect("verify");
        assert_eq!(
            remote.inner_nodes,
            kinds.iter().sum::<usize>(),
            "{space:?}: inner node counts differ"
        );
        assert_eq!(
            remote.leaves,
            leaves + inner_values,
            "{space:?}: leaf counts differ"
        );
    }
}
