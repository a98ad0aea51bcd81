//! Post-concurrency integrity audits and cost-model determinism.

use bench_harness::systems::{System, SystemHandle};
use ycsb::KeySpace;

/// After a multi-threaded write storm settles, the remote structure must
/// pass the full `verify()` audit: prefix hashes, hash-table entries,
/// checksums, dispatch bytes — everything.
#[test]
fn sphinx_verifies_clean_after_write_storm() {
    let handle = System::Sphinx.build(256 << 20, Some(64 << 10));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let handle = handle.clone();
            s.spawn(move || {
                let mut w = handle.worker((t % 3) as u16);
                for i in 0..400u64 {
                    let idx = (t * 131 + i * 7) % 500;
                    let key = KeySpace::Email.key(idx);
                    if i % 3 == 0 {
                        let _ = w.update(&key, &[t as u8; 40]);
                    } else {
                        w.insert(&key, &[t as u8; 40]);
                    }
                }
            });
        }
    });
    let SystemHandle::Sphinx(index) = &handle else {
        unreachable!()
    };
    let report = index.verify().expect("verify");
    assert!(report.is_clean(), "violations: {:#?}", report.problems);
    assert!(report.inner_nodes > 5);
    assert!(report.leaves >= 400, "leaves: {}", report.leaves);
}

/// The baselines must also pass their structural audit after a storm.
#[test]
fn baselines_verify_clean_after_write_storm() {
    for sys in [System::Smart, System::Art] {
        let handle = sys.build(256 << 20, Some(64 << 10));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let handle = handle.clone();
                s.spawn(move || {
                    let mut w = handle.worker((t % 3) as u16);
                    for i in 0..300u64 {
                        let idx = (t * 101 + i * 11) % 400;
                        w.insert(&KeySpace::Email.key(idx), &[t as u8; 24]);
                    }
                });
            }
        });
        let SystemHandle::Baseline(index) = &handle else {
            unreachable!()
        };
        let report = index.verify().expect("verify");
        assert!(
            report.is_clean(),
            "{}: violations: {:#?}",
            sys.label(),
            report.problems
        );
        assert!(report.leaves >= 300, "{}: {}", sys.label(), report.leaves);
    }
}

/// A pipelined multi-get must agree with sequential gets even while writers churn
/// the same keys (values are checked for integrity, not freshness — the
/// batch is not a snapshot).
#[test]
fn multi_get_is_safe_under_concurrent_writes() {
    let handle = System::Sphinx.build(128 << 20, Some(64 << 10));
    {
        let mut w = handle.worker(0);
        for i in 0..200u64 {
            w.insert(&KeySpace::U64.key(i), &[7u8; 32]);
        }
    }
    // Set when the reader is done *or panics*: the scope joins the writer
    // before it lets a panic out, so a writer only stopped on the success
    // path turns a reader failure into a hang.
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let h = handle.clone();
        let stop_ref = &stop;
        let _stop_writer = StopOnDrop(&stop);
        s.spawn(move || {
            let mut w = h.worker(1);
            let mut round = 0u8;
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                round = round.wrapping_add(1);
                for i in (0..200u64).step_by(3) {
                    w.update(&KeySpace::U64.key(i), &[round; 32]);
                }
            }
        });

        let SystemHandle::Sphinx(index) = &handle else {
            unreachable!()
        };
        let mut reader = index.client(2).expect("client");
        let keys: Vec<Vec<u8>> = (0..200u64).map(|i| KeySpace::U64.key(i)).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for _ in 0..30 {
            let results = reader.get_many_pipelined(&refs, 8).expect("multi_get");
            for (key, res) in refs.iter().zip(results) {
                let v =
                    res.unwrap_or_else(|| panic!("key {:?} lost", String::from_utf8_lossy(key)));
                assert_eq!(v.len(), 32);
                assert!(
                    v.iter().all(|&b| b == v[0]),
                    "torn value from a pipelined get: {v:?}"
                );
            }
        }
    });
}

/// YCSB-A on two identically built and loaded Sphinx trees: the virtual-time
/// cost model must reproduce exactly — Mops, latencies, network cost per op
/// and the telemetry and metrics exports byte for byte. The runner steps
/// its workers in clock order on one thread, so this holds at any worker
/// count and pipeline depth — a regression guard for the simulator and the
/// runner.
fn virtual_time_is_deterministic(workers: usize, depth: usize) {
    use bench_harness::runner::{load_phase, run_phase, RunConfig};
    use ycsb::Workload;

    let run = || {
        let handle = System::Sphinx.build(64 << 20, Some(32 << 10));
        load_phase(&handle, KeySpace::U64, 3_000, workers.min(8));
        let r = run_phase(
            &handle,
            &RunConfig {
                keyspace: KeySpace::U64,
                num_keys: 3_000,
                workload: Workload::a(),
                workers,
                ops_per_worker: 500,
                warmup_per_worker: 100,
                seed: 0xD00D,
                pipeline_depth: depth,
                trace_head_every: 0,
                trace_tail_k: obs::DEFAULT_TAIL_K,
                sample_interval_ns: 0,
            },
        );
        let bits = [
            r.mops,
            r.avg_latency_us,
            r.p99_latency_us,
            r.round_trips_per_op,
            r.doorbells_per_op,
            r.bytes_per_op,
        ]
        .map(f64::to_bits);
        (
            bits,
            r.total_ops,
            r.telemetry.to_json(),
            r.metrics.to_json(),
        )
    };
    assert_eq!(
        run(),
        run(),
        "{workers} workers at depth {depth}: virtual time must be bit-identical"
    );
}

#[test]
fn single_worker_virtual_time_is_deterministic() {
    virtual_time_is_deterministic(1, 1);
}

#[test]
fn many_workers_virtual_time_is_deterministic() {
    virtual_time_is_deterministic(24, 1);
    virtual_time_is_deterministic(24, 8);
}

/// `sphinx-bench delete-churn` at test scale: 35 % insert / 35 % delete /
/// 30 % get over email keys from one thread. Deletes used to leave every
/// emptied inner node linked — lookups diverging there never ended, the
/// audit miscounted, and the garbage stayed allocated. Now the churn runs
/// clean, the audit counts exactly the model's keys, no emptied node is
/// left behind, and MN memory per live key stays near where the preload
/// put it: ≈ 1.2× (nodes that keep one child are not merged and grown
/// nodes do not shrink — the paper's Delete does neither), where the
/// ≈ 15 800 nodes this run empties would, left allocated, make it ≥ 1.6×.
#[test]
fn single_threaded_delete_churn_leaves_no_garbage() {
    use integration_tests::mix64;
    const PRELOAD: u64 = 10_000;
    const OPS: u64 = 200_000;

    let handle = System::Sphinx.build(128 << 20, Some((PRELOAD / 3) as usize));
    let mut w = handle.worker(0);
    let mut live: Vec<u64> = (0..PRELOAD).collect();
    for &idx in &live {
        w.insert(&KeySpace::Email.key(idx), &ycsb::value_for(idx, 0));
    }
    let bytes_per_key = |live: usize| handle.cluster().total_live_bytes() as f64 / live as f64;
    let preload_bytes_per_key = bytes_per_key(live.len());

    let (mut next, mut rng) = (PRELOAD, 1u64);
    for n in 0..OPS {
        rng = mix64(rng);
        let pick = (rng >> 32) as usize % live.len();
        match rng % 100 {
            0..=34 => {
                w.insert(&KeySpace::Email.key(next), &ycsb::value_for(next, 0));
                live.push(next);
                next += 1;
            }
            35..=69 => {
                let idx = live.swap_remove(pick);
                assert!(
                    w.remove(&KeySpace::Email.key(idx)),
                    "op {n}: live {idx} missing"
                );
            }
            _ => {
                let idx = live[pick];
                assert!(
                    w.get(&KeySpace::Email.key(idx)).is_some(),
                    "op {n}: lost {idx}"
                );
            }
        }
    }

    let SystemHandle::Sphinx(index) = &handle else {
        unreachable!()
    };
    let report = index.verify().expect("verify");
    assert!(report.is_clean(), "violations: {:#?}", report.problems);
    assert_eq!(report.leaves, live.len(), "audit and model disagree");
    assert_eq!(report.empty_inner_nodes, 0);
    assert!(w.reclaim_quiesce(64), "limbo list did not drain");
    let after = bytes_per_key(live.len());
    assert!(
        after <= preload_bytes_per_key * 1.3,
        "MN bytes per live key grew from {preload_bytes_per_key:.1} to {after:.1}"
    );
}
