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
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let h = handle.clone();
        let stop_ref = &stop;
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
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}

/// With a single worker there is no scheduling nondeterminism, so the
/// virtual-time cost model must be exactly reproducible — a regression
/// guard for the simulator.
#[test]
fn single_worker_virtual_time_is_deterministic() {
    use bench_harness::runner::{load_phase, run_phase, RunConfig};
    use ycsb::Workload;

    let run = || {
        let handle = System::Sphinx.build(64 << 20, Some(32 << 10));
        load_phase(&handle, KeySpace::U64, 3_000, 1);
        let r = run_phase(
            &handle,
            &RunConfig {
                keyspace: KeySpace::U64,
                num_keys: 3_000,
                workload: Workload::a(),
                workers: 1,
                ops_per_worker: 500,
                warmup_per_worker: 100,
                seed: 0xD00D,
                pipeline_depth: 1,
                trace_head_every: 0,
                trace_tail_k: obs::DEFAULT_TAIL_K,
                sample_interval_ns: 0,
                sample_capacity: 0,
            },
        );
        (r.mops.to_bits(), r.avg_latency_us.to_bits(), r.total_ops)
    };
    assert_eq!(
        run(),
        run(),
        "single-worker virtual time must be bit-identical"
    );
}
