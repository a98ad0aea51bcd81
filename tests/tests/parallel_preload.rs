//! ROADMAP item 1(i): a parallel preload, alone. Eight loader threads insert
//! 20 000 u64 keys, then 20 000 email keys into a fresh index, loader `w`
//! inserting indexes `w`, `w + 8`, … (the split `runner::load_phase` makes,
//! on real threads); afterwards `verify()` must be clean and every key must
//! read back its value.
//!
//! Ignored: on a two-core host the preload loses inserts or wedges (every
//! loader dies on `RetriesExhausted`) in a fraction of runs. docs/TESTING.md
//! records how many of ten runs fail per system. Run with
//!
//! ```text
//! cargo test --release -p integration-tests --test parallel_preload -- --ignored
//! ```

use bench_harness::{System, SystemHandle, WorkerClient};
use ycsb::{value_for, KeySpace};

const KEYS: u64 = 20_000;
const LOADERS: usize = 8;

/// Loads `num_keys` keys through `loaders` concurrent threads, one client
/// each, round-robin over the CNs; every loader leaves epoch gating when it
/// is done.
fn threaded_load(handle: &SystemHandle, keyspace: KeySpace, num_keys: u64, loaders: usize) {
    let num_cns = handle.cluster().num_cns() as usize;
    let clients: Vec<WorkerClient> = (0..loaders)
        .map(|w| handle.worker((w % num_cns) as u16))
        .collect();
    std::thread::scope(|s| {
        for (w, mut client) in clients.into_iter().enumerate() {
            s.spawn(move || {
                let mut i = w as u64;
                while i < num_keys {
                    client.insert(&keyspace.key(i), &value_for(i, 0));
                    i += loaders as u64;
                }
                client.reclaim_deregister();
            });
        }
    });
    handle.cluster().reset_network();
}

fn preload_is_complete_and_clean(system: System) {
    for keyspace in [KeySpace::U64, KeySpace::Email] {
        let label = format!("{} {}", system.label(), keyspace.name());
        let handle = system.build_scaled(64 << 20, KEYS, LOADERS + 1);
        threaded_load(&handle, keyspace, KEYS, LOADERS);
        let problems = match &handle {
            SystemHandle::Sphinx(idx) => idx.verify().expect("verify").problems,
            SystemHandle::Baseline(idx) => idx.verify().expect("verify").problems,
            SystemHandle::BpTree(_) => unreachable!("the B+-tree is not an ART"),
        };
        assert!(problems.is_empty(), "{label}: {problems:?}");
        let mut reader = handle.worker(0);
        let lost: Vec<u64> = (0..KEYS)
            .filter(|&i| reader.get(&keyspace.key(i)) != Some(value_for(i, 0)))
            .collect();
        assert!(
            lost.is_empty(),
            "{label}: {} of {KEYS} keys lost, the first {:?}",
            lost.len(),
            &lost[..lost.len().min(8)]
        );
    }
}

#[test]
#[ignore = "ROADMAP item 1"]
fn sphinx_parallel_preload_is_complete_and_clean() {
    preload_is_complete_and_clean(System::Sphinx);
}

#[test]
#[ignore = "ROADMAP item 1"]
fn smart_parallel_preload_is_complete_and_clean() {
    preload_is_complete_and_clean(System::Smart);
}

#[test]
#[ignore = "ROADMAP item 1"]
fn art_parallel_preload_is_complete_and_clean() {
    preload_is_complete_and_clean(System::Art);
}
