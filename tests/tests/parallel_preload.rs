//! ROADMAP item 1(i): the parallel preload every figure starts with, alone.
//! Eight loaders insert 20 000 u64 keys, then 20 000 email keys into a fresh
//! index (`runner::load_phase`, as `figs` runs it); afterwards `verify()`
//! must be clean and every key must read back its value.
//!
//! Ignored: on a two-core host the preload loses inserts or wedges (every
//! loader dies on `RetriesExhausted`) in a fraction of runs. docs/TESTING.md
//! records how many of ten runs fail per system. Run with
//!
//! ```text
//! cargo test --release -p integration-tests --test parallel_preload -- --ignored
//! ```

use bench_harness::{load_phase, System, SystemHandle};
use ycsb::{value_for, KeySpace};

const KEYS: u64 = 20_000;
const LOADERS: usize = 8;

fn preload_is_complete_and_clean(system: System) {
    for keyspace in [KeySpace::U64, KeySpace::Email] {
        let label = format!("{} {}", system.label(), keyspace.name());
        let handle = system.build_scaled(64 << 20, KEYS, LOADERS + 1);
        load_phase(&handle, keyspace, KEYS, LOADERS);
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
