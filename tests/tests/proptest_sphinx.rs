//! Property tests: the full Sphinx index (hash table, filter cache,
//! remote ART, checksummed leaves — the whole stack over the simulated
//! cluster) agrees with `BTreeMap` on arbitrary operation sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dm_sim::{ClusterConfig, DmCluster};
use sphinx::{CacheMode, SphinxConfig, SphinxIndex};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Update(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Get(Vec<u8>),
    Scan(Vec<u8>, Vec<u8>),
    MultiGet(Vec<Vec<u8>>),
    ScanN(Vec<u8>, usize),
    ScanIter(Vec<u8>, usize),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![3 => 0u8..4, 1 => any::<u8>()], 0..8)
}

fn val_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..80)
}

/// Scan bounds: arbitrary pairs, plus the shapes that decide where a scan
/// enters the tree — equal bounds, `low` a proper prefix of `high`, an
/// empty `low`, and bounds longer than any stored key (keys are < 8 bytes).
fn bounds_strategy() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let tail = |len| proptest::collection::vec(any::<u8>(), len);
    prop_oneof![
        3 => (key_strategy(), key_strategy()),
        1 => key_strategy().prop_map(|k| (k.clone(), k)),
        1 => (key_strategy(), tail(1..4)).prop_map(|(k, t)| (k.clone(), [k, t].concat())),
        1 => key_strategy().prop_map(|k| (Vec::new(), k)),
        1 => (key_strategy(), tail(8..12), tail(8..12))
            .prop_map(|(k, a, b)| ([k.clone(), a].concat(), [k, b].concat())),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), val_strategy()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (key_strategy(), val_strategy()).prop_map(|(k, v)| Op::Update(k, v)),
        1 => key_strategy().prop_map(Op::Remove),
        2 => key_strategy().prop_map(Op::Get),
        2 => bounds_strategy().prop_map(|(a, b)| Op::Scan(a, b)),
        1 => proptest::collection::vec(key_strategy(), 1..8).prop_map(Op::MultiGet),
        1 => (key_strategy(), 0usize..12).prop_map(|(k, n)| Op::ScanN(k, n)),
        1 => (key_strategy(), 1usize..10).prop_map(|(k, n)| Op::ScanIter(k, n)),
    ]
}

fn check_mode(mode: CacheMode, ops: &[Op]) -> Result<(), TestCaseError> {
    let cluster = DmCluster::new(ClusterConfig {
        mn_capacity: 32 << 20,
        ..ClusterConfig::default()
    });
    let config = SphinxConfig {
        mode,
        ..SphinxConfig::small()
    };
    let index = SphinxIndex::create(&cluster, config).expect("create");
    let mut client = index.client(0).expect("client");
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Insert(k, v) => {
                client.insert(k, v).expect("insert");
                oracle.insert(k.clone(), v.clone());
            }
            Op::Update(k, v) => {
                let did = client.update(k, v).expect("update");
                prop_assert_eq!(did, oracle.contains_key(k));
                if did {
                    oracle.insert(k.clone(), v.clone());
                }
            }
            Op::Remove(k) => {
                let did = client.remove(k).expect("remove");
                prop_assert_eq!(did, oracle.remove(k).is_some());
            }
            Op::Get(k) => {
                prop_assert_eq!(client.get(k).expect("get"), oracle.get(k).cloned());
            }
            Op::Scan(a, b) => {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let got = client.scan(low, high).expect("scan");
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..=high.clone())
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want);
            }
            Op::MultiGet(keys) => {
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let got = client.get_many_pipelined(&refs, 4).expect("multi_get");
                for (k, g) in refs.iter().zip(got) {
                    prop_assert_eq!(g, oracle.get(*k).cloned(), "multi_get {:?}", k);
                }
            }
            Op::ScanN(low, n) => {
                let got = client.scan_n(low, *n).expect("scan_n");
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..)
                    .take(*n)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want);
            }
            Op::ScanIter(low, n) => {
                let got: Vec<(Vec<u8>, Vec<u8>)> = client
                    .scan_iter(low)
                    .with_page_size(3) // force paging
                    .take(*n)
                    .map(|r| r.expect("scan_iter"))
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..)
                    .take(*n)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }
    // Closing sweep.
    for (k, v) in &oracle {
        prop_assert_eq!(client.get(k).expect("get"), Some(v.clone()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sphinx_filter_cache_matches_btreemap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        check_mode(CacheMode::FilterCache, &ops)?;
    }

    #[test]
    fn sphinx_inht_only_matches_btreemap(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        check_mode(CacheMode::InhtOnly, &ops)?;
    }
}
