//! Property tests for variable-length key edge cases, through the uniform
//! [`WorkerClient`] facade against a `BTreeMap` model: empty keys, 1-byte
//! keys, 512-byte keys, and long shared prefixes differing only in the
//! last byte — plus `scan` / `scan_n` boundary semantics at the range
//! edges. The fixed-width B+-tree gets the same treatment over u64
//! boundary keys (0, 1, MAX-1, MAX) since it cannot represent the
//! variable-length cases, which is the point of the comparison.

use std::collections::BTreeMap;

use proptest::prelude::*;

use bench_harness::systems::{System, WorkerClient};

#[derive(Debug, Clone)]
enum Step {
    Insert(Vec<u8>, Vec<u8>),
    Update(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Get(Vec<u8>),
    Scan(Vec<u8>, Vec<u8>),
    ScanN(Vec<u8>, usize),
    MultiGet(Vec<Vec<u8>>),
}

/// Keys biased hard toward the edge cases this suite exists for.
fn edge_key() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        // Empty key (the shortest possible).
        1 => Just(Vec::new()),
        // 1-byte keys.
        2 => any::<u8>().prop_map(|b| vec![b]),
        // 512-byte keys sharing 511 bytes, differing only in the last.
        1 => (0u8..3, any::<u8>()).prop_map(|(fill, last)| {
            let mut k = vec![fill; 512];
            k[511] = last;
            k
        }),
        // Long shared ASCII prefix, last byte varies over a small set so
        // collisions between steps are frequent.
        3 => (0u8..6).prop_map(|last| {
            let mut k = b"shared-prefix/shared-prefix/shared-prefix".to_vec();
            k.push(last);
            k
        }),
        // Short general keys (covers prefix-of-another-key shapes).
        3 => proptest::collection::vec(any::<u8>(), 0..6),
    ]
    .boxed()
}

/// u64 boundary keys for the fixed-width B+-tree, as 8-byte big-endian.
fn bp_edge_key() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        2 => Just(0u64),
        2 => Just(1u64),
        2 => Just(u64::MAX - 1),
        2 => Just(u64::MAX),
        3 => any::<u64>(),
    ]
    .prop_map(|k| k.to_be_bytes().to_vec())
    .boxed()
}

/// The two ends of a scan, in either order.
type Bounds = (Vec<u8>, Vec<u8>);

/// Scan bounds over the edge keys: arbitrary pairs, plus the shapes that
/// decide where a Sphinx scan enters the tree — equal bounds, `low` a
/// proper prefix of `high`, an empty `low`, and bounds longer than any
/// stored key (520 bytes against at most 512).
fn edge_bounds() -> BoxedStrategy<Bounds> {
    let padded = || {
        (edge_key(), any::<u8>()).prop_map(|(mut k, fill)| {
            k.resize(520, fill);
            k
        })
    };
    prop_oneof![
        3 => (edge_key(), edge_key()),
        1 => edge_key().prop_map(|k| (k.clone(), k)),
        1 => (edge_key(), proptest::collection::vec(any::<u8>(), 1..4))
            .prop_map(|(k, tail)| (k.clone(), [k, tail].concat())),
        1 => edge_key().prop_map(|k| (Vec::new(), k)),
        1 => (padded(), padded()),
    ]
    .boxed()
}

/// Fixed-width bounds: arbitrary pairs and the degenerate range.
fn bp_bounds() -> BoxedStrategy<Bounds> {
    prop_oneof![
        3 => (bp_edge_key(), bp_edge_key()),
        1 => bp_edge_key().prop_map(|k| (k.clone(), k)),
    ]
    .boxed()
}

fn val() -> impl Strategy<Value = Vec<u8>> {
    // ≤ 62 bytes: the facade's B+-tree value budget (length-prefixed
    // 64-byte slots); the variable-length systems share the bound so one
    // strategy serves all.
    proptest::collection::vec(any::<u8>(), 0..60)
}

fn step_strategy(
    key: fn() -> BoxedStrategy<Vec<u8>>,
    bounds: fn() -> BoxedStrategy<Bounds>,
) -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (key(), val()).prop_map(|(k, v)| Step::Insert(k, v)),
        1 => (key(), val()).prop_map(|(k, v)| Step::Update(k, v)),
        1 => key().prop_map(Step::Remove),
        2 => key().prop_map(Step::Get),
        2 => bounds().prop_map(|(a, b)| Step::Scan(a, b)),
        1 => (key(), 0usize..5).prop_map(|(k, n)| Step::ScanN(k, n)),
        1 => proptest::collection::vec(key(), 1..5).prop_map(Step::MultiGet),
    ]
}

fn run_model(system: System, steps: &[Step]) -> Result<(), TestCaseError> {
    let handle = system.build(64 << 20, Some(64 << 10));
    let mut w: WorkerClient = handle.worker(0);
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let label = system.label();

    for step in steps {
        match step {
            Step::Insert(k, v) => {
                w.insert(k, v);
                oracle.insert(k.clone(), v.clone());
            }
            Step::Update(k, v) => {
                let did = w.update(k, v);
                prop_assert_eq!(did, oracle.contains_key(k), "{} update", label);
                if did {
                    oracle.insert(k.clone(), v.clone());
                }
            }
            Step::Remove(k) => {
                let did = w.remove(k);
                prop_assert_eq!(did, oracle.remove(k).is_some(), "{} remove", label);
            }
            Step::Get(k) => {
                prop_assert_eq!(w.get(k), oracle.get(k).cloned(), "{} get {:02x?}", label, k);
            }
            Step::Scan(a, b) => {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let got = w.scan_pairs(low, high);
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..=high.clone())
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want, "{} scan [{:02x?}, {:02x?}]", label, low, high);
            }
            Step::ScanN(low, n) => {
                let got = w.scan_n(low, *n);
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..)
                    .take(*n)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want, "{} scan_n from {:02x?}", label, low);
            }
            Step::MultiGet(keys) => {
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let got = w.multi_get_pipelined(&refs, 4);
                for (k, g) in refs.iter().zip(got) {
                    prop_assert_eq!(g, oracle.get(*k).cloned(), "{} multi_get {:02x?}", label, k);
                }
            }
        }
    }
    // Closing sweep: everything the model holds must be readable, and a
    // full-range scan must agree pair-for-pair.
    for (k, v) in &oracle {
        prop_assert_eq!(w.get(k), Some(v.clone()), "{} closing get", label);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sphinx_edge_keys_match_btreemap(
        steps in proptest::collection::vec(step_strategy(edge_key, edge_bounds), 1..60),
    ) {
        run_model(System::Sphinx, &steps)?;
    }

    #[test]
    fn art_edge_keys_match_btreemap(
        steps in proptest::collection::vec(step_strategy(edge_key, edge_bounds), 1..50),
    ) {
        run_model(System::Art, &steps)?;
    }

    #[test]
    fn bptree_boundary_keys_match_btreemap(
        steps in proptest::collection::vec(step_strategy(bp_edge_key, bp_bounds), 1..60),
    ) {
        run_model(System::BpTree, &steps)?;
    }
}

/// Deterministic boundary checks: both scan edges are inclusive, a
/// degenerate `[k, k]` range returns exactly `k`, and `scan_n` starts at
/// `low` when present and at its successor when absent — for all three
/// systems through the same facade.
#[test]
fn scan_bounds_inclusive_at_both_edges() {
    for system in [System::Sphinx, System::Art, System::BpTree] {
        let handle = system.build(64 << 20, Some(64 << 10));
        let mut w = handle.worker(0);
        let key = |i: u64| i.to_be_bytes().to_vec();
        for i in [10u64, 20, 30] {
            w.insert(&key(i), format!("v{i}").as_bytes());
        }
        let label = system.label();
        assert_eq!(w.scan(&key(10), &key(30)), 3, "{label}: both edges in");
        assert_eq!(w.scan(&key(11), &key(29)), 1, "{label}: interior only");
        assert_eq!(
            w.scan_pairs(&key(20), &key(20)),
            vec![(key(20), b"v20".to_vec())],
            "{label}: degenerate range is the key itself"
        );
        assert_eq!(w.scan(&key(31), &key(9)), 0, "{label}: inverted+empty");
        let from_present = w.scan_n(&key(20), 2);
        assert_eq!(
            from_present
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>(),
            vec![key(20), key(30)],
            "{label}: scan_n low is inclusive"
        );
        let from_absent = w.scan_n(&key(21), 5);
        assert_eq!(
            from_absent
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>(),
            vec![key(30)],
            "{label}: scan_n skips to the successor"
        );
    }
}

/// The variable-length corner the B+-tree cannot express: an empty key, a
/// 1-byte key, and two 512-byte keys differing in their last byte coexist
/// and sort correctly.
#[test]
fn extreme_key_lengths_coexist() {
    for system in [System::Sphinx, System::Art] {
        let handle = system.build(64 << 20, Some(64 << 10));
        let mut w = handle.worker(0);
        let long_a = {
            let mut k = vec![7u8; 512];
            k[511] = 1;
            k
        };
        let long_b = {
            let mut k = vec![7u8; 512];
            k[511] = 2;
            k
        };
        w.insert(b"", b"empty");
        w.insert(b"a", b"one");
        w.insert(&long_a, b"LA");
        w.insert(&long_b, b"LB");
        let label = system.label();
        assert_eq!(w.get(b"").as_deref(), Some(&b"empty"[..]), "{label}");
        assert_eq!(w.get(&long_a).as_deref(), Some(&b"LA"[..]), "{label}");
        // Full-range scan: empty key sorts first, the long twins stay
        // distinct and ordered by their last byte.
        let all = w.scan_pairs(b"", &vec![0xFF; 513]);
        let keys: Vec<Vec<u8>> = all.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![Vec::new(), long_a.clone(), long_b.clone(), b"a".to_vec()],
            "{label}: lexicographic order with extreme lengths"
        );
    }
}
