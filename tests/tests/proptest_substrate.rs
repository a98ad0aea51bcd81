//! Property tests for the substrates: the DM heap against a plain byte
//! array, the RACE table against a multimap oracle, and the cuckoo filter
//! membership invariants.

use proptest::prelude::*;

use dm_sim::{ClusterConfig, DmCluster};
use race_hash::{RaceTable, TableConfig};

#[derive(Debug, Clone)]
enum HeapOp {
    Write { offset: u16, data: Vec<u8> },
    Read { offset: u16, len: u8 },
    StoreWord { word_idx: u8, value: u64 },
    Faa { word_idx: u8, delta: u32 },
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0u16..3000, proptest::collection::vec(any::<u8>(), 0..100))
            .prop_map(|(offset, data)| HeapOp::Write { offset, data }),
        (0u16..3000, any::<u8>()).prop_map(|(offset, len)| HeapOp::Read { offset, len }),
        (0u8..200, any::<u64>())
            .prop_map(|(word_idx, value)| HeapOp::StoreWord { word_idx, value }),
        (0u8..200, any::<u32>()).prop_map(|(word_idx, delta)| HeapOp::Faa { word_idx, delta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-threaded, the word-atomic heap must behave exactly like a
    /// byte array.
    #[test]
    fn heap_matches_byte_array(ops in proptest::collection::vec(heap_op(), 1..120)) {
        let cluster = DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 8192,
            ..Default::default()
        });
        let mn = cluster.mn(0).unwrap();
        let mut model = vec![0u8; 8192];
        for op in &ops {
            match op {
                HeapOp::Write { offset, data } => {
                    let off = *offset as usize;
                    if off + data.len() <= model.len() {
                        mn.write_bytes(off as u64, data).unwrap();
                        model[off..off + data.len()].copy_from_slice(data);
                    } else {
                        prop_assert!(mn.write_bytes(off as u64, data).is_err());
                    }
                }
                HeapOp::Read { offset, len } => {
                    let off = *offset as usize;
                    let len = *len as usize;
                    let mut buf = vec![0u8; len];
                    if off + len <= model.len() {
                        mn.read_bytes(off as u64, &mut buf).unwrap();
                        prop_assert_eq!(&buf, &model[off..off + len]);
                    } else {
                        prop_assert!(mn.read_bytes(off as u64, &mut buf).is_err());
                    }
                }
                HeapOp::StoreWord { word_idx, value } => {
                    let off = *word_idx as usize * 8;
                    mn.store_u64(off as u64, *value).unwrap();
                    model[off..off + 8].copy_from_slice(&value.to_le_bytes());
                }
                HeapOp::Faa { word_idx, delta } => {
                    let off = *word_idx as usize * 8;
                    let before =
                        u64::from_le_bytes(model[off..off + 8].try_into().unwrap());
                    let prev = mn.faa_u64(off as u64, *delta as u64).unwrap();
                    prop_assert_eq!(prev, before);
                    model[off..off + 8]
                        .copy_from_slice(&before.wrapping_add(*delta as u64).to_le_bytes());
                }
            }
        }
    }

    /// The RACE table is a set of (hash, word) pairs under insert/remove,
    /// and search returns exactly the live words for a hash's bucket
    /// (possibly plus same-pair neighbours, never fewer).
    #[test]
    fn race_table_retains_exactly_live_entries(
        seeds in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..150),
    ) {
        let cluster = DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 64 << 20,
            ..Default::default()
        });
        let mut client = cluster.client(0);
        let meta = RaceTable::create(
            &mut client,
            0,
            &TableConfig { initial_depth: 1, max_depth: 10 },
        )
        .unwrap();
        let mut table = RaceTable::open(&mut client, meta).unwrap();
        let mut live: std::collections::BTreeSet<u64> = Default::default();

        let mix = |x: u64| {
            let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ (x >> 31)
        };
        for (seed, insert) in &seeds {
            let h = mix(*seed as u64);
            let word = (h & ((1 << 42) - 1)) | (1 << 43);
            if *insert {
                table
                    .insert(&mut client, h, word, |_c, ws| {
                        Ok(ws.iter().map(|w| w & ((1 << 42) - 1)).collect())
                    })
                    .unwrap();
                live.insert(h);
            } else {
                let removed = table.remove(&mut client, h, word).unwrap();
                prop_assert_eq!(removed, live.remove(&h));
            }
        }
        for h in &live {
            let word = (*h & ((1 << 42) - 1)) | (1 << 43);
            let found = table.search(&mut client, *h).unwrap();
            prop_assert!(found.iter().any(|e| e.word == word), "lost entry {h:#x}");
        }
    }

    /// Cuckoo filter: resident entries are always reported present; a
    /// removed entry (inserted exactly once) stops being reported unless a
    /// colliding twin exists.
    #[test]
    fn filter_has_no_false_negatives(
        items in proptest::collection::btree_set(any::<u32>(), 1..200),
    ) {
        let mut f = cuckoo::CuckooFilter::with_capacity(4 * 200);
        for item in &items {
            f.insert(&item.to_le_bytes());
        }
        let lost = items.iter().filter(|i| !f.contains_quiet(&i.to_le_bytes())).count();
        // Eviction may only occur when candidate buckets are saturated;
        // at <=50% occupancy losses must be rare.
        prop_assert!(lost as u64 <= f.stats().evictions);
        prop_assert!(lost <= items.len() / 20, "{lost}/{}", items.len());
    }

    /// The generational cache over the same items, on a budget so small
    /// (a 32-slot delta) that the delta has to grow inside the case: no
    /// false negative at any point — not after removing every third item
    /// either, colliding fingerprints or not — and nothing evicted,
    /// whether or not rebuilds happen in between.
    #[test]
    fn filter_cache_grows_its_delta_without_false_negatives(
        items in proptest::collection::btree_set(any::<u32>(), 1..200),
        maintain in any::<bool>(),
    ) {
        let f = sphinx::sfc::FilterCache::new(64, sphinx::sfc::SfcConfig::default(), 5);
        let budgeted = f.stats().delta_bytes;
        let mut taught: Vec<u32> = Vec::new();
        for item in &items {
            f.insert(&item.to_le_bytes());
            taught.push(*item);
            if maintain && f.rebuild_due() {
                f.maintain();
            }
            prop_assert!(taught.iter().all(|i| f.contains_quiet(&i.to_le_bytes())));
        }
        if !maintain && items.len() > 16 {
            prop_assert!(f.stats().delta_bytes > budgeted, "{} pending in {budgeted} B", items.len());
        }
        for item in items.iter().step_by(3) {
            prop_assert!(f.remove(&item.to_le_bytes()));
        }
        let kept = items.iter().enumerate().filter(|(n, _)| n % 3 != 0);
        for (_, item) in kept.clone() {
            prop_assert!(f.contains_quiet(&item.to_le_bytes()), "lost {item} to a remove");
        }
        prop_assert_eq!(f.len(), kept.count());
        prop_assert_eq!(f.stats().evictions, 0);
    }
}

mod bptree_oracle {
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    use bptree::BpTreeIndex;
    use dm_sim::{ClusterConfig, DmCluster};

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u8),
        Update(u16, u8),
        Remove(u16),
        Get(u16),
        Scan(u16, u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
            1 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Update(k, v)),
            1 => any::<u16>().prop_map(Op::Remove),
            2 => any::<u16>().prop_map(Op::Get),
            1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Scan(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The whole B-link stack (seqlock reads, leaf locks, SMO splits)
        /// agrees with BTreeMap on arbitrary histories.
        #[test]
        fn bptree_matches_btreemap(
            ops in proptest::collection::vec(op_strategy(), 1..150),
        ) {
            let cluster = DmCluster::new(ClusterConfig {
                mn_capacity: 64 << 20,
                ..ClusterConfig::default()
            });
            let index = BpTreeIndex::create(&cluster, 64 << 10).expect("create");
            let mut client = index.client(0).expect("client");
            let mut oracle: BTreeMap<u64, u8> = BTreeMap::new();
            for op in &ops {
                match op {
                    Op::Insert(k, v) => {
                        client.insert(*k as u64, &[*v]).expect("insert");
                        oracle.insert(*k as u64, *v);
                    }
                    Op::Update(k, v) => {
                        let did = client.update(*k as u64, &[*v]).expect("update");
                        prop_assert_eq!(did, oracle.contains_key(&(*k as u64)));
                        if did {
                            oracle.insert(*k as u64, *v);
                        }
                    }
                    Op::Remove(k) => {
                        let did = client.remove(*k as u64).expect("remove");
                        prop_assert_eq!(did, oracle.remove(&(*k as u64)).is_some());
                    }
                    Op::Get(k) => {
                        let got = client.get(*k as u64).expect("get").map(|v| v[0]);
                        prop_assert_eq!(got, oracle.get(&(*k as u64)).copied());
                    }
                    Op::Scan(a, b) => {
                        let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
                        let got: Vec<(u64, u8)> = client
                            .scan(lo as u64, hi as u64)
                            .expect("scan")
                            .into_iter()
                            .map(|(k, v)| (k, v[0]))
                            .collect();
                        let want: Vec<(u64, u8)> = oracle
                            .range(lo as u64..=hi as u64)
                            .map(|(k, v)| (*k, *v))
                            .collect();
                        prop_assert_eq!(got, want);
                    }
                }
            }
        }
    }
}
