//! Range scans (§IV "Scan"): [`node_engine::walk::scan`] with doorbell-
//! batched level reads, entered where the bounds diverge — below the
//! deepest inner node whose full prefix prefixes both, which this client
//! finds the way every `get` finds its entry node (SFC probe, one INHT
//! bucket pair, one validated node read) instead of walking down from the
//! root.

use art_core::key::{common_prefix_len, MAX_KEY_LEN};
use node_engine::walk::{self, any_leaf, Prefix, Tracked};
use node_engine::Sampled;
use obs::{OpKind, Phase};

use crate::client::SphinxClient;
use crate::error::SphinxError;

impl SphinxClient {
    /// Returns every `(key, value)` with `low <= key <= high`, in
    /// ascending key order.
    ///
    /// Every key in the range carries the bounds' common prefix, and an
    /// inner node whose full prefix prefixes it is an ancestor of them all,
    /// so the traversal starts at the deepest such node the Inner Node Hash
    /// Table knows (the root when the bounds share nothing) and reads each
    /// level's nodes in one doorbell-batched round trip, hiding per-node
    /// latency exactly as the paper describes for YCSB-E.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; torn leaf reads are retried
    /// internally.
    #[allow(clippy::type_complexity)]
    pub fn scan(
        &mut self,
        low: &[u8],
        high: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, SphinxError> {
        self.stats.scans += 1;
        self.obs_begin(OpKind::Scan);
        let r = self.scan_inner(low, high);
        self.op_exit();
        r
    }

    #[allow(clippy::type_complexity)]
    fn scan_inner(
        &mut self,
        low: &[u8],
        high: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, SphinxError> {
        if low > high {
            return Ok(Vec::new());
        }
        let mut max_len = common_prefix_len(low, high).min(MAX_KEY_LEN);
        loop {
            let (_, entry, plen) = self.locate_entry(&low[..max_len], max_len)?;
            self.obs_phase(Phase::Traversal);
            let start = Tracked {
                at: entry,
                known: Prefix::from_slice(&low[..plen]),
                exact: true,
            };
            let rows = walk::scan(self, &start, low, high)?;
            // A row in range starts with the entry's prefix, so any row is
            // the false-positive check of §III-B, and the root needs none.
            if plen == 0 || !rows.is_empty() {
                return Ok(rows);
            }
            // No row: the range is empty, or the hash table led to a node
            // of some other prefix (fp₁₂ and the 42-bit hash both collided).
            // A leaf below the entry tells which.
            match any_leaf(self, &start.at)? {
                Sampled::Leaf(leaf) if leaf.key.starts_with(&low[..plen]) => return Ok(rows),
                Sampled::Leaf(_) => {
                    self.stats.false_positive_retries += 1;
                    self.obs_retry();
                }
                // Nothing to check the entry against: settle it one level
                // up (at the latest at the root).
                Sampled::Empty | Sampled::Busy => {}
            }
            max_len = plen - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
    use std::sync::Arc;

    use art_core::hash::prefix_hash42;
    use art_core::layout::NodeStatus;
    use dm_sim::{ClusterConfig, DmCluster, RemotePtr};
    use ycsb::KeySpace;

    use super::*;
    use crate::{CacheMode, SphinxConfig, SphinxIndex};

    type Rows = Vec<(Vec<u8>, Vec<u8>)>;

    fn cluster(num_mns: u16) -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns,
            ..ClusterConfig::default()
        })
    }

    /// `n` keys of `space` with `val_len`-byte values; the sorted key set.
    fn load(
        cluster: &DmCluster,
        config: SphinxConfig,
        space: KeySpace,
        n: u64,
        val_len: usize,
    ) -> (SphinxIndex, SphinxClient, Vec<Vec<u8>>) {
        let index = SphinxIndex::create(cluster, config).unwrap();
        let mut client = index.client(0).unwrap();
        let mut keys: Vec<Vec<u8>> = (0..n).map(|i| space.key(i)).collect();
        for k in &keys {
            client.insert(k, &vec![k[0]; val_len]).unwrap();
        }
        keys.sort();
        (index, client, keys)
    }

    /// `count` fixed ranges of 1–100 rows over the sorted `keys`.
    fn ranges(keys: &[Vec<u8>], count: usize) -> Vec<(&[u8], &[u8])> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..count)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let rows = 1 + (x >> 33) as usize % 100;
                let at = (x >> 7) as usize % (keys.len() - rows);
                (keys[at].as_slice(), keys[at + rows - 1].as_slice())
            })
            .collect()
    }

    /// The walk `scan` replaced: root via the hash table, then down.
    fn root_down(client: &mut SphinxClient, low: &[u8], high: &[u8]) -> Rows {
        let (_, root, _) = client.locate_entry(b"", 0).unwrap();
        walk::scan(client, &Tracked::root(root), low, high).unwrap()
    }

    /// Virtual nanoseconds `f` takes on `client`.
    fn timed<R>(client: &mut SphinxClient, f: impl FnOnce(&mut SphinxClient) -> R) -> (R, u64) {
        let t0 = client.clock_ns();
        let r = f(client);
        (r, client.clock_ns() - t0)
    }

    /// Same rows as the root-down walk on every range, for at least
    /// `min_saving_pct` % less virtual time in total.
    fn entry_beats_root_down(space: KeySpace, min_saving_pct: u64) {
        let cluster = cluster(3);
        let (_index, mut client, keys) = load(&cluster, SphinxConfig::default(), space, 30_000, 64);
        let (mut ours, mut theirs) = (0, 0);
        for (low, high) in ranges(&keys, 240) {
            let (got, t) = timed(&mut client, |c| c.scan(low, high).unwrap());
            let (want, t_root) = timed(&mut client, |c| root_down(c, low, high));
            assert!(!want.is_empty());
            assert_eq!(got, want, "[{low:02x?}, {high:02x?}]");
            ours += t;
            theirs += t_root;
        }
        assert!(
            ours * 100 <= theirs * (100 - min_saving_pct),
            "{}: {ours} ns from the entry vs {theirs} ns root-down",
            space.name()
        );
        assert_eq!(client.op_stats().false_positive_retries, 0);
    }

    #[test]
    fn u64_scans_enter_below_the_root_and_cost_less() {
        entry_beats_root_down(KeySpace::U64, 4);
    }

    #[test]
    fn email_scans_enter_below_the_root_and_cost_less() {
        entry_beats_root_down(KeySpace::Email, 20);
    }

    #[test]
    fn bounds_sharing_no_byte_cost_the_root_down_walk() {
        let cluster = cluster(3);
        let (_index, mut client, keys) =
            load(&cluster, SphinxConfig::small(), KeySpace::U64, 4_000, 64);
        let at = keys.partition_point(|k| k[0] < 0x80);
        let (low, high) = (&keys[at - 20], &keys[at + 20]);
        assert_ne!(low[0], high[0]);
        let before = client.net_stats();
        let (got, t) = timed(&mut client, |c| c.scan(low, high).unwrap());
        let ours = client.net_stats().since(&before);
        let before = client.net_stats();
        let (want, t_root) = timed(&mut client, |c| root_down(c, low, high));
        assert_eq!(got, want);
        assert_eq!(got.len(), 41);
        assert_eq!(t, t_root);
        assert_eq!(ours, client.net_stats().since(&before));
    }

    #[test]
    fn inht_only_enters_at_the_same_rows() {
        let cluster = cluster(3);
        let config = SphinxConfig {
            mode: CacheMode::InhtOnly,
            ..SphinxConfig::small()
        };
        for space in [KeySpace::U64, KeySpace::Email] {
            let (_index, mut client, keys) = load(&cluster, config.clone(), space, 4_000, 64);
            for (low, high) in ranges(&keys, 60) {
                let got = client.scan(low, high).unwrap();
                assert_eq!(got, root_down(&mut client, low, high));
            }
        }
    }

    /// Serves `image` instead of the bytes at `target` for its next `left`
    /// reads (remote memory is intact).
    struct Rewrite {
        target: RemotePtr,
        image: Vec<u8>,
        left: AtomicU64,
    }

    impl dm_sim::FaultHook for Rewrite {
        fn corrupt_read(&self, ptr: RemotePtr, data: &mut [u8]) {
            if ptr == self.target
                && data.len() == self.image.len()
                && self
                    .left
                    .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                data.copy_from_slice(&self.image);
            }
        }
    }

    fn rewrite(cluster: &DmCluster, target: RemotePtr, image: Vec<u8>, reads: u64) {
        cluster.set_fault_hook(Some(Arc::new(Rewrite {
            target,
            image,
            left: reads.into(),
        })));
    }

    /// `aa-000 … aa-199`, `ab-000 … ab-199` on one MN (every batch is one
    /// round trip): the inner nodes `aa-01` and `ab-01` hold ten leaves
    /// each.
    fn twin_subtrees() -> (DmCluster, SphinxIndex, SphinxClient) {
        let cluster = cluster(1);
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for group in ["aa", "ab"] {
            for i in 0..200 {
                let key = format!("{group}-{i:03}");
                client.insert(key.as_bytes(), key.as_bytes()).unwrap();
            }
        }
        (cluster, index, client)
    }

    fn oracle(group: &str, ids: std::ops::RangeInclusive<u32>) -> Rows {
        ids.map(|i| format!("{group}-{i:03}").into_bytes())
            .map(|k| (k.clone(), k))
            .collect()
    }

    #[test]
    fn a_disproved_entry_is_retried_one_level_up() {
        let (cluster, _index, mut client) = twin_subtrees();
        let (entry_ptr, entry, plen) = client.locate_entry(b"aa-01", 5).unwrap();
        let (_, mut wrong, wrong_len) = client.locate_entry(b"ab-01", 5).unwrap();
        assert_eq!((plen, wrong_len), (5, 5));
        assert_eq!(entry.header.kind, wrong.header.kind);
        // The node of `ab-01` under a header that passes every check
        // `locate_entry` makes for `aa-01`: fp₁₂ and hash₄₂ both collided.
        wrong.header.prefix_hash42 = prefix_hash42(b"aa-01");
        rewrite(&cluster, entry_ptr, wrong.encode(), 1);
        let before = client.op_stats();
        let got = client.scan(b"aa-012", b"aa-017").unwrap();
        assert_eq!(got, oracle("aa", 12..=17));
        assert_eq!(cluster.fault_injections(), 1);
        let delta = client.op_stats().since(&before);
        assert_eq!(delta.false_positive_retries, 1);
        #[cfg(feature = "telemetry")]
        assert_eq!(client.telemetry().op(OpKind::Scan).retries, 1);
    }

    #[test]
    fn an_empty_range_below_a_correct_entry_costs_one_leaf_sample() {
        let (_cluster, _index, mut client) = twin_subtrees();
        let before = client.net_stats().round_trips;
        assert_eq!(client.scan(b"aa-012", b"aa-017").unwrap().len(), 6);
        let hit = client.net_stats().round_trips - before;
        assert_eq!(hit, 3, "bucket pair, entry node, one level of leaves");
        // `aa-010` is the only key the window reaches, and it is below it.
        let before = client.net_stats().round_trips;
        assert_eq!(client.scan(b"aa-0105", b"aa-0108").unwrap(), vec![]);
        assert_eq!(client.net_stats().round_trips - before, hit + 1);
        assert_eq!(client.op_stats().false_positive_retries, 0);
    }

    #[test]
    fn an_entry_caught_mid_type_switch_is_found_one_level_up() {
        let (cluster, _index, mut client) = twin_subtrees();
        let (entry_ptr, mut entry, _) = client.locate_entry(b"ab-01", 5).unwrap();
        entry.header.status = NodeStatus::Invalid;
        rewrite(&cluster, entry_ptr, entry.encode(), 1);
        let before = client.op_stats();
        let got = client.scan(b"ab-010", b"ab-019").unwrap();
        assert_eq!(got, oracle("ab", 10..=19));
        assert_eq!(cluster.fault_injections(), 1);
        let delta = client.op_stats().since(&before);
        assert_eq!((delta.entry_misses, delta.false_positive_retries), (1, 0));
    }

    /// Below the entry a switching node is waited out by `reread_inner`:
    /// a counted retry whose backoff and re-read are booked as such.
    #[test]
    fn a_node_switching_below_the_entry_is_reread_as_a_retry() {
        let (cluster, _index, mut client) = twin_subtrees();
        let (below_ptr, mut below, _) = client.locate_entry(b"ab-01", 5).unwrap();
        below.header.status = NodeStatus::Invalid;
        rewrite(&cluster, below_ptr, below.encode(), 1);
        let (got, ns) = timed(&mut client, |c| c.scan(b"ab-000", b"ab-199").unwrap());
        assert_eq!(got, oracle("ab", 0..=199));
        assert_eq!(cluster.fault_injections(), 1);
        assert!(ns >= client.retry.backoff_ns);
        #[cfg(feature = "telemetry")]
        {
            let reg = client.telemetry();
            assert_eq!(reg.op(OpKind::Scan).retries, 1);
            assert_eq!(reg.phase(OpKind::Scan, Phase::Retry).round_trips, 1);
        }
    }

    #[test]
    fn bounds_past_the_key_length_limit_are_clamped() {
        let (_cluster, _index, mut client) = twin_subtrees();
        let low = [b"aa-01".as_slice(), &[b'5'; MAX_KEY_LEN + 100]].concat();
        let high = [low.as_slice(), b"z"].concat();
        assert_eq!(client.scan(&low, &high).unwrap(), vec![]);
        assert_eq!(
            client.scan(b"aa-01", &high).unwrap(),
            oracle("aa", 10..=15),
            "aa-015 < aa-01555… < aa-016"
        );
    }

    /// Leaves larger than `leaf_read_hint` are fetched again together, one
    /// batch per level (per leaf run for `scan_n`), not one by one.
    #[test]
    fn oversized_leaves_cost_one_more_batch_per_level() {
        for space in [KeySpace::U64, KeySpace::Email] {
            let cluster = cluster(1);
            let (_i64, mut small, keys) = load(&cluster, SphinxConfig::default(), space, 6_000, 64);
            for val_len in [105, 200] {
                let (_ibig, mut big, _) =
                    load(&cluster, SphinxConfig::default(), space, 6_000, val_len);
                for (low, high) in ranges(&keys, 12) {
                    let rts = |c: &mut SphinxClient, scan_n: bool| {
                        let (net, io) = (c.net_stats().round_trips, c.op_stats());
                        let (rows, ns) = timed(c, |c| match scan_n {
                            true => c.scan_n(low, 50).unwrap(),
                            false => c.scan(low, high).unwrap(),
                        });
                        let keys: Vec<Vec<u8>> = rows.into_iter().map(|(k, _)| k).collect();
                        let extended = c.op_stats().since(&io).extended_leaf_reads;
                        (keys, c.net_stats().round_trips - net, ns, extended)
                    };
                    for scan_n in [false, true] {
                        let (want, rts_small, ns_small, none) = rts(&mut small, scan_n);
                        let (got, rts_big, ns_big, extended) = rts(&mut big, scan_n);
                        let what = format!("{} {val_len} B scan_n={scan_n}", space.name());
                        assert_eq!(got, want, "{what}");
                        assert_eq!(none, 0, "{what}");
                        assert!(
                            extended >= got.len() as u64,
                            "{what}: each oversized leaf is counted"
                        );
                        // Every round trip after the entry lookup's two
                        // may be followed by one second read.
                        assert!(
                            rts_big <= 2 * rts_small - 2,
                            "{what}: {rts_big} round trips vs {rts_small}"
                        );
                        assert!(ns_big <= 2 * ns_small, "{what}: {ns_big} vs {ns_small} ns");
                    }
                }
            }
        }
    }

    /// The repro of the defect: 20 000 u64 keys, one 50-row scan. Values of
    /// 200 B took 110 round trips and 11.4 × the 64-byte scan's time; two
    /// levels hold leaves, so two more batches is what is left (1.64 ×: 51
    /// more verbs of client CPU and two more round-trip times).
    #[test]
    fn a_scan_over_200_byte_values_costs_two_more_batches() {
        let cost = |val_len| {
            let cluster = cluster(3);
            let (_index, mut client, keys) = load(
                &cluster,
                SphinxConfig::default(),
                KeySpace::U64,
                20_000,
                val_len,
            );
            let before = client.net_stats().round_trips;
            let (rows, ns) = timed(&mut client, |c| {
                c.scan(&keys[10_000], &keys[10_049]).unwrap()
            });
            assert_eq!(rows.len(), 50);
            (ns, client.net_stats().round_trips - before)
        };
        let ((ns_64, rts_64), (ns_200, rts_200)) = (cost(64), cost(200));
        assert!(ns_200 * 4 <= ns_64 * 7, "{ns_200} ns vs {ns_64} ns");
        // Three MNs: a batch is up to three round trips.
        assert!(
            rts_200 <= rts_64 + 2 * 3,
            "{rts_200} round trips vs {rts_64}"
        );
    }
}
