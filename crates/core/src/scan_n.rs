//! Limited ordered scans — an extension beyond the paper.
//!
//! YCSB-E's native operation is "scan the next N keys from a start key",
//! which a `[low, high]` range scan can only approximate. `scan_n` walks
//! the tree depth-first in key order with *lazy* child reads (a subtree is
//! only fetched when the ordered walk actually reaches it) and doorbell-
//! batches runs of adjacent leaves, so the cost tracks the result size,
//! not the tree size.

use art_core::layout::{InnerNode, NodeStatus, Slot};
use node_engine::walk::{level_spans, resolve_prefixes, settle_leaves, viable_children, Tracked};
use obs::{OpKind, Phase};

use crate::client::SphinxClient;
use crate::error::SphinxError;

impl SphinxClient {
    /// Returns up to `limit` entries with key ≥ `low`, in ascending key
    /// order — the "scan N next rows" operation of YCSB-E.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; torn leaf reads are retried
    /// internally and skipped if they never settle, like
    /// [`SphinxClient::scan`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use dm_sim::{ClusterConfig, DmCluster};
    /// # use sphinx::{SphinxConfig, SphinxIndex};
    /// # fn main() -> Result<(), sphinx::SphinxError> {
    /// # let cluster = DmCluster::new(ClusterConfig::default());
    /// # let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
    /// # let mut client = index.client(0)?;
    /// for word in ["ant", "bee", "cat", "dog", "eel"] {
    ///     client.insert(word.as_bytes(), b"v")?;
    /// }
    /// let next_three = client.scan_n(b"bee", 3)?;
    /// let keys: Vec<&[u8]> = next_three.iter().map(|(k, _)| k.as_slice()).collect();
    /// assert_eq!(keys, vec![b"bee".as_slice(), b"cat", b"dog"]);
    /// # Ok(())
    /// # }
    /// ```
    #[allow(clippy::type_complexity)]
    pub fn scan_n(
        &mut self,
        low: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, SphinxError> {
        self.stats.scans += 1;
        self.obs_begin(OpKind::Scan);
        let r = self.scan_n_inner(low, limit);
        self.op_exit();
        r
    }

    #[allow(clippy::type_complexity)]
    fn scan_n_inner(
        &mut self,
        low: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, SphinxError> {
        let mut results: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(limit);
        if limit == 0 {
            return Ok(results);
        }
        let (_, root, _) = self.locate_entry(&[], 0)?;
        self.obs_phase(Phase::Traversal);
        // Stack of unfetched subtrees in reverse key order (smallest on
        // top). Seed with the root's children.
        let mut stack: Vec<Tracked<Slot>> = Vec::new();
        self.push_children(Tracked::root(root), low, &mut stack)?;

        while results.len() < limit {
            // Batch a maximal run of leaves from the top of the stack (they
            // are key-adjacent siblings/cousins — the common case deep in
            // a scan window).
            let mut leaf_run = 0;
            while leaf_run < stack.len()
                && stack[stack.len() - 1 - leaf_run].at.is_leaf
                && leaf_run < limit - results.len() + 2
            {
                leaf_run += 1;
            }
            if leaf_run > 0 {
                let start = stack.len() - leaf_run;
                let run_reads: Vec<_> = stack
                    .drain(start..)
                    .rev()
                    .map(|p| (p.at.addr, self.config.leaf_read_hint))
                    .collect();
                self.obs_phase(Phase::LeafRead);
                let level = self.dm.read_packed(&run_reads)?;
                let run = level_spans(&run_reads).map(|(addr, span)| (addr, &level[span]));
                for leaf in settle_leaves(self, run)?.into_iter().flatten() {
                    if leaf.status != NodeStatus::Invalid && leaf.key.as_slice() >= low {
                        results.push((leaf.key, leaf.value));
                    }
                }
                self.obs_phase(Phase::Traversal);
                continue;
            }

            // Otherwise the next item is an inner subtree: fetch just it.
            let Some(p) = stack.pop() else { break };
            let bytes = self
                .dm
                .read(p.at.addr, InnerNode::byte_size(p.at.child_kind))?;
            let Ok(node) = InnerNode::decode(&bytes) else {
                continue;
            };
            if node.header.status == NodeStatus::Invalid || node.header.kind != p.at.child_kind {
                continue; // mid type-switch; reachable via a later scan
            }
            let node = Tracked {
                at: node,
                known: p.known,
                exact: p.exact,
            };
            self.push_children(node, low, &mut stack)?;
        }
        // Leaf batches may overshoot slightly; trim and the order is
        // already ascending by construction.
        results.truncate(limit);
        Ok(results)
    }

    /// Resolves `node`'s full prefix where path compression hid it
    /// (without that, pruning dies and the scan degrades to a subtree
    /// sweep), then queues its viable children — value slot first,
    /// children by dispatch byte — in reverse key order.
    fn push_children(
        &mut self,
        mut node: Tracked<InnerNode>,
        low: &[u8],
        stack: &mut Vec<Tracked<Slot>>,
    ) -> Result<(), SphinxError> {
        resolve_prefixes(self, std::slice::from_mut(&mut node))?;
        let start = stack.len();
        viable_children(&node, low, None, stack);
        stack[start..].reverse();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{SphinxConfig, SphinxIndex};
    use dm_sim::{ClusterConfig, DmCluster};

    fn setup(n: u64) -> crate::SphinxClient {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for i in 0..n {
            client
                .insert(format!("scan-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        client
    }

    #[test]
    fn scan_n_returns_sorted_window() {
        let mut client = setup(300);
        let hits = client.scan_n(b"scan-00100", 25).unwrap();
        assert_eq!(hits.len(), 25);
        for (i, (k, _)) in hits.iter().enumerate() {
            assert_eq!(k, format!("scan-{:05}", 100 + i).as_bytes(), "position {i}");
        }
    }

    #[test]
    fn scan_n_from_between_keys_and_past_end() {
        let mut client = setup(50);
        // Start key absent: the next larger key opens the window.
        let hits = client.scan_n(b"scan-00010x", 3).unwrap();
        assert_eq!(hits[0].0, b"scan-00011".to_vec());
        // Window larger than the remaining tail.
        let tail = client.scan_n(b"scan-00048", 10).unwrap();
        assert_eq!(tail.len(), 2);
        // Start past everything.
        assert!(client.scan_n(b"zzz", 5).unwrap().is_empty());
        // Zero limit.
        assert!(client.scan_n(b"", 0).unwrap().is_empty());
    }

    #[test]
    fn scan_n_skips_deleted() {
        let mut client = setup(20);
        client.remove(b"scan-00005").unwrap();
        let hits = client.scan_n(b"scan-00004", 3).unwrap();
        let keys: Vec<Vec<u8>> = hits.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                b"scan-00004".to_vec(),
                b"scan-00006".to_vec(),
                b"scan-00007".to_vec()
            ]
        );
    }

    #[test]
    fn scan_n_agrees_with_range_scan() {
        let mut client = setup(400);
        let want: Vec<(Vec<u8>, Vec<u8>)> = client.scan(b"scan-00150", b"scan-00169").unwrap();
        let got = client.scan_n(b"scan-00150", 20).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_n_cost_tracks_result_size_not_tree_size() {
        let mut client = setup(2000);
        let before = client.net_stats().round_trips;
        let hits = client.scan_n(b"scan-01000", 10).unwrap();
        let rts = client.net_stats().round_trips - before;
        assert_eq!(hits.len(), 10);
        assert!(
            rts < 25,
            "10-row scan over 2000 keys took {rts} round trips"
        );
    }
}
