//! Limited ordered scans — an extension beyond the paper.
//!
//! YCSB-E's native operation is "scan the next N keys from a start key",
//! which a `[low, high]` range scan can only approximate. `scan_n` walks
//! the tree depth-first in key order with *lazy* child reads (a subtree is
//! only fetched when the ordered walk actually reaches it) and doorbell-
//! batches runs of adjacent leaves, so the cost tracks the result size,
//! not the tree size.

use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot};
use dm_sim::Transport;
use node_engine::LeafReadStats;
use obs::{OpKind, Phase};

use crate::client::SphinxClient;
use crate::error::SphinxError;

/// A pending subtree on the DFS stack (not yet fetched).
struct PendingChild {
    slot: Slot,
    /// Known prefix bytes (exact when `exact`).
    known: Vec<u8>,
    exact: bool,
}

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
        let mut stack: Vec<PendingChild> = Vec::new();
        self.push_children(&root, Vec::new(), true, low, &mut stack)?;

        while results.len() < limit {
            // Batch a maximal run of leaves from the top of the stack (they
            // are key-adjacent siblings/cousins — the common case deep in
            // a scan window).
            let mut leaf_run = 0;
            while leaf_run < stack.len()
                && stack[stack.len() - 1 - leaf_run].slot.is_leaf
                && leaf_run < limit - results.len() + 2
            {
                leaf_run += 1;
            }
            if leaf_run > 0 {
                let start = stack.len() - leaf_run;
                let run: Vec<PendingChild> = stack.drain(start..).rev().collect();
                let run_reads: Vec<_> = run
                    .iter()
                    .map(|p| (p.slot.addr, self.config.leaf_read_hint))
                    .collect();
                self.obs_phase(Phase::LeafRead);
                let reads = self.dm.read_many(&run_reads)?;
                for (p, bytes) in run.into_iter().zip(reads) {
                    let leaf = match LeafNode::decode(&bytes) {
                        Ok(l) => l,
                        Err(_) => {
                            let mut io = LeafReadStats::default();
                            let r = node_engine::read_validated_leaf(
                                &mut self.dm,
                                p.slot.addr,
                                self.config.leaf_read_hint,
                                &self.retry,
                                &mut io,
                            );
                            self.stats.checksum_retries += io.checksum_retries;
                            self.stats.extended_leaf_reads += io.extended_reads;
                            match r {
                                Ok(l) => l,
                                Err(node_engine::EngineError::RetriesExhausted { .. }) => continue,
                                Err(e) => return Err(e.into()),
                            }
                        }
                    };
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
                .read(p.slot.addr, InnerNode::byte_size(p.slot.child_kind))?;
            let Ok(node) = InnerNode::decode(&bytes) else {
                continue;
            };
            if node.header.status == NodeStatus::Invalid || node.header.kind != p.slot.child_kind {
                continue; // mid type-switch; reachable via a later scan
            }
            self.push_children(&node, p.known, p.exact, low, &mut stack)?;
        }
        // Leaf batches may overshoot slightly; trim and the order is
        // already ascending by construction.
        results.truncate(limit);
        Ok(results)
    }

    /// Queues `node`'s viable children (value slot first, children by
    /// dispatch byte) in reverse key order, resolving the node's full
    /// prefix from a direct leaf child when path compression hid it.
    fn push_children(
        &mut self,
        node: &InnerNode,
        mut known: Vec<u8>,
        mut exact: bool,
        low: &[u8],
        stack: &mut Vec<PendingChild>,
    ) -> Result<(), SphinxError> {
        let plen = node.header.prefix_len as usize;
        if !(exact && plen == known.len()) {
            // Resolve the full prefix: cheaply from a direct leaf child,
            // else by walking the leftmost chain to any leaf (costs the
            // remaining depth once; without it pruning dies and the scan
            // degrades to a subtree sweep).
            let direct = node
                .value_slot
                .or_else(|| node.slots.iter().flatten().find(|s| s.is_leaf).copied());
            let sampled = match direct {
                Some(slot) => {
                    let bytes = self.dm.read(slot.addr, self.config.leaf_read_hint)?;
                    LeafNode::decode(&bytes).ok()
                }
                None => self.sample_leaf(node)?,
            };
            if let Some(leaf) = sampled {
                if leaf.key.len() >= plen {
                    known = leaf.key[..plen].to_vec();
                    exact = true;
                }
            }
        }
        let exact_here = exact && plen == known.len();

        let mut ordered: Vec<PendingChild> = Vec::new();
        if let Some(slot) = node.value_slot {
            ordered.push(PendingChild {
                slot,
                known: known.clone(),
                exact: exact_here,
            });
        }
        for slot in node.children_sorted() {
            let (child_known, child_exact) = if exact_here {
                let mut k = known.clone();
                k.push(slot.key_byte);
                (k, true)
            } else {
                (known.clone(), false)
            };
            // A subtree provably entirely below `low` cannot contribute.
            if child_exact
                && child_known.as_slice() < low
                && !low.starts_with(child_known.as_slice())
            {
                continue;
            }
            ordered.push(PendingChild {
                slot,
                known: child_known,
                exact: child_exact,
            });
        }
        while let Some(p) = ordered.pop() {
            stack.push(p);
        }
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
