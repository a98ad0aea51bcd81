//! Range scans (§IV "Scan"): root-down traversal with doorbell-batched
//! level reads.

use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot};
use dm_sim::Transport;
use node_engine::LeafReadStats;
use obs::{OpKind, Phase};

use crate::client::SphinxClient;
use crate::error::SphinxError;

/// A node queued for reading during a scan, with the prefix bytes known
/// so far. `exact` records whether `known_prefix` is the node's complete
/// full prefix up to this point: path compression hides bytes, and once a
/// gap appears the concatenation of dispatch bytes is *not* a real key
/// prefix, so pruning must stop (leaf-level filtering keeps the scan
/// correct).
struct Pending {
    slot: Slot,
    known_prefix: Vec<u8>,
    exact: bool,
}

impl SphinxClient {
    /// Returns every `(key, value)` with `low <= key <= high`, in
    /// ascending key order.
    ///
    /// The traversal starts from the root (found through the Inner Node
    /// Hash Table) and reads each level's nodes in one doorbell-batched
    /// round trip, hiding per-node latency exactly as the paper describes
    /// for YCSB-E.
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
        let mut results: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        if low > high {
            return Ok(results);
        }

        // Root via the hash table (prefix ε).
        let (root_ptr, root, _len) = self.locate_entry(&[], 0)?;
        let mut inners: Vec<(InnerNode, Vec<u8>, bool)> = vec![(root, Vec::new(), true)];
        let _ = root_ptr;
        self.obs_phase(Phase::Traversal);

        while !inners.is_empty() {
            // Resolution pass: a node whose known prefix is shorter than
            // its actual prefix (path compression) cannot be pruned — but
            // any direct leaf child reveals the full prefix. One batched
            // round trip recovers exactness for the whole level, keeping
            // scans proportional to the result size instead of the
            // subtree size.
            let mut resolve_targets: Vec<usize> = Vec::new();
            let mut chain_targets: Vec<usize> = Vec::new();
            let mut resolve_reads = Vec::new();
            for (i, (node, known, exact)) in inners.iter().enumerate() {
                let exact_here = *exact && node.header.prefix_len as usize == known.len();
                if exact_here {
                    continue;
                }
                let leaf_slot = node
                    .value_slot
                    .or_else(|| node.slots.iter().flatten().find(|s| s.is_leaf).copied());
                match leaf_slot {
                    Some(slot) => {
                        resolve_reads.push((slot.addr, self.config.leaf_read_hint));
                        resolve_targets.push(i);
                    }
                    // No direct leaf child: resolve by walking the
                    // leftmost chain (uniform-depth trees keep all leaves
                    // at the bottom, so this is the only source of
                    // prefix bytes for upper nodes).
                    None => chain_targets.push(i),
                }
            }
            if !resolve_reads.is_empty() {
                let reads = self.dm.read_many(&resolve_reads)?;
                for (i, bytes) in resolve_targets.into_iter().zip(reads) {
                    if let Ok(leaf) = LeafNode::decode(&bytes) {
                        let (node, known, exact) = &mut inners[i];
                        let plen = node.header.prefix_len as usize;
                        if leaf.key.len() >= plen {
                            *known = leaf.key[..plen].to_vec();
                            *exact = true;
                        }
                    }
                }
            }
            for i in chain_targets {
                let node = inners[i].0.clone();
                if let Some(leaf) = self.sample_leaf(&node)? {
                    let (node, known, exact) = &mut inners[i];
                    let plen = node.header.prefix_len as usize;
                    if leaf.key.len() >= plen {
                        *known = leaf.key[..plen].to_vec();
                        *exact = true;
                    }
                }
            }

            // Collect the next level's reads, pruning subtrees whose known
            // prefix already falls outside the range (only where the known
            // prefix is exact).
            let mut pending: Vec<Pending> = Vec::new();
            for (node, known, exact) in inners.drain(..) {
                // Is the known prefix complete up to this node's prefix
                // end? If the node's prefix extends past what we tracked,
                // a compression gap begins below it.
                let exact_here = exact && node.header.prefix_len as usize == known.len();
                if exact_here && !range_may_intersect(&known, low, high) {
                    continue; // the resolved prefix proves the subtree is out of range
                }
                if let Some(slot) = node.value_slot {
                    pending.push(Pending {
                        slot,
                        known_prefix: known.clone(),
                        exact: exact_here,
                    });
                }
                for slot in node.children_sorted() {
                    let (child_known, child_exact) = if exact_here {
                        let mut ck = known.clone();
                        ck.push(slot.key_byte);
                        (ck, true)
                    } else {
                        (known.clone(), false)
                    };
                    if child_exact && !range_may_intersect(&child_known, low, high) {
                        continue;
                    }
                    pending.push(Pending {
                        slot,
                        known_prefix: child_known,
                        exact: child_exact,
                    });
                }
            }
            if pending.is_empty() {
                break;
            }
            // One doorbell batch for the whole level.
            let level_reads: Vec<_> = pending
                .iter()
                .map(|p| {
                    let len = if p.slot.is_leaf {
                        self.config.leaf_read_hint
                    } else {
                        InnerNode::byte_size(p.slot.child_kind)
                    };
                    (p.slot.addr, len)
                })
                .collect();
            let reads = self.dm.read_many(&level_reads)?;

            for (p, bytes) in pending.into_iter().zip(reads) {
                if p.slot.is_leaf {
                    let leaf = self.decode_scanned_leaf(&p, &bytes)?;
                    if let Some(leaf) = leaf {
                        if leaf.status != NodeStatus::Invalid
                            && leaf.key.as_slice() >= low
                            && leaf.key.as_slice() <= high
                        {
                            results.push((leaf.key, leaf.value));
                        }
                    }
                } else {
                    match InnerNode::decode(&bytes) {
                        Ok(node)
                            if node.header.status != NodeStatus::Invalid
                                && node.header.kind == p.slot.child_kind =>
                        {
                            inners.push((node, p.known_prefix, p.exact));
                        }
                        // Mid-type-switch: re-read through a fresh pointer.
                        _ => {
                            if let Some(node) = self.reread_inner(&p)? {
                                inners.push((node, p.known_prefix, p.exact));
                            }
                        }
                    }
                }
            }
        }
        results.sort_by(|a, b| a.0.cmp(&b.0));
        results.dedup_by(|a, b| a.0 == b.0);
        Ok(results)
    }

    fn decode_scanned_leaf(
        &mut self,
        p: &Pending,
        bytes: &[u8],
    ) -> Result<Option<LeafNode>, SphinxError> {
        match LeafNode::decode(bytes) {
            Ok(leaf) => Ok(Some(leaf)),
            Err(_) => {
                // Torn or larger-than-hint: fall back to the retrying
                // reader.
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
                    Ok(leaf) => Ok(Some(leaf)),
                    Err(node_engine::EngineError::RetriesExhausted { .. }) => Ok(None),
                    Err(e) => Err(e.into()),
                }
            }
        }
    }

    /// A node observed mid type-switch during a scan: wait briefly and
    /// follow the (updated) slot once more. Gives up quietly — the
    /// replacement node is reachable through its parent on the next scan.
    fn reread_inner(&mut self, p: &Pending) -> Result<Option<InnerNode>, SphinxError> {
        for _ in 0..8 {
            self.dm.advance_clock(400);
            std::thread::yield_now();
            let bytes = self
                .dm
                .read(p.slot.addr, InnerNode::byte_size(p.slot.child_kind))?;
            if let Ok(node) = InnerNode::decode(&bytes) {
                if node.header.status == NodeStatus::Idle && node.header.kind == p.slot.child_kind {
                    return Ok(Some(node));
                }
            }
        }
        Ok(None)
    }
}

/// Whether a subtree whose keys all start with `known` (plus unknown
/// compressed bytes) can contain keys in `[low, high]`.
fn range_may_intersect(known: &[u8], low: &[u8], high: &[u8]) -> bool {
    // Keys in the subtree are >= known (extended), so if known > high the
    // subtree is entirely above the range.
    if known > high {
        return false;
    }
    // All keys start with `known`; if known < low and low does not start
    // with known, every extension still compares below low.
    if known < low && !low.starts_with(known) {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_logic() {
        assert!(range_may_intersect(b"b", b"a", b"c"));
        assert!(range_may_intersect(b"a", b"ab", b"c")); // low starts with known
        assert!(!range_may_intersect(b"d", b"a", b"c")); // above range
        assert!(!range_may_intersect(b"a", b"b", b"c")); // below, not prefix of low
        assert!(range_may_intersect(b"", b"x", b"y")); // root always viable
    }
}
