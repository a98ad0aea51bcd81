//! Offline integrity verification: walk the remote tree and cross-check
//! every structural invariant Sphinx relies on.
//!
//! Used by the test suite after concurrency torture runs, and available to
//! operators as a consistency audit. The tree walk and its per-node checks
//! are [`node_engine::walk::audit`] (shared with the baselines); what only
//! Sphinx has is checked in the audit's per-node hook: the Inner Node Hash
//! Table holds exactly one matching entry (right fingerprint, address, and
//! node kind) for the node's prefix.

use art_core::hash::{fp12, prefix_hash64};
use art_core::layout::{HashEntry, InnerNode, Slot};
use dm_sim::RemotePtr;
use node_engine::walk::audit;
use node_engine::{EngineError, Worker};
use race_hash::{RaceError, RaceTable};

use crate::error::SphinxError;
use crate::index::SphinxIndex;

/// Outcome of [`SphinxIndex::verify`].
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Inner nodes visited.
    pub inner_nodes: usize,
    /// Live leaves visited (tombstoned leaves are skipped, not counted).
    pub leaves: usize,
    /// Deepest prefix length observed.
    pub max_prefix_len: usize,
    /// Inner Node Hash Table entries validated.
    pub inht_entries_checked: usize,
    /// Non-root inner nodes whose subtree holds no leaf: legal garbage
    /// between a delete's abandoned unlink and the insert that heals it.
    pub empty_inner_nodes: usize,
    /// Human-readable descriptions of every violation found.
    pub problems: Vec<String>,
}

impl IntegrityReport {
    /// Whether the index passed every check.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The audit's reader: a worker outside the reclamation domain plus the
/// hash tables, outside any client (no open span, no reclamation pin).
struct Auditor {
    worker: Worker,
    tables: Vec<RaceTable>,
    leaf_hint: usize,
    inht_entries_checked: usize,
}

impl node_engine::ArtReader for Auditor {
    fn worker(&mut self) -> &mut Worker {
        &mut self.worker
    }

    fn leaf_hint(&self) -> usize {
        self.leaf_hint
    }

    /// The INHT must name this node, once.
    fn audit_node(
        &mut self,
        ptr: RemotePtr,
        node: &InnerNode,
        prefix: &[u8],
        problems: &mut Vec<String>,
    ) -> Result<(), EngineError> {
        let h = prefix_hash64(prefix);
        let mn = self.worker.dm.place(h) as usize;
        let entries = match self.tables[mn].search(&mut self.worker.dm, h) {
            Ok(entries) => entries,
            Err(RaceError::Dm(e)) => return Err(e.into()),
            Err(e) => {
                problems.push(format!("node {ptr}: hash table search failed: {e}"));
                return Ok(());
            }
        };
        let matching: Vec<HashEntry> = entries
            .iter()
            .filter_map(|e| HashEntry::decode(e.word))
            .filter(|he| he.fp == fp12(prefix) && he.addr == ptr)
            .collect();
        self.inht_entries_checked += 1;
        match matching.as_slice() {
            [] => problems.push(format!(
                "node {ptr}: no hash entry for prefix {:?}",
                String::from_utf8_lossy(prefix)
            )),
            [one] if one.kind != node.header.kind => problems.push(format!(
                "node {ptr}: hash entry kind {:?} != node kind {:?}",
                one.kind, node.header.kind
            )),
            [_] => {}
            _ => problems.push(format!("node {ptr}: duplicate hash entries for its prefix")),
        }
        Ok(())
    }
}

impl SphinxIndex {
    /// Audits the whole index. Run only on a quiescent index — concurrent
    /// writers make transient states (locked nodes, half-published splits)
    /// look like violations.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; structural *violations* are reported
    /// in the [`IntegrityReport`], not as errors.
    pub fn verify(&self) -> Result<IntegrityReport, SphinxError> {
        let mut dm = self.cluster().client(0);
        let tables = self
            .inht_metas()
            .iter()
            .map(|&m| RaceTable::open(&mut dm, m))
            .collect::<Result<Vec<_>, _>>()?;
        let mut auditor = Auditor {
            worker: Worker::detached(dm),
            tables,
            leaf_hint: self.config().leaf_read_hint,
            inht_entries_checked: 0,
        };

        // Root via the hash table.
        let root_hash = prefix_hash64(&[]);
        let root_mn = auditor.worker.dm.place(root_hash) as usize;
        let found = auditor.tables[root_mn].search(&mut auditor.worker.dm, root_hash)?;
        let Some(root) = found
            .iter()
            .filter_map(|e| HashEntry::decode(e.word))
            .find(|he| he.fp == fp12(&[]))
        else {
            return Ok(IntegrityReport {
                problems: vec!["root hash entry missing".into()],
                ..IntegrityReport::default()
            });
        };
        let report = audit(&mut auditor, Slot::inner(0, root.kind, root.addr))?;
        Ok(IntegrityReport {
            inner_nodes: report.inner_nodes,
            leaves: report.leaves,
            max_prefix_len: report.max_prefix_len,
            inht_entries_checked: auditor.inht_entries_checked,
            empty_inner_nodes: report.empty_inner_nodes,
            problems: report.problems,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{SphinxConfig, SphinxIndex};
    use dm_sim::{ClusterConfig, DmCluster};

    #[test]
    fn fresh_index_verifies_clean() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let report = index.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!(report.inner_nodes, 1, "just the root");
    }

    #[test]
    fn populated_index_verifies_clean() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for i in 0..2000u64 {
            let key = format!("verify-key-{:06}", i * 37 % 5000);
            client.insert(key.as_bytes(), &i.to_le_bytes()).unwrap();
        }
        for i in (0..2000u64).step_by(5) {
            let key = format!("verify-key-{:06}", i * 37 % 5000);
            client.remove(key.as_bytes()).unwrap();
        }
        let report = index.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert!(report.inner_nodes > 10);
        assert!(report.leaves > 500);
        assert_eq!(report.inht_entries_checked, report.inner_nodes);
    }

    /// The audit reads leaves with the size-extending reader: a 3×64-byte
    /// leaf in its node's first slot used to make the node an "empty
    /// subtree".
    #[test]
    fn a_leaf_longer_than_the_read_hint_audits_clean() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        assert_eq!(index.config().leaf_read_hint, 128);
        client.insert(b"big-a", &[7u8; 150]).unwrap();
        client.insert(b"big-b", b"small").unwrap();
        client.insert(b"big-c", b"small").unwrap();
        let report = index.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!((report.inner_nodes, report.leaves), (2, 3));
        assert_eq!(report.inht_entries_checked, 2);
    }

    /// Emptied inner nodes still linked — what a delete's abandoned unlink
    /// leaves behind, here a chain of two — are legal garbage: counted, not
    /// a problem, and their siblings are still audited. Lookups that leave
    /// the chain's compressed path find nothing; the insert that does
    /// unlinks it, bottom up.
    #[test]
    fn leftover_emptied_nodes_are_counted_and_healed_by_the_next_insert() {
        use crate::client::Outcome;
        use art_core::layout::InnerNode;

        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for key in [&b"abcdefgh1x"[..], b"abcdefgh1y", b"abcdefgh2", b"b"] {
            client.insert(key, b"v").unwrap();
        }
        // Empty "abcdefgh1" and, but for that child, "abcdefgh" behind the
        // back of `remove` (which would unlink them).
        for (key, plen) in [(&b"abcdefgh1x"[..], 9), (b"abcdefgh2", 8)] {
            let d = client.locate(key).unwrap();
            assert_eq!(d.node.header.prefix_len, plen);
            for (idx, slot) in d.node.slots.iter().enumerate() {
                if slot.is_some_and(|s| s.is_leaf) {
                    let word = d.node_ptr.checked_add(InnerNode::slot_offset(idx)).unwrap();
                    client.worker.dm.write_u64(word, 0).unwrap();
                }
            }
        }
        let before = index.verify().unwrap();
        assert!(before.is_clean(), "{:?}", before.problems);
        assert_eq!((before.leaves, before.empty_inner_nodes), (1, 2));

        let d = client.locate(b"abcxyz").unwrap();
        assert!(matches!(d.outcome, Outcome::EmptyChild { .. }), "{d:?}");
        assert_eq!(client.get(b"abcxyz").unwrap(), None);
        assert!(!client.update(b"abcxyz", b"v").unwrap());
        assert!(!client.remove(b"abcxyz").unwrap());
        assert_eq!(client.get(b"b").unwrap().as_deref(), Some(&b"v"[..]));

        client.insert(b"abcxyz", b"healed").unwrap();
        assert_eq!(
            client.get(b"abcxyz").unwrap().as_deref(),
            Some(&b"healed"[..])
        );
        let after = index.verify().unwrap();
        assert!(after.is_clean(), "{:?}", after.problems);
        assert_eq!((after.leaves, after.empty_inner_nodes), (2, 0));
        assert_eq!(after.inner_nodes, 1, "both emptied nodes are gone");
        assert_eq!(client.telemetry().counter("prune.nodes"), 2);
    }

    /// A split whose slot CAS lands in a node somebody holds `Locked` (a
    /// type switch that bails, an unlink of a sibling) is `Ambiguous`: the
    /// install site publishes nothing, and the retry's lookup finds the new
    /// node adopted. That verdict used to reclaim nothing *and publish
    /// nothing* — a live inner node without a hash entry.
    #[test]
    fn a_split_adopted_under_a_held_lock_is_still_published() {
        use art_core::layout::NodeStatus;

        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        client.insert(b"ab1", b"v").unwrap();
        let (root_ptr, root, _) = client.locate_entry(&[], 0).unwrap();
        let held = root.header.control_with_status(NodeStatus::Locked);
        client.worker.dm.write_u64(root_ptr, held).unwrap();
        client.insert(b"ab2", b"v").unwrap();
        client
            .worker
            .dm
            .write_u64(root_ptr, root.header.encode_control())
            .unwrap();

        assert_eq!(client.get(b"ab2").unwrap().as_deref(), Some(&b"v"[..]));
        let report = index.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!((report.inner_nodes, report.leaves), (2, 2));
    }

    #[test]
    fn verify_catches_injected_corruption() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for w in ["corrupt-a", "corrupt-b", "corrupt-c"] {
            client.insert(w.as_bytes(), b"v").unwrap();
        }
        // Break the inner node's prefix hash (word 1) wherever it lives.
        let h42 = art_core::hash::prefix_hash42(b"corrupt-");
        let mut hit = false;
        for mn_id in 0..cluster.num_mns() {
            let mn = cluster.mn(mn_id).unwrap();
            let mut buf = vec![0u8; mn.capacity()];
            mn.read_bytes(0, &mut buf).unwrap();
            for off in (0..buf.len() - 8).step_by(8) {
                if u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()) == h42 {
                    mn.store_u64(off as u64, h42 ^ 0b100).unwrap();
                    hit = true;
                }
            }
        }
        assert!(hit, "inner node for 'corrupt-' not found");
        let report = index.verify().unwrap();
        assert!(!report.is_clean(), "corruption must be reported");
    }
}
