//! # walk — the read side of a remote ART, once
//!
//! Inner nodes store a 42-bit hash of their full prefix, not its bytes, so
//! every walker that is not following one search key has to recover
//! prefixes from the leaves. The four algorithms that do so live here and
//! nowhere else, written against the small [`ArtReader`] trait an index
//! implements to say how *it* reads a node:
//!
//! 1. [`any_leaf`] — "some leaf below this node" (they all carry the
//!    node's full prefix), a bounded depth-first sampler that steps past
//!    emptied children and answers [`Sampled::Leaf`], [`Sampled::Empty`] or
//!    [`Sampled::Busy`];
//! 2. prefix resolution and the pruning rule of range walks
//!    ([`resolve_prefixes`], [`viable_children`], [`range_may_intersect`]);
//! 3. [`scan`] — the level-batched range scan of §IV, from any inner node
//!    whose full prefix is known;
//! 4. [`audit`] — the structural audit behind every `verify()`, with a
//!    per-node hook for what only the host can check.
//!
//! Nothing here issues a write verb.

use art_core::hash::prefix_hash42;
use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot};
use art_core::NodeKind;
use dm_sim::{DmClient, FirstInline, RemotePtr};
use std::ops::Range;

use crate::{EngineError, LeafReadStats};

/// How the index hosting a walk reads its nodes — the only things that
/// differ between Sphinx, SMART and ART on the read side.
pub trait ArtReader {
    /// The host's client, for reads no policy applies to.
    fn transport(&mut self) -> &mut DmClient;

    /// Bytes fetched for a leaf on first contact.
    fn leaf_hint(&self) -> usize;

    /// Reads the inner node a slot of kind `kind` points at (one round
    /// trip; a host with a node cache fills it here).
    ///
    /// # Errors
    ///
    /// Substrate and decode errors.
    fn read_inner(&mut self, ptr: RemotePtr, kind: NodeKind) -> Result<InnerNode, EngineError>;

    /// Reads a leaf through [`crate::read_validated_leaf`], attributed to
    /// the host's leaf-read phase.
    ///
    /// # Errors
    ///
    /// As [`crate::read_validated_leaf`].
    fn read_leaf(&mut self, ptr: RemotePtr) -> Result<LeafNode, EngineError>;

    /// Books leaf I/O the walker did on its own — the batched second read of
    /// leaves larger than the hint — where [`ArtReader::read_leaf`] books
    /// its own. The default counts nothing.
    fn note_leaf_io(&mut self, _io: LeafReadStats) {}

    /// Issues one scan level's reads and returns their bytes in **one**
    /// buffer, back to back in input order ([`level_spans`] says where
    /// each lies). The default is one doorbell batch for the whole level.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    fn read_level(&mut self, reads: &[(RemotePtr, usize)]) -> Result<Vec<u8>, EngineError> {
        Ok(self.transport().read_packed(reads)?)
    }

    /// A scan met the node behind `slot` mid type-switch: optionally wait
    /// and read it again. The default skips the subtree (it is reachable
    /// on the next scan).
    ///
    /// # Errors
    ///
    /// Substrate errors.
    fn reread_inner(&mut self, _slot: &Slot) -> Result<Option<InnerNode>, EngineError> {
        Ok(None)
    }

    /// [`audit`]'s per-node hook: checks of the node at `ptr`, whose full
    /// prefix resolved to `prefix`, that need more than the tree (Sphinx:
    /// its hash-table entry). Violations go to `problems`.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    fn audit_node(
        &mut self,
        _ptr: RemotePtr,
        _node: &InnerNode,
        _prefix: &[u8],
        _problems: &mut Vec<String>,
    ) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Where each read of a level fetched with [`ArtReader::read_level`] lies
/// in the level's buffer: `(address, byte range)`, in input order.
pub fn level_spans(
    reads: &[(RemotePtr, usize)],
) -> impl Iterator<Item = (RemotePtr, Range<usize>)> + '_ {
    let mut end = 0;
    reads.iter().map(move |&(addr, len)| {
        let span = end..end + len;
        end = span.end;
        (addr, span)
    })
}

/// Whether `node`, read through a slot naming `kind`, is the node the slot
/// meant (not retired, not replaced by a type switch).
fn usable(node: &InnerNode, kind: NodeKind) -> bool {
    node.header.status != NodeStatus::Invalid && node.header.kind == kind
}

/// What [`any_leaf`] found below a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sampled {
    /// A leaf of the subtree (possibly a tombstone still linked: its key
    /// carries the prefix all the same).
    Leaf(LeafNode),
    /// Every node of the subtree was read, none was retired, and none
    /// holds a leaf: the subtree is garbage deletes left behind.
    Empty,
    /// A retired or type-switched node blocked the walk: transient, retry.
    Busy,
}

/// Inner nodes [`any_leaf`] reads before it gives up with a typed error.
pub const SAMPLE_VISIT_BUDGET: usize = 256;

/// Fetches any leaf from `node`'s subtree, depth-first in slot order
/// (value slot, then child slots by index), stepping past children that
/// hold no leaf.
///
/// # Errors
///
/// [`EngineError::RetriesExhausted`] past [`SAMPLE_VISIT_BUDGET`] inner
/// nodes; otherwise what the host's reads return.
pub fn any_leaf<H: ArtReader>(host: &mut H, node: &InnerNode) -> Result<Sampled, EngineError> {
    // Pushed in reverse so the pops come in slot order, value slot first.
    fn push_candidates(stack: &mut Vec<Slot>, n: &InnerNode) {
        stack.extend(n.slots.iter().rev().flatten().copied());
        stack.extend(n.value_slot.map(|s| Slot { is_leaf: true, ..s }));
    }
    let mut stack = Vec::with_capacity(32);
    push_candidates(&mut stack, node);
    let mut visits = 0;
    while let Some(slot) = stack.pop() {
        if slot.is_leaf {
            return Ok(Sampled::Leaf(host.read_leaf(slot.addr)?));
        }
        visits += 1;
        if visits > SAMPLE_VISIT_BUDGET {
            return Err(EngineError::RetriesExhausted { op: "leaf sample" });
        }
        let child = host.read_inner(slot.addr, slot.child_kind)?;
        if !usable(&child, slot.child_kind) {
            return Ok(Sampled::Busy);
        }
        push_candidates(&mut stack, &child);
    }
    Ok(Sampled::Empty)
}

/// The prefix bytes a range walk tracks per queued subtree: on the stack up
/// to 40 bytes (every key of the paper's datasets), on the heap beyond.
pub type Prefix = dm_sim::InlineVec<u8, 40>;

/// Something a range walk has queued — a fetched inner node or the slot
/// of a subtree not fetched yet — with the prefix bytes known so far.
/// `exact` records whether `known` is a real key prefix: path compression
/// hides bytes, and once a gap appears the concatenation of dispatch bytes
/// is not one, so pruning must stop until the prefix is resolved again
/// (leaf-level filtering keeps the walk correct meanwhile). What nobody
/// will prune by — a leaf slot, a child of an inexact node — is queued
/// untracked: `known` empty, `exact` false.
#[derive(Debug, Clone)]
pub struct Tracked<N> {
    /// The node, or the slot pointing at it.
    pub at: N,
    /// Prefix bytes known so far.
    pub known: Prefix,
    /// Whether `known` is gap-free.
    pub exact: bool,
}

impl Tracked<InnerNode> {
    /// The root of a walk: prefix ε, known exactly.
    pub fn root(node: InnerNode) -> Self {
        Tracked {
            at: node,
            known: Prefix::default(),
            exact: true,
        }
    }

    /// Whether `known` is the node's complete full prefix.
    fn exact_here(&self) -> bool {
        self.exact && self.at.header.prefix_len as usize == self.known.len()
    }

    /// Learns the node's full prefix from the key of a leaf below it.
    fn adopt(&mut self, key: &[u8]) {
        let plen = self.at.header.prefix_len as usize;
        if key.len() >= plen {
            self.known = Prefix::from_slice(&key[..plen]);
            self.exact = true;
        }
    }
}

/// Prefix resolution: a node whose known prefix is shorter than its actual
/// one cannot be pruned — but any leaf below it reveals the full prefix.
/// Nodes with a direct leaf child share one batched read (settled like a
/// scan level's leaves, see [`settle_leaves`]); the others are sampled with
/// [`any_leaf`]. Keeps range walks proportional to the result size instead
/// of the subtree size.
///
/// # Errors
///
/// What the host's reads return.
pub fn resolve_prefixes<H: ArtReader>(
    host: &mut H,
    nodes: &mut [Tracked<InnerNode>],
) -> Result<(), EngineError> {
    let hint = host.leaf_hint();
    // Mostly one unresolved node a level: nothing to allocate for.
    let (mut direct, mut chains) = (FirstInline::default(), FirstInline::default());
    let mut reads = FirstInline::default();
    for (i, n) in nodes.iter().enumerate() {
        if n.exact_here() {
            continue;
        }
        let leaf_slot =
            n.at.value_slot
                .or_else(|| n.at.slots.iter().flatten().find(|s| s.is_leaf).copied());
        match leaf_slot {
            Some(slot) => {
                reads.push((slot.addr, hint));
                direct.push(i);
            }
            None => chains.push(i),
        }
    }
    if !reads.is_empty() {
        let level = host.transport().read_packed(&reads)?;
        let fetched = level_spans(&reads).map(|(addr, span)| (addr, &level[span]));
        let leaves = settle_leaves(host, fetched)?;
        for (i, leaf) in direct.into_iter().zip(leaves) {
            if let Some(leaf) = leaf {
                nodes[i].adopt(&leaf.key);
            }
        }
    }
    for i in chains {
        if let Sampled::Leaf(leaf) = any_leaf(host, &nodes[i].at)? {
            nodes[i].adopt(&leaf.key);
        }
    }
    Ok(())
}

/// Whether a subtree whose keys all start with `known` can hold keys in
/// `[low, high]` (`None`: unbounded above).
pub fn range_may_intersect(known: &[u8], low: &[u8], high: Option<&[u8]>) -> bool {
    // Every key below is >= known, so known > high puts them all above.
    if high.is_some_and(|high| known > high) {
        return false;
    }
    // Below low, a prefix reaches it only if low starts with it: any other
    // extension of known still compares below low.
    known >= low || low.starts_with(known)
}

/// The dispatch bytes `lo..=hi` for which `known ++ [byte]` still passes
/// [`range_may_intersect`], given that `known` itself does; `None` when no
/// child can (`high == known`: only the value slot is in range).
fn child_window(known: &[u8], low: &[u8], high: Option<&[u8]>) -> Option<(u8, u8)> {
    let next = |bound: &[u8]| bound.strip_prefix(known).map(|rest| rest.first().copied());
    // `low` continues `known`: children below its next byte stay below it.
    let lo = next(low).flatten().unwrap_or(0);
    let hi = match high.and_then(next) {
        // `high` continues `known`: children above its next byte exceed it.
        Some(Some(byte)) => byte,
        Some(None) => return None,
        None => u8::MAX,
    };
    Some((lo, hi))
}

/// Appends to `out` the slots of `n` a walk over `[low, high]` still has
/// to follow, in key order (value slot, then children by dispatch byte).
/// Prunes only where the prefix is exact, and decides from the parent's
/// prefix and the dispatch byte alone: a pruned slot costs nothing, and
/// only an inner child of an exact node gets a tracked prefix (a leaf is
/// filtered by its real key, a child of an inexact node is resolved from
/// scratch).
pub fn viable_children(
    n: &Tracked<InnerNode>,
    low: &[u8],
    high: Option<&[u8]>,
    out: &mut Vec<Tracked<Slot>>,
) {
    let exact = n.exact_here();
    let window = if exact {
        if !range_may_intersect(&n.known, low, high) {
            return;
        }
        child_window(&n.known, low, high)
    } else {
        Some((0, u8::MAX))
    };
    let untracked = |at| Tracked {
        at,
        known: Prefix::default(),
        exact: false,
    };
    out.extend(n.at.value_slot.map(untracked));
    let Some((lo, hi)) = window else { return };
    let in_window = |s: &&Slot| (lo..=hi).contains(&s.key_byte);
    out.reserve(n.at.slots.iter().flatten().filter(in_window).count());
    out.extend(n.at.children_between(lo, hi).map(|slot| {
        if slot.is_leaf || !exact {
            return untracked(slot);
        }
        let mut known = n.known.clone();
        known.push(slot.key_byte);
        Tracked {
            at: slot,
            known,
            exact,
        }
    }));
}

/// Decodes the leaves of one batched read made at the size hint, in input
/// order. Leaves whose first word names a size above what was read are
/// fetched again **together**, at their exact sizes, in one more
/// [`ArtReader::read_level`] (booked once each through
/// [`ArtReader::note_leaf_io`]); only a read that still does not decode —
/// genuinely torn — goes through the host's one-by-one retrying reader.
/// `None`: the leaf never settled — skip it.
///
/// # Errors
///
/// What the host's reads return, retry exhaustion excepted.
pub fn settle_leaves<'a, H: ArtReader>(
    host: &mut H,
    fetched: impl Iterator<Item = (RemotePtr, &'a [u8])>,
) -> Result<Vec<Option<LeafNode>>, EngineError> {
    let mut leaves = Vec::with_capacity(fetched.size_hint().0);
    // Positions in `leaves` still owed: oversized (with their exact reads)
    // and torn.
    let (mut big, mut big_reads, mut torn) = (Vec::new(), Vec::new(), Vec::new());
    for (addr, bytes) in fetched {
        let leaf = LeafNode::decode(bytes).ok();
        if leaf.is_none() {
            match LeafNode::stored_len(bytes) {
                Some(len) if len > bytes.len() => {
                    big.push(leaves.len());
                    big_reads.push((addr, len));
                }
                _ => torn.push((leaves.len(), addr)),
            }
        }
        leaves.push(leaf);
    }
    if !big.is_empty() {
        host.note_leaf_io(LeafReadStats {
            extended_reads: big.len() as u64,
            ..LeafReadStats::default()
        });
        let again = host.read_level(&big_reads)?;
        for (at, (addr, span)) in big.into_iter().zip(level_spans(&big_reads)) {
            match LeafNode::decode(&again[span]) {
                Ok(leaf) => leaves[at] = Some(leaf),
                Err(_) => torn.push((at, addr)),
            }
        }
    }
    for (at, addr) in torn {
        leaves[at] = match host.read_leaf(addr) {
            Ok(leaf) => Some(leaf),
            Err(EngineError::RetriesExhausted { .. }) => None,
            Err(e) => return Err(e),
        };
    }
    Ok(leaves)
}

/// Every `(key, value)` with `low <= key <= high` below `start`, ascending
/// (§IV "Scan"): top-down from `start`, each level pruned, fetched through
/// [`ArtReader::read_level`] and then resolved. `start` is any inner node
/// whose full prefix is `start.known`, exactly — the root
/// ([`Tracked::root`]), or a deeper node the host found some other way; the
/// walk returns the rows of that subtree only, so it is complete when the
/// prefix prefixes both bounds. A best-effort snapshot under concurrent
/// structural changes, like the paper's protocol.
///
/// # Errors
///
/// What the host's reads return.
#[allow(clippy::type_complexity)]
pub fn scan<H: ArtReader>(
    host: &mut H,
    start: &Tracked<InnerNode>,
    low: &[u8],
    high: &[u8],
) -> Result<Vec<(Vec<u8>, Vec<u8>)>, EngineError> {
    let hint = host.leaf_hint();
    let mut results: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    // Level buffers, reused from one level to the next.
    let (mut inners, mut pending) = (Vec::new(), Vec::new());
    let (mut reads, mut leaves) = (Vec::new(), Vec::new());
    viable_children(start, low, Some(high), &mut pending);
    while !pending.is_empty() {
        reads.clear();
        reads.extend(pending.iter().map(|p| {
            let len = if p.at.is_leaf {
                hint
            } else {
                InnerNode::byte_size(p.at.child_kind)
            };
            (p.at.addr, len)
        }));
        let level = host.read_level(&reads)?;
        for (p, (addr, span)) in pending.drain(..).zip(level_spans(&reads)) {
            if p.at.is_leaf {
                leaves.push((addr, span));
                continue;
            }
            let node = match InnerNode::decode(&level[span]) {
                Ok(node) if usable(&node, p.at.child_kind) => Some(node),
                _ => host.reread_inner(&p.at)?,
            };
            if let Some(node) = node {
                inners.push(Tracked {
                    at: node,
                    known: p.known,
                    exact: p.exact,
                });
            }
        }
        results.reserve(leaves.len());
        let fetched = leaves.drain(..).map(|(addr, span)| (addr, &level[span]));
        for leaf in settle_leaves(host, fetched)?.into_iter().flatten() {
            if leaf.status != NodeStatus::Invalid
                && leaf.key.as_slice() >= low
                && leaf.key.as_slice() <= high
            {
                results.push((leaf.key, leaf.value));
            }
        }
        resolve_prefixes(host, &mut inners)?;
        for n in inners.drain(..) {
            viable_children(&n, low, Some(high), &mut pending);
        }
    }
    results.sort_by(|a, b| a.0.cmp(&b.0));
    results.dedup_by(|a, b| a.0 == b.0);
    Ok(results)
}

/// Outcome of [`audit`].
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Inner nodes visited.
    pub inner_nodes: usize,
    /// Live leaves visited (tombstoned leaves are skipped, not counted).
    pub leaves: usize,
    /// Deepest prefix length observed.
    pub max_prefix_len: usize,
    /// Non-root inner nodes whose subtree holds no leaf: legal garbage
    /// between a delete's abandoned unlink and the insert that heals it,
    /// so counted here and not in `problems`.
    pub empty_inner_nodes: usize,
    /// Human-readable descriptions of every broken invariant found.
    pub problems: Vec<String>,
}

impl AuditReport {
    /// Whether the tree passed every check.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Audits the whole tree behind `root` (run only while quiescent —
/// concurrent writers make transient states look like violations). Per
/// inner node: the header decodes, is `Idle`, has the kind its slot names
/// and a prefix length extending its parent's; the 42-bit prefix hash
/// matches the prefix reconstructed with [`any_leaf`]; dispatch bytes are
/// unique; every leaf passes the validated read, starts with the prefix
/// and sits in the slot its key dispatches to (value slot: key == prefix);
/// plus [`ArtReader::audit_node`]. A node whose prefix cannot be resolved
/// is reported and its children are audited all the same.
///
/// # Errors
///
/// Substrate errors; *violations* are reported, not returned.
pub fn audit<H: ArtReader>(host: &mut H, root: Slot) -> Result<AuditReport, EngineError> {
    let mut report = AuditReport::default();
    let mut queue = vec![(root.addr, root.child_kind, 0usize)];
    while let Some((ptr, kind, parent_len)) = queue.pop() {
        let node = match host.read_inner(ptr, kind) {
            Ok(node) => node,
            Err(EngineError::Layout(e)) => {
                report
                    .problems
                    .push(format!("node {ptr}: undecodable: {e}"));
                continue;
            }
            Err(e) => return Err(e),
        };
        report.inner_nodes += 1;
        let plen = node.header.prefix_len as usize;
        report.max_prefix_len = report.max_prefix_len.max(plen);
        if node.header.status != NodeStatus::Idle {
            report.problems.push(format!(
                "node {ptr}: status {:?} on quiescent tree",
                node.header.status
            ));
        }
        if node.header.kind != kind {
            report.problems.push(format!(
                "node {ptr}: kind {:?} does not match pointing slot {kind:?}",
                node.header.kind
            ));
            continue;
        }
        if plen < parent_len || (plen == parent_len && parent_len != 0) {
            report.problems.push(format!(
                "node {ptr}: prefix length {plen} does not extend parent ({parent_len})"
            ));
        }

        let prefix = match any_leaf(host, &node) {
            Ok(Sampled::Leaf(leaf)) if leaf.key.len() >= plen => Some(leaf.key[..plen].to_vec()),
            Ok(Sampled::Empty) if ptr == root.addr => Some(Vec::new()),
            Ok(Sampled::Empty) => {
                report.empty_inner_nodes += 1;
                None
            }
            Ok(Sampled::Leaf(leaf)) => {
                report.problems.push(format!(
                    "node {ptr}: sampled leaf key shorter ({}) than prefix length {plen}",
                    leaf.key.len()
                ));
                None
            }
            Ok(Sampled::Busy) => {
                report.problems.push(format!(
                    "node {ptr}: a retired node below it blocks prefix resolution"
                ));
                None
            }
            Err(e @ EngineError::Dm(_)) => return Err(e),
            Err(e) => {
                report
                    .problems
                    .push(format!("node {ptr}: prefix unresolved: {e}"));
                None
            }
        };
        if let Some(prefix) = &prefix {
            if node.header.prefix_hash42 != prefix_hash42(prefix) {
                report.problems.push(format!(
                    "node {ptr}: full-prefix hash mismatch for {:?}",
                    String::from_utf8_lossy(prefix)
                ));
            }
            host.audit_node(ptr, &node, prefix, &mut report.problems)?;
        }

        if let Some(slot) = node.value_slot {
            audit_leaf(host, &slot, plen, prefix.as_deref(), true, &mut report)?;
        }
        let mut seen = std::collections::HashSet::new();
        for slot in node.slots.iter().flatten() {
            if !seen.insert(slot.key_byte) {
                report.problems.push(format!(
                    "node {ptr}: duplicate dispatch byte {:#x}",
                    slot.key_byte
                ));
            }
            if slot.is_leaf {
                audit_leaf(host, slot, plen, prefix.as_deref(), false, &mut report)?;
            } else {
                queue.push((slot.addr, slot.child_kind, plen));
            }
        }
    }
    Ok(report)
}

/// Reads and checks one leaf hanging off a node of prefix length `plen`.
fn audit_leaf<H: ArtReader>(
    host: &mut H,
    slot: &Slot,
    plen: usize,
    prefix: Option<&[u8]>,
    value_slot: bool,
    report: &mut AuditReport,
) -> Result<(), EngineError> {
    let leaf = match host.read_leaf(slot.addr) {
        Ok(leaf) => leaf,
        Err(e @ EngineError::Dm(_)) => return Err(e),
        Err(e) => {
            report
                .problems
                .push(format!("leaf {}: unreadable: {e}", slot.addr));
            return Ok(());
        }
    };
    if leaf.status == NodeStatus::Invalid {
        // Tombstone awaiting unlink; structurally fine.
        return Ok(());
    }
    report.leaves += 1;
    let key = String::from_utf8_lossy(&leaf.key);
    if prefix.is_some_and(|prefix| !leaf.key.starts_with(prefix)) {
        report.problems.push(format!(
            "leaf {}: key {key:?} does not start with its parent's prefix",
            slot.addr
        ));
    }
    if value_slot && leaf.key.len() != plen {
        report.problems.push(format!(
            "leaf {}: value-slot key {key:?} is not the node's prefix",
            slot.addr
        ));
    }
    if !value_slot && leaf.key.get(plen) != Some(&slot.key_byte) {
        report.problems.push(format!(
            "leaf {}: dispatch byte {:#x} does not match key {key:?}",
            slot.addr, slot.key_byte
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        invalidate_inner, read_inner_consistent, read_validated_leaf, write_new_inner,
        write_new_leaf, LeafReadStats, RetryPolicy,
    };
    use dm_sim::{ClusterConfig, DmClient, DmCluster};

    /// The plainest reader: one transport, no cache, no phases; counts the
    /// leaf I/O the walker books.
    pub(crate) struct Host(pub(crate) DmClient, pub(crate) LeafReadStats);

    impl ArtReader for Host {
        fn transport(&mut self) -> &mut DmClient {
            &mut self.0
        }
        fn leaf_hint(&self) -> usize {
            128
        }
        fn read_inner(&mut self, ptr: RemotePtr, kind: NodeKind) -> Result<InnerNode, EngineError> {
            read_inner_consistent(&mut self.0, ptr, kind)
        }
        fn read_leaf(&mut self, ptr: RemotePtr) -> Result<LeafNode, EngineError> {
            let mut io = LeafReadStats::default();
            read_validated_leaf(&mut self.0, ptr, 128, &RetryPolicy::default(), &mut io)
        }
        fn note_leaf_io(&mut self, io: LeafReadStats) {
            self.1.merge(&io);
        }
    }

    pub(crate) fn host() -> Host {
        let client = DmCluster::new(ClusterConfig::default()).client(0);
        Host(client, LeafReadStats::default())
    }

    /// Writes an inner node for `prefix` with the given children.
    pub(crate) fn inner(h: &mut Host, kind: NodeKind, prefix: &[u8], children: &[Slot]) -> Slot {
        let mut n = InnerNode::new(kind, prefix);
        for c in children {
            n.set_child(*c);
        }
        let ptr = write_new_inner(&mut h.0, &n, prefix).unwrap();
        Slot::inner(*prefix.last().unwrap_or(&0), kind, ptr)
    }

    pub(crate) fn leaf(h: &mut Host, key: &[u8]) -> Slot {
        let ptr = write_new_leaf(&mut h.0, key, b"v").unwrap();
        Slot::leaf(*key.last().unwrap(), ptr)
    }

    pub(crate) fn node_of(h: &mut Host, slot: Slot) -> InnerNode {
        read_inner_consistent(&mut h.0, slot.addr, slot.child_kind).unwrap()
    }

    #[test]
    fn a_live_first_chain_costs_exactly_its_own_reads() {
        let mut h = host();
        let l = leaf(&mut h, b"abc");
        let mid = inner(&mut h, NodeKind::Node4, b"ab", &[l]);
        let other = leaf(&mut h, b"az");
        let top = inner(&mut h, NodeKind::Node16, b"a", &[mid, other]);
        let top = node_of(&mut h, top);
        let before = h.0.stats().round_trips;
        let got = any_leaf(&mut h, &top).unwrap();
        assert!(matches!(got, Sampled::Leaf(l) if l.key == b"abc"));
        assert_eq!(
            h.0.stats().round_trips - before,
            2,
            "first slot's inner node, then its leaf — what a first-slot walk reads"
        );
    }

    #[test]
    fn the_value_slot_is_probed_first() {
        let mut h = host();
        let l = leaf(&mut h, b"ab");
        let deep = leaf(&mut h, b"abc");
        let mut n = InnerNode::new(NodeKind::Node4, b"ab");
        n.value_slot = Some(Slot::leaf(0, l.addr));
        n.set_child(deep);
        assert!(matches!(any_leaf(&mut h, &n).unwrap(), Sampled::Leaf(l) if l.key == b"ab"));
    }

    #[test]
    fn a_dead_end_first_chain_falls_through_to_a_live_sibling() {
        let mut h = host();
        let emptied = inner(&mut h, NodeKind::Node4, b"aa", &[]);
        let chain = inner(&mut h, NodeKind::Node4, b"ab", &[emptied]);
        let l = leaf(&mut h, b"acd");
        let live = inner(&mut h, NodeKind::Node4, b"ac", &[l]);
        let top = inner(&mut h, NodeKind::Node4, b"a", &[chain, live]);
        let top = node_of(&mut h, top);
        let got = any_leaf(&mut h, &top).unwrap();
        assert!(matches!(got, Sampled::Leaf(l) if l.key == b"acd"));
    }

    #[test]
    fn a_subtree_without_a_leaf_is_empty() {
        let mut h = host();
        let e1 = inner(&mut h, NodeKind::Node4, b"aa", &[]);
        let e2 = inner(&mut h, NodeKind::Node4, b"abc", &[]);
        let chain = inner(&mut h, NodeKind::Node4, b"ab", &[e2]);
        let top = inner(&mut h, NodeKind::Node4, b"a", &[e1, chain]);
        let top = node_of(&mut h, top);
        assert_eq!(any_leaf(&mut h, &top).unwrap(), Sampled::Empty);
        let slotless = InnerNode::new(NodeKind::Node4, b"zz");
        assert_eq!(any_leaf(&mut h, &slotless).unwrap(), Sampled::Empty);
    }

    #[test]
    fn a_retired_or_switched_child_is_busy() {
        let mut h = host();
        let gone = inner(&mut h, NodeKind::Node4, b"aa", &[]);
        let image = node_of(&mut h, gone);
        invalidate_inner(&mut h.0, gone.addr, &image).unwrap();
        let l = leaf(&mut h, b"ab");
        let top = inner(&mut h, NodeKind::Node4, b"a", &[gone, l]);
        let top = node_of(&mut h, top);
        assert_eq!(any_leaf(&mut h, &top).unwrap(), Sampled::Busy);

        // A slot naming another kind than the node has (its region was
        // recycled).
        let recycled = inner(&mut h, NodeKind::Node4, b"ba", &[]);
        let stale = Slot::inner(b'a', NodeKind::Node16, recycled.addr);
        let mut top = InnerNode::new(NodeKind::Node4, b"b");
        top.set_child(stale);
        assert_eq!(any_leaf(&mut h, &top).unwrap(), Sampled::Busy);
    }

    #[test]
    fn the_visit_budget_ends_in_a_typed_error() {
        let mut h = host();
        let mut top = InnerNode::new(NodeKind::Node256, b"a");
        for b in 0..=255u8 {
            // 256 emptied children, the first with one emptied child of its
            // own: 257 inner nodes to visit.
            let below: Vec<Slot> = (b == 0)
                .then(|| inner(&mut h, NodeKind::Node4, &[b'a', 0, 0], &[]))
                .into_iter()
                .collect();
            top.set_child(inner(&mut h, NodeKind::Node4, &[b'a', b], &below));
        }
        assert_eq!(
            any_leaf(&mut h, &top),
            Err(EngineError::RetriesExhausted { op: "leaf sample" })
        );
        // One fewer fits the budget and is reported for what it is.
        top.slots[255] = None;
        assert_eq!(any_leaf(&mut h, &top).unwrap(), Sampled::Empty);
    }

    #[test]
    fn intersect_logic() {
        let hi = |h: &'static [u8]| Some(h);
        assert!(range_may_intersect(b"b", b"a", hi(b"c")));
        assert!(range_may_intersect(b"a", b"ab", hi(b"c"))); // low starts with known
        assert!(!range_may_intersect(b"d", b"a", hi(b"c"))); // above range
        assert!(range_may_intersect(b"d", b"a", None)); // ... unless unbounded
        assert!(!range_may_intersect(b"a", b"b", hi(b"c"))); // below, not prefix of low
        assert!(range_may_intersect(b"", b"x", hi(b"y"))); // root always viable
    }

    /// Keys behind a compressed path are pruned by resolved prefix, found
    /// by range, and audited, by the plainest host.
    #[test]
    fn scan_and_audit_agree_on_a_hand_built_tree() {
        let mut h = host();
        let keys: [&[u8]; 4] = [b"user01@x", b"user02@x", b"user02@y", b"zed"];
        let l: Vec<Slot> = keys.iter().map(|k| leaf(&mut h, k)).collect();
        // `inner` and `leaf` dispatch on the last byte; re-key where the
        // parent's prefix ends earlier.
        let rekey = |key_byte, slot| Slot { key_byte, ..slot };
        let fork = inner(&mut h, NodeKind::Node4, b"user02@", &[l[1], l[2]]);
        let below = [rekey(b'1', l[0]), rekey(b'2', fork)];
        let users = inner(&mut h, NodeKind::Node4, b"user0", &below);
        let top = [rekey(b'u', users), rekey(b'z', l[3])];
        let root = inner(&mut h, NodeKind::Node4, b"", &top);

        let root_node = node_of(&mut h, root);
        let root_node = Tracked::root(root_node);
        let all = scan(&mut h, &root_node, b"", b"~").unwrap();
        assert_eq!(all.iter().map(|(k, _)| &k[..]).collect::<Vec<_>>(), keys);
        let some = scan(&mut h, &root_node, b"user02", b"user02@x").unwrap();
        assert_eq!(some.len(), 1);

        // From a non-root start whose prefix is known: the root scan
        // restricted to that subtree, for fewer reads.
        let users = Tracked {
            at: node_of(&mut h, users),
            known: Prefix::from_slice(b"user0"),
            exact: true,
        };
        let before = h.0.stats().round_trips;
        let below = scan(&mut h, &users, b"", b"~").unwrap();
        let from_users = h.0.stats().round_trips - before;
        assert_eq!(below, all[..3]);
        let before = h.0.stats().round_trips;
        let some = scan(&mut h, &root_node, b"user01", b"user02@x").unwrap();
        assert!(from_users < h.0.stats().round_trips - before);
        assert_eq!(scan(&mut h, &users, b"user01", b"user02@x").unwrap(), some);
        assert_eq!(some, all[..2]);

        let report = audit(&mut h, root).unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!((report.inner_nodes, report.leaves), (3, 4));
        assert_eq!(report.max_prefix_len, 7);
        assert_eq!(report.empty_inner_nodes, 0);
    }

    /// Pruning decides from the parent's prefix and the dispatch byte: a
    /// slot outside the window is never materialised, and only an inner
    /// child of an exact node carries a prefix buffer.
    #[test]
    fn a_full_node256_pushes_exactly_its_window() {
        let at = |b: u8| RemotePtr::new(0, 64 * (b as u64 + 1));
        let mut node = InnerNode::new(NodeKind::Node256, b"ab");
        for b in 0..=255u8 {
            node.set_child(match b % 2 {
                0 => Slot::inner(b, NodeKind::Node4, at(b)),
                _ => Slot::leaf(b, at(b)),
            });
        }
        node.value_slot = Some(Slot::leaf(0, at(0)));
        let exact = Tracked {
            at: node,
            known: Prefix::from_slice(b"ab"),
            exact: true,
        };
        let pushed = |n: &Tracked<InnerNode>, low: &[u8], high: Option<&[u8]>| {
            let mut out = Vec::new();
            viable_children(n, low, high, &mut out);
            out
        };

        let out = pushed(&exact, b"ab\x10\xFF", Some(b"ab\x12"));
        let bytes: Vec<u8> = out.iter().map(|p| p.at.key_byte).collect();
        assert_eq!(bytes, [0, 0x10, 0x11, 0x12], "value slot, then the window");
        for p in &out[1..] {
            match p.at.is_leaf {
                // Filtered by its real key: no prefix at all.
                true => assert_eq!((p.known.len(), p.exact), (0, false)),
                false => {
                    assert_eq!(&*p.known, [b'a', b'b', p.at.key_byte]);
                    assert!(p.exact);
                }
            }
        }
        // Unbounded above, bounded below by a proper extension.
        assert_eq!(pushed(&exact, b"ab\xFE\x00", None).len(), 1 + 2);
        // `high` is the prefix itself: the value slot and nothing else.
        assert_eq!(pushed(&exact, b"a", Some(b"ab")).len(), 1);
        // The subtree misses the range altogether.
        assert!(pushed(&exact, b"ac", Some(b"ad")).is_empty());
        assert!(pushed(&exact, b"a", Some(b"aa")).is_empty());
        // Bounds that diverge above the node leave every child viable.
        assert_eq!(pushed(&exact, b"aa", Some(b"ac")).len(), 1 + 256);

        // A prefix with a gap cannot prune: everything, untracked.
        let inexact = Tracked {
            known: Prefix::from_slice(b"a"),
            ..exact
        };
        let out = pushed(&inexact, b"ab\x10", Some(b"ab\x12"));
        assert_eq!(out.len(), 1 + 256);
        assert!(out.iter().all(|p| !p.exact && p.known.is_empty()));
    }

    /// What `child_window` computes is `range_may_intersect` applied to
    /// the prefix extended by each byte.
    #[test]
    fn the_child_window_is_the_per_byte_pruning_rule() {
        let bounds: [&[u8]; 9] = [
            b"",
            b"a",
            b"ab",
            b"ab\x00",
            b"ab\x07",
            b"ab\x07\x01",
            b"ab\xFF",
            b"ac",
            b"b",
        ];
        let known = b"ab";
        for low in bounds {
            for high in bounds.iter().map(|h| Some(*h)).chain([None]) {
                if !range_may_intersect(known, low, high) {
                    continue;
                }
                let window = child_window(known, low, high);
                for b in 0..=255u8 {
                    let extended = [known.as_slice(), &[b]].concat();
                    assert_eq!(
                        window.is_some_and(|(lo, hi)| (lo..=hi).contains(&b)),
                        range_may_intersect(&extended, low, high),
                        "[{low:02x?}, {high:02x?}] byte {b:#x}"
                    );
                }
            }
        }
    }

    /// Leaves larger than the hint are re-read in one batch, booked once
    /// each; a torn one goes through the retrying reader.
    #[test]
    fn oversized_leaves_share_one_second_read() {
        let mut h = host();
        let sizes = [10usize, 300, 90, 500, 113];
        let addrs: Vec<RemotePtr> = sizes
            .iter()
            .map(|&n| write_new_leaf(&mut h.0, &[n as u8], &vec![7; n]).unwrap())
            .collect();
        let reads: Vec<_> = addrs.iter().map(|&a| (a, 128)).collect();
        let before = h.0.stats().round_trips;
        let level = h.0.read_packed(&reads).unwrap();
        let first = h.0.stats().round_trips - before;
        let fetched = level_spans(&reads).map(|(addr, span)| (addr, &level[span]));
        let leaves = settle_leaves(&mut h, fetched).unwrap();
        let lens: Vec<usize> = leaves.iter().flatten().map(|l| l.value.len()).collect();
        assert_eq!(lens, sizes, "input order");
        assert_eq!(h.1.extended_reads, 3, "300, 500 and 113 B exceed the hint");
        assert!(
            h.0.stats().round_trips - before <= 2 * first,
            "one more batch, not two reads per oversized leaf"
        );
    }
}
