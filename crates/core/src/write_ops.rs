//! Write operations: insert, update, delete (§IV). The remote-ART write
//! protocol they run — the five insert cases, guarded installs, the type
//! switch — is [`node_engine::write`]; this module is what Sphinx adds to
//! it through [`WriteHost`]: the Inner Node Hash Table publish, replace
//! and reconcile, the Succinct Filter Cache insert, the INHT-based parent
//! swing, delete's prune-and-chase, and the deferred re-probe of ambiguous
//! installs.

use art_core::hash::{fp12, prefix_hash42, prefix_hash64};
use art_core::layout::{HashEntry, InnerNode, NodeStatus, Slot};
use art_core::NodeKind;
use dm_sim::{DmClient, RemotePtr, RetryPolicy};
use node_engine::write::{self, Pending};
use node_engine::{install_word, read_inner_consistent, retire_leaf, Install, WriteHost};
use obs::{OpKind, Phase};
use race_hash::RaceError;

use crate::client::{AmbiguousProbe, Descent, Outcome, SphinxClient};
use crate::config::CacheMode;
use crate::error::SphinxError;

/// The split oracle the Inner Node Hash Table needs: recover each entry's
/// key hash from the entry word by reading the referenced node's 42-bit
/// full-prefix hash (word 1), which equals the low 42 bits of the
/// placement hash. One doorbell batch for the whole round of words.
fn inht_split_oracle(client: &mut DmClient, words: Vec<u64>) -> Result<Vec<u64>, RaceError> {
    let mut reads = Vec::with_capacity(words.len());
    for word in words {
        let entry = HashEntry::decode(word).ok_or(RaceError::Corrupt {
            what: "undecodable hash entry",
        })?;
        reads.push((entry.addr.checked_add(8)?, 8));
    }
    Ok(client
        .read_many(&reads)?
        .into_iter()
        .map(|w1| u64::from_le_bytes(w1.try_into().expect("8 bytes")) & ((1 << 42) - 1))
        .collect())
}

impl SphinxClient {
    /// Inserts or overwrites `key` with `value` (upsert, matching YCSB
    /// insert semantics).
    ///
    /// # Errors
    ///
    /// [`SphinxError::KeyTooLong`], [`SphinxError::RetriesExhausted`]
    /// under pathological contention, or substrate errors.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), SphinxError> {
        self.stats.inserts += 1;
        self.obs_begin(OpKind::Insert);
        let r = write::insert(self, key, value);
        self.op_exit();
        r
    }

    /// Updates an existing key. Returns `false` if the key is absent.
    ///
    /// Fits-in-place updates use the checksum scheme of §III-C: one CAS to
    /// lock, one write that simultaneously stores the value, refreshes the
    /// checksum and releases the lock.
    ///
    /// # Errors
    ///
    /// Same classes as [`SphinxClient::insert`].
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<bool, SphinxError> {
        self.stats.updates += 1;
        self.obs_begin(OpKind::Update);
        let r = write::update(self, key, value);
        self.op_exit();
        r
    }

    /// Deletes a key. Returns whether this client performed the deletion.
    ///
    /// # Errors
    ///
    /// Same classes as [`SphinxClient::insert`].
    pub fn remove(&mut self, key: &[u8]) -> Result<bool, SphinxError> {
        self.stats.deletes += 1;
        self.obs_begin(OpKind::Delete);
        let r = write::remove(self, key);
        self.op_exit();
        r
    }

    /// After this client invalidated a leaf but lost the unlink race (e.g.
    /// to a concurrent type switch that copied the slot), chase the moved
    /// slot until it is cleared.
    fn unlink_invalid_leaf(&mut self, key: &[u8]) -> Result<(), SphinxError> {
        for _ in 0..self.retry.op_retries {
            let d = self.locate(key)?;
            match d.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key && leaf.status == NodeStatus::Invalid => {
                    let offset = slot_ref.offset();
                    if install_word(&mut self.dm, d.node_ptr, offset, slot.encode(), 0)?
                        == Install::Done
                    {
                        // Won the (moved) unlink: retire the tombstoned
                        // leaf exactly as on the fast path.
                        let SphinxClient { dm, reclaim, .. } = self;
                        retire_leaf(dm, reclaim, slot.addr, leaf);
                        return Ok(());
                    }
                    self.dm.backoff(&self.retry);
                }
                // Slot already gone: whoever cleared (or replaced) it won
                // the unlink and owns the region's retirement.
                _ => return Ok(()),
            }
        }
        Err(SphinxError::RetriesExhausted { op: "unlink" })
    }

    /// Unlinks the inner node with full prefix `key[..plen]` after `remove`
    /// emptied it, then its ancestors for as long as each unlink leaves the
    /// next one empty. The root stays.
    fn prune_emptied(
        &mut self,
        key: &[u8],
        node: &InnerNode,
        node_ptr: RemotePtr,
    ) -> Result<(), SphinxError> {
        let (mut node, mut node_ptr) = (node.clone(), node_ptr);
        loop {
            let plen = node.header.prefix_len as usize;
            if plen == 0 {
                return Ok(());
            }
            let Some((parent_ptr, mut parent, idx, slot)) =
                self.find_parent_slot(key, plen, node_ptr)?
            else {
                return Ok(());
            };
            if !write::prune_empty_inner(self, parent_ptr, &parent, idx, &slot, &node)? {
                return Ok(());
            }
            parent.slots[idx] = None;
            if parent.value_slot.is_some() || parent.child_count() > 0 {
                return Ok(());
            }
            (node, node_ptr) = (parent, parent_ptr);
        }
    }

    /// Re-points the Inner Node Hash Table entry for `key[..plen]` at the
    /// node the live tree actually holds at that position (found by a pure
    /// tree walk, bypassing the possibly-stale hash table).
    fn repair_inht_entry(
        &mut self,
        key: &[u8],
        plen: usize,
        stale_ptr: RemotePtr,
    ) -> Result<(), SphinxError> {
        let Some((live_ptr, node)) = self.live_node_at(key, plen)? else {
            return Ok(());
        };
        if live_ptr == stale_ptr
            || node.header.prefix_len as usize != plen
            || node.header.status == NodeStatus::Invalid
        {
            return Ok(());
        }
        let prefix = &key[..plen];
        if node.header.prefix_hash42 != prefix_hash42(prefix) {
            return Ok(()); // different subtree; not ours to touch
        }
        let h = prefix_hash64(prefix);
        let mn = self.dm.place(h) as usize;
        let fp = fp12(prefix);
        // Replace whatever entry currently names the stale node.
        let SphinxClient { tables, dm, .. } = self;
        let found = tables[mn].search(dm, h)?;
        for e in found {
            if let Some(he) = HashEntry::decode(e.word) {
                if he.fp == fp && he.addr == stale_ptr {
                    let fresh = HashEntry {
                        fp,
                        kind: node.header.kind,
                        addr: live_ptr,
                    };
                    let _ = tables[mn].replace(dm, h, e.word, fresh.encode())?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// The node the live tree holds at `key[..plen]`, by a pure tree walk
    /// from the root (at most 64 levels) that bypasses the hash table, with
    /// its address; `None` when the walk leaves the key or never leaves the
    /// root. The node may still be retired, or at another prefix length
    /// when the walk ran out of levels: callers check.
    fn live_node_at(
        &mut self,
        key: &[u8],
        plen: usize,
    ) -> Result<Option<(RemotePtr, InnerNode)>, SphinxError> {
        let (_, mut node, _) = self.locate_entry(key, 0)?;
        let mut node_ptr = None;
        for _ in 0..64 {
            let nplen = node.header.prefix_len as usize;
            if nplen == plen {
                break;
            }
            if nplen > plen || key.len() <= nplen {
                return Ok(None); // position no longer exists
            }
            let Some((_, slot)) = node.find_child(key[nplen]) else {
                return Ok(None);
            };
            if slot.is_leaf {
                return Ok(None);
            }
            node = read_inner_consistent(&mut self.dm, slot.addr, slot.child_kind)?;
            node_ptr = Some(slot.addr);
        }
        Ok(node_ptr.map(|ptr| (ptr, node)))
    }

    /// Walks from an ancestor entry node to the node whose child slot
    /// holds `child_ptr`: its address and image, the slot's index, the slot.
    fn find_parent_slot(
        &mut self,
        key: &[u8],
        child_plen: usize,
        child_ptr: RemotePtr,
    ) -> Result<Option<(RemotePtr, InnerNode, usize, Slot)>, SphinxError> {
        'outer: for _ in 0..64 {
            let (mut ptr, mut node, _len) = self.locate_entry(key, child_plen - 1)?;
            loop {
                if node.header.status == NodeStatus::Invalid {
                    self.dm.backoff(&self.retry);
                    continue 'outer;
                }
                let plen = node.header.prefix_len as usize;
                if plen >= child_plen {
                    continue 'outer;
                }
                let byte = key[plen];
                let Some((idx, slot)) = node.find_child(byte) else {
                    return Ok(None);
                };
                if slot.addr == child_ptr {
                    return Ok(Some((ptr, node, idx, slot)));
                }
                if slot.is_leaf {
                    return Ok(None);
                }
                let child = read_inner_consistent(&mut self.dm, slot.addr, slot.child_kind)?;
                if child.header.kind != slot.child_kind {
                    continue 'outer;
                }
                ptr = slot.addr;
                node = child;
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Deferred ownership re-probes for ambiguous installs.
    //
    // An `Install::Ambiguous` word may or may not survive in the
    // type-switched copy of its node, so the regions it references can be
    // neither used nor freed at the install site. Each ambiguous install
    // records an `AmbiguousProbe`; a later lookup of the same key decides
    // ownership from what the tree actually serves:
    //
    // * our region answers the key        → the tree adopted the word; the
    //                                        region it *replaced* is ours
    //                                        to retire;
    // * the replaced word is still linked → the CAS provably never landed
    //                                        (an unlinked word can never
    //                                        be re-linked), so our region
    //                                        was never visible;
    // * anything else                     → a third party has since won a
    //                                        CAS over whichever word
    //                                        survived, and ownership moved
    //                                        with it: abandon the entry
    //                                        (counted, bounded leak)
    //                                        rather than risk a double
    //                                        free.
    // ------------------------------------------------------------------

    /// Resolves up to two pending probes with a fresh lookup each. Runs at
    /// operation exits, attributed to the maintenance phase; never fails
    /// the caller's operation.
    pub(crate) fn probe_ambiguous(&mut self) {
        const MAX_PROBES_PER_OP: usize = 2;
        for _ in 0..MAX_PROBES_PER_OP {
            let Some(probe) = self.ambiguous.pop() else {
                return;
            };
            let verdict = match self.locate(&probe.key) {
                Ok(d) => Self::probe_evidence(&probe, &d),
                Err(_) => ProbeVerdict::Unknown,
            };
            if !self.settle_probe(probe, verdict) {
                // Re-queued: stop so one stuck entry is not probed twice
                // in the same operation.
                return;
            }
        }
    }

    /// What a fresh descent for the probe's key says about adoption.
    fn probe_evidence(probe: &AmbiguousProbe, d: &Descent) -> ProbeVerdict {
        match probe.kind {
            Pending::SwapLeaf { old, fresh, .. } => match &d.outcome {
                Outcome::Leaf { slot, leaf, .. } if slot.addr == fresh && leaf.key == probe.key => {
                    ProbeVerdict::Adopted
                }
                Outcome::Leaf { slot, .. } if slot.addr == old => ProbeVerdict::NotAdopted,
                _ => ProbeVerdict::ThirdParty,
            },
            Pending::NewInner {
                node, leaf, old, ..
            } => {
                if d.node_ptr == node {
                    return ProbeVerdict::Adopted;
                }
                match &d.outcome {
                    Outcome::Leaf { slot, leaf: l, .. }
                        if slot.addr == leaf && l.key == probe.key =>
                    {
                        ProbeVerdict::Adopted
                    }
                    Outcome::Leaf { slot, .. } if slot.addr == old => ProbeVerdict::NotAdopted,
                    Outcome::Divergent { slot, .. } | Outcome::EmptyChild { slot, .. }
                        if slot.addr == old =>
                    {
                        ProbeVerdict::NotAdopted
                    }
                    _ => ProbeVerdict::ThirdParty,
                }
            }
            Pending::TypeSwitch { grown, leaf, .. } => {
                if d.node_ptr == grown {
                    return ProbeVerdict::Adopted;
                }
                match &d.outcome {
                    Outcome::Leaf { slot, leaf: l, .. }
                        if slot.addr == leaf && l.key == probe.key =>
                    {
                        ProbeVerdict::Adopted
                    }
                    Outcome::Leaf { leaf: l, .. } if l.key == probe.key => {
                        // Our key is served by some other region entirely.
                        ProbeVerdict::ThirdParty
                    }
                    // A descent that does not reach the grown node is NOT
                    // proof of non-adoption: a stale hash entry can still
                    // route it into the unlinked original. Keep probing.
                    _ => ProbeVerdict::Unknown,
                }
            }
        }
    }

    /// Acts on a probe verdict. Returns `false` when the probe was
    /// re-queued for another attempt, `true` when it was consumed.
    fn settle_probe(&mut self, mut probe: AmbiguousProbe, verdict: ProbeVerdict) -> bool {
        const MAX_ATTEMPTS: u32 = 8;
        let settled = match verdict {
            ProbeVerdict::Adopted => {
                if self.probe_adopted(&probe) {
                    self.obs.incr("reclaim.ambiguous_adopted");
                    true
                } else {
                    false
                }
            }
            ProbeVerdict::NotAdopted => {
                // Our regions were never visible; they still take the
                // grace period (costs nothing, guards the conclusion).
                let SphinxClient { dm, reclaim, .. } = self;
                match probe.kind {
                    Pending::SwapLeaf {
                        fresh, fresh_bytes, ..
                    } => reclaim.retire(dm, fresh, fresh_bytes),
                    Pending::NewInner {
                        node,
                        node_bytes,
                        leaf,
                        leaf_bytes,
                        ..
                    } => {
                        reclaim.retire(dm, node, node_bytes);
                        reclaim.retire(dm, leaf, leaf_bytes);
                    }
                    Pending::TypeSwitch { .. } => unreachable!("never concluded for a switch"),
                }
                self.obs.incr("reclaim.ambiguous_unpublished");
                true
            }
            ProbeVerdict::ThirdParty => {
                self.obs.incr("reclaim.ambiguous_abandoned");
                true
            }
            ProbeVerdict::Unknown => false,
        };
        if settled {
            return true;
        }
        probe.attempts += 1;
        if probe.attempts >= MAX_ATTEMPTS {
            self.obs.incr("reclaim.ambiguous_abandoned");
            true
        } else {
            self.ambiguous.push(probe);
            false
        }
    }

    /// The adopted-verdict action. Returns `false` if it must be retried
    /// later (e.g. the original node of a type switch is locked).
    fn probe_adopted(&mut self, probe: &AmbiguousProbe) -> bool {
        match probe.kind {
            // Our CAS replaced the word pointing at `old`: the old leaf is
            // ours to tombstone and retire, exactly as on the unambiguous
            // path.
            Pending::SwapLeaf { old, .. } => {
                write::retire_replaced_leaf(self, old);
                true
            }
            // Adoption re-hung the old occupant inside the new node:
            // everything is live, nothing to reclaim — but the node is in
            // the tree without the hash entry its install site publishes
            // only on `Install::Done`.
            Pending::NewInner { node, plen, .. } => self
                .published(&probe.key[..plen], NodeKind::Node4, node)
                .is_ok(),
            Pending::TypeSwitch {
                original,
                orig_kind,
                plen,
                ..
            } => {
                if !self.retire_switched_original(original, orig_kind) {
                    return false;
                }
                // Heal the hash entry still naming the original (the
                // unambiguous path replaces it in step 5).
                let key = probe.key.clone();
                let _ = self.reconcile(&key, plen);
                true
            }
        }
    }

    /// Invalidates and retires the unlinked original of an
    /// ambiguous-but-adopted type switch. The invalidation must CAS (not
    /// store) the control word: nobody holds the node's lock anymore, and
    /// a racing writer routed in by a stale hash entry may be switching
    /// it again — whoever wins the control word owns the retirement.
    fn retire_switched_original(&mut self, original: RemotePtr, orig_kind: NodeKind) -> bool {
        let Ok(node) = read_inner_consistent(&mut self.dm, original, orig_kind) else {
            return false;
        };
        match node.header.status {
            // Someone else already invalidated (and thus retired) it.
            NodeStatus::Invalid => true,
            NodeStatus::Idle => {
                let idle = node.header.control_with_status(NodeStatus::Idle);
                let inv = node.header.control_with_status(NodeStatus::Invalid);
                match self.dm.cas(original, idle, inv) {
                    Ok(prev) if prev == idle => {
                        let SphinxClient { dm, reclaim, .. } = self;
                        reclaim.retire(dm, original, InnerNode::byte_size(orig_kind) as u64);
                        true
                    }
                    // Lost the control word: its new owner (a racing
                    // switch) invalidates and retires it on completion.
                    Ok(_) => true,
                    Err(_) => false,
                }
            }
            // Locked mid-switch: if the switch completes it retires the
            // node itself; if it bails the node returns to Idle. Re-probe.
            _ => false,
        }
    }
}

/// What Sphinx adds to the remote-ART write protocol.
impl WriteHost for SphinxClient {
    type Error = SphinxError;

    fn policy(&self) -> RetryPolicy {
        self.retry
    }

    fn parts(&mut self) -> (&mut DmClient, &mut reclaim::ReclaimHandle) {
        (&mut self.dm, &mut self.reclaim)
    }

    fn phase(&mut self, phase: Phase) {
        self.obs_phase(phase);
    }

    fn retried(&mut self) {
        self.obs_retry();
    }

    fn count(&mut self, counter: &'static str) {
        self.obs.incr(counter);
    }

    fn locate(&mut self, key: &[u8], _use_cache: bool) -> Result<(Descent, bool), SphinxError> {
        Ok((SphinxClient::locate(self, key)?, false))
    }

    /// An ambiguous install from a previous attempt usually settles on the
    /// very lookup the retry makes: apply it as evidence for free.
    fn located(&mut self, key: &[u8], d: &Descent) {
        if self.ambiguous.is_empty() {
            return;
        }
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.ambiguous)
            .into_iter()
            .partition(|p| p.key == key);
        self.ambiguous = rest;
        for probe in mine {
            let verdict = Self::probe_evidence(&probe, d);
            self.settle_probe(probe, verdict);
        }
    }

    /// Defers the ownership decision to a re-probe at an operation
    /// boundary, when the next lookup of the key decides it.
    fn ambiguous(&mut self, key: &[u8], kind: Pending) {
        self.ambiguous.push(AmbiguousProbe {
            key: key.to_vec(),
            attempts: 0,
            kind,
        });
    }

    /// Finds the tree parent of the node with full prefix `key[..plen]`
    /// through the hash table and CASes its child slot to the grown node,
    /// verifying adoption through the live tree when the CAS outcome is
    /// ambiguous (the parent itself may be mid-type-switch). The root has
    /// no parent.
    fn swing_parent(
        &mut self,
        d: &Descent,
        key: &[u8],
        kind: NodeKind,
        ptr: RemotePtr,
    ) -> Result<Install, SphinxError> {
        let (plen, old_ptr) = (d.node.header.prefix_len as usize, d.node_ptr);
        if plen == 0 {
            return Ok(Install::Done);
        }
        let mut ambiguous_seen = false;
        for _ in 0..64 {
            let Some((parent_ptr, _, idx, slot)) = self.find_parent_slot(key, plen, old_ptr)?
            else {
                // The old node is no longer linked under this key: if the
                // live tree now points at OUR replacement, an ambiguous CAS
                // was in fact adopted.
                if self.find_parent_slot(key, plen, ptr)?.is_some() {
                    return Ok(Install::Done);
                }
                // Neither old nor new is linked: the tree moved on (e.g. a
                // parent copy adopted a different structure) while the hash
                // table may still name the dead node. Heal it from the tree
                // — the source of truth — so the retry does not loop
                // through the stale entry forever.
                self.repair_inht_entry(key, plen, old_ptr)?;
                break;
            };
            let new_slot = Slot::inner(slot.key_byte, kind, ptr);
            let offset = InnerNode::slot_offset(idx);
            match install_word(
                &mut self.dm,
                parent_ptr,
                offset,
                slot.encode(),
                new_slot.encode(),
            )? {
                Install::Done => return Ok(Install::Done),
                Install::Ambiguous => ambiguous_seen = true,
                Install::Raced => {}
            }
            self.dm.backoff(&self.retry);
        }
        Ok(if ambiguous_seen {
            Install::Ambiguous
        } else {
            Install::Raced
        })
    }

    /// Registers a freshly linked inner node in the INHT and the local
    /// Succinct Filter Cache (§IV Insert: "after a node split, where a new
    /// inner node with a new prefix is added").
    fn published(
        &mut self,
        prefix: &[u8],
        kind: NodeKind,
        ptr: RemotePtr,
    ) -> Result<(), SphinxError> {
        self.obs_phase(Phase::Maintenance);
        let h = prefix_hash64(prefix);
        let mn = self.dm.place(h) as usize;
        let entry = HashEntry {
            fp: fp12(prefix),
            kind,
            addr: ptr,
        };
        let SphinxClient { tables, dm, .. } = self;
        tables[mn].insert(dm, h, entry.encode(), inht_split_oracle)?;
        if self.config.mode == CacheMode::FilterCache {
            self.filter.insert(prefix);
        }
        // The node was linked before this publish, so a concurrent type
        // switch may already have grown and retired it — in which case the
        // grower's own publish CAS found no entry to replace and the entry
        // just inserted names a dead node. One status re-read closes the
        // window: if the node was retired, heal the entry from the tree.
        let control = self.dm.read_u64(ptr)?;
        if control & 0xFF == NodeStatus::Invalid as u64 {
            self.reconcile(prefix, prefix.len())?;
        }
        Ok(())
    }

    /// One 8-byte CAS swings the grown node's INHT entry (§IV).
    fn republish(
        &mut self,
        prefix: &[u8],
        (old_kind, old_ptr): (NodeKind, RemotePtr),
        (new_kind, new_ptr): (NodeKind, RemotePtr),
    ) -> Result<bool, SphinxError> {
        self.obs_phase(Phase::Maintenance);
        let h = prefix_hash64(prefix);
        let mn = self.dm.place(h) as usize;
        let fp = fp12(prefix);
        let entry = |kind, addr| HashEntry { fp, kind, addr }.encode();
        let SphinxClient { tables, dm, .. } = self;
        let (old, new) = (entry(old_kind, old_ptr), entry(new_kind, new_ptr));
        Ok(tables[mn].replace(dm, h, old, new)?)
    }

    /// Re-derives the live node at `key[..plen]` from the tree — the
    /// source of truth — and swings the INHT entry for that prefix onto
    /// it. Called after a lost publish race (a `replace` CAS that found
    /// its expected entry gone, or an `insert` that landed after the node
    /// it names was retired); without it the table can permanently name a
    /// retired node while the live replacement has no entry at all.
    ///
    /// Bounded: after 16 lost CAS rounds the entry is left for the read
    /// path to heal lazily like any other stale entry.
    fn reconcile(&mut self, key: &[u8], plen: usize) -> Result<(), SphinxError> {
        let prefix = &key[..plen];
        let prefix_h42 = prefix_hash42(prefix);
        for _ in 0..16 {
            let Some((live_ptr, node)) = self.live_node_at(key, plen)? else {
                return Ok(());
            };
            if node.header.prefix_len as usize != plen
                || node.header.status == NodeStatus::Invalid
                || node.header.prefix_hash42 != prefix_h42
            {
                // The structure is mid-churn; whoever retires this node
                // publishes (and reconciles) its replacement.
                return Ok(());
            }
            let h = prefix_hash64(prefix);
            let mn = self.dm.place(h) as usize;
            let fp = fp12(prefix);
            let desired = HashEntry {
                fp,
                kind: node.header.kind,
                addr: live_ptr,
            };
            let SphinxClient { tables, dm, .. } = self;
            let found = tables[mn].search(dm, h)?;
            if found.iter().any(|e| {
                HashEntry::decode(e.word).is_some_and(|he| he.fp == fp && he.addr == live_ptr)
            }) {
                return Ok(()); // already consistent
            }
            // Swing the entry naming a (possibly retired) member of this
            // prefix's node chain. The 42-bit prefix hash — preserved by
            // invalidation, which rewrites only the control word — keeps a
            // colliding prefix's entry out of reach.
            let mut lost_cas = false;
            for e in found {
                let Some(he) = HashEntry::decode(e.word) else {
                    continue;
                };
                if he.fp != fp || he.addr == live_ptr {
                    continue;
                }
                let Ok(stale) = read_inner_consistent(&mut self.dm, he.addr, he.kind) else {
                    continue;
                };
                if stale.header.prefix_hash42 != prefix_h42 {
                    continue;
                }
                let SphinxClient { tables, dm, .. } = self;
                if tables[mn].replace(dm, h, e.word, desired.encode())? {
                    return Ok(());
                }
                lost_cas = true;
                break;
            }
            if !lost_cas {
                // No entry for this prefix at all: the publisher's insert
                // is still in flight. Its post-insert status check (above)
                // finds the retired node and reconciles — nothing to do
                // here, and inserting now would create a duplicate.
                return Ok(());
            }
            self.dm.backoff(&self.retry);
        }
        Ok(())
    }

    /// Drops the pruned node's hash-table entry. The entry is found from
    /// the node alone (an insert healing a leftover does not know the
    /// prefix bytes): the INHT addresses with hash bits below 42, so
    /// `prefix_hash42` finds the bucket pair on whichever MN holds it, and
    /// the address picks the entry.
    fn unpublish(&mut self, ptr: RemotePtr, dead: &InnerNode) -> Result<(), SphinxError> {
        let h42 = dead.header.prefix_hash42;
        let SphinxClient { tables, dm, .. } = self;
        for table in tables.iter_mut() {
            let named = table
                .search(dm, h42)?
                .into_iter()
                .find(|e| HashEntry::decode(e.word).is_some_and(|he| he.addr == ptr));
            if let Some(entry) = named {
                table.remove(dm, h42, entry.word)?;
                break;
            }
        }
        Ok(())
    }

    /// A lost unlink (a racing type switch copied the slot) is chased to
    /// its new place; a won one that emptied the node unlinks the node
    /// too, or lookups that leave its compressed path would sample a leaf
    /// that does not exist.
    fn unlinked(&mut self, key: &[u8], d: &Descent, won: bool) -> Result<(), SphinxError> {
        if !won {
            return self.unlink_invalid_leaf(key);
        }
        let n = &d.node;
        if n.value_slot.is_some() as usize + n.child_count() == 1 {
            self.prune_emptied(key, n, d.node_ptr)?;
        }
        Ok(())
    }
}

/// What a deferred re-probe concluded (see the comment above
/// [`SphinxClient::probe_ambiguous`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeVerdict {
    /// The tree serves our region: the install survived the type switch.
    Adopted,
    /// The replaced word is still linked: the install never landed.
    NotAdopted,
    /// A third party has since taken ownership of whichever word won.
    ThirdParty,
    /// The evidence is inconclusive; probe again later.
    Unknown,
}
