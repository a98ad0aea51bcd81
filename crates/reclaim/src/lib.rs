//! # reclaim — epoch-based remote-memory reclamation for disaggregated indexes
//!
//! Lock-free readers over one-sided RDMA synchronize with writers only
//! through header metadata and leaf checksums, so a region that is freed
//! and reused can pass validation as a *different, perfectly valid* node.
//! Unlinking a node therefore must not free it immediately: the region has
//! to sit out a **grace period** until every client that could still hold
//! its address has provably moved on. This crate implements that protocol
//! — epoch-based reclamation (EBR) adapted to disaggregated memory, where
//! the shared state itself lives in MN memory and is manipulated with
//! one-sided verbs:
//!
//! * a **cluster-global epoch word** on one MN, advanced with RDMA FAA by
//!   clients that have retirements pending;
//! * a **slot array** next to it, one word per registered client, where
//!   each client periodically republishes the newest epoch it has
//!   observed (its *pin*). A slot value of `0` means "not registered";
//! * a per-client **limbo list** of `(ptr, retire_epoch, bytes)` entries
//!   collected from every unlink/tombstone site in the index protocols;
//! * an amortized **scan** — one doorbell round trip — that refreshes the
//!   client's slot, advances the epoch, stamps new limbo entries, and
//!   batch-frees every entry whose grace period has elapsed through the
//!   substrate's reclamation path ([`DmClient::free_many`]).
//!
//! ## The grace-period argument
//!
//! Scans run only at operation boundaries, when the scanning client holds
//! no node addresses. Stamping an entry with the epoch `r` returned by the
//! scan's FAA means the `r → r+1` transition happened *at* that scan —
//! i.e. at or after the moment the node was unlinked. The epoch word is
//! monotone, so another client whose slot shows `v ≥ r + grace` (with
//! `grace ≥ 1`) must have *read* the epoch after that transition — at one
//! of its own operation boundaries, after the unlink. Every address it
//! holds was therefore acquired after the node left the structure, and
//! validated traversal can never be routed *into* an unlinked node, so
//! the region is unreachable from that client. When every other
//! registered slot satisfies the bound, the region is free to reuse.
//! See `docs/RECLAMATION.md` for the full argument.
//!
//! Stale slots (a registered client that stops scanning) only *delay*
//! reclamation, never make it unsafe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

use dm_sim::{DmClient, DmError, DoorbellBatch, RemotePtr, Verb, VerbResult};

/// Process-wide zero-grace-period override — the **broken-protocol mode**
/// behind the CI negative test (mirrors `node_engine::set_leaf_validation`).
///
/// When set, every [`ReclaimHandle::retire`] frees the region immediately,
/// with no grace period: the allocator's LIFO free lists promptly hand the
/// region to the next allocation while concurrent readers may still hold
/// its address, and the linearizability checker must catch the resulting
/// use-after-free serving.
static ZERO_GRACE: AtomicBool = AtomicBool::new(false);

/// Enables or disables the zero-grace-period override (default: off).
/// Intended only for negative tests; affects every handle in the process.
pub fn set_zero_grace(enabled: bool) {
    ZERO_GRACE.store(enabled, Ordering::SeqCst);
}

/// Whether the zero-grace-period override is on.
pub fn zero_grace() -> bool {
    ZERO_GRACE.load(Ordering::SeqCst)
}

/// Tuning knobs for one reclamation domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimConfig {
    /// Master switch. When `false`, [`ReclaimHandle::retire`] reverts to
    /// the pre-reclamation behaviour (the region is leaked) — useful for
    /// memory-usage comparisons like Fig. 6.
    pub enabled: bool,
    /// Epochs a limbo entry must age before it may be freed. Safety needs
    /// `≥ 1` (see the crate docs); the default keeps one extra epoch of
    /// margin. `0` reproduces the unsafe immediate-free protocol the
    /// negative lincheck control exercises.
    pub grace_epochs: u64,
    /// Operations between amortized scans (one extra round trip each).
    pub scan_interval: u64,
    /// Limbo entries that force a scan at the next operation boundary
    /// even before `scan_interval` elapses.
    pub limbo_soft_cap: usize,
    /// Capacity of the slot array — the maximum number of clients that
    /// can ever register with the domain.
    pub max_clients: usize,
}

impl Default for ReclaimConfig {
    fn default() -> Self {
        ReclaimConfig {
            enabled: true,
            grace_epochs: 2,
            scan_interval: 128,
            limbo_soft_cap: 512,
            max_clients: 64,
        }
    }
}

/// Counters describing one handle's reclamation activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Regions handed to [`ReclaimHandle::retire`].
    pub retired_count: u64,
    /// Bytes handed to [`ReclaimHandle::retire`] (caller-reported sizes).
    pub retired_bytes: u64,
    /// Regions actually freed back to their MN pools.
    pub freed_count: u64,
    /// Bytes actually freed back to their MN pools.
    pub freed_bytes: u64,
    /// Scans performed (slot refresh + stamp + free check).
    pub scans: u64,
    /// Times this handle's scan advanced the global epoch.
    pub epoch_advances: u64,
    /// Scans or frees that hit a substrate error (kept out of the user
    /// operation's result; should stay 0 in healthy runs).
    pub errors: u64,
    /// Freed entries whose epoch lag (free epoch − retire epoch) was ≤ 1.
    pub lag_le_1: u64,
    /// Freed entries with epoch lag ≤ 2 (and > 1).
    pub lag_le_2: u64,
    /// Freed entries with epoch lag ≤ 4 (and > 2).
    pub lag_le_4: u64,
    /// Freed entries with epoch lag > 4.
    pub lag_gt_4: u64,
}

impl ReclaimStats {
    fn note_lag(&mut self, lag: u64) {
        match lag {
            0..=1 => self.lag_le_1 += 1,
            2 => self.lag_le_2 += 1,
            3..=4 => self.lag_le_4 += 1,
            _ => self.lag_gt_4 += 1,
        }
    }
}

/// One region awaiting its grace period.
#[derive(Debug, Clone, Copy)]
struct LimboEntry {
    ptr: RemotePtr,
    /// Epoch stamped at the first scan after retirement; `None` until then.
    retire_epoch: Option<u64>,
    bytes: u64,
}

/// A reclamation domain: the MN-resident epoch word + slot array one index
/// shares across all its clients. Cheap to clone (a few pointers).
#[derive(Debug, Clone)]
pub struct ReclaimDomain {
    epoch_ptr: RemotePtr,
    slots_ptr: RemotePtr,
    reg_ptr: RemotePtr,
    config: ReclaimConfig,
}

impl ReclaimDomain {
    /// Allocates the domain's shared words on memory node `mn_id`: the
    /// global epoch word (initialized to 1 so that slot value 0 can mean
    /// "not registered"), the registration counter, and the slot array.
    ///
    /// # Errors
    ///
    /// Propagates substrate allocation/write errors.
    pub fn create(t: &mut DmClient, mn_id: u16, config: ReclaimConfig) -> Result<Self, DmError> {
        let epoch_ptr = t.alloc(mn_id, 8)?;
        t.write_u64(epoch_ptr, 1)?;
        let reg_ptr = t.alloc(mn_id, 8)?;
        let slots_ptr = t.alloc(mn_id, config.max_clients * 8)?;
        Ok(ReclaimDomain {
            epoch_ptr,
            slots_ptr,
            reg_ptr,
            config,
        })
    }

    /// This domain's configuration.
    pub fn config(&self) -> ReclaimConfig {
        self.config
    }

    /// Registers a client: adopts a vacated slot when one exists
    /// (deregister zeroes its slot), else claims a fresh one via FAA on
    /// the registration high-water mark, and publishes the current epoch
    /// into it. A few round trips, off the operation fast path.
    ///
    /// Slot adoption is what makes [`ReclaimConfig::max_clients`] a bound
    /// on *concurrent* clients rather than on cumulative registrations:
    /// benchmark harnesses that spawn and deregister worker fleets run
    /// after run against one long-lived index would otherwise exhaust the
    /// array (this was a real panic in the fig5 worker ladder).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::OutOfMemory`] when the slot array is exhausted
    /// (more than [`ReclaimConfig::max_clients`] *live* registrations),
    /// or any substrate error.
    pub fn register(&self, t: &mut DmClient) -> Result<ReclaimHandle, DmError> {
        let batch: DoorbellBatch = [
            Verb::Read {
                ptr: self.slots_ptr,
                len: self.config.max_clients * 8,
            },
            // FAA with delta 0 is an atomic read of a word.
            Verb::Faa {
                ptr: self.reg_ptr,
                delta: 0,
            },
            Verb::Faa {
                ptr: self.epoch_ptr,
                delta: 0,
            },
        ]
        .into_iter()
        .collect();
        let res = t.execute(batch)?;
        let slots_bytes = match &res[0] {
            VerbResult::Read(b) => b,
            _ => unreachable!("read result"),
        };
        let high_water = match res[1] {
            VerbResult::Faa(v) => v,
            _ => unreachable!("faa result"),
        };
        let epoch = match res[2] {
            VerbResult::Faa(v) => v,
            _ => unreachable!("faa result"),
        };

        // Adoption pass: a zeroed slot below the high-water mark was
        // vacated by a deregistered client (never-allocated slots sit at
        // or above the mark, so a zero there is not claimable — a racing
        // fresh registrant may have been assigned it by FAA without
        // having written its epoch yet). The CAS arbitrates racing
        // adopters; losing one just tries the next candidate. Publishing
        // the pre-read epoch is conservative: it can only be stale-low,
        // which delays peers' frees until this client's first scan.
        let allocated = (high_water as usize).min(self.config.max_clients);
        for (idx, chunk) in slots_bytes[..allocated * 8].chunks_exact(8).enumerate() {
            if u64::from_le_bytes(chunk.try_into().expect("8-byte slot")) != 0 {
                continue;
            }
            let slot_ptr = self
                .slots_ptr
                .checked_add(idx as u64 * 8)
                .expect("slot array fits the address space");
            if t.cas(slot_ptr, 0, epoch)? == 0 {
                return Ok(self.handle_at(idx, slot_ptr, epoch));
            }
        }

        // Fresh slot: bump the high-water mark. Adopted slots never bump
        // it, so FAA indices stay collision-free with adoption.
        let res = t.execute(
            [Verb::Faa {
                ptr: self.reg_ptr,
                delta: 1,
            }]
            .into_iter()
            .collect(),
        )?;
        let idx = match res[0] {
            VerbResult::Faa(v) => v,
            _ => unreachable!("faa result"),
        };
        if idx as usize >= self.config.max_clients {
            return Err(DmError::OutOfMemory {
                mn_id: self.slots_ptr.mn_id(),
                requested: 8,
            });
        }
        let slot_ptr = self
            .slots_ptr
            .checked_add(idx * 8)
            .expect("slot array fits the address space");
        t.write_u64(slot_ptr, epoch)?;
        Ok(self.handle_at(idx as usize, slot_ptr, epoch))
    }

    fn handle_at(&self, slot_idx: usize, slot_ptr: RemotePtr, epoch: u64) -> ReclaimHandle {
        ReclaimHandle {
            domain: self.clone(),
            slot_idx,
            slot_ptr,
            cached_epoch: epoch,
            ops_since_scan: 0,
            limbo: Vec::new(),
            stats: ReclaimStats::default(),
            active: true,
        }
    }
}

/// A per-client reclamation handle: the client's slot, its limbo list,
/// and the amortized scan machinery. One per worker, like the client.
#[derive(Debug)]
pub struct ReclaimHandle {
    domain: ReclaimDomain,
    slot_idx: usize,
    slot_ptr: RemotePtr,
    cached_epoch: u64,
    ops_since_scan: u64,
    limbo: Vec<LimboEntry>,
    stats: ReclaimStats,
    active: bool,
}

/// The detached handle: no domain, no slot; it never scans and frees
/// nothing — for a worker of an index that never unlinks a node, or a
/// reader outside every client.
impl Default for ReclaimHandle {
    fn default() -> Self {
        let null = RemotePtr::NULL;
        let config = ReclaimConfig::default();
        let nowhere = ReclaimDomain {
            epoch_ptr: null,
            slots_ptr: null,
            reg_ptr: null,
            config,
        };
        ReclaimHandle {
            active: false,
            ..nowhere.handle_at(usize::MAX, null, 0)
        }
    }
}

impl ReclaimHandle {
    /// Marks an operation entry. Pinning is implicit in this protocol —
    /// the slot published at the last scan already lower-bounds every
    /// address the client can hold — so this is free; it exists so call
    /// sites document the op-boundary discipline scans rely on.
    #[inline]
    pub fn pin(&mut self) {}

    /// Whether the next [`unpin`](Self::unpin) will run a scan — lets the
    /// caller attribute the scan's round trip to its maintenance phase
    /// *before* issuing it.
    pub fn scan_due(&self) -> bool {
        self.active
            && self.domain.config.enabled
            && (self.ops_since_scan + 1 >= self.domain.config.scan_interval
                || self.limbo.len() >= self.domain.config.limbo_soft_cap)
    }

    /// Marks an operation exit and, every [`ReclaimConfig::scan_interval`]
    /// operations (or sooner once the limbo list passes its soft cap),
    /// runs one [`scan`](Self::scan). Returns `true` if a scan ran, so the
    /// caller can attribute the round trip to its maintenance phase.
    pub fn unpin(&mut self, t: &mut DmClient) -> bool {
        self.ops_since_scan += 1;
        if !self.active || !self.domain.config.enabled {
            return false;
        }
        if self.ops_since_scan >= self.domain.config.scan_interval
            || self.limbo.len() >= self.domain.config.limbo_soft_cap
        {
            self.scan(t);
            return true;
        }
        false
    }

    /// Hands an unlinked region to the reclaimer. The caller must have
    /// already made the region unreachable (won the CAS that unlinked it);
    /// `bytes` is the caller's size accounting for telemetry.
    ///
    /// With a grace period configured this costs no round trip (the entry
    /// just enters limbo). With `grace_epochs == 0` or the process-wide
    /// [`set_zero_grace`] override the region is freed immediately —
    /// deliberately unsafe, for the negative lincheck control; substrate
    /// errors (e.g. double frees, which that mode can produce) are
    /// swallowed into [`ReclaimStats::errors`] so the serving path keeps
    /// running broken rather than crashing.
    pub fn retire(&mut self, t: &mut DmClient, ptr: RemotePtr, bytes: u64) {
        if ptr.is_null() || !self.domain.config.enabled {
            return;
        }
        self.stats.retired_count += 1;
        self.stats.retired_bytes += bytes;
        if self.domain.config.grace_epochs == 0 || zero_grace() {
            match t.free(ptr) {
                Ok(()) => {
                    self.stats.freed_count += 1;
                    self.stats.freed_bytes += bytes;
                }
                Err(_) => self.stats.errors += 1,
            }
            return;
        }
        self.limbo.push(LimboEntry {
            ptr,
            retire_epoch: None,
            bytes,
        });
    }

    /// One amortized reclamation step — a single doorbell round trip to
    /// the domain MN that:
    ///
    /// 1. republishes this client's slot (the epoch cached at the previous
    ///    scan — a value read at an operation boundary);
    /// 2. FAAs the global epoch, advancing it iff this handle has limbo
    ///    entries (idle readers refresh their slot without churning the
    ///    epoch);
    /// 3. reads the whole slot array.
    ///
    /// Unstamped limbo entries are stamped with the FAA's returned epoch,
    /// and every entry whose `retire_epoch + grace` is at or below the
    /// minimum of the *other* registered slots is batch-freed through
    /// [`DmClient::free_many`]. Substrate errors increment
    /// [`ReclaimStats::errors`] instead of failing the caller's operation.
    pub fn scan(&mut self, t: &mut DmClient) {
        if !self.active || !self.domain.config.enabled {
            return;
        }
        self.ops_since_scan = 0;
        self.stats.scans += 1;
        let delta = u64::from(!self.limbo.is_empty());
        let slots_len = self.domain.config.max_clients * 8;
        let batch: DoorbellBatch = [
            Verb::Write {
                ptr: self.slot_ptr,
                data: self.cached_epoch.to_le_bytes().to_vec(),
            },
            Verb::Faa {
                ptr: self.domain.epoch_ptr,
                delta,
            },
            Verb::Read {
                ptr: self.domain.slots_ptr,
                len: slots_len,
            },
        ]
        .into_iter()
        .collect();
        let res = match t.execute(batch) {
            Ok(res) => res,
            Err(_) => {
                self.stats.errors += 1;
                return;
            }
        };
        let epoch_before = match res[1] {
            VerbResult::Faa(v) => v,
            _ => unreachable!("faa result"),
        };
        let slots_bytes = match &res[2] {
            VerbResult::Read(b) => b,
            _ => unreachable!("read result"),
        };
        self.stats.epoch_advances += delta;
        let current = epoch_before + delta;
        self.cached_epoch = current;

        // Stamp entries retired since the last scan. `epoch_before` is the
        // epoch whose advance this very scan performed (when delta is 1),
        // so the transition other clients must witness happens after every
        // one of these unlinks.
        for e in &mut self.limbo {
            if e.retire_epoch.is_none() {
                e.retire_epoch = Some(epoch_before);
            }
        }

        // Minimum pin among the *other* registered clients (slot 0 means
        // unregistered). This handle is at an operation boundary and holds
        // no addresses, so its own slot is irrelevant to its own frees.
        let mut min_other = u64::MAX;
        for (i, chunk) in slots_bytes.chunks_exact(8).enumerate() {
            if i == self.slot_idx {
                continue;
            }
            let v = u64::from_le_bytes(chunk.try_into().expect("8-byte slot"));
            if v != 0 {
                min_other = min_other.min(v);
            }
        }

        let grace = self.domain.config.grace_epochs;
        let mut freeable: Vec<RemotePtr> = Vec::new();
        let mut kept: Vec<LimboEntry> = Vec::new();
        let mut freed_bytes = 0u64;
        for e in self.limbo.drain(..) {
            match e.retire_epoch {
                Some(r) if r.saturating_add(grace) <= min_other => {
                    self.stats.note_lag(current.saturating_sub(r));
                    freed_bytes += e.bytes;
                    freeable.push(e.ptr);
                }
                _ => kept.push(e),
            }
        }
        self.limbo = kept;
        if freeable.is_empty() {
            return;
        }
        match t.free_many(&freeable) {
            Ok(()) => {
                self.stats.freed_count += freeable.len() as u64;
                self.stats.freed_bytes += freed_bytes;
            }
            // A failed batch leaves an unknown prefix freed; dropping the
            // entries leaks the rest rather than risking double frees.
            Err(_) => self.stats.errors += 1,
        }
    }

    /// Scans until the limbo list drains or `max_rounds` scans elapse;
    /// returns whether it drained. With concurrent registered peers their
    /// slots must advance too — quiesce every worker round-robin.
    pub fn quiesce(&mut self, t: &mut DmClient, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            if self.limbo.is_empty() {
                return true;
            }
            self.scan(t);
        }
        self.limbo.is_empty()
    }

    /// Withdraws this client from the domain: zeroes its slot so it no
    /// longer gates anyone's grace periods, and deactivates the handle.
    /// Entries still in limbo stay unreclaimed (drain with
    /// [`quiesce`](Self::quiesce) first).
    pub fn deregister(&mut self, t: &mut DmClient) {
        if !self.active {
            return;
        }
        if t.write_u64(self.slot_ptr, 0).is_err() {
            self.stats.errors += 1;
        }
        self.active = false;
    }

    /// This handle's counters.
    pub fn stats(&self) -> ReclaimStats {
        self.stats
    }

    /// Entries currently in limbo.
    pub fn limbo_len(&self) -> usize {
        self.limbo.len()
    }

    /// Bytes currently in limbo.
    pub fn limbo_bytes(&self) -> u64 {
        self.limbo.iter().map(|e| e.bytes).sum()
    }

    /// The newest epoch this handle has observed.
    pub fn cached_epoch(&self) -> u64 {
        self.cached_epoch
    }

    /// The slot index this handle occupies in the domain's array.
    pub fn slot_index(&self) -> usize {
        self.slot_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::{ClusterConfig, DmCluster};

    fn cluster() -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns: 2,
            num_cns: 2,
            mn_capacity: 1 << 20,
            ..Default::default()
        })
    }

    fn small_config() -> ReclaimConfig {
        ReclaimConfig {
            scan_interval: 4,
            ..ReclaimConfig::default()
        }
    }

    #[test]
    fn deregistered_slots_are_adopted_not_leaked() {
        let c = cluster();
        let mut t = c.client(0);
        let cfg = ReclaimConfig {
            max_clients: 2,
            ..ReclaimConfig::default()
        };
        let domain = ReclaimDomain::create(&mut t, 0, cfg).unwrap();

        // Churn far past max_clients: each generation vacates its slot,
        // the next adopts it. Before slot adoption this panicked at the
        // third registration (cumulative FAA indices exhaust the array).
        let mut persistent = domain.register(&mut t).unwrap();
        for _ in 0..10 {
            let mut h = domain.register(&mut t).unwrap();
            assert_eq!(h.slot_index(), 1, "adopts the one vacated slot");
            h.deregister(&mut t);
        }

        // The bound still holds for *concurrent* clients.
        let mut second = domain.register(&mut t).unwrap();
        assert!(matches!(
            domain.register(&mut t),
            Err(DmError::OutOfMemory { .. })
        ));
        second.deregister(&mut t);
        persistent.deregister(&mut t);
    }

    /// The default handle is detached: whatever the op count, it never
    /// scans, frees or issues a verb.
    #[test]
    fn a_default_handle_never_scans() {
        let c = cluster();
        let mut t = c.client(0);
        let mut h = ReclaimHandle::default();
        for _ in 0..1_000 {
            h.pin();
            assert!(!h.scan_due());
            assert!(!h.unpin(&mut t));
        }
        h.scan(&mut t);
        assert!(h.quiesce(&mut t, 4));
        h.deregister(&mut t);
        assert_eq!(t.stats(), dm_sim::ClientStats::default());
        assert_eq!(h.stats(), ReclaimStats::default());
    }

    #[test]
    fn solo_client_drains_after_scan() {
        let c = cluster();
        let mut t = c.client(0);
        let domain = ReclaimDomain::create(&mut t, 0, small_config()).unwrap();
        let mut h = domain.register(&mut t).unwrap();

        let p = t.alloc(1, 128).unwrap();
        let live_before = c.mn(1).unwrap().alloc_stats().live_bytes;
        h.retire(&mut t, p, 128);
        assert_eq!(h.limbo_len(), 1);
        assert_eq!(c.mn(1).unwrap().alloc_stats().live_bytes, live_before);

        // No other registered client: the first scan stamps and frees.
        h.scan(&mut t);
        assert_eq!(h.limbo_len(), 0);
        let stats = c.mn(1).unwrap().alloc_stats();
        assert_eq!(stats.live_bytes, live_before - 128);
        assert_eq!(stats.reclaimed_bytes, 128);
        assert_eq!(h.stats().freed_bytes, 128);
        assert_eq!(h.stats().retired_bytes, 128);
        assert_eq!(h.stats().errors, 0);
    }

    #[test]
    fn unpin_triggers_scan_on_interval() {
        let c = cluster();
        let mut t = c.client(0);
        let domain = ReclaimDomain::create(&mut t, 0, small_config()).unwrap();
        let mut h = domain.register(&mut t).unwrap();
        let p = t.alloc(0, 64).unwrap();
        h.retire(&mut t, p, 64);
        let mut scanned = 0;
        for _ in 0..4 {
            h.pin();
            if h.unpin(&mut t) {
                scanned += 1;
            }
        }
        assert_eq!(scanned, 1, "interval of 4 yields one scan in 4 ops");
        assert_eq!(h.stats().freed_bytes, 64);
    }

    #[test]
    fn peer_pin_gates_the_grace_period() {
        let c = cluster();
        let mut ta = c.client(0);
        let mut tb = c.client(1);
        let domain = ReclaimDomain::create(&mut ta, 0, small_config()).unwrap();
        let mut a = domain.register(&mut ta).unwrap();
        let mut b = domain.register(&mut tb).unwrap();

        let p = ta.alloc(0, 256).unwrap();
        a.retire(&mut ta, p, 256);
        a.scan(&mut ta);
        assert_eq!(
            a.limbo_len(),
            1,
            "peer's stale pin must hold the entry in limbo"
        );

        // Round-robin scans: B republishes fresher pins, A's grace elapses.
        let mut rounds = 0;
        while a.limbo_len() > 0 && rounds < 10 {
            b.scan(&mut tb);
            a.scan(&mut ta);
            rounds += 1;
        }
        assert_eq!(a.limbo_len(), 0, "drained after {rounds} rounds");
        assert_eq!(a.stats().freed_bytes, 256);
        assert!(a.stats().epoch_advances >= 1);
        assert_eq!(a.stats().errors, 0);
        assert_eq!(b.stats().errors, 0);
        // B never had retirements: its scans must not advance the epoch.
        assert_eq!(b.stats().epoch_advances, 0);
    }

    #[test]
    fn deregistered_peer_stops_gating() {
        let c = cluster();
        let mut ta = c.client(0);
        let mut tb = c.client(1);
        let domain = ReclaimDomain::create(&mut ta, 0, small_config()).unwrap();
        let mut a = domain.register(&mut ta).unwrap();
        let mut b = domain.register(&mut tb).unwrap();

        let p = ta.alloc(0, 64).unwrap();
        a.retire(&mut ta, p, 64);
        a.scan(&mut ta);
        assert_eq!(a.limbo_len(), 1);

        b.deregister(&mut tb);
        a.scan(&mut ta);
        assert_eq!(a.limbo_len(), 0, "zeroed slot no longer gates the free");
    }

    #[test]
    fn zero_grace_config_frees_immediately() {
        let c = cluster();
        let mut t = c.client(0);
        let cfg = ReclaimConfig {
            grace_epochs: 0,
            ..small_config()
        };
        let domain = ReclaimDomain::create(&mut t, 0, cfg).unwrap();
        let mut h = domain.register(&mut t).unwrap();
        let p = t.alloc(0, 64).unwrap();
        let live = c.mn(0).unwrap().alloc_stats().live_bytes;
        h.retire(&mut t, p, 64);
        assert_eq!(h.limbo_len(), 0);
        assert_eq!(c.mn(0).unwrap().alloc_stats().live_bytes, live - 64);
        // Double retire (the bug this mode exists to exhibit) is swallowed.
        h.retire(&mut t, p, 64);
        assert_eq!(h.stats().errors, 1);
    }

    #[test]
    fn disabled_domain_leaks_like_before() {
        let c = cluster();
        let mut t = c.client(0);
        let cfg = ReclaimConfig {
            enabled: false,
            ..ReclaimConfig::default()
        };
        let domain = ReclaimDomain::create(&mut t, 0, cfg).unwrap();
        let mut h = domain.register(&mut t).unwrap();
        let p = t.alloc(0, 64).unwrap();
        let live = c.mn(0).unwrap().alloc_stats().live_bytes;
        h.retire(&mut t, p, 64);
        h.scan(&mut t);
        assert_eq!(h.limbo_len(), 0);
        assert_eq!(h.stats().retired_bytes, 0);
        assert_eq!(c.mn(0).unwrap().alloc_stats().live_bytes, live);
    }

    #[test]
    fn registration_exhaustion_is_reported() {
        let c = cluster();
        let mut t = c.client(0);
        let cfg = ReclaimConfig {
            max_clients: 2,
            ..ReclaimConfig::default()
        };
        let domain = ReclaimDomain::create(&mut t, 0, cfg).unwrap();
        let _a = domain.register(&mut t).unwrap();
        let _b = domain.register(&mut t).unwrap();
        assert!(matches!(
            domain.register(&mut t),
            Err(DmError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn retire_null_is_a_noop() {
        let c = cluster();
        let mut t = c.client(0);
        let domain = ReclaimDomain::create(&mut t, 0, small_config()).unwrap();
        let mut h = domain.register(&mut t).unwrap();
        h.retire(&mut t, RemotePtr::NULL, 64);
        assert_eq!(h.limbo_len(), 0);
        assert_eq!(h.stats().retired_count, 0);
    }

    #[test]
    fn scan_is_one_round_trip() {
        let c = cluster();
        let mut t = c.client(0);
        let domain = ReclaimDomain::create(&mut t, 0, small_config()).unwrap();
        let mut h = domain.register(&mut t).unwrap();
        let before = t.stats().round_trips;
        h.scan(&mut t);
        assert_eq!(t.stats().round_trips - before, 1);
    }
}
