//! SFC 2.0 — the generational Succinct Filter Cache.
//!
//! The paper's SFC tracks which key prefixes name live inner nodes so a
//! compute node can jump straight to the deepest INHT entry instead of
//! walking Θ(L) hash levels. The first-generation implementation was a
//! single mutable cuckoo filter (`crates/cuckoo`); this crate layers a
//! *generational* design on top of the same substrate:
//!
//! * a **frozen generation** — an immutable [`BinaryFuse8`] over the
//!   stable prefix set at ≈9 bits/entry with exactly three array probes
//!   per query and zero false negatives;
//! * a **mutable delta** — a small cuckoo filter absorbing the inserts
//!   (and deletes, via a tombstone set) that arrive between rebuilds;
//! * a **rebuild** ([`FilterCache::maintain`]) that merges delta and
//!   tombstones into the next frozen generation. Construction runs
//!   *outside* the cache lock; the finished generation is installed by
//!   swapping an `Arc` pointer, so concurrent probes always observe
//!   either the old or the new generation in full — never a torn one;
//! * **snapshots** ([`FilterCache::snapshot`]) with magic/version/CRC32
//!   framing so a restarting CN warm-starts instead of re-learning the
//!   filter through the cold-miss ramp. Corrupt or stale snapshots are
//!   rejected with a counted telemetry event and fall back to cold
//!   start — never a panic.
//!
//! With [`SfcConfig::generational`] disabled the cache degrades to a
//! transparent wrapper over the original cuckoo filter (keys stored
//! verbatim, identical probe behaviour) — that mode is the baseline leg
//! of the `sfc_stats` cuckoo-vs-generational comparison.

#![forbid(unsafe_code)]

mod fuse;
mod snapshot;

pub use fuse::{BinaryFuse8, FuseBuildError};
pub use snapshot::{crc32, SnapshotError, MAGIC, VERSION};

use std::collections::BTreeSet;
use std::sync::Arc;

use cuckoo::{fnv1a64, fnv1a64_extend, mix64, CuckooFilter, FilterStats, FNV1A64_INIT};
use parking_lot::Mutex;

/// Canonical 64-bit hash of a prefix — shared by the delta cuckoo keys,
/// the frozen fuse, and the exact hash log, so all three layers agree on
/// key identity.
#[inline]
pub fn key_hash(key: &[u8]) -> u64 {
    mix64(fnv1a64(key))
}

/// Tuning for the generational subsystem. Lives in `SphinxConfig` so
/// every per-CN filter of an index shares one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfcConfig {
    /// `true` = frozen fuse + delta + rebuilds (SFC 2.0). `false` =
    /// plain cuckoo filter, byte-for-byte the pre-generational SFC.
    pub generational: bool,
    /// Pending delta+tombstone entries that arm a rebuild. `0` = auto: a
    /// sixteenth of the frozen set, at least half the budgeted delta's
    /// slots, with a delta that grows to hold what is pending (see
    /// `docs/SFC.md`). A non-zero value is a fixed threshold over a delta
    /// of fixed size; the lincheck sweep sets 1 to force rebuilds inside
    /// adversarial schedules.
    pub rebuild_delta_threshold: usize,
    /// Seeds tried before a fuse construction attempt is abandoned (the
    /// old generation then stays live and the rebuild re-arms).
    pub max_fuse_build_attempts: u32,
}

impl Default for SfcConfig {
    fn default() -> Self {
        SfcConfig {
            generational: true,
            rebuild_delta_threshold: 0,
            max_fuse_build_attempts: 64,
        }
    }
}

/// Merged statistics over all layers of one (or several, via
/// [`SfcStats::merge`]) filter caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SfcStats {
    /// Insert calls accepted (either into the delta or already frozen).
    pub inserts: u64,
    /// Delta-cuckoo evictions (information loss inside the delta).
    pub evictions: u64,
    /// Delta evictions where the hotness bit spared a hot entry.
    pub second_chance: u64,
    /// Delta cuckoo relocations.
    pub relocations: u64,
    /// Membership probes answered (per prefix length tried).
    pub lookups: u64,
    /// Probes that answered `true`.
    pub hits: u64,
    /// Hits later disproven by the index (observed false positives).
    pub false_positives: u64,
    /// Hits answered by the frozen fuse generation.
    pub frozen_hits: u64,
    /// Hits answered by the delta cuckoo.
    pub delta_hits: u64,
    /// Live frozen generation number (0 = cold, nothing frozen yet).
    pub generation: u64,
    /// Keys in the frozen generation.
    pub frozen_len: u64,
    /// Keys in the delta log awaiting the next rebuild.
    pub delta_len: u64,
    /// Frozen keys deleted but not yet rebuilt away.
    pub tombstones: u64,
    /// Completed generation rebuilds.
    pub rebuilds: u64,
    /// Extra fuse construction attempts beyond the first (unlucky
    /// seeds), plus full abandons.
    pub fuse_build_retries: u64,
    /// Snapshots accepted and installed.
    pub snapshot_loads: u64,
    /// Snapshots rejected (corrupt, stale, or wrong mode).
    pub snapshot_rejects: u64,
    /// Resident bytes of the frozen fuse fingerprint array.
    pub frozen_bytes: u64,
    /// Resident bytes of the delta cuckoo slot array.
    pub delta_bytes: u64,
}

impl SfcStats {
    /// Adds another cache's counters into this one (summing per-CN
    /// filters; `generation` takes the max since it is a level, not a
    /// count).
    pub fn merge(&mut self, o: &SfcStats) {
        self.inserts += o.inserts;
        self.evictions += o.evictions;
        self.second_chance += o.second_chance;
        self.relocations += o.relocations;
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.false_positives += o.false_positives;
        self.frozen_hits += o.frozen_hits;
        self.delta_hits += o.delta_hits;
        self.generation = self.generation.max(o.generation);
        self.frozen_len += o.frozen_len;
        self.delta_len += o.delta_len;
        self.tombstones += o.tombstones;
        self.rebuilds += o.rebuilds;
        self.fuse_build_retries += o.fuse_build_retries;
        self.snapshot_loads += o.snapshot_loads;
        self.snapshot_rejects += o.snapshot_rejects;
        self.frozen_bytes += o.frozen_bytes;
        self.delta_bytes += o.delta_bytes;
    }

    /// Frozen-generation bits per stored key (the ≤10 bits/entry
    /// acceptance metric); `0.0` when nothing is frozen.
    pub fn frozen_bits_per_entry(&self) -> f64 {
        if self.frozen_len == 0 {
            0.0
        } else {
            self.frozen_bytes as f64 * 8.0 / self.frozen_len as f64
        }
    }
}

/// One immutable generation: the fuse (probe structure) plus the exact
/// sorted hash log it was built from. The log is what makes rebuilds
/// and insert dedup possible (fuse filters are not enumerable); it is
/// rebuild/snapshot state, not on the probe path, and on a real CN it
/// could live in cold storage.
struct FrozenGen {
    generation: u64,
    fuse: BinaryFuse8,
    hashes: Box<[u64]>,
}

impl FrozenGen {
    fn cold(seed: u64) -> Self {
        let (fuse, _) = BinaryFuse8::build(&[], seed, 1).expect("empty fuse always builds");
        FrozenGen {
            generation: 0,
            fuse,
            hashes: Box::default(),
        }
    }

    fn contains_exact(&self, h: u64) -> bool {
        self.hashes.binary_search(&h).is_ok()
    }
}

#[derive(Default, Clone, Copy)]
struct Counters {
    inserts: u64,
    lookups: u64,
    hits: u64,
    frozen_hits: u64,
    delta_hits: u64,
    false_positives: u64,
    rebuilds: u64,
    fuse_build_retries: u64,
    snapshot_loads: u64,
    snapshot_rejects: u64,
}

struct Inner {
    frozen: Arc<FrozenGen>,
    delta: CuckooFilter,
    /// Exact contents of the delta cuckoo (the cuckoo itself can evict
    /// under pressure; the log cannot, so rebuilds lose nothing).
    delta_log: BTreeSet<u64>,
    /// Frozen keys deleted since the last rebuild.
    tombstones: BTreeSet<u64>,
    /// Stats of delta cuckoos retired by past rebuilds/snapshot loads.
    retired: FilterStats,
    c: Counters,
    /// True while a rebuild holds cloned inputs outside the lock.
    rebuilding: bool,
    /// [`FilterCache::deepest_hit`]'s scratch: the hash of every prefix
    /// of the key being probed.
    prefix_hashes: Vec<u64>,
}

/// The generational Succinct Filter Cache. Internally synchronized:
/// every probe/update method takes `&self`, so one `Arc<FilterCache>`
/// is shared by all workers of a CN.
pub struct FilterCache {
    inner: Mutex<Inner>,
    cfg: SfcConfig,
    seed: u64,
    delta_budget: usize,
    rebuild_threshold: usize,
}

impl std::fmt::Debug for FilterCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: Debug-formatting a client must not
        // contend with (or deadlock against) probes on the shared cache.
        f.debug_struct("FilterCache")
            .field("cfg", &self.cfg)
            .field("seed", &self.seed)
            .field("delta_budget", &self.delta_budget)
            .field("rebuild_threshold", &self.rebuild_threshold)
            .finish_non_exhaustive()
    }
}

impl FilterCache {
    /// A cache sized to `byte_budget` bytes of probe structures, like
    /// `CuckooFilter::with_byte_budget`. In generational mode the delta
    /// cuckoo gets ~1/8 of the budget (the frozen fuse, at ≈9
    /// bits/entry, covers far more keys with the rest); in cuckoo-only
    /// mode the whole budget goes to the one filter.
    pub fn new(byte_budget: usize, cfg: SfcConfig, seed: u64) -> FilterCache {
        let byte_budget = byte_budget.max(64);
        let delta_budget = if cfg.generational {
            (byte_budget / 8).clamp(64, byte_budget)
        } else {
            byte_budget
        };
        let delta = CuckooFilter::with_byte_budget_and_seed(delta_budget, seed);
        let rebuild_threshold = if cfg.rebuild_delta_threshold > 0 {
            cfg.rebuild_delta_threshold
        } else {
            (delta.capacity() / 2).max(64)
        };
        FilterCache {
            inner: Mutex::new(Inner {
                frozen: Arc::new(FrozenGen::cold(seed)),
                delta,
                delta_log: BTreeSet::new(),
                tombstones: BTreeSet::new(),
                retired: FilterStats::default(),
                c: Counters::default(),
                rebuilding: false,
                prefix_hashes: Vec::new(),
            }),
            cfg,
            seed,
            delta_budget,
            rebuild_threshold,
        }
    }

    /// Whether the rebuild trigger and the delta's size follow the
    /// pending set (`rebuild_delta_threshold: 0`) or are fixed.
    fn auto(&self) -> bool {
        self.cfg.rebuild_delta_threshold == 0
    }

    /// Pending entries that arm a rebuild. A rebuild re-peels the whole
    /// frozen set, so under a fixed threshold every prefix taught costs
    /// `frozen / threshold` fuse insertions — quadratic in all. Auto mode
    /// waits for a sixteenth of the frozen set (never less than the fixed
    /// rule's half of the budgeted delta): a rebuild then inserts at most
    /// 17 keys per pending one, and so do all rebuilds together.
    fn threshold(&self, st: &Inner) -> usize {
        if self.auto() {
            self.rebuild_threshold.max(st.frozen.hashes.len() / 16)
        } else {
            self.rebuild_threshold
        }
    }

    /// Replaces the delta cuckoo with one of at least `bytes` bytes
    /// holding exactly the delta log (which, unlike the cuckoo, is exact).
    /// Auto mode doubles `bytes` until every entry fits without an
    /// eviction at a load of at most one half; a fixed threshold keeps the
    /// size and the cuckoo's own eviction policy.
    fn reseed_delta(&self, st: &mut Inner, mut bytes: usize) {
        let retired = st.delta.stats();
        st.retired.merge(&retired);
        loop {
            let mut delta = CuckooFilter::with_byte_budget_and_seed(bytes, self.seed);
            let fits = st.delta_log.iter().all(|h| {
                let item = h.to_le_bytes();
                if self.auto() {
                    delta.try_insert(&item)
                } else {
                    delta.insert(&item);
                    true
                }
            });
            if !self.auto() || (fits && 2 * delta.len() <= delta.capacity()) {
                st.delta = delta;
                return;
            }
            bytes *= 2;
        }
    }

    /// Probe one prefix, updating hotness and hit counters.
    pub fn contains(&self, key: &[u8]) -> bool {
        let mut st = self.inner.lock();
        if !self.cfg.generational {
            return st.delta.contains(key);
        }
        self.probe_locked(&mut st, key_hash(key))
    }

    /// Probes the generational layers for the prefix hashing to `h`.
    fn probe_locked(&self, st: &mut Inner, h: u64) -> bool {
        st.c.lookups += 1;
        if st.tombstones.contains(&h) {
            return false;
        }
        if st.delta.contains(&h.to_le_bytes()) {
            st.c.hits += 1;
            st.c.delta_hits += 1;
            return true;
        }
        if st.frozen.fuse.contains_hash(h) {
            st.c.hits += 1;
            st.c.frozen_hits += 1;
            return true;
        }
        false
    }

    /// Probe without touching hotness bits or statistics (accuracy
    /// measurements).
    pub fn contains_quiet(&self, key: &[u8]) -> bool {
        let st = self.inner.lock();
        if !self.cfg.generational {
            return st.delta.contains_quiet(key);
        }
        let h = key_hash(key);
        !st.tombstones.contains(&h)
            && (st.delta.contains_quiet(&h.to_le_bytes()) || st.frozen.fuse.contains_hash(h))
    }

    /// Longest prefix of `key[..max_len]` the filter believes is
    /// resident, probing longest-first under one lock acquisition.
    /// Returns `0` when every length misses — the probe ladder of the
    /// Sphinx lookup machine.
    pub fn deepest_hit(&self, key: &[u8], max_len: usize) -> usize {
        let mut st = self.inner.lock();
        let l = max_len.min(key.len());
        if !self.cfg.generational {
            let hit = (1..=l).rev().find(|&x| st.delta.contains(&key[..x]));
            return hit.unwrap_or(0);
        }
        // FNV-1a is a running state: one forward pass leaves the hash of
        // every prefix, where hashing each prefix from its first byte
        // would read the key L/2 times over.
        let mut hashes = std::mem::take(&mut st.prefix_hashes);
        hashes.clear();
        let mut state = FNV1A64_INIT;
        hashes.extend(key[..l].iter().map(|b| {
            state = fnv1a64_extend(state, std::slice::from_ref(b));
            mix64(state)
        }));
        let hit = (1..=l)
            .rev()
            .find(|&x| self.probe_locked(&mut st, hashes[x - 1]));
        st.prefix_hashes = hashes;
        hit.unwrap_or(0)
    }

    /// Teach the filter a prefix.
    pub fn insert(&self, key: &[u8]) {
        let mut st = self.inner.lock();
        if !self.cfg.generational {
            st.delta.insert(key);
            return;
        }
        st.c.inserts += 1;
        self.insert_locked(&mut st, key_hash(key));
    }

    fn insert_locked(&self, st: &mut Inner, h: u64) {
        st.tombstones.remove(&h);
        if st.frozen.contains_exact(h) {
            return; // already baked into the frozen generation
        }
        if !st.delta_log.insert(h) {
            return;
        }
        let item = h.to_le_bytes();
        if !self.auto() {
            st.delta.insert(&item);
        } else if 2 * (st.delta.len() + 1) > st.delta.capacity() || !st.delta.try_insert(&item) {
            // Past half load, or `h` found both its buckets full: double
            // the delta. `h` is in the log, so the re-seed carries it.
            let doubled = 2 * st.delta.memory_bytes();
            self.reseed_delta(st, doubled);
        }
    }

    /// `contains` + `insert`-if-absent in one critical section — the
    /// "freshness" refresh the descent path performs when it discovers a
    /// deeper live node than the filter predicted. Returns `true` when
    /// the prefix was newly taught.
    pub fn refresh(&self, key: &[u8]) -> bool {
        let mut st = self.inner.lock();
        if !self.cfg.generational {
            let known = st.delta.contains(key);
            if !known {
                st.delta.insert(key);
            }
            return !known;
        }
        let h = key_hash(key);
        if self.probe_locked(&mut st, h) {
            return false;
        }
        st.c.inserts += 1;
        self.insert_locked(&mut st, h);
        true
    }

    /// Forget a prefix. Delta entries are removed outright; frozen
    /// entries get a tombstone until the next rebuild bakes the deletion
    /// in. Returns whether the prefix was tracked.
    pub fn remove(&self, key: &[u8]) -> bool {
        let mut st = self.inner.lock();
        if !self.cfg.generational {
            return st.delta.remove(key);
        }
        let h = key_hash(key);
        if st.delta_log.remove(&h) {
            st.delta.remove(&h.to_le_bytes());
            true
        } else if st.frozen.contains_exact(h) {
            // `insert` is false when the key was already tombstoned — a
            // second remove of the same key must report "not tracked".
            st.tombstones.insert(h)
        } else {
            false
        }
    }

    /// Cheap armed-check for the op-boundary maintenance hook: is there
    /// enough pending delta to justify a rebuild?
    pub fn rebuild_due(&self) -> bool {
        if !self.cfg.generational {
            return false;
        }
        let st = self.inner.lock();
        !st.rebuilding && st.delta_log.len() + st.tombstones.len() >= self.threshold(&st)
    }

    /// Merge the delta and tombstones into the next frozen generation.
    ///
    /// Runs in three steps: (1) under the lock, clone the inputs and
    /// mark the rebuild in flight; (2) **outside** the lock, merge the
    /// hash logs and build the fuse — concurrent probes keep using the
    /// live generation + delta; (3) under the lock again, swap the
    /// frozen `Arc` and prune exactly the entries that were merged, so
    /// inserts that raced the build survive in the delta. Returns `true`
    /// when a new generation was installed.
    pub fn maintain(&self) -> bool {
        self.rebuild(false)
    }

    /// [`FilterCache::maintain`] with the threshold ignored — freeze
    /// whatever is pending now (tests, measurement setups).
    pub fn force_rebuild(&self) -> bool {
        self.rebuild(true)
    }

    fn rebuild(&self, force: bool) -> bool {
        if !self.cfg.generational {
            return false;
        }
        let (frozen, delta_log, tombstones) = {
            let mut st = self.inner.lock();
            let threshold = if force { 1 } else { self.threshold(&st) };
            if st.rebuilding || st.delta_log.len() + st.tombstones.len() < threshold {
                return false;
            }
            st.rebuilding = true;
            (
                st.frozen.clone(),
                st.delta_log.clone(),
                st.tombstones.clone(),
            )
        };
        self.finish_rebuild(frozen, delta_log, tombstones)
    }

    /// Serializes the full generational state with CRC framing.
    pub fn snapshot(&self) -> Vec<u8> {
        let st = self.inner.lock();
        snapshot::encode(
            st.frozen.generation,
            &st.frozen.fuse,
            &st.frozen.hashes,
            &st.delta_log,
            &st.tombstones,
        )
    }

    /// Installs a snapshot, replacing the current state — the warm-start
    /// path for a restarting/joining CN. Rejections (corrupt framing,
    /// stale generation, non-generational mode) leave the current state
    /// untouched, count one `snapshot_rejects`, and return the reason;
    /// they never panic.
    pub fn load_snapshot(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let decoded = snapshot::decode(bytes);
        let mut st = self.inner.lock();
        let d = match decoded {
            Ok(d) if !self.cfg.generational => {
                let _ = d;
                st.c.snapshot_rejects += 1;
                return Err(SnapshotError::Malformed(
                    "generational mode disabled on this cache",
                ));
            }
            Ok(d) => d,
            Err(e) => {
                st.c.snapshot_rejects += 1;
                return Err(e);
            }
        };
        if d.generation < st.frozen.generation {
            let err = SnapshotError::Stale {
                snapshot: d.generation,
                current: st.frozen.generation,
            };
            st.c.snapshot_rejects += 1;
            return Err(err);
        }
        st.frozen = Arc::new(FrozenGen {
            generation: d.generation,
            fuse: d.fuse,
            hashes: d.hashes.into_boxed_slice(),
        });
        st.delta_log = d.delta_log;
        st.tombstones = d.tombstones;
        self.reseed_delta(&mut st, self.delta_budget);
        st.c.snapshot_loads += 1;
        Ok(())
    }

    /// Merged statistics across all layers.
    pub fn stats(&self) -> SfcStats {
        let st = self.inner.lock();
        let mut d = st.retired;
        d.merge(&st.delta.stats());
        if !self.cfg.generational {
            return SfcStats {
                inserts: d.inserts,
                evictions: d.evictions,
                second_chance: d.second_chance,
                relocations: d.relocations,
                lookups: d.lookups,
                hits: d.hits,
                false_positives: d.false_positives,
                delta_len: st.delta.len() as u64,
                delta_bytes: st.delta.memory_bytes() as u64,
                snapshot_loads: st.c.snapshot_loads,
                snapshot_rejects: st.c.snapshot_rejects,
                ..SfcStats::default()
            };
        }
        SfcStats {
            inserts: st.c.inserts,
            evictions: d.evictions,
            second_chance: d.second_chance,
            relocations: d.relocations,
            lookups: st.c.lookups,
            hits: st.c.hits,
            false_positives: st.c.false_positives,
            frozen_hits: st.c.frozen_hits,
            delta_hits: st.c.delta_hits,
            generation: st.frozen.generation,
            frozen_len: st.frozen.hashes.len() as u64,
            delta_len: st.delta_log.len() as u64,
            tombstones: st.tombstones.len() as u64,
            rebuilds: st.c.rebuilds,
            fuse_build_retries: st.c.fuse_build_retries,
            snapshot_loads: st.c.snapshot_loads,
            snapshot_rejects: st.c.snapshot_rejects,
            frozen_bytes: st.frozen.fuse.memory_bytes() as u64,
            delta_bytes: st.delta.memory_bytes() as u64,
        }
    }

    /// Records that a filter-suggested prefix turned out not to exist —
    /// the index-observed false positive (fuse collision, delta cuckoo
    /// fingerprint collision, or staleness).
    pub fn record_false_positive(&self) {
        let mut st = self.inner.lock();
        if !self.cfg.generational {
            st.delta.note_false_positive();
        } else {
            st.c.false_positives += 1;
        }
    }

    /// Prefixes currently believed resident (exact across frozen log,
    /// tombstones, and delta log).
    pub fn len(&self) -> usize {
        let st = self.inner.lock();
        if !self.cfg.generational {
            return st.delta.len();
        }
        // Tombstones normally cover frozen keys only, but a loaded
        // snapshot is free to claim otherwise — saturate, don't trust.
        st.frozen.hashes.len().saturating_sub(st.tombstones.len()) + st.delta_log.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum resident entries before delta pressure: frozen keys are
    /// effectively free (the fuse regrows each rebuild), so this is the
    /// frozen cardinality plus the delta slot capacity.
    pub fn capacity(&self) -> usize {
        let st = self.inner.lock();
        if !self.cfg.generational {
            return st.delta.capacity();
        }
        st.frozen.hashes.len() + st.delta.capacity()
    }

    /// Bytes of the resident probe structures (fuse fingerprint array +
    /// delta slots). The hash/tombstone logs are rebuild state, not
    /// probe state — see `docs/SFC.md` for the accounting argument.
    pub fn memory_bytes(&self) -> usize {
        let st = self.inner.lock();
        if !self.cfg.generational {
            return st.delta.memory_bytes();
        }
        st.frozen.fuse.memory_bytes() + st.delta.memory_bytes()
    }

    /// Live frozen generation number (0 = nothing frozen yet).
    pub fn generation(&self) -> u64 {
        self.inner.lock().frozen.generation
    }

    fn finish_rebuild(
        &self,
        frozen: Arc<FrozenGen>,
        delta_log: BTreeSet<u64>,
        tombstones: BTreeSet<u64>,
    ) -> bool {
        let mut merged: Vec<u64> = Vec::with_capacity(frozen.hashes.len() + delta_log.len());
        let mut delta_iter = delta_log.iter().copied().peekable();
        for &h in frozen.hashes.iter() {
            while let Some(&d) = delta_iter.peek() {
                if d < h {
                    merged.push(d);
                    delta_iter.next();
                } else {
                    break;
                }
            }
            if delta_iter.peek() == Some(&h) {
                delta_iter.next();
            }
            if !tombstones.contains(&h) {
                merged.push(h);
            }
        }
        merged.extend(delta_iter);

        let next_gen = frozen.generation + 1;
        let fuse_seed = self.seed ^ mix64(next_gen);
        let built = BinaryFuse8::build_sorted(&merged, fuse_seed, self.cfg.max_fuse_build_attempts);

        let mut st = self.inner.lock();
        st.rebuilding = false;
        let (fuse, attempts) = match built {
            Ok(v) => v,
            Err(e) => {
                st.c.fuse_build_retries += e.attempts as u64;
                return false;
            }
        };
        st.c.rebuilds += 1;
        st.c.fuse_build_retries += (attempts - 1) as u64;
        st.frozen = Arc::new(FrozenGen {
            generation: next_gen,
            fuse,
            hashes: merged.into_boxed_slice(),
        });
        for h in &delta_log {
            st.delta_log.remove(h);
        }
        for h in &tombstones {
            st.tombstones.remove(h);
        }
        // Back to the budgeted delta, re-seeded with what raced the build.
        self.reseed_delta(&mut st, self.delta_budget);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gen_cache() -> FilterCache {
        FilterCache::new(
            1 << 16,
            SfcConfig {
                generational: true,
                rebuild_delta_threshold: 0,
                max_fuse_build_attempts: 64,
            },
            0x5F13_C5EE,
        )
    }

    fn key(i: u64) -> Vec<u8> {
        format!("prefix-{i:06}").into_bytes()
    }

    #[test]
    fn insert_then_contains_across_rebuilds() {
        let f = gen_cache();
        for i in 0..5_000u64 {
            f.insert(&key(i));
        }
        while f.maintain() {}
        let s = f.stats();
        assert!(s.rebuilds >= 1, "auto threshold should have fired");
        assert!(s.generation >= 1);
        // Zero false negatives: everything taught is still believed in.
        for i in 0..5_000u64 {
            assert!(f.contains(&key(i)), "lost key {i}");
        }
        assert!(s.frozen_len > 0);
    }

    #[test]
    fn force_rebuild_freezes_everything_pending() {
        let f = gen_cache();
        for i in 0..100u64 {
            f.insert(&key(i));
        }
        assert!(f.force_rebuild());
        let s = f.stats();
        assert_eq!(s.frozen_len, 100);
        assert_eq!(s.delta_len, 0);
        assert_eq!(s.generation, 1);
        assert!(s.frozen_bits_per_entry() <= 10.0 + 12.0); // tiny sets have slack
        for i in 0..100u64 {
            assert!(f.contains(&key(i)));
        }
    }

    #[test]
    fn remove_is_effective_in_both_layers() {
        let f = gen_cache();
        f.insert(b"delta-resident");
        assert!(f.remove(b"delta-resident"));
        assert!(!f.contains(b"delta-resident"));

        f.insert(b"frozen-resident");
        assert!(f.force_rebuild());
        assert!(f.contains(b"frozen-resident"));
        assert!(f.remove(b"frozen-resident")); // tombstoned
        assert!(!f.contains(b"frozen-resident"));
        assert!(!f.remove(b"never-inserted"));
        // The tombstone is baked out by the next rebuild.
        f.insert(b"other");
        assert!(f.force_rebuild());
        assert!(!f.contains(b"frozen-resident"));
        assert_eq!(f.stats().tombstones, 0);
    }

    #[test]
    fn reinsert_after_remove_revives() {
        let f = gen_cache();
        f.insert(b"k");
        f.force_rebuild();
        f.remove(b"k");
        f.insert(b"k"); // clears the tombstone; frozen copy is exact
        assert!(f.contains(b"k"));
        assert_eq!(f.stats().delta_len, 0, "frozen-exact insert must dedup");
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let f = gen_cache();
        for i in 0..2_000u64 {
            f.insert(&key(i));
        }
        f.force_rebuild();
        for i in 2_000..2_100u64 {
            f.insert(&key(i)); // leave a live delta too
        }
        f.remove(&key(7));
        let snap = f.snapshot();

        let g = gen_cache();
        g.load_snapshot(&snap).unwrap();
        assert_eq!(g.snapshot(), snap, "load→re-snapshot must be identity");
        assert_eq!(g.generation(), f.generation());
        assert_eq!(g.len(), f.len());
        for i in 0..2_100u64 {
            assert_eq!(g.contains(&key(i)), i != 7, "key {i}");
        }
        assert_eq!(g.stats().snapshot_loads, 1);
    }

    #[test]
    fn corrupt_snapshots_are_counted_not_fatal() {
        let f = gen_cache();
        for i in 0..500u64 {
            f.insert(&key(i));
        }
        f.force_rebuild();
        let snap = f.snapshot();

        let g = gen_cache();
        assert!(g.load_snapshot(&snap[..snap.len() / 2]).is_err());
        let mut flipped = snap.clone();
        flipped[snap.len() / 3] ^= 0x10;
        assert!(g.load_snapshot(&flipped).is_err());
        assert!(g.load_snapshot(b"not a snapshot at all").is_err());
        assert_eq!(g.stats().snapshot_rejects, 3);
        assert_eq!(g.generation(), 0, "rejects must leave the cache cold");
        // The cache still works cold.
        g.insert(b"fresh");
        assert!(g.contains(b"fresh"));
        // And a good snapshot still loads afterwards.
        g.load_snapshot(&snap).unwrap();
        assert!(g.contains(&key(123)));
    }

    #[test]
    fn stale_snapshot_rejected() {
        let f = gen_cache();
        f.insert(b"a");
        f.force_rebuild();
        let old = f.snapshot(); // generation 1
        f.insert(b"b");
        f.force_rebuild(); // generation 2
        assert!(matches!(
            f.load_snapshot(&old),
            Err(SnapshotError::Stale {
                snapshot: 1,
                current: 2
            })
        ));
        assert!(f.contains(b"b"), "reject must not roll the filter back");
    }

    #[test]
    fn cuckoo_only_mode_matches_legacy_semantics() {
        let cfg = SfcConfig {
            generational: false,
            ..SfcConfig::default()
        };
        let f = FilterCache::new(1 << 16, cfg, 42);
        f.insert(b"abc");
        assert!(f.contains(b"abc"));
        assert!(!f.contains(b"abd"));
        assert!(f.remove(b"abc"));
        assert!(!f.contains(b"abc"));
        assert!(!f.rebuild_due());
        assert!(!f.maintain());
        assert!(!f.force_rebuild());
        let s = f.stats();
        assert_eq!(s.generation, 0);
        assert_eq!(s.lookups, 3);
        f.record_false_positive();
        assert_eq!(f.stats().false_positives, 1);
        // Snapshots are a generational feature.
        let g = gen_cache();
        g.insert(b"x");
        assert!(f.load_snapshot(&g.snapshot()).is_err());
        assert_eq!(f.stats().snapshot_rejects, 1);
    }

    #[test]
    fn deepest_hit_prefers_longest_prefix() {
        let f = gen_cache();
        f.insert(b"ab");
        f.insert(b"abcd");
        f.force_rebuild();
        assert_eq!(f.deepest_hit(b"abcdef", 6), 4);
        assert_eq!(f.deepest_hit(b"abx", 3), 2);
        assert_eq!(f.deepest_hit(b"zz", 2), 0);
    }

    /// Commit to the rebuild rule of auto mode: teaching 200 k prefixes to
    /// an 8 KiB cache spends at most 17 fuse insertions per prefix over
    /// all rebuilds together, loses nothing on the way (the delta grows
    /// instead of evicting), and ends with the delta at most half the fuse.
    #[test]
    fn auto_rebuilds_are_amortised_and_the_delta_grows_without_loss() {
        let f = FilterCache::new(8 << 10, SfcConfig::default(), 0x5F13_C5EE);
        let budgeted = f.stats().delta_bytes;
        let n = 200_000u64;
        let (mut fuse_insertions, mut grown_peak) = (0u64, 0u64);
        for i in 0..n {
            f.insert(&key(i));
            if f.rebuild_due() {
                assert!(f.maintain());
                fuse_insertions += f.stats().frozen_len;
            }
            if (i + 1) % 1000 == 0 {
                grown_peak = grown_peak.max(f.stats().delta_bytes);
                // Everything taught in the last two rounds, and a stride
                // through the rest (all of it once more at the end).
                let recent = (i + 1).saturating_sub(2000)..=i;
                let older = (0..i + 1).step_by(97);
                for j in recent.chain(older) {
                    assert!(
                        f.contains_quiet(&key(j)),
                        "lost key {j} after {} inserts",
                        i + 1
                    );
                }
            }
        }
        let s = f.stats();
        assert!(s.rebuilds >= 10, "{} rebuilds", s.rebuilds);
        assert!(
            fuse_insertions <= 17 * n,
            "{fuse_insertions} fuse insertions for {n} prefixes over {} rebuilds",
            s.rebuilds
        );
        assert!(
            (s.rebuilds as usize) < 200,
            "{} rebuilds: the trigger is not following the frozen set",
            s.rebuilds
        );
        assert_eq!(s.evictions, 0);
        assert!(
            grown_peak > budgeted,
            "the delta never grew past {budgeted} B"
        );
        assert_eq!(s.frozen_len + s.delta_len, n);
        assert!(
            2 * s.delta_bytes <= s.frozen_bytes
                && f.memory_bytes() as u64 <= s.frozen_bytes * 3 / 2,
            "delta {} B beside a fuse of {} B",
            s.delta_bytes,
            s.frozen_bytes
        );
        for j in 0..n {
            assert!(f.contains_quiet(&key(j)), "lost key {j}");
        }
        // The delta is back at its budget right after a rebuild.
        assert!(f.force_rebuild());
        assert_eq!(f.stats().delta_bytes, budgeted);
    }

    /// An explicit threshold is the old fixed rule: rebuilt as soon as that
    /// many are pending, over a delta that keeps its size.
    #[test]
    fn an_explicit_threshold_rebuilds_on_the_dot_and_never_grows_the_delta() {
        let cfg = SfcConfig {
            rebuild_delta_threshold: 1,
            ..SfcConfig::default()
        };
        let f = FilterCache::new(64, cfg, 9);
        let budgeted = f.stats().delta_bytes;
        for i in 0..300u64 {
            f.insert(&key(i));
            assert!(f.rebuild_due());
            assert!(f.maintain());
            assert_eq!(f.stats().delta_bytes, budgeted);
        }
        assert_eq!(f.stats().rebuilds, 300);
        // Without maintenance the delta still keeps its size (and evicts,
        // as a fixed-size cuckoo does).
        for i in 300..600u64 {
            f.insert(&key(i));
        }
        assert_eq!(f.stats().delta_bytes, budgeted);
    }

    /// A tombstone set before the delta grows is honoured while it grows
    /// and baked out by the next rebuild.
    #[test]
    fn remove_of_a_frozen_key_survives_delta_growth() {
        let f = FilterCache::new(64, SfcConfig::default(), 3);
        f.insert(b"frozen");
        assert!(f.force_rebuild());
        let budgeted = f.stats().delta_bytes;
        assert!(f.remove(b"frozen"));
        for i in 0..40u64 {
            f.insert(&key(i));
            assert!(!f.contains(b"frozen"), "tombstone lost after {i} inserts");
        }
        assert!(
            f.stats().delta_bytes > budgeted,
            "40 pending must outgrow a 32-slot delta"
        );
        assert!(f.force_rebuild());
        let s = f.stats();
        assert_eq!(
            (s.tombstones, s.frozen_len, s.delta_bytes),
            (0, 40, budgeted)
        );
        assert!(!f.contains(b"frozen"));
    }

    /// `deepest_hit` hashes every prefix in one forward pass; the answers,
    /// hotness bits and counters are those of probing each prefix length
    /// from scratch, longest first.
    #[test]
    fn deepest_hit_is_the_per_prefix_ladder() {
        let build = || {
            let f = FilterCache::new(1 << 10, SfcConfig::default(), 77);
            for i in 0..3_000u64 {
                let k = mix64(i).to_be_bytes();
                f.insert(&k[..1 + (i % 8) as usize]);
            }
            f.force_rebuild();
            for i in 3_000..3_400u64 {
                let k = mix64(i).to_be_bytes();
                f.insert(&k[..1 + (i % 8) as usize]); // a live delta
            }
            for i in (0..3_000u64).step_by(7) {
                let k = mix64(i).to_be_bytes();
                f.remove(&k[..1 + (i % 8) as usize]); // and tombstones
            }
            f
        };
        let (fast, ladder) = (build(), build());
        let s = fast.stats();
        assert!(s.frozen_len > 0 && s.delta_len > 0 && s.tombstones > 0);
        for i in 0..10_000u64 {
            // Half the keys extend something taught, half are fresh.
            let mut k = mix64(i / 2).to_be_bytes().to_vec();
            k.extend_from_slice(&mix64(!i).to_be_bytes()[..(i % 5) as usize]);
            if i % 2 == 1 {
                k[0] ^= 0x80;
            }
            for max_len in 0..=k.len() + 1 {
                let l = max_len.min(k.len());
                let want = (1..=l)
                    .rev()
                    .find(|&x| ladder.contains(&k[..x]))
                    .unwrap_or(0);
                assert_eq!(
                    fast.deepest_hit(&k, max_len),
                    want,
                    "key {k:02x?} max_len {max_len}"
                );
            }
        }
        assert_eq!(fast.stats(), ladder.stats());
        assert_eq!(fast.snapshot(), ladder.snapshot());
    }

    proptest! {
        /// Model check: an interleaving of inserts/removes/rebuilds vs a
        /// BTreeSet model never shows a false negative, and removes are
        /// always honoured (no false positives for removed keys).
        #[test]
        fn matches_set_model_with_rebuilds(ops in proptest::collection::vec((any::<u8>(), 0u64..300), 1..400)) {
            let f = gen_cache();
            let mut model = std::collections::BTreeSet::new();
            for (kind, i) in ops {
                match kind % 4 {
                    0 | 1 => {
                        f.insert(&key(i));
                        model.insert(i);
                    }
                    2 => {
                        let expect = model.remove(&i);
                        prop_assert_eq!(f.remove(&key(i)), expect);
                    }
                    _ => {
                        f.force_rebuild();
                    }
                }
            }
            // The cache is exact about cardinality (frozen log −
            // tombstones + delta log) and must never show a false
            // negative; false positives for absent keys are allowed by
            // design, so they are not asserted on.
            prop_assert_eq!(f.len(), model.len());
            for &i in &model {
                prop_assert!(f.contains(&key(i)), "false negative for {}", i);
            }
        }
    }
}
