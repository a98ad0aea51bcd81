//! # cuckoo — a cuckoo filter with second-chance eviction
//!
//! The substrate of Sphinx's **Succinct Filter Cache** (§III-B of the
//! paper): a cuckoo filter (Fan et al., CoNEXT'14) storing 12-bit
//! fingerprints in 4-way buckets, extended with one *hotness bit* per entry
//! implementing the second-chance replacement policy the paper describes:
//!
//! * a newly inserted entry starts cold (`hot = 0`);
//! * a membership hit sets the entry hot;
//! * when both candidate buckets are full, a random **cold** entry is
//!   evicted to make room (the filter is a cache — capacity misses lose
//!   information rather than failing);
//! * when every candidate entry is hot, classic cuckoo relocation kicks
//!   entries to their alternate buckets and **resets their hotness**,
//!   making them eligible for future eviction.
//!
//! Because the filter stores fingerprints only, membership answers can be
//! false positives (tunable by capacity; <1 % at the paper's operating
//! point) but never false negatives for resident entries.
//!
//! ## Example
//!
//! ```
//! use cuckoo::CuckooFilter;
//!
//! let mut filter = CuckooFilter::with_capacity(1024);
//! filter.insert(b"lyr");
//! assert!(filter.contains(b"lyr"));
//! assert!(filter.remove(b"lyr"));
//! assert!(!filter.contains(b"lyr"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

const SLOTS_PER_BUCKET: usize = 4;
const FP_BITS: u32 = 12;
const FP_MASK: u16 = (1 << FP_BITS) - 1;
const HOT_BIT: u16 = 1 << 15;
const MAX_KICKS: usize = 500;

/// FNV-1a over a byte string — the canonical key hash shared by the
/// filter layers (the `sfc` crate reuses it so the cuckoo delta and the
/// frozen binary-fuse generation agree on key identity).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_INIT, bytes)
}

/// The [`fnv1a64`] state before the first byte.
pub const FNV1A64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash: `fnv1a64(ab) == fnv1a64_extend(fnv1a64(a), b)`,
/// so one forward pass over a key yields the hash of every prefix.
pub fn fnv1a64_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// 64-bit finalizer (murmur3-style) used to decorrelate [`fnv1a64`]
/// output before deriving bucket indices and fingerprints.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Counters describing filter churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Entries inserted.
    pub inserts: u64,
    /// Cold entries evicted to make room (information loss).
    pub evictions: u64,
    /// Evictions where the hotness bit spared at least one hot entry —
    /// the second-chance policy actually taking effect.
    pub second_chance: u64,
    /// Cuckoo relocations performed.
    pub relocations: u64,
    /// Membership queries answered.
    pub lookups: u64,
    /// Membership queries that returned `true`.
    pub hits: u64,
    /// Hits later disproven by the index (the fetched hash entry did not
    /// exist) and reported back via
    /// [`CuckooFilter::note_false_positive`]. `false_positives / hits`
    /// is the observed FPR — previously unmeasurable from telemetry.
    pub false_positives: u64,
}

impl FilterStats {
    /// Adds another filter's counters into this one (e.g. summing the
    /// per-CN filters of a multi-CN run).
    pub fn merge(&mut self, other: &FilterStats) {
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.second_chance += other.second_chance;
        self.relocations += other.relocations;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.false_positives += other.false_positives;
    }
}

/// A cuckoo filter with 12-bit fingerprints, 4-way buckets and
/// second-chance (hotness-bit) eviction.
///
/// Entries are byte strings; only their fingerprints are stored, so the
/// whole filter costs 2 bytes per slot — the "succinct" property the
/// Succinct Filter Cache relies on (≈13 bits per tracked prefix versus
/// 40–2056 bytes for caching the inner node itself).
#[derive(Clone)]
pub struct CuckooFilter {
    /// `buckets * SLOTS_PER_BUCKET` slots; 0 = empty, else fp | hot bit.
    slots: Vec<u16>,
    bucket_mask: u64,
    len: usize,
    rng_state: u64,
    stats: FilterStats,
}

impl fmt::Debug for CuckooFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CuckooFilter")
            .field("capacity", &self.capacity())
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl CuckooFilter {
    /// Creates a filter able to hold at least `capacity` entries
    /// (rounded up so the bucket count is a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_seed(capacity, 0x5EED_CAFE)
    }

    /// Like [`CuckooFilter::with_capacity`] with an explicit seed for the
    /// eviction-choice RNG (deterministic tests/benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity_and_seed(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "filter capacity must be positive");
        let buckets = capacity
            .div_ceil(SLOTS_PER_BUCKET)
            .next_power_of_two()
            .max(2);
        CuckooFilter {
            slots: vec![0; buckets * SLOTS_PER_BUCKET],
            bucket_mask: buckets as u64 - 1,
            len: 0,
            rng_state: seed | 1,
            stats: FilterStats::default(),
        }
    }

    /// Creates a filter that fits within `bytes` bytes of memory
    /// (2 bytes per slot) — how a compute node sizes its Succinct Filter
    /// Cache from a memory budget.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 16`.
    pub fn with_byte_budget(bytes: usize) -> Self {
        Self::with_byte_budget_and_seed(bytes, 0x5EED_CAFE)
    }

    /// Like [`CuckooFilter::with_byte_budget`] with an explicit seed for
    /// the eviction-choice RNG (deterministic tests/benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 16`.
    pub fn with_byte_budget_and_seed(bytes: usize, seed: u64) -> Self {
        assert!(bytes >= 16, "budget too small for even one bucket");
        // Power-of-two rounding must round *down* to respect the budget.
        let buckets = ((bytes / 2) / SLOTS_PER_BUCKET).max(2);
        let buckets = if buckets.is_power_of_two() {
            buckets
        } else {
            buckets.next_power_of_two() / 2
        };
        CuckooFilter {
            slots: vec![0; buckets * SLOTS_PER_BUCKET],
            bucket_mask: buckets as u64 - 1,
            len: 0,
            rng_state: seed | 1,
            stats: FilterStats::default(),
        }
    }

    /// Number of slots (maximum resident entries).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * 2
    }

    /// Occupancy in `[0, 1]`.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Churn counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Records that a previous hit turned out to be a false positive.
    ///
    /// The filter cannot detect this on its own — the index learns it
    /// when the hash-entry fetch for a filter-suggested prefix comes back
    /// empty, and reports it here so telemetry can expose the observed
    /// false-positive rate.
    pub fn note_false_positive(&mut self) {
        self.stats.false_positives += 1;
    }

    fn fp_and_bucket(&self, item: &[u8]) -> (u16, u64) {
        let h = mix64(fnv1a64(item));
        let fp = ((h >> 45) & FP_MASK as u64) as u16;
        let fp = if fp == 0 { 1 } else { fp };
        (fp, h & self.bucket_mask)
    }

    fn alt_bucket(&self, bucket: u64, fp: u16) -> u64 {
        (bucket ^ mix64(fp as u64)) & self.bucket_mask
    }

    fn slot_range(&self, bucket: u64) -> std::ops::Range<usize> {
        let start = bucket as usize * SLOTS_PER_BUCKET;
        start..start + SLOTS_PER_BUCKET
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Tests membership; a hit marks the matching entry hot
    /// (second-chance).
    pub fn contains(&mut self, item: &[u8]) -> bool {
        let (fp, b1) = self.fp_and_bucket(item);
        let b2 = self.alt_bucket(b1, fp);
        self.stats.lookups += 1;
        for bucket in [b1, b2] {
            for i in self.slot_range(bucket) {
                if self.slots[i] & FP_MASK == fp && self.slots[i] != 0 {
                    self.slots[i] |= HOT_BIT;
                    self.stats.hits += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Read-only membership test (no hotness update) — for statistics.
    pub fn contains_quiet(&self, item: &[u8]) -> bool {
        let (fp, b1) = self.fp_and_bucket(item);
        self.holds(fp, b1, self.alt_bucket(b1, fp))
    }

    /// Whether `fp` resides in one of its two candidate buckets.
    fn holds(&self, fp: u16, b1: u64, b2: u64) -> bool {
        [b1, b2].iter().any(|&bucket| {
            self.slot_range(bucket)
                .any(|i| self.slots[i] & FP_MASK == fp && self.slots[i] != 0)
        })
    }

    /// Puts `fp` into an empty slot of a candidate bucket (new entries
    /// start cold); `false` when both buckets are full.
    fn place(&mut self, fp: u16, b1: u64, b2: u64) -> bool {
        for bucket in [b1, b2] {
            for i in self.slot_range(bucket) {
                if self.slots[i] == 0 {
                    self.slots[i] = fp;
                    self.len += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Inserts an item only if that loses nothing — for a caller that
    /// holds the exact key set (and inserts each key once) and would rather
    /// rebuild a larger filter than evict. Unlike [`CuckooFilter::insert`]
    /// it takes a slot of its own even beside an equal fingerprint, so
    /// removing one of two colliding items leaves the other findable. With
    /// both candidate buckets full, one resident moves to its own
    /// alternate bucket if that has room (hotness travels with it);
    /// `false`, with the filter untouched, when none can.
    pub fn try_insert(&mut self, item: &[u8]) -> bool {
        let (fp, b1) = self.fp_and_bucket(item);
        let b2 = self.alt_bucket(b1, fp);
        let placed = self.place(fp, b1, b2) || self.make_room(fp, b1, b2);
        self.stats.inserts += u64::from(placed);
        placed
    }

    /// Puts `fp` in the slot of a resident of `b1` or `b2` that has a free
    /// slot in its alternate bucket, and the resident there.
    fn make_room(&mut self, fp: u16, b1: u64, b2: u64) -> bool {
        for bucket in [b1, b2] {
            for i in self.slot_range(bucket) {
                let resident = self.slots[i];
                let alt = self.alt_bucket(bucket, resident & FP_MASK);
                if let Some(free) = self.slot_range(alt).find(|&j| self.slots[j] == 0) {
                    self.slots[free] = resident;
                    self.slots[i] = fp;
                    self.len += 1;
                    self.stats.relocations += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Inserts an item. Always succeeds: when both candidate buckets are
    /// full a cold entry is evicted (`stats().evictions` counts the
    /// information loss — cache semantics, not an error).
    ///
    /// Inserting an item whose fingerprint already resides in a candidate
    /// bucket is a no-op (set semantics).
    pub fn insert(&mut self, item: &[u8]) {
        let (fp, b1) = self.fp_and_bucket(item);
        let b2 = self.alt_bucket(b1, fp);
        self.stats.inserts += 1;
        // Set semantics: already present? Else an empty slot?
        if self.holds(fp, b1, b2) || self.place(fp, b1, b2) {
            return;
        }
        // Both buckets full: evict a random cold entry if one exists
        // (§III-B's second-chance policy)…
        let cold: Vec<usize> = [b1, b2]
            .iter()
            .flat_map(|&b| self.slot_range(b))
            .filter(|&i| self.slots[i] & HOT_BIT == 0)
            .collect();
        if !cold.is_empty() {
            if cold.len() < 2 * SLOTS_PER_BUCKET {
                self.stats.second_chance += 1;
            }
            let victim = cold[(self.next_rand() % cold.len() as u64) as usize];
            self.slots[victim] = fp;
            self.stats.evictions += 1;
            return;
        }
        // …otherwise relocate via cuckoo kicks, resetting hotness of every
        // relocated entry.
        let start = if self.next_rand() & 1 == 0 { b1 } else { b2 };
        let mut bucket = start;
        let mut fp = fp;
        for _ in 0..MAX_KICKS {
            let slot = self.slot_range(bucket).start
                + (self.next_rand() % SLOTS_PER_BUCKET as u64) as usize;
            let displaced = self.slots[slot];
            self.slots[slot] = fp; // incoming entry is cold
            self.stats.relocations += 1;
            let displaced_fp = displaced & FP_MASK;
            bucket = self.alt_bucket(bucket, displaced_fp);
            fp = displaced_fp; // hotness reset: displaced re-enters cold
            for i in self.slot_range(bucket) {
                if self.slots[i] == 0 {
                    self.slots[i] = fp;
                    self.len += 1;
                    return;
                }
            }
            // If the alternate bucket has a cold entry, evict it and stop.
            let cold: Vec<usize> = self
                .slot_range(bucket)
                .filter(|&i| self.slots[i] & HOT_BIT == 0)
                .collect();
            if !cold.is_empty() {
                if cold.len() < SLOTS_PER_BUCKET {
                    self.stats.second_chance += 1;
                }
                let victim = cold[(self.next_rand() % cold.len() as u64) as usize];
                self.slots[victim] = fp;
                self.stats.evictions += 1;
                return;
            }
        }
        // Give up after MAX_KICKS: drop the carried fingerprint (cache
        // semantics — a loss, not an error).
        self.stats.evictions += 1;
    }

    /// Removes an item's fingerprint. Returns whether one was found.
    ///
    /// As with all cuckoo filters, removing an item that was never
    /// inserted can (rarely) delete a colliding entry — only call this for
    /// items previously inserted.
    pub fn remove(&mut self, item: &[u8]) -> bool {
        let (fp, b1) = self.fp_and_bucket(item);
        let b2 = self.alt_bucket(b1, fp);
        for bucket in [b1, b2] {
            for i in self.slot_range(bucket) {
                if self.slots[i] & FP_MASK == fp && self.slots[i] != 0 {
                    self.slots[i] = 0;
                    self.len -= 1;
                    return true;
                }
            }
        }
        false
    }

    /// Clears all entries and statistics.
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
        self.stats = FilterStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `try_insert` never loses an entry: it fills empty slots, relocates
    /// one resident when both buckets are full, and refuses otherwise.
    #[test]
    fn try_insert_is_lossless_or_refuses() {
        let mut f = CuckooFilter::with_capacity(1 << 12);
        let mut kept = Vec::new();
        for i in 0..(1u32 << 13) {
            if f.try_insert(&i.to_le_bytes()) {
                kept.push(i);
            }
        }
        assert_eq!(f.stats().evictions, 0);
        assert!(f.stats().relocations > 0, "a full bucket pair made room");
        assert!(kept.len() < 1 << 13, "an over-full filter refuses");
        assert!(
            kept.len() > (1 << 12) * 9 / 10,
            "{} of 4096 slots",
            kept.len()
        );
        for i in &kept {
            assert!(f.contains_quiet(&i.to_le_bytes()), "lost {i}");
        }
        // At half load nothing is refused.
        let mut half = CuckooFilter::with_capacity(1 << 12);
        assert!((0..(1u32 << 11)).all(|i| half.try_insert(&i.to_le_bytes())));
    }

    #[test]
    fn insert_contains_remove() {
        let mut f = CuckooFilter::with_capacity(128);
        f.insert(b"hello");
        assert!(f.contains(b"hello"));
        assert!(!f.contains(b"world"));
        assert!(f.remove(b"hello"));
        assert!(!f.contains(b"hello"));
        assert!(!f.remove(b"hello"));
    }

    #[test]
    fn near_total_retention_below_capacity() {
        // Unlike a classic cuckoo filter, the paper's policy evicts a cold
        // entry as soon as both candidate buckets fill (before trying
        // relocation), so a handful of losses at 50% load are by design.
        // They must stay well under 1%.
        let mut f = CuckooFilter::with_capacity(4096);
        let items: Vec<Vec<u8>> = (0..2000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for item in &items {
            f.insert(item);
        }
        let lost = items.iter().filter(|i| !f.contains_quiet(i)).count();
        assert!(
            lost as u64 <= f.stats().evictions,
            "losses bounded by evictions"
        );
        assert!(lost < 20, "should retain >99%: lost {lost}/2000");
    }

    #[test]
    fn false_positive_rate_below_one_percent() {
        let mut f = CuckooFilter::with_capacity(8192);
        for i in 0..4000u32 {
            f.insert(&i.to_le_bytes());
        }
        let fps = (1_000_000..1_050_000u32)
            .filter(|i| f.contains_quiet(&i.to_le_bytes()))
            .count();
        let rate = fps as f64 / 50_000.0;
        assert!(rate < 0.01, "false positive rate {rate} too high");
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut f = CuckooFilter::with_capacity(64);
        f.insert(b"x");
        f.insert(b"x");
        assert_eq!(f.len(), 1);
        assert!(f.remove(b"x"));
        assert!(!f.contains(b"x"));
    }

    #[test]
    fn second_chance_counted_when_hot_entries_spared() {
        let mut f = CuckooFilter::with_capacity_and_seed(64, 11);
        let items: Vec<Vec<u8>> = (0..f.capacity() as u32)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        for item in &items {
            f.insert(item);
        }
        // Heat up the retained entries so full buckets contain hot slots.
        for item in &items {
            let _ = f.contains(item);
        }
        assert_eq!(f.stats().second_chance, 0, "no eviction yet");
        // Overfill: evictions now happen among buckets with hot entries.
        for i in 0..(f.capacity() * 4) as u32 {
            f.insert(&(1_000_000 + i).to_le_bytes());
        }
        let stats = f.stats();
        assert!(stats.evictions > 0);
        assert!(
            stats.second_chance > 0,
            "hot entries should have been spared at least once"
        );
        assert!(stats.second_chance <= stats.evictions);
    }

    #[test]
    fn eviction_kicks_in_at_capacity_and_prefers_cold() {
        let mut f = CuckooFilter::with_capacity_and_seed(64, 7);
        let n = f.capacity() * 4; // way past capacity
                                  // Insert hot set first and touch it to set hotness.
        let hot: Vec<Vec<u8>> = (0..16u32).map(|i| format!("hot{i}").into_bytes()).collect();
        for h in &hot {
            f.insert(h);
        }
        for h in &hot {
            assert!(f.contains(h));
        }
        // Flood with cold entries, keeping the hot set touched as a real
        // workload would.
        for i in 0..n as u32 {
            f.insert(&i.to_le_bytes());
            for h in &hot {
                f.contains(h);
            }
        }
        assert!(f.stats().evictions > 0, "flood must evict");
        let survivors = hot.iter().filter(|h| f.contains_quiet(h)).count();
        assert!(
            survivors >= 14,
            "hot entries should survive eviction: {survivors}/16"
        );
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let mut f = CuckooFilter::with_capacity(256);
        for i in 0..100u32 {
            f.insert(&i.to_le_bytes());
        }
        assert_eq!(f.len(), 100);
        for i in 0..50u32 {
            assert!(f.remove(&i.to_le_bytes()));
        }
        assert_eq!(f.len(), 50);
        assert!((f.load_factor() - 50.0 / f.capacity() as f64).abs() < 1e-9);
    }

    #[test]
    fn byte_budget_respected() {
        for budget in [64usize, 1000, 4096, 100_000] {
            let f = CuckooFilter::with_byte_budget(budget);
            assert!(
                f.memory_bytes() <= budget,
                "{} > {budget}",
                f.memory_bytes()
            );
            assert!(
                f.memory_bytes() * 4 >= budget,
                "wastes too much of the budget"
            );
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut f = CuckooFilter::with_capacity(64);
        f.insert(b"a");
        f.contains(b"a");
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.stats(), FilterStats::default());
        assert!(!f.contains_quiet(b"a"));
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = CuckooFilter::with_capacity_and_seed(64, 99);
        let mut b = CuckooFilter::with_capacity_and_seed(64, 99);
        for i in 0..500u32 {
            a.insert(&i.to_le_bytes());
            b.insert(&i.to_le_bytes());
        }
        assert_eq!(a.slots, b.slots);
    }

    #[test]
    fn relocation_or_eviction_when_all_hot() {
        let mut f = CuckooFilter::with_capacity_and_seed(8, 3);
        // Fill completely and make everything hot.
        let mut resident = Vec::new();
        let mut i = 0u32;
        while f.len() < f.capacity() && i < 10_000 {
            let item = i.to_le_bytes().to_vec();
            f.insert(&item);
            resident.push(item);
            i += 1;
        }
        for item in &resident {
            f.contains(item);
        }
        let before = f.stats().relocations + f.stats().evictions;
        for j in 10_000..10_050u32 {
            f.insert(&j.to_le_bytes());
        }
        assert!(
            f.stats().relocations + f.stats().evictions > before,
            "full+hot filter must relocate or evict"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = CuckooFilter::with_capacity(0);
    }
}
