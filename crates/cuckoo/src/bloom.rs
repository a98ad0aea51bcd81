//! A plain Bloom filter — the obvious alternative the paper implicitly
//! rejects for the Succinct Filter Cache.
//!
//! Provided for the design ablation: at equal byte budgets a Bloom filter
//! has a comparable false-positive rate, but it supports **neither
//! deletion nor targeted eviction**. A cache must shed entries under
//! pressure; a Bloom filter can only be cleared wholesale, producing a
//! periodic hit-rate cliff, and it cannot forget prefixes whose nodes are
//! merged away. See the `FilterStats`-based comparisons in the crate
//! tests.

use crate::{fnv1a64, mix64};

/// A classic Bloom filter over byte-string items (double hashing,
/// k derived from the bits-per-item budget).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    hashes: u32,
    items: usize,
}

impl BloomFilter {
    /// Creates a filter using `bytes` bytes of bitmap, tuned for roughly
    /// `expected_items` insertions.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 8` or `expected_items == 0`.
    pub fn with_byte_budget(bytes: usize, expected_items: usize) -> Self {
        assert!(bytes >= 8, "budget too small");
        assert!(expected_items > 0, "expected_items must be positive");
        let words = (bytes / 8).next_power_of_two().max(1);
        let words = if words * 8 > bytes { words / 2 } else { words };
        let words = words.max(1);
        let bit_count = (words * 64) as f64;
        // k = ln2 * bits/items, clamped to something sane.
        let k = ((bit_count / expected_items as f64) * std::f64::consts::LN_2).round();
        BloomFilter {
            bits: vec![0; words],
            mask: (words as u64 * 64) - 1,
            hashes: k.clamp(1.0, 16.0) as u32,
            items: 0,
        }
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Number of inserted items (not distinct-counted).
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether no items were inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    fn positions(&self, item: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let h1 = mix64(fnv1a64(item));
        let h2 = mix64(h1 ^ 0x9E37_79B9_7F4A_7C15) | 1;
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) & self.mask)
    }

    /// Inserts an item (never fails, never evicts — that is the point of
    /// the comparison).
    pub fn insert(&mut self, item: &[u8]) {
        let positions: Vec<u64> = self.positions(item).collect();
        for pos in positions {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
        self.items += 1;
    }

    /// Membership test (false positives possible, false negatives not).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.positions(item)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// The only way a Bloom filter sheds state: drop everything.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.items = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CuckooFilter;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::with_byte_budget(4096, 2000);
        for i in 0..2000u32 {
            b.insert(&i.to_le_bytes());
        }
        for i in 0..2000u32 {
            assert!(b.contains(&i.to_le_bytes()));
        }
    }

    #[test]
    fn fp_rate_reasonable_at_budget() {
        let mut b = BloomFilter::with_byte_budget(4096, 2000);
        for i in 0..2000u32 {
            b.insert(&i.to_le_bytes());
        }
        let fps = (1_000_000..1_050_000u32)
            .filter(|i| b.contains(&i.to_le_bytes()))
            .count();
        let rate = fps as f64 / 50_000.0;
        assert!(rate < 0.02, "bloom fp rate {rate}");
    }

    #[test]
    fn clear_is_total() {
        let mut b = BloomFilter::with_byte_budget(1024, 100);
        b.insert(b"x");
        b.clear();
        assert!(!b.contains(b"x"));
        assert!(b.is_empty());
    }

    #[test]
    fn budget_respected() {
        for budget in [64usize, 1000, 8192] {
            let b = BloomFilter::with_byte_budget(budget, 100);
            assert!(b.memory_bytes() <= budget);
        }
    }

    /// The ablation the module exists for: when the tracked set outgrows
    /// the budget, the cuckoo filter keeps serving the *hot* subset
    /// (second-chance eviction), while the Bloom filter degrades into a
    /// false-positive generator with no way to shed cold entries.
    #[test]
    fn cuckoo_beats_bloom_as_a_cache() {
        let budget = 2048; // bytes; far below the 20k-item working set
        let mut cuckoo = CuckooFilter::with_byte_budget(budget);
        let mut bloom = BloomFilter::with_byte_budget(budget, 20_000);

        let hot: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("hot{i}").into_bytes())
            .collect();
        for h in &hot {
            cuckoo.insert(h);
            bloom.insert(h);
        }
        // Flood with 20k cold entries, keeping the hot set touched.
        for i in 0..20_000u32 {
            cuckoo.insert(&i.to_le_bytes());
            bloom.insert(&i.to_le_bytes());
            if i % 16 == 0 {
                for h in &hot {
                    cuckoo.contains(h);
                }
            }
        }
        // Hot-set retention.
        let cuckoo_hot = hot.iter().filter(|h| cuckoo.contains_quiet(h)).count();
        assert!(
            cuckoo_hot >= 180,
            "cuckoo retains the hot set: {cuckoo_hot}/200"
        );
        // Accuracy on definite non-members.
        let probes: Vec<Vec<u8>> = (0..5_000u32)
            .map(|i| format!("absent{i}").into_bytes())
            .collect();
        let cuckoo_fp = probes.iter().filter(|p| cuckoo.contains_quiet(p)).count();
        let bloom_fp = probes.iter().filter(|p| bloom.contains(p)).count();
        assert!(
            bloom_fp > 10 * cuckoo_fp.max(1),
            "overfilled bloom should be far less accurate: bloom {bloom_fp} vs cuckoo {cuckoo_fp}"
        );
    }
}
