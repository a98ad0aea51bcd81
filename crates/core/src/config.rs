//! Index configuration.

use race_hash::TableConfig;

/// How the compute side locates the deepest inner node (the paper's design
/// plus its ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Full Sphinx: consult the Succinct Filter Cache, then fetch a single
    /// hash entry (§III-B). The default.
    #[default]
    FilterCache,
    /// Inner-Node-Hash-Table-only ablation: read the hash entries of *all*
    /// key prefixes in one doorbell-batched round trip and pick the
    /// deepest (§III-A without §III-B). Same round trips, Θ(L) bandwidth.
    InhtOnly,
}

/// Configuration for a Sphinx index.
#[derive(Debug, Clone)]
pub struct SphinxConfig {
    /// CN-side cache budget in bytes for the Succinct Filter Cache
    /// (the paper evaluates 20 MB). One filter is shared per compute node.
    pub cache_bytes: usize,
    /// Deepest-node location strategy.
    pub mode: CacheMode,
    /// Sizing of each MN's Inner Node Hash Table.
    pub inht: TableConfig,
    /// Seed for the filter's eviction RNG and fuse construction
    /// (determinism; each CN's filter derives its own seed from this).
    pub seed: u64,
    /// Generational Succinct Filter Cache tuning (frozen binary-fuse
    /// generation + mutable cuckoo delta + background rebuilds). Set
    /// `generational: false` to reproduce the pre-generational
    /// cuckoo-only cache for ablations.
    pub sfc: sfc::SfcConfig,
    /// Epoch-based reclamation of unlinked nodes and leaves. Disable
    /// (`enabled: false`) to reproduce the pre-reclamation leak behaviour
    /// for memory comparisons.
    pub reclaim: reclaim::ReclaimConfig,
}

impl Default for SphinxConfig {
    fn default() -> Self {
        SphinxConfig {
            cache_bytes: 20 << 20, // the paper's 20 MB CN-side cache
            mode: CacheMode::FilterCache,
            // Directory preallocated for 2^12 segments (≈1.7 M inner
            // nodes per MN) — 32 KiB per MN, so the hash table's overhead
            // stays in the paper's 3–5% band instead of being dominated
            // by an oversized directory.
            inht: TableConfig {
                initial_depth: 4,
                max_depth: 12,
            },
            seed: 0x5F13_C5EE,
            sfc: sfc::SfcConfig::default(),
            reclaim: reclaim::ReclaimConfig::default(),
        }
    }
}

impl SphinxConfig {
    /// A small-footprint configuration for unit tests and examples.
    pub fn small() -> Self {
        SphinxConfig {
            cache_bytes: 1 << 20,
            inht: TableConfig {
                initial_depth: 2,
                max_depth: 12,
            },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_operating_point() {
        let c = SphinxConfig::default();
        assert_eq!(c.cache_bytes, 20 * 1024 * 1024);
        assert_eq!(c.mode, CacheMode::FilterCache);
    }
}
