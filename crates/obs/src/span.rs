//! Operation kinds, phase taxonomy, and per-phase aggregates.

use dm_sim::ClientStats;

/// The kind of index operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    /// Point lookup.
    Get,
    /// Insert of a new key.
    Insert,
    /// In-place update of an existing key.
    Update,
    /// Deletion.
    Delete,
    /// Range scan.
    Scan,
    /// Batched multi-get.
    MultiGet,
}

/// Number of [`OpKind`] variants (array-table dimension).
pub const NUM_OP_KINDS: usize = 6;

impl OpKind {
    /// All kinds, in declaration order (matches `repr` indices).
    pub const ALL: [OpKind; NUM_OP_KINDS] = [
        OpKind::Get,
        OpKind::Insert,
        OpKind::Update,
        OpKind::Delete,
        OpKind::Scan,
        OpKind::MultiGet,
    ];

    /// Stable lowercase name used in JSON/text export.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
            OpKind::Scan => "scan",
            OpKind::MultiGet => "multi_get",
        }
    }

    /// Index into per-kind tables.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// The phase of an operation a stretch of network work is attributed to.
///
/// Phases mirror the Sphinx read/write path (SFC probe → INHT lookup →
/// descent → validated leaf read; writes add locking and SMO maintenance).
/// Baselines reuse the structural subset (`Traversal`, `LeafRead`,
/// `LeafWrite`, `LockAcquire`, `Retry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// CN-local succinct-filter-cache probe (plus any filter refresh reads).
    SfcProbe,
    /// INHT hash-entry reads (RACE bucket-pair fetch + validation).
    InhtLookup,
    /// Root-to-leaf (or entry-node-to-leaf) inner-node descent.
    Traversal,
    /// Validated leaf read (including torn-read re-reads).
    LeafRead,
    /// Leaf write / install / split data movement.
    LeafWrite,
    /// Lock-word CAS acquisition (including piggybacked lock+write batches).
    LockAcquire,
    /// Retry backoff and restarted-attempt overhead.
    Retry,
    /// Index maintenance: INHT publish/repair, invalidation, GC.
    Maintenance,
    /// Work not attributed to a specific phase.
    Other,
}

/// Number of [`Phase`] variants (array-table dimension).
pub const NUM_PHASES: usize = 9;

impl Phase {
    /// All phases, in declaration order (matches `repr` indices).
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::SfcProbe,
        Phase::InhtLookup,
        Phase::Traversal,
        Phase::LeafRead,
        Phase::LeafWrite,
        Phase::LockAcquire,
        Phase::Retry,
        Phase::Maintenance,
        Phase::Other,
    ];

    /// Stable name used in JSON/text export.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SfcProbe => "SfcProbe",
            Phase::InhtLookup => "InhtLookup",
            Phase::Traversal => "Traversal",
            Phase::LeafRead => "LeafRead",
            Phase::LeafWrite => "LeafWrite",
            Phase::LockAcquire => "LockAcquire",
            Phase::Retry => "Retry",
            Phase::Maintenance => "Maintenance",
            Phase::Other => "Other",
        }
    }

    /// Index into per-phase tables.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Network work attributed to one phase: a sum of `ClientStats` deltas
/// taken at phase boundaries, plus virtual time spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Number of phase intervals folded in.
    pub count: u64,
    /// Round trips performed during the phase.
    pub round_trips: u64,
    /// Physical doorbells rung during the phase (< round trips when the
    /// pipelined scheduler fused this phase's submissions with others).
    pub doorbells: u64,
    /// Verbs issued during the phase.
    pub verbs: u64,
    /// Bytes moved (read + written) during the phase.
    pub bytes: u64,
    /// Virtual nanoseconds spent in the phase.
    pub time_ns: u64,
}

impl PhaseAgg {
    /// Folds one phase interval in: the `ClientStats` delta across the
    /// interval and the virtual time it spanned.
    pub fn add_interval(&mut self, delta: &ClientStats, time_ns: u64) {
        self.count += 1;
        self.round_trips += delta.round_trips;
        self.doorbells += delta.doorbells;
        self.verbs += delta.verbs();
        self.bytes += delta.bytes_total();
        self.time_ns += time_ns;
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &PhaseAgg) {
        self.count += other.count;
        self.round_trips += other.round_trips;
        self.doorbells += other.doorbells;
        self.verbs += other.verbs;
        self.bytes += other.bytes;
        self.time_ns += other.time_ns;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        *self == PhaseAgg::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_phase_indices_match_all_order() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i);
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.idx(), i);
        }
    }

    #[test]
    fn phase_agg_accumulates() {
        let mut agg = PhaseAgg::default();
        let delta = ClientStats {
            round_trips: 2,
            doorbells: 2,
            reads: 3,
            writes: 1,
            cas: 1,
            faa: 0,
            frees: 0,
            bytes_read: 128,
            bytes_written: 64,
        };
        agg.add_interval(&delta, 4000);
        agg.add_interval(&delta, 1000);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.round_trips, 4);
        assert_eq!(agg.doorbells, 4);
        assert_eq!(agg.verbs, 10);
        assert_eq!(agg.bytes, 384);
        assert_eq!(agg.time_ns, 5000);
        assert!(!agg.is_empty());
    }
}
