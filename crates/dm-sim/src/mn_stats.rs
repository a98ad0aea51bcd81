//! Server-side (per-memory-node) load accounting.
//!
//! Every verb a [`DmClient`](crate::DmClient) charges to its own
//! [`ClientStats`](crate::ClientStats) is mirrored here on the memory node
//! that served it: verb-kind counters at submission time, payload bytes at
//! effect time, and the NIC queue/service split per physical doorbell. A
//! verb whose target MN does not exist is counted in the cluster-wide
//! dropped counter instead, so the two views always balance:
//!
//! ```text
//! Σ_mn verbs(mn) + dropped  ==  Σ_client verbs(client)
//! ```
//!
//! and, when nothing was dropped, the equality holds *per verb kind*, for
//! payload bytes, and for physical doorbells
//! ([`ClusterStats::check_conservation`]).
//!
//! On top of the scalar counters each MN keeps a coarse **keyspace heat
//! sketch**: its pool is split into [`HEAT_REGIONS`] equal-sized regions
//! and every effect-applied verb bumps the read- or write-touch counter of
//! the region its target offset falls in. The sketch is what an elastic
//! resharding policy needs to decide *what* to migrate off a hot node.
//!
//! Accounting is monotone for the lifetime of the cluster — it is *not*
//! cleared by [`DmCluster::reset_network`](crate::DmCluster::reset_network)
//! — so windowed views are taken with [`MnStats::since`] /
//! [`ClusterStats::since`], exactly like `ClientStats`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::client::Verb;
use crate::stats::ClientStats;

/// Number of equal-sized heat-sketch regions per memory node.
pub const HEAT_REGIONS: usize = 32;

/// Lock-free accounting cell attached to each
/// [`MemoryNode`](crate::MemoryNode). All counters are relaxed atomics:
/// they are statistics, not synchronization.
#[derive(Debug)]
pub(crate) struct MnAccounting {
    capacity: u64,
    reads: AtomicU64,
    writes: AtomicU64,
    cas: AtomicU64,
    faa: AtomicU64,
    frees: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    doorbells: AtomicU64,
    service_ns: AtomicU64,
    queue_ns: AtomicU64,
    heat_reads: [AtomicU64; HEAT_REGIONS],
    heat_writes: [AtomicU64; HEAT_REGIONS],
}

impl MnAccounting {
    pub(crate) fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "memory node capacity must be nonzero");
        MnAccounting {
            capacity,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            cas: AtomicU64::new(0),
            faa: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            doorbells: AtomicU64::new(0),
            service_ns: AtomicU64::new(0),
            queue_ns: AtomicU64::new(0),
            heat_reads: std::array::from_fn(|_| AtomicU64::new(0)),
            heat_writes: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The heat region `offset` falls in. Offsets are below 2^48
    /// (`RemotePtr`), so the product cannot overflow a `u64`.
    fn region(&self, offset: u64) -> usize {
        ((offset * HEAT_REGIONS as u64 / self.capacity) as usize).min(HEAT_REGIONS - 1)
    }

    /// Counts one verb at submission time (mirror of the client-side
    /// per-kind bump in `DmClient::count_verbs`).
    pub(crate) fn record_verb(&self, verb: &Verb) {
        let cell = match verb {
            Verb::Read { .. } => &self.reads,
            Verb::Write { .. } => &self.writes,
            Verb::Cas { .. } => &self.cas,
            Verb::Faa { .. } => &self.faa,
            Verb::Free { .. } => &self.frees,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one physical doorbell and its NIC queue/service split.
    pub(crate) fn record_doorbell(&self, queue_ns: u64, service_ns: u64) {
        self.doorbells.fetch_add(1, Ordering::Relaxed);
        self.queue_ns.fetch_add(queue_ns, Ordering::Relaxed);
        self.service_ns.fetch_add(service_ns, Ordering::Relaxed);
    }

    /// Counts an effect-applied read: payload bytes plus a heat touch.
    pub(crate) fn record_read_effect(&self, offset: u64, bytes: u64) {
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.heat_reads[self.region(offset)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an effect-applied write/CAS/FAA: payload bytes plus a heat
    /// touch. `Free` effects pass `bytes = 0` (they move no payload) but
    /// still touch the sketch.
    pub(crate) fn record_write_effect(&self, offset: u64, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.heat_writes[self.region(offset)].fetch_add(1, Ordering::Relaxed);
    }

    /// Coherent-enough snapshot (individual counters are exact; the set is
    /// taken without a global lock, which is fine between barriers).
    pub(crate) fn snapshot(&self, mn_id: u16) -> MnStats {
        MnStats {
            mn_id,
            capacity: self.capacity,
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            cas: self.cas.load(Ordering::Relaxed),
            faa: self.faa.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            doorbells: self.doorbells.load(Ordering::Relaxed),
            service_ns: self.service_ns.load(Ordering::Relaxed),
            queue_ns: self.queue_ns.load(Ordering::Relaxed),
            heat_reads: std::array::from_fn(|i| self.heat_reads[i].load(Ordering::Relaxed)),
            heat_writes: std::array::from_fn(|i| self.heat_writes[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time snapshot of one memory node's server-side accounting.
///
/// `Copy` on purpose: a time-series sampler can take one per MN per tick
/// with zero allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MnStats {
    /// The node's id.
    pub mn_id: u16,
    /// The node's pool capacity in bytes (heat-region denominator).
    pub capacity: u64,
    /// READ verbs routed to this node.
    pub reads: u64,
    /// WRITE verbs routed to this node.
    pub writes: u64,
    /// CAS verbs routed to this node.
    pub cas: u64,
    /// FAA verbs routed to this node.
    pub faa: u64,
    /// FREE verbs routed to this node.
    pub frees: u64,
    /// Payload bytes read from this node (effect-applied reads only).
    pub bytes_read: u64,
    /// Payload bytes written to this node (CAS/FAA count as 8).
    pub bytes_written: u64,
    /// Physical doorbells served by this node's NIC.
    pub doorbells: u64,
    /// NIC service time this node spent on those doorbells, ns.
    pub service_ns: u64,
    /// NIC queueing time those doorbells waited behind the backlog, ns.
    pub queue_ns: u64,
    /// Read touches per heat region ([`HEAT_REGIONS`] equal byte slices).
    pub heat_reads: [u64; HEAT_REGIONS],
    /// Write touches per heat region (Free effects count here too).
    pub heat_writes: [u64; HEAT_REGIONS],
}

impl MnStats {
    /// Total verbs routed to this node.
    pub fn verbs(&self) -> u64 {
        self.reads + self.writes + self.cas + self.faa + self.frees
    }

    /// Total payload bytes moved through this node.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// NIC-busy fraction over a window, in parts per million (integer so
    /// exports stay byte-stable). 0 for an empty window.
    pub fn busy_ppm(&self, window_ns: u64) -> u64 {
        if window_ns == 0 {
            return 0;
        }
        (self.service_ns as u128 * 1_000_000 / window_ns as u128) as u64
    }

    /// Mean NIC queueing delay per doorbell, ns (0 if no doorbells).
    pub fn mean_queue_ns(&self) -> u64 {
        self.queue_ns.checked_div(self.doorbells).unwrap_or(0)
    }

    /// Difference between two snapshots (`self` after, `earlier` before).
    ///
    /// # Panics
    ///
    /// Panics if the snapshots are from different nodes.
    pub fn since(&self, earlier: &MnStats) -> MnStats {
        assert_eq!(self.mn_id, earlier.mn_id, "snapshots from different MNs");
        MnStats {
            mn_id: self.mn_id,
            capacity: self.capacity,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            cas: self.cas - earlier.cas,
            faa: self.faa - earlier.faa,
            frees: self.frees - earlier.frees,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            doorbells: self.doorbells - earlier.doorbells,
            service_ns: self.service_ns - earlier.service_ns,
            queue_ns: self.queue_ns - earlier.queue_ns,
            heat_reads: std::array::from_fn(|i| self.heat_reads[i] - earlier.heat_reads[i]),
            heat_writes: std::array::from_fn(|i| self.heat_writes[i] - earlier.heat_writes[i]),
        }
    }
}

/// A snapshot of the whole cluster's server-side accounting: one
/// [`MnStats`] per node plus the dropped-verb counter (verbs addressed to
/// nonexistent nodes, which no MN could absorb).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// Per-node snapshots, indexed by MN id.
    pub mns: Vec<MnStats>,
    /// Verbs addressed to MNs that do not exist (counted cluster-wide so
    /// totals still balance against the client side).
    pub dropped_verbs: u64,
}

impl ClusterStats {
    /// Total verbs served by all nodes (excluding dropped ones).
    pub fn total_verbs(&self) -> u64 {
        self.mns.iter().map(MnStats::verbs).sum()
    }

    /// Total physical doorbells served by all nodes.
    pub fn total_doorbells(&self) -> u64 {
        self.mns.iter().map(|m| m.doorbells).sum()
    }

    /// Total payload bytes moved through all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.mns.iter().map(MnStats::bytes_total).sum()
    }

    /// Difference between two snapshots (`self` after, `earlier` before).
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different cluster shapes.
    pub fn since(&self, earlier: &ClusterStats) -> ClusterStats {
        assert_eq!(
            self.mns.len(),
            earlier.mns.len(),
            "snapshots from different cluster shapes"
        );
        ClusterStats {
            mns: self
                .mns
                .iter()
                .zip(&earlier.mns)
                .map(|(a, b)| a.since(b))
                .collect(),
            dropped_verbs: self.dropped_verbs - earlier.dropped_verbs,
        }
    }

    /// Verifies the conservation invariant against the summed client-side
    /// view of the same window (`clients` = every participating client's
    /// [`ClientStats`] delta, added together).
    ///
    /// With nothing dropped the check is exact per verb kind, for payload
    /// bytes, and for physical doorbells. Dropped verbs never reach an MN
    /// (and never ring a doorbell or move bytes), so in their presence the
    /// per-kind identity degrades to the total-verb identity — still with
    /// no double counting and no leaks.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// identity.
    pub fn check_conservation(&self, clients: &ClientStats) -> Result<(), String> {
        let sum = |f: fn(&MnStats) -> u64| self.mns.iter().map(f).sum::<u64>();
        if self.total_verbs() + self.dropped_verbs != clients.verbs() {
            return Err(format!(
                "verb totals differ: {} served + {} dropped vs {} issued",
                self.total_verbs(),
                self.dropped_verbs,
                clients.verbs()
            ));
        }
        if self.dropped_verbs == 0 {
            type Kind = (&'static str, fn(&MnStats) -> u64, u64);
            let kinds: [Kind; 5] = [
                ("reads", |m| m.reads, clients.reads),
                ("writes", |m| m.writes, clients.writes),
                ("cas", |m| m.cas, clients.cas),
                ("faa", |m| m.faa, clients.faa),
                ("frees", |m| m.frees, clients.frees),
            ];
            for (name, f, client_side) in kinds {
                if sum(f) != client_side {
                    return Err(format!(
                        "{name} differ: {} served vs {} issued",
                        sum(f),
                        client_side
                    ));
                }
            }
        }
        if sum(|m| m.bytes_read) != clients.bytes_read {
            return Err(format!(
                "bytes_read differ: {} served vs {} issued",
                sum(|m| m.bytes_read),
                clients.bytes_read
            ));
        }
        if sum(|m| m.bytes_written) != clients.bytes_written {
            return Err(format!(
                "bytes_written differ: {} served vs {} issued",
                sum(|m| m.bytes_written),
                clients.bytes_written
            ));
        }
        if self.total_doorbells() != clients.doorbells {
            return Err(format!(
                "doorbells differ: {} served vs {} rung",
                self.total_doorbells(),
                clients.doorbells
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `region` in `u64` places every offset where the `u128` formula
    /// does: at each region boundary ±1, at both ends of the pool, on a
    /// capacity that is not a multiple of [`HEAT_REGIONS`] — and on the
    /// largest pool a 48-bit offset can address.
    #[test]
    fn region_matches_the_u128_formula() {
        for capacity in [8 * 1001u64, (1 << 48) - 8] {
            let acc = MnAccounting::new(capacity);
            let wide = |offset: u64| {
                ((offset as u128 * HEAT_REGIONS as u128 / capacity as u128) as usize)
                    .min(HEAT_REGIONS - 1)
            };
            let mut offsets = vec![0, 1, capacity - 1];
            for k in 1..HEAT_REGIONS as u64 {
                let boundary = (k * capacity).div_ceil(HEAT_REGIONS as u64);
                offsets.extend([boundary - 1, boundary, boundary + 1]);
            }
            for offset in offsets {
                assert_eq!(
                    acc.region(offset),
                    wide(offset),
                    "offset {offset} of {capacity}"
                );
            }
            assert_eq!(acc.region(capacity - 1), HEAT_REGIONS - 1);
        }
    }
}
