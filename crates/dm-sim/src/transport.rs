//! The batch combinators of [`DmClient`] and the types its verbs share.
//!
//! Index crates (`sphinx`, `baselines`, `bptree`, `race-hash`) never build
//! [`DoorbellBatch`]es for the common shapes themselves; they call the
//! combinators here — each one batch through [`DmClient::execute`], so every
//! round trip is charged by the client's one flush.

use crate::addr::RemotePtr;
use crate::client::{DmClient, DoorbellBatch, Verb, VerbResult};
use crate::error::DmError;
use crate::inline::FirstInline;

/// What a flushed [`DoorbellBatch`] completes with: one result per verb, in
/// verb order (a batch of one verb allocates nothing for them).
pub type Completion = FirstInline<VerbResult>;

/// Shared bounded-retry configuration for every remote protocol loop.
///
/// Before this existed each index crate hard-coded its own constants
/// (`OP_RETRY_LIMIT`, `IO_RETRY_LIMIT`, `RETRY_LIMIT`, `SPIN_NS`).
/// The defaults preserve those values:
///
/// * [`op_retries`](RetryPolicy::op_retries) = 200 000 — full-operation
///   loops (lookup through the hash table, lock acquisition, insert
///   descent). The bound only exists to turn livelock into a reported
///   error; healthy contention resolves within tens of iterations.
/// * [`io_retries`](RetryPolicy::io_retries) = 64 — single-node validated
///   reads (torn checksum / seqlock retries). A torn read means a writer
///   was mid-flight, so a handful of retries always suffices; 64 is deep
///   paranoia.
/// * [`backoff_ns`](RetryPolicy::backoff_ns) = 200 — virtual nanoseconds
///   charged per retry (plus an OS `yield_now`, see
///   [`DmClient::backoff`]), modelling CN-side pause before re-polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempt bound for full-operation retry loops.
    pub op_retries: usize,
    /// Attempt bound for single-node validated-read loops.
    pub io_retries: usize,
    /// Virtual time charged by one [`DmClient::backoff`] call.
    pub backoff_ns: u64,
}

impl RetryPolicy {
    /// The documented defaults (see the type-level docs).
    pub const fn new() -> Self {
        RetryPolicy {
            op_retries: 200_000,
            io_retries: 64,
            backoff_ns: 200,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

/// A fault-injection hook applied to every READ result at the
/// [`DmClient::flush_submitted`] choke point (installed cluster-wide via
/// [`DmCluster::set_fault_hook`](crate::DmCluster::set_fault_hook)).
///
/// The hook corrupts only the *returned* bytes — remote memory stays
/// intact — so an injected fault behaves exactly like a torn RDMA read:
/// transient, and gone on retry. Tests use this to prove the validated
/// read paths (checksums, seqlocks) catch arbitrary word tears.
pub trait FaultHook: Send + Sync {
    /// May mutate `data`, the bytes about to be returned for a READ of
    /// `ptr`. Called after memory effects are applied, before the result
    /// reaches the caller.
    fn corrupt_read(&self, ptr: RemotePtr, data: &mut [u8]);
}

/// A ticket identifying one submitted doorbell batch on a client's
/// submission queue. Redeem it with [`DmClient::poll`] or
/// [`DmClient::wait`]; tokens are not transferable between clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SqeToken(pub(crate) u64);

impl SqeToken {
    /// The token's raw sequence number — stable within one client's
    /// lifetime. Trace events identify burst members by this value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl DmClient {
    /// Doorbell-batched reads: all targets on one MN share a single round
    /// trip (the INHT's parallel hash-entry fetch, scan leaf runs,
    /// multi-get lanes). Results are in input order.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    pub fn read_many(&mut self, reads: &[(RemotePtr, usize)]) -> Result<Vec<Vec<u8>>, DmError> {
        let batch: DoorbellBatch = reads
            .iter()
            .map(|&(ptr, len)| Verb::Read { ptr, len })
            .collect();
        Ok(self
            .execute(batch)?
            .into_iter()
            .map(VerbResult::into_read)
            .collect())
    }

    /// [`read_many`](DmClient::read_many) into one buffer: the reads'
    /// bytes back to back, in input order (the caller knows the lengths it
    /// asked for). Same verbs, same charges; one allocation for the batch
    /// instead of one per read — a scan level is read this way.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    pub fn read_packed(&mut self, reads: &[(RemotePtr, usize)]) -> Result<Vec<u8>, DmError> {
        let packed = self.execute(DoorbellBatch::packed_reads(reads))?.pop();
        Ok(packed.map_or_else(Vec::new, VerbResult::into_read))
    }

    /// Doorbell-batched writes (e.g. publishing a split's leaf + inner
    /// node together, or a seqlock node's tail/body/header trio).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    pub fn write_many(&mut self, writes: Vec<(RemotePtr, Vec<u8>)>) -> Result<(), DmError> {
        let batch: DoorbellBatch = writes
            .into_iter()
            .map(|(ptr, data)| Verb::Write { ptr, data })
            .collect();
        self.execute(batch)?;
        Ok(())
    }

    /// One CAS piggybacked with one read in a single batch. Verbs apply in
    /// order, so the read observes the post-CAS state — the guarded-install
    /// and lock-acquire building block (§IV). Returns the CAS's previous
    /// value and the read bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn cas_and_read(
        &mut self,
        cas_ptr: RemotePtr,
        expected: u64,
        new: u64,
        read_ptr: RemotePtr,
        read_len: usize,
    ) -> Result<(u64, Vec<u8>), DmError> {
        let batch: DoorbellBatch = [
            Verb::Cas {
                ptr: cas_ptr,
                expected,
                new,
            },
            Verb::Read {
                ptr: read_ptr,
                len: read_len,
            },
        ]
        .into_iter()
        .collect();
        let mut res = self.execute(batch)?;
        let bytes = res.pop().expect("read result").into_read();
        let prev = res.pop().expect("cas result").into_cas();
        Ok((prev, bytes))
    }

    /// Doorbell-batched CASes `(ptr, expected, new)`: all targets on one
    /// MN share a single round trip, each CAS is individually atomic and
    /// applies in input order, and the previous values come back in input
    /// order (success ⇔ equal to that CAS's `expected`). A RACE segment
    /// split zeroes all its relocating entries with one call.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn cas_many(&mut self, targets: &[(RemotePtr, u64, u64)]) -> Result<Vec<u64>, DmError> {
        let batch: DoorbellBatch = targets
            .iter()
            .map(|&(ptr, expected, new)| Verb::Cas { ptr, expected, new })
            .collect();
        Ok(self
            .execute(batch)?
            .into_iter()
            .map(VerbResult::into_cas)
            .collect())
    }

    /// The tail of a locked publish in one doorbell: `writes`, then an FAA
    /// of 1 on the `version` word, then a zero store to the `lock` word —
    /// in that verb order, so on one MN nobody observes the lock free
    /// before the writes and the version bump have landed.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn publish_and_unlock(
        &mut self,
        writes: Vec<(RemotePtr, Vec<u8>)>,
        version: RemotePtr,
        lock: RemotePtr,
    ) -> Result<(), DmError> {
        let mut batch: DoorbellBatch = writes
            .into_iter()
            .map(|(ptr, data)| Verb::Write { ptr, data })
            .collect();
        batch.push(Verb::Faa {
            ptr: version,
            delta: 1,
        });
        batch.push(Verb::Write {
            ptr: lock,
            data: 0u64.to_le_bytes().to_vec(),
        });
        self.execute(batch)?;
        Ok(())
    }

    /// Doorbell-batched FAAs; returns previous values in input order (used
    /// by RACE segment splits to bump every bucket header's version in one
    /// round trip).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn faa_many(&mut self, targets: &[(RemotePtr, u64)]) -> Result<Vec<u64>, DmError> {
        let batch: DoorbellBatch = targets
            .iter()
            .map(|&(ptr, delta)| Verb::Faa { ptr, delta })
            .collect();
        self.execute(batch)?
            .into_iter()
            .map(|r| match r {
                VerbResult::Faa(v) => Ok(v),
                other => panic!("expected Faa result, got {other:?}"),
            })
            .collect()
    }

    /// Doorbell-batched frees through the *reclamation* path: pointers on
    /// one MN share a single round trip, and the released bytes are
    /// attributed to [`AllocStats::reclaimed_bytes`](crate::AllocStats).
    /// The epoch reclaimer drains a quiesced limbo batch with one call.
    ///
    /// Unlike [`free`](DmClient::free) (the allocation fast path, off the
    /// critical path and charged no network time), these frees travel as
    /// verbs and pay the network cost model.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidFree`] on a dead/unknown pointer; frees
    /// preceding the failed one are retained.
    pub fn free_many(&mut self, ptrs: &[RemotePtr]) -> Result<(), DmError> {
        let batch: DoorbellBatch = ptrs.iter().map(|&ptr| Verb::Free { ptr }).collect();
        self.execute(batch)?;
        Ok(())
    }

    /// Contention backoff: charges [`RetryPolicy::backoff_ns`] of virtual
    /// time and yields the OS thread so the conflicting (simulated) peer
    /// can make progress.
    pub fn backoff(&mut self, policy: &RetryPolicy) {
        self.advance_clock(policy.backoff_ns);
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, DmCluster};

    fn client() -> (DmCluster, DmClient) {
        let c = DmCluster::new(ClusterConfig {
            num_mns: 2,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let cl = c.client(0);
        (c, cl)
    }

    /// The combinators must preserve the doorbell accounting: same-MN
    /// batches are one round trip.
    #[test]
    fn read_many_same_mn_is_one_round_trip() {
        let (_c, mut t) = client();
        let a = t.alloc(0, 64).unwrap();
        let b = t.alloc(0, 64).unwrap();
        t.write(a, b"aaaa").unwrap();
        t.write(b, b"bbbb").unwrap();
        let before = t.stats().round_trips;
        let got = t.read_many(&[(a, 4), (b, 4)]).unwrap();
        assert_eq!(got, vec![b"aaaa".to_vec(), b"bbbb".to_vec()]);
        assert_eq!(t.stats().round_trips - before, 1);
    }

    #[test]
    fn read_many_two_mns_is_two_round_trips() {
        let (_c, mut t) = client();
        let a = t.alloc(0, 64).unwrap();
        let b = t.alloc(1, 64).unwrap();
        let before = t.stats().round_trips;
        t.read_many(&[(a, 8), (b, 8)]).unwrap();
        assert_eq!(t.stats().round_trips - before, 2);
    }

    #[test]
    fn read_packed_is_read_many_in_one_buffer_at_the_same_cost() {
        let (c, mut many) = client();
        let a = many.alloc(0, 64).unwrap();
        let b = many.alloc(1, 64).unwrap();
        many.write(a, b"aaaa").unwrap();
        many.write(b, b"bbbbbb").unwrap();
        let reads = [(a, 4), (b, 6), (a, 2)];
        c.reset_network();
        many.set_clock_ns(0);
        let before = many.stats();
        let apart = many.read_many(&reads).unwrap();
        let cost = many.stats().since(&before);

        c.reset_network();
        let mut packed = c.client(0);
        let together = packed.read_packed(&reads).unwrap();
        assert_eq!(together, apart.concat());
        assert_eq!(together, b"aaaabbbbbbaa");
        assert_eq!(packed.stats(), cost);
        assert_eq!(packed.clock_ns(), many.clock_ns());
        assert!(packed.read_packed(&[]).unwrap().is_empty());
    }

    #[test]
    fn cas_and_read_observes_post_cas_state() {
        let (_c, mut t) = client();
        let p = t.alloc(0, 8).unwrap();
        t.write_u64(p, 5).unwrap();
        let before = t.stats().round_trips;
        let (prev, bytes) = t.cas_and_read(p, 5, 9, p, 8).unwrap();
        assert_eq!(t.stats().round_trips - before, 1);
        assert_eq!(prev, 5);
        assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), 9);
        // A losing CAS leaves the word alone and the read proves it.
        let (prev, bytes) = t.cas_and_read(p, 5, 11, p, 8).unwrap();
        assert_eq!(prev, 9);
        assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), 9);
    }

    #[test]
    fn write_many_and_faa_many_batch() {
        let (_c, mut t) = client();
        let a = t.alloc(0, 8).unwrap();
        let b = t.alloc(0, 8).unwrap();
        let before = t.stats().round_trips;
        t.write_many(vec![
            (a, 1u64.to_le_bytes().to_vec()),
            (b, 2u64.to_le_bytes().to_vec()),
        ])
        .unwrap();
        let prevs = t.faa_many(&[(a, 10), (b, 10)]).unwrap();
        assert_eq!(t.stats().round_trips - before, 2);
        assert_eq!(prevs, vec![1, 2]);
        assert_eq!(t.read_u64(a).unwrap(), 11);
        assert_eq!(t.read_u64(b).unwrap(), 12);
    }

    #[test]
    fn cas_many_is_per_cas_atomic_in_verb_order_one_round_trip_per_mn() {
        let (_c, mut t) = client();
        let a = t.alloc(0, 8).unwrap();
        let b = t.alloc(0, 8).unwrap();
        let far = t.alloc(1, 8).unwrap();
        t.write_u64(a, 1).unwrap();
        t.write_u64(b, 2).unwrap();
        let before = t.stats();
        // Winner, loser (word untouched), and a second CAS on `a` that
        // must observe the first one's effect.
        let prevs = t.cas_many(&[(a, 1, 10), (b, 7, 20), (a, 10, 11)]).unwrap();
        assert_eq!(prevs, vec![1, 2, 10]);
        let after = t.stats();
        assert_eq!(after.round_trips - before.round_trips, 1);
        assert_eq!(after.cas - before.cas, 3);
        assert_eq!(t.read_u64(a).unwrap(), 11);
        assert_eq!(t.read_u64(b).unwrap(), 2);
        // Two MNs: two parallel round trips, results still in input order.
        let before = t.stats().round_trips;
        assert_eq!(t.cas_many(&[(far, 0, 5), (b, 2, 3)]).unwrap(), vec![0, 2]);
        assert_eq!(t.stats().round_trips - before, 2);
        assert!(t.cas_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn publish_and_unlock_is_one_ordered_doorbell() {
        let (_c, mut t) = client();
        let block = t.alloc(0, 32).unwrap();
        let (lock, version, slot) = (
            block,
            block.checked_add(8).unwrap(),
            block.checked_add(16).unwrap(),
        );
        t.write_u64(lock, 1).unwrap();
        t.write_u64(version, 41).unwrap();
        let before = t.stats().round_trips;
        t.publish_and_unlock(vec![(slot, 9u64.to_le_bytes().to_vec())], version, lock)
            .unwrap();
        assert_eq!(t.stats().round_trips - before, 1);
        assert_eq!(t.read_u64(slot).unwrap(), 9);
        assert_eq!(t.read_u64(version).unwrap(), 42);
        assert_eq!(t.read_u64(lock).unwrap(), 0);
    }

    #[test]
    fn free_many_batches_and_attributes_reclaimed_bytes() {
        let (c, mut t) = client();
        let a = t.alloc(0, 64).unwrap();
        let b = t.alloc(0, 64).unwrap();
        let live = c.mn(0).unwrap().alloc_stats().live_bytes;
        let before = t.stats().round_trips;
        t.free_many(&[a, b]).unwrap();
        assert_eq!(t.stats().round_trips - before, 1);
        assert_eq!(t.stats().frees, 2);
        let stats = c.mn(0).unwrap().alloc_stats();
        assert_eq!(stats.live_bytes, live - 128);
        assert_eq!(stats.reclaimed_bytes, 128);
        // The fast-path free is not attributed to reclamation.
        let d = t.alloc(0, 64).unwrap();
        t.free(d).unwrap();
        assert_eq!(c.mn(0).unwrap().alloc_stats().reclaimed_bytes, 128);
    }

    #[test]
    fn free_many_rejects_dead_pointer() {
        let (_c, mut t) = client();
        let a = t.alloc(0, 64).unwrap();
        t.free(a).unwrap();
        assert!(matches!(
            t.free_many(&[a]),
            Err(DmError::InvalidFree { .. })
        ));
    }

    #[test]
    fn backoff_charges_policy_time() {
        let (_c, mut t) = client();
        let policy = RetryPolicy::default();
        let t0 = t.clock_ns();
        t.backoff(&policy);
        assert_eq!(t.clock_ns() - t0, policy.backoff_ns);
    }

    #[test]
    fn default_policy_matches_documented_constants() {
        let p = RetryPolicy::default();
        assert_eq!(
            (p.op_retries, p.io_retries, p.backoff_ns),
            (200_000, 64, 200)
        );
    }
}
