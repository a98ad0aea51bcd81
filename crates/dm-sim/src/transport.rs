//! The remote-access engine interface: verbs + batching + instrumentation.
//!
//! [`Transport`] is the single seam between index structures and the
//! substrate. Index crates (`sphinx`, `baselines`, `bptree`, `race-hash`)
//! never build [`DoorbellBatch`]es themselves; they call the provided
//! combinators here, so every round trip flows through one choke point
//! where the per-client [`ClientStats`] counters and the cluster's
//! [`FaultHook`] live. Porting the stack to a different fabric (real RDMA,
//! CXL) means implementing this trait once, not touching five crates.
//!
//! ## Completion-queue execution
//!
//! The trait follows the io_uring idiom: [`submit`](Transport::submit)
//! enqueues a batch without blocking and returns an [`SqeToken`];
//! [`flush_submitted`](Transport::flush_submitted) rings the doorbell for
//! everything pending, fusing same-MN verbs from *different* submissions
//! into one physical message burst; [`poll`](Transport::poll) /
//! [`wait`](Transport::wait) reap per-token completions. The classic
//! blocking [`execute`](Transport::execute) is a submit+wait shim over
//! this queue, so straight-line callers keep working unchanged while
//! pipelined callers (see `node-engine`'s op scheduler) keep several
//! operations in flight per worker.

use crate::addr::RemotePtr;
use crate::client::{DoorbellBatch, Verb, VerbResult};
use crate::error::DmError;
use crate::inline::FirstInline;
use crate::stats::ClientStats;

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
///   [`Transport::backoff`]), modelling CN-side pause before re-polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempt bound for full-operation retry loops.
    pub op_retries: usize,
    /// Attempt bound for single-node validated-read loops.
    pub io_retries: usize,
    /// Virtual time charged by one [`Transport::backoff`] call.
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
/// [`Transport::execute`] choke point (installed cluster-wide via
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

/// A ticket identifying one submitted doorbell batch on a transport's
/// submission queue. Redeem it with [`Transport::poll`] or
/// [`Transport::wait`]; tokens are not transferable between transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SqeToken(u64);

impl SqeToken {
    /// The token's raw sequence number — stable within one transport's
    /// lifetime. Trace events identify burst members by this value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Submission/completion queue state backing the io_uring-style half of
/// [`Transport`].
///
/// An implementation embeds one `CqState` and hands it out via
/// [`Transport::cq`]; the provided [`submit`](Transport::submit) /
/// [`poll`](Transport::poll) / [`wait`](Transport::wait) methods do the
/// bookkeeping, and the implementation's
/// [`flush_submitted`](Transport::flush_submitted) moves entries from the
/// submission side to the completion side, attaching each batch's results
/// or error.
#[derive(Debug, Default)]
pub struct CqState {
    next_token: u64,
    sq: Vec<(SqeToken, DoorbellBatch)>,
    cq: Vec<(SqeToken, Result<Completion, DmError>)>,
}

impl CqState {
    /// Creates an empty submission/completion queue.
    pub fn new() -> Self {
        CqState::default()
    }

    /// Enqueues a batch on the submission queue and mints its token.
    pub fn enqueue(&mut self, batch: DoorbellBatch) -> SqeToken {
        let token = SqeToken(self.next_token);
        self.next_token += 1;
        self.sq.push((token, batch));
        token
    }

    /// Drains the submission queue into `out` (which must be empty), in
    /// submission order; the queue keeps `out`'s buffer, so a flusher that
    /// passes the same `Vec` every time never allocates. The flusher must
    /// [`complete`](CqState::complete) every drained token.
    pub fn drain_submitted(&mut self, out: &mut Vec<(SqeToken, DoorbellBatch)>) {
        debug_assert!(out.is_empty(), "the drain buffer still holds submissions");
        std::mem::swap(&mut self.sq, out);
    }

    /// Posts a completion (results or the batch's error) for `token`.
    pub fn complete(&mut self, token: SqeToken, result: Result<Completion, DmError>) {
        self.cq.push((token, result));
    }

    /// Reaps the completion for `token` if it has been posted.
    pub fn reap(&mut self, token: SqeToken) -> Option<Result<Completion, DmError>> {
        let idx = self.cq.iter().position(|(t, _)| *t == token)?;
        Some(self.cq.swap_remove(idx).1)
    }

    /// Number of batches submitted but not yet flushed.
    pub fn submitted_len(&self) -> usize {
        self.sq.len()
    }

    /// Number of completions posted but not yet reaped.
    pub fn completed_len(&self) -> usize {
        self.cq.len()
    }
}

/// One-sided remote access with doorbell batching and unified counters.
///
/// [`DmClient`](crate::DmClient) is the simulator-backed implementation.
/// All the batch-building combinators are provided methods layered on
/// [`execute`](Transport::execute) — itself a provided submit+wait shim
/// over the completion queue — so an implementation only supplies the
/// required primitives ([`cq`](Transport::cq),
/// [`flush_submitted`](Transport::flush_submitted), and the
/// clock/placement/allocation hooks) and inherits identical batching
/// semantics and accounting.
pub trait Transport {
    /// The transport's submission/completion queue state.
    fn cq(&mut self) -> &mut CqState;

    /// Rings the doorbell for every submitted-but-unflushed batch and
    /// posts each batch's completion (results in verb order, or the
    /// batch's error) to the completion queue.
    ///
    /// Verbs from *different* submissions that target the same MN must be
    /// fused into one physical message burst — charged one per-message
    /// cost each but sharing a single round trip — while each submission
    /// still accounts its own logical [`ClientStats::round_trips`].
    /// Memory effects apply in submission order, verb order within a
    /// batch.
    fn flush_submitted(&mut self);

    /// Enqueues a doorbell batch without blocking; the network is not
    /// touched until the next [`flush_submitted`](Transport::flush_submitted)
    /// (or a [`wait`](Transport::wait) that triggers one).
    fn submit(&mut self, batch: DoorbellBatch) -> SqeToken {
        self.cq().enqueue(batch)
    }

    /// Reaps the completion for `token` if already flushed; `None` while
    /// the batch still sits on the submission queue.
    fn poll(&mut self, token: SqeToken) -> Option<Result<Completion, DmError>> {
        self.cq().reap(token)
    }

    /// Blocks (in virtual time) until the completion for `token` is
    /// available: reaps it if posted, otherwise flushes the submission
    /// queue and reaps.
    ///
    /// # Errors
    ///
    /// Returns the error the batch completed with (addressing/alignment
    /// faults; effects of verbs preceding the failed one are retained).
    ///
    /// # Panics
    ///
    /// Panics if `token` was never submitted on this transport or was
    /// already reaped.
    fn wait(&mut self, token: SqeToken) -> Result<Completion, DmError> {
        if let Some(done) = self.cq().reap(token) {
            return done;
        }
        self.flush_submitted();
        self.cq()
            .reap(token)
            .expect("waited on an SqeToken that was never submitted (or already reaped)")
    }

    /// Executes a doorbell batch: verbs to the same MN share one round
    /// trip, verbs to `k` MNs cost `k` parallel round trips, and memory
    /// effects apply **in verb order** (a READ after a CAS in one batch
    /// observes the post-CAS state). Results are returned in verb order.
    ///
    /// This is a submit+wait shim over the completion queue: the batch is
    /// enqueued and the queue immediately flushed, so anything else
    /// already sitting on the submission queue is flushed (and possibly
    /// fused) along with it.
    ///
    /// # Errors
    ///
    /// Returns the first addressing/alignment error; effects of preceding
    /// verbs are retained.
    fn execute(&mut self, batch: DoorbellBatch) -> Result<Completion, DmError> {
        if batch.is_empty() {
            return Ok(Completion::default());
        }
        let token = self.submit(batch);
        self.wait(token)
    }

    /// Cumulative per-client network counters (round trips, verbs, bytes).
    fn stats(&self) -> ClientStats;

    /// Current virtual time in nanoseconds.
    fn clock_ns(&self) -> u64;

    /// Advances the virtual clock by `ns` (models CN-side compute).
    fn advance_clock(&mut self, ns: u64);

    /// Consistent-hash placement: which MN owns an object with this hash.
    fn place(&self, hash: u64) -> u16;

    /// Number of memory nodes reachable through this transport.
    fn num_mns(&self) -> u16;

    /// Allocates `size` bytes on memory node `mn_id` (off the critical
    /// path: charged no network time, like leased slabs in FaRM/Sherman).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::OutOfMemory`] or [`DmError::UnknownMemoryNode`].
    fn alloc(&mut self, mn_id: u16, size: usize) -> Result<RemotePtr, DmError>;

    /// Frees a previously allocated region.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidFree`] or [`DmError::UnknownMemoryNode`].
    fn free(&mut self, ptr: RemotePtr) -> Result<(), DmError>;

    /// Allocates on the MN chosen by consistent hashing of `hash`.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::OutOfMemory`].
    fn alloc_placed(&mut self, hash: u64, size: usize) -> Result<RemotePtr, DmError> {
        let mn = self.place(hash);
        self.alloc(mn, size)
    }

    /// Reads `len` bytes at `ptr` in one round trip.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    fn read(&mut self, ptr: RemotePtr, len: usize) -> Result<Vec<u8>, DmError> {
        let mut res = self.execute([Verb::Read { ptr, len }].into_iter().collect())?;
        Ok(res.pop().expect("one result").into_read())
    }

    /// Writes `data` at `ptr` in one round trip.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    fn write(&mut self, ptr: RemotePtr, data: &[u8]) -> Result<(), DmError> {
        self.execute(
            [Verb::Write {
                ptr,
                data: data.to_vec(),
            }]
            .into_iter()
            .collect(),
        )?;
        Ok(())
    }

    /// Reads the 8-byte word at `ptr` (one round trip).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    fn read_u64(&mut self, ptr: RemotePtr) -> Result<u64, DmError> {
        let bytes = self.read(ptr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Writes the 8-byte word at `ptr` (one round trip).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    fn write_u64(&mut self, ptr: RemotePtr, value: u64) -> Result<(), DmError> {
        self.write(ptr, &value.to_le_bytes())
    }

    /// CAS on the word at `ptr`; returns the previous value (success ⇔ it
    /// equals `expected`).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    fn cas(&mut self, ptr: RemotePtr, expected: u64, new: u64) -> Result<u64, DmError> {
        let mut res = self.execute([Verb::Cas { ptr, expected, new }].into_iter().collect())?;
        Ok(res.pop().expect("one result").into_cas())
    }

    /// FAA on the word at `ptr`; returns the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    fn faa(&mut self, ptr: RemotePtr, delta: u64) -> Result<u64, DmError> {
        let mut res = self.execute([Verb::Faa { ptr, delta }].into_iter().collect())?;
        match res.pop().expect("one result") {
            VerbResult::Faa(v) => Ok(v),
            other => panic!("expected Faa result, got {other:?}"),
        }
    }

    /// Doorbell-batched reads: all targets on one MN share a single round
    /// trip (the INHT's parallel hash-entry fetch, scan leaf runs,
    /// multi-get lanes). Results are in input order.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    fn read_many(&mut self, reads: &[(RemotePtr, usize)]) -> Result<Vec<Vec<u8>>, DmError> {
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

    /// [`read_many`](Transport::read_many) into one buffer: the reads'
    /// bytes back to back, in input order (the caller knows the lengths it
    /// asked for). Same verbs, same charges; one allocation for the batch
    /// instead of one per read — a scan level is read this way.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    fn read_packed(&mut self, reads: &[(RemotePtr, usize)]) -> Result<Vec<u8>, DmError> {
        let packed = self.execute(DoorbellBatch::packed_reads(reads))?.pop();
        Ok(packed.map_or_else(Vec::new, VerbResult::into_read))
    }

    /// Doorbell-batched writes (e.g. publishing a split's leaf + inner
    /// node together, or a seqlock node's tail/body/header trio).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    fn write_many(&mut self, writes: Vec<(RemotePtr, Vec<u8>)>) -> Result<(), DmError> {
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
    fn cas_and_read(
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
    fn cas_many(&mut self, targets: &[(RemotePtr, u64, u64)]) -> Result<Vec<u64>, DmError> {
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
    fn publish_and_unlock(
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
    fn faa_many(&mut self, targets: &[(RemotePtr, u64)]) -> Result<Vec<u64>, DmError> {
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
    /// Unlike [`free`](Transport::free) (the allocation fast path, off the
    /// critical path and charged no network time), these frees travel as
    /// verbs and pay the network cost model.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidFree`] on a dead/unknown pointer; frees
    /// preceding the failed one are retained.
    fn free_many(&mut self, ptrs: &[RemotePtr]) -> Result<(), DmError> {
        let batch: DoorbellBatch = ptrs.iter().map(|&ptr| Verb::Free { ptr }).collect();
        self.execute(batch)?;
        Ok(())
    }

    /// Contention backoff: charges [`RetryPolicy::backoff_ns`] of virtual
    /// time and yields the OS thread so the conflicting (simulated) peer
    /// can make progress.
    fn backoff(&mut self, policy: &RetryPolicy) {
        self.advance_clock(policy.backoff_ns);
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, DmCluster};
    use crate::DmClient;

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
    /// batches are one round trip through any Transport.
    #[test]
    fn read_many_same_mn_is_one_round_trip() {
        let (_c, mut t) = client();
        let a = Transport::alloc(&mut t, 0, 64).unwrap();
        let b = Transport::alloc(&mut t, 0, 64).unwrap();
        Transport::write(&mut t, a, b"aaaa").unwrap();
        Transport::write(&mut t, b, b"bbbb").unwrap();
        let before = Transport::stats(&t).round_trips;
        let got = t.read_many(&[(a, 4), (b, 4)]).unwrap();
        assert_eq!(got, vec![b"aaaa".to_vec(), b"bbbb".to_vec()]);
        assert_eq!(Transport::stats(&t).round_trips - before, 1);
    }

    #[test]
    fn read_many_two_mns_is_two_round_trips() {
        let (_c, mut t) = client();
        let a = Transport::alloc(&mut t, 0, 64).unwrap();
        let b = Transport::alloc(&mut t, 1, 64).unwrap();
        let before = Transport::stats(&t).round_trips;
        t.read_many(&[(a, 8), (b, 8)]).unwrap();
        assert_eq!(Transport::stats(&t).round_trips - before, 2);
    }

    #[test]
    fn read_packed_is_read_many_in_one_buffer_at_the_same_cost() {
        let (c, mut many) = client();
        let a = Transport::alloc(&mut many, 0, 64).unwrap();
        let b = Transport::alloc(&mut many, 1, 64).unwrap();
        Transport::write(&mut many, a, b"aaaa").unwrap();
        Transport::write(&mut many, b, b"bbbbbb").unwrap();
        let reads = [(a, 4), (b, 6), (a, 2)];
        c.reset_network();
        many.set_clock_ns(0);
        let before = Transport::stats(&many);
        let apart = many.read_many(&reads).unwrap();
        let cost = Transport::stats(&many).since(&before);

        c.reset_network();
        let mut packed = c.client(0);
        let together = packed.read_packed(&reads).unwrap();
        assert_eq!(together, apart.concat());
        assert_eq!(together, b"aaaabbbbbbaa");
        assert_eq!(Transport::stats(&packed), cost);
        assert_eq!(Transport::clock_ns(&packed), Transport::clock_ns(&many));
        assert!(packed.read_packed(&[]).unwrap().is_empty());
    }

    #[test]
    fn cas_and_read_observes_post_cas_state() {
        let (_c, mut t) = client();
        let p = Transport::alloc(&mut t, 0, 8).unwrap();
        Transport::write_u64(&mut t, p, 5).unwrap();
        let before = Transport::stats(&t).round_trips;
        let (prev, bytes) = t.cas_and_read(p, 5, 9, p, 8).unwrap();
        assert_eq!(Transport::stats(&t).round_trips - before, 1);
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
        let a = Transport::alloc(&mut t, 0, 8).unwrap();
        let b = Transport::alloc(&mut t, 0, 8).unwrap();
        let before = Transport::stats(&t).round_trips;
        t.write_many(vec![
            (a, 1u64.to_le_bytes().to_vec()),
            (b, 2u64.to_le_bytes().to_vec()),
        ])
        .unwrap();
        let prevs = t.faa_many(&[(a, 10), (b, 10)]).unwrap();
        assert_eq!(Transport::stats(&t).round_trips - before, 2);
        assert_eq!(prevs, vec![1, 2]);
        assert_eq!(Transport::read_u64(&mut t, a).unwrap(), 11);
        assert_eq!(Transport::read_u64(&mut t, b).unwrap(), 12);
    }

    #[test]
    fn cas_many_is_per_cas_atomic_in_verb_order_one_round_trip_per_mn() {
        let (_c, mut t) = client();
        let a = Transport::alloc(&mut t, 0, 8).unwrap();
        let b = Transport::alloc(&mut t, 0, 8).unwrap();
        let far = Transport::alloc(&mut t, 1, 8).unwrap();
        Transport::write_u64(&mut t, a, 1).unwrap();
        Transport::write_u64(&mut t, b, 2).unwrap();
        let before = Transport::stats(&t);
        // Winner, loser (word untouched), and a second CAS on `a` that
        // must observe the first one's effect.
        let prevs = t.cas_many(&[(a, 1, 10), (b, 7, 20), (a, 10, 11)]).unwrap();
        assert_eq!(prevs, vec![1, 2, 10]);
        let after = Transport::stats(&t);
        assert_eq!(after.round_trips - before.round_trips, 1);
        assert_eq!(after.cas - before.cas, 3);
        assert_eq!(Transport::read_u64(&mut t, a).unwrap(), 11);
        assert_eq!(Transport::read_u64(&mut t, b).unwrap(), 2);
        // Two MNs: two parallel round trips, results still in input order.
        let before = Transport::stats(&t).round_trips;
        assert_eq!(t.cas_many(&[(far, 0, 5), (b, 2, 3)]).unwrap(), vec![0, 2]);
        assert_eq!(Transport::stats(&t).round_trips - before, 2);
        assert!(t.cas_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn publish_and_unlock_is_one_ordered_doorbell() {
        let (_c, mut t) = client();
        let block = Transport::alloc(&mut t, 0, 32).unwrap();
        let (lock, version, slot) = (
            block,
            block.checked_add(8).unwrap(),
            block.checked_add(16).unwrap(),
        );
        Transport::write_u64(&mut t, lock, 1).unwrap();
        Transport::write_u64(&mut t, version, 41).unwrap();
        let before = Transport::stats(&t).round_trips;
        t.publish_and_unlock(vec![(slot, 9u64.to_le_bytes().to_vec())], version, lock)
            .unwrap();
        assert_eq!(Transport::stats(&t).round_trips - before, 1);
        assert_eq!(Transport::read_u64(&mut t, slot).unwrap(), 9);
        assert_eq!(Transport::read_u64(&mut t, version).unwrap(), 42);
        assert_eq!(Transport::read_u64(&mut t, lock).unwrap(), 0);
    }

    #[test]
    fn free_many_batches_and_attributes_reclaimed_bytes() {
        let (c, mut t) = client();
        let a = Transport::alloc(&mut t, 0, 64).unwrap();
        let b = Transport::alloc(&mut t, 0, 64).unwrap();
        let live = c.mn(0).unwrap().alloc_stats().live_bytes;
        let before = Transport::stats(&t).round_trips;
        t.free_many(&[a, b]).unwrap();
        assert_eq!(Transport::stats(&t).round_trips - before, 1);
        assert_eq!(Transport::stats(&t).frees, 2);
        let stats = c.mn(0).unwrap().alloc_stats();
        assert_eq!(stats.live_bytes, live - 128);
        assert_eq!(stats.reclaimed_bytes, 128);
        // The fast-path free is not attributed to reclamation.
        let d = Transport::alloc(&mut t, 0, 64).unwrap();
        Transport::free(&mut t, d).unwrap();
        assert_eq!(c.mn(0).unwrap().alloc_stats().reclaimed_bytes, 128);
    }

    #[test]
    fn free_many_rejects_dead_pointer() {
        let (_c, mut t) = client();
        let a = Transport::alloc(&mut t, 0, 64).unwrap();
        Transport::free(&mut t, a).unwrap();
        assert!(matches!(
            t.free_many(&[a]),
            Err(DmError::InvalidFree { .. })
        ));
    }

    #[test]
    fn backoff_charges_policy_time() {
        let (_c, mut t) = client();
        let policy = RetryPolicy::default();
        let t0 = Transport::clock_ns(&t);
        t.backoff(&policy);
        assert_eq!(Transport::clock_ns(&t) - t0, policy.backoff_ns);
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
