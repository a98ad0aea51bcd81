//! Memory-node heaps: word-atomic byte-addressable pools.
//!
//! A [`MemoryNode`] stores its pool as `Box<[AtomicU64]>`. Byte-granular
//! reads and writes are assembled from relaxed word operations, so:
//!
//! * concurrent unsynchronized accesses can observe *torn* data across
//!   8-byte boundaries — exactly the guarantee (or lack thereof) one-sided
//!   RDMA gives, which is why Sphinx leaf nodes carry checksums;
//! * accesses to a single aligned 8-byte word are atomic, matching RDMA
//!   CAS/FAA and the paper's reliance on 8-byte control words (Fig. 3).
//!
//! A read is copied in at most three pieces: the bytes of the word it
//! starts inside, then whole words (one `Acquire` load and one fixed
//! 8-byte store each, so a whole word is never torn), then the leading
//! bytes of the word it ends inside. Before a burst's READs are copied,
//! `MemoryNode::touch` loads one word of each 64-byte host cache line they
//! cover (counted from the pool's address), so their misses overlap
//! instead of each copy waiting on its own. That pass uses plain relaxed
//! loads whose values are discarded: it needs no `unsafe` prefetch
//! intrinsic and no option, and it cannot change what a verb returns.
//!
//! The pool is lazily zeroed: one zeroed allocation, which for a pool of
//! any real size is fresh pages the kernel maps on first touch. An MN
//! therefore costs host memory for the pages its verbs and allocations
//! touch, not for its capacity, and building one writes nothing. A byte
//! never written reads 0.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::RemotePtr;
use crate::alloc::{AllocStats, SegregatedAllocator};
use crate::error::DmError;
use crate::mn_stats::{MnAccounting, MnStats};
use crate::net::{NetConfig, Nic};

use parking_lot::Mutex;

/// One memory node (MN): a large byte pool plus its NIC model and allocator.
///
/// All verb-level access goes through [`DmClient`](crate::DmClient); the
/// methods here are the "remote side" primitives.
#[derive(Debug)]
pub struct MemoryNode {
    id: u16,
    words: Box<[AtomicU64]>,
    nic: Nic,
    allocator: Mutex<SegregatedAllocator>,
    accounting: MnAccounting,
}

impl MemoryNode {
    /// Creates a memory node with a pool of `capacity` bytes (rounded up to
    /// a multiple of 8).
    pub fn new(id: u16, capacity: usize, net: &NetConfig) -> Self {
        let words = zeroed_words(capacity.div_ceil(8));
        let accounting = MnAccounting::new((words.len() * 8) as u64);
        MemoryNode {
            id,
            words,
            nic: Nic::new(net.clone()),
            allocator: Mutex::new(SegregatedAllocator::new(capacity as u64)),
            accounting,
        }
    }

    /// This node's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.words.len() * 8
    }

    /// The NIC model attached to this node.
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// The server-side accounting cell (updated from the client choke
    /// points in `DmClient`).
    pub(crate) fn accounting(&self) -> &MnAccounting {
        &self.accounting
    }

    /// Snapshot of this node's server-side load accounting. Monotone for
    /// the cluster's lifetime (not reset between benchmark phases); window
    /// with [`MnStats::since`].
    pub fn mn_stats(&self) -> MnStats {
        self.accounting.snapshot(self.id)
    }

    /// Snapshot of allocation statistics (used for the paper's Fig. 6
    /// memory-usage accounting).
    pub fn alloc_stats(&self) -> AllocStats {
        self.allocator.lock().stats()
    }

    /// Live block counts per size class (class size, block count), sorted
    /// by class size. Surfaced through telemetry so churn workloads can see
    /// which classes the reclaimer is (or is not) recycling.
    pub fn live_by_class(&self) -> Vec<(u64, u64)> {
        self.allocator.lock().live_by_class()
    }

    fn check_range(&self, offset: u64, len: usize) -> Result<(), DmError> {
        let end = offset
            .checked_add(len as u64)
            .ok_or(DmError::InvalidAddress {
                mn_id: self.id,
                offset,
            })?;
        if end > self.capacity() as u64 {
            return Err(DmError::InvalidAddress {
                mn_id: self.id,
                offset,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// Reads are word-atomic but not range-atomic: a concurrent writer can
    /// produce a torn view across word boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] if the range exceeds the pool.
    pub fn read_bytes(&self, offset: u64, buf: &mut [u8]) -> Result<(), DmError> {
        self.check_range(offset, buf.len())?;
        // Head: the bytes of the word the read starts inside, if mid-word.
        let first = (offset / 8) as usize;
        let in_word = (offset % 8) as usize;
        let head = if in_word == 0 {
            0
        } else {
            (8 - in_word).min(buf.len())
        };
        let (head_buf, rest) = buf.split_at_mut(head);
        if head > 0 {
            let w = self.words[first].load(Ordering::Acquire).to_le_bytes();
            head_buf.copy_from_slice(&w[in_word..in_word + head]);
        }
        // Body: whole words, one load and one 8-byte store each.
        let body_first = ((offset + head as u64) / 8) as usize;
        let last = body_first + rest.len() / 8;
        let mut body = rest.chunks_exact_mut(8);
        for (chunk, word) in (&mut body).zip(&self.words[body_first..]) {
            chunk.copy_from_slice(&word.load(Ordering::Acquire).to_le_bytes());
        }
        // Tail: the leading bytes of the word the read ends inside.
        let tail = body.into_remainder();
        if !tail.is_empty() {
            let w = self.words[last].load(Ordering::Acquire).to_le_bytes();
            tail.copy_from_slice(&w[..tail.len()]);
        }
        Ok(())
    }

    /// Loads one word of every 64-byte host cache line `[offset, offset +
    /// len)` overlaps, clamped to the pool, and discards them. Called on
    /// each READ of a burst before any is copied, so the burst's cache and
    /// TLB misses are in flight together rather than one per copy. It
    /// changes no byte, count or error: an out-of-pool range touches what
    /// part of it lies in the pool, and the READ itself still fails.
    pub(crate) fn touch(&self, offset: u64, len: usize) {
        // Lines are counted from the pool's address, which the allocator
        // need not have placed on a line boundary.
        let skew = self.words.as_ptr() as usize / 8 % 8;
        let end = (offset.saturating_add(len as u64).div_ceil(8) as usize).min(self.words.len());
        let (mut word, mut acc) = ((offset / 8) as usize, 0u64);
        while word < end {
            acc ^= self.words[word].load(Ordering::Relaxed);
            word = ((word + skew) / 8 + 1) * 8 - skew;
        }
        std::hint::black_box(acc);
    }

    /// Writes `data` starting at `offset`.
    ///
    /// Word-aligned 8-byte chunks are stored atomically; partial words use a
    /// CAS loop so concurrent writers to *different* bytes of the same word
    /// do not clobber each other. Cross-word writes are not atomic.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] if the range exceeds the pool.
    pub fn write_bytes(&self, offset: u64, data: &[u8]) -> Result<(), DmError> {
        self.check_range(offset, data.len())?;
        let mut pos = 0usize;
        let mut off = offset;
        while pos < data.len() {
            let word_idx = (off / 8) as usize;
            let in_word = (off % 8) as usize;
            let take = (8 - in_word).min(data.len() - pos);
            let cell = &self.words[word_idx];
            if take == 8 {
                let mut w = [0u8; 8];
                w.copy_from_slice(&data[pos..pos + 8]);
                cell.store(u64::from_le_bytes(w), Ordering::Release);
            } else {
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let mut w = cur.to_le_bytes();
                    w[in_word..in_word + take].copy_from_slice(&data[pos..pos + take]);
                    match cell.compare_exchange_weak(
                        cur,
                        u64::from_le_bytes(w),
                        Ordering::Release,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(now) => cur = now,
                    }
                }
            }
            pos += take;
            off += take as u64;
        }
        Ok(())
    }

    fn word_cell(&self, offset: u64) -> Result<&AtomicU64, DmError> {
        if !offset.is_multiple_of(8) {
            return Err(DmError::MisalignedAtomic { offset });
        }
        self.check_range(offset, 8)?;
        Ok(&self.words[(offset / 8) as usize])
    }

    /// Atomically loads the 8-byte word at `offset` (must be 8-aligned).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn load_u64(&self, offset: u64) -> Result<u64, DmError> {
        Ok(self.word_cell(offset)?.load(Ordering::Acquire))
    }

    /// Atomically stores the 8-byte word at `offset` (must be 8-aligned).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn store_u64(&self, offset: u64, value: u64) -> Result<(), DmError> {
        self.word_cell(offset)?.store(value, Ordering::Release);
        Ok(())
    }

    /// RDMA compare-and-swap: atomically replaces the word at `offset` with
    /// `new` if it equals `expected`. Returns the *previous* value (the RDMA
    /// CAS convention — the caller checks success by comparing with
    /// `expected`).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn cas_u64(&self, offset: u64, expected: u64, new: u64) -> Result<u64, DmError> {
        let cell = self.word_cell(offset)?;
        match cell.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => Ok(prev),
            Err(prev) => Ok(prev),
        }
    }

    /// RDMA fetch-and-add: atomically adds `delta` (wrapping) to the word at
    /// `offset`, returning the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn faa_u64(&self, offset: u64, delta: u64) -> Result<u64, DmError> {
        Ok(self.word_cell(offset)?.fetch_add(delta, Ordering::AcqRel))
    }

    /// Allocates `size` bytes on this node, returning a pointer to the
    /// start. The returned region is 8-byte aligned and zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::OutOfMemory`] when the pool is exhausted.
    pub fn alloc(&self, size: usize) -> Result<RemotePtr, DmError> {
        let off = self
            .allocator
            .lock()
            .alloc(size as u64)
            .ok_or(DmError::OutOfMemory {
                mn_id: self.id,
                requested: size,
            })?;
        // Zero the region so recycled blocks don't leak stale contents
        // (a fresh RDMA-registered region is zeroed too). The block is
        // 8-aligned and its size class covers `size` in whole words.
        let first = (off / 8) as usize;
        for word in &self.words[first..first + size.div_ceil(8)] {
            word.store(0, Ordering::Release);
        }
        Ok(RemotePtr::new(self.id, off))
    }

    /// Releases a region previously returned by [`MemoryNode::alloc`].
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidFree`] if `ptr` is not a live allocation on
    /// this node.
    pub fn free(&self, ptr: RemotePtr) -> Result<(), DmError> {
        if ptr.mn_id() != self.id || ptr.is_null() {
            return Err(DmError::InvalidFree { ptr: ptr.to_raw() });
        }
        self.allocator
            .lock()
            .free(ptr.offset())
            .then_some(())
            .ok_or(DmError::InvalidFree { ptr: ptr.to_raw() })
    }

    /// Releases a region through the *reclamation* path: identical to
    /// [`MemoryNode::free`] but the returned bytes are also attributed to
    /// [`AllocStats::reclaimed_bytes`]. Used by the batched `Free` verb the
    /// epoch reclaimer issues.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidFree`] if `ptr` is not a live allocation on
    /// this node.
    pub fn free_reclaimed(&self, ptr: RemotePtr) -> Result<(), DmError> {
        if ptr.mn_id() != self.id || ptr.is_null() {
            return Err(DmError::InvalidFree { ptr: ptr.to_raw() });
        }
        self.allocator
            .lock()
            .free_reclaimed(ptr.offset())
            .then_some(())
            .ok_or(DmError::InvalidFree { ptr: ptr.to_raw() })
    }
}

/// `n` zero words in one zeroed allocation (see the module docs).
#[allow(unsafe_code)]
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    // SAFETY: all-zero bits are a valid `AtomicU64` (it has the in-memory
    // representation of a `u64`), so every element of the zeroed slice is
    // initialised.
    unsafe { Box::<[AtomicU64]>::new_zeroed_slice(n).assume_init() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> MemoryNode {
        MemoryNode::new(0, 1 << 20, &NetConfig::default())
    }

    #[test]
    fn read_write_roundtrip_unaligned() {
        let mn = node();
        let data: Vec<u8> = (0..100).collect();
        mn.write_bytes(3, &data).unwrap();
        let mut back = vec![0u8; 100];
        mn.read_bytes(3, &mut back).unwrap();
        assert_eq!(back, data);
    }

    /// `read_bytes` against a byte-by-byte reference on a pool holding a
    /// distinct byte at each address: every start in two words and every
    /// length up to five words (head only, body only, head + tail, all
    /// three), a read ending on the pool's last byte and one past it.
    #[test]
    fn read_bytes_matches_a_byte_by_byte_reference() {
        let mn = MemoryNode::new(0, 64, &NetConfig::default());
        let cap = mn.capacity() as u64;
        let byte_at = |addr: u64| (addr as u8).wrapping_mul(37) ^ 0x5A;
        let pattern: Vec<u8> = (0..cap).map(byte_at).collect();
        mn.write_bytes(0, &pattern).unwrap();
        for start in 0..16u64 {
            for len in 0..=40usize {
                let mut got = vec![0u8; len];
                mn.read_bytes(start, &mut got).unwrap();
                let want: Vec<u8> = (start..start + len as u64).map(byte_at).collect();
                assert_eq!(got, want, "start {start} len {len}");
            }
        }
        for len in [1usize, 3, 8, 13, 24] {
            let start = cap - len as u64;
            let mut got = vec![0u8; len];
            mn.read_bytes(start, &mut got).unwrap();
            assert_eq!(got, &pattern[start as usize..], "last {len} bytes");
            let mut over = vec![0u8; len + 1];
            assert!(matches!(
                mn.read_bytes(start, &mut over),
                Err(DmError::InvalidAddress { .. })
            ));
        }
    }

    #[test]
    fn touch_is_clamped_to_the_pool() {
        let mn = node();
        let cap = mn.capacity() as u64;
        mn.touch(cap - 3, 100);
        mn.touch(cap, 8);
        mn.touch(u64::MAX - 4, 64);
        mn.touch(5, 0);
    }

    #[test]
    fn partial_word_writes_do_not_clobber_neighbors() {
        let mn = node();
        mn.write_bytes(0, &[0xFF; 8]).unwrap();
        mn.write_bytes(2, &[0xAA; 3]).unwrap();
        let mut back = [0u8; 8];
        mn.read_bytes(0, &mut back).unwrap();
        assert_eq!(back, [0xFF, 0xFF, 0xAA, 0xAA, 0xAA, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn cas_returns_previous_value() {
        let mn = node();
        mn.store_u64(64, 7).unwrap();
        assert_eq!(mn.cas_u64(64, 7, 9).unwrap(), 7);
        assert_eq!(mn.load_u64(64).unwrap(), 9);
        // failed CAS: returns current value, leaves memory untouched
        assert_eq!(mn.cas_u64(64, 7, 11).unwrap(), 9);
        assert_eq!(mn.load_u64(64).unwrap(), 9);
    }

    #[test]
    fn faa_accumulates() {
        let mn = node();
        assert_eq!(mn.faa_u64(128, 5).unwrap(), 0);
        assert_eq!(mn.faa_u64(128, 3).unwrap(), 5);
        assert_eq!(mn.load_u64(128).unwrap(), 8);
    }

    #[test]
    fn misaligned_atomics_rejected() {
        let mn = node();
        assert!(matches!(
            mn.load_u64(4),
            Err(DmError::MisalignedAtomic { .. })
        ));
        assert!(matches!(
            mn.cas_u64(1, 0, 1),
            Err(DmError::MisalignedAtomic { .. })
        ));
    }

    #[test]
    fn out_of_range_access_rejected() {
        let mn = node();
        let cap = mn.capacity() as u64;
        let mut b = [0u8; 16];
        assert!(mn.read_bytes(cap - 8, &mut b).is_err());
        assert!(mn.store_u64(cap, 1).is_err());
    }

    #[test]
    fn alloc_is_zeroed_and_aligned() {
        let mn = node();
        let p = mn.alloc(100).unwrap();
        assert_eq!(p.offset() % 8, 0);
        let mut b = vec![1u8; 100];
        mn.read_bytes(p.offset(), &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn alloc_free_recycles_and_rezeros() {
        let mn = node();
        let p = mn.alloc(64).unwrap();
        mn.write_bytes(p.offset(), &[0xAB; 64]).unwrap();
        mn.free(p).unwrap();
        let q = mn.alloc(64).unwrap();
        let mut b = [1u8; 64];
        mn.read_bytes(q.offset(), &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));

        // A dirty 128 B block reused for 100 B: the request's whole words
        // are zeroed, the next block is not.
        let p = mn.alloc(128).unwrap();
        let next = mn.alloc(128).unwrap();
        assert_eq!(next.offset(), p.offset() + 128);
        mn.write_bytes(p.offset(), &[0xAB; 128]).unwrap();
        mn.store_u64(next.offset(), 0x5EED).unwrap();
        mn.free(p).unwrap();
        let q = mn.alloc(100).unwrap();
        assert_eq!(q, p);
        let mut b = [1u8; 100];
        mn.read_bytes(q.offset(), &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
        assert_eq!(mn.load_u64(next.offset()).unwrap(), 0x5EED);
    }

    /// The pool is lazily zeroed: a 1 GiB node with its last word written
    /// makes the process resident for that word's page, not for the pool.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_untouched_pool_is_not_resident() {
        fn vm_rss_kib() -> u64 {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
            line.split_whitespace().nth(1).unwrap().parse().unwrap()
        }
        let before = vm_rss_kib();
        let mn = MemoryNode::new(0, 1 << 30, &NetConfig::default());
        let last = mn.capacity() as u64 - 8;
        mn.store_u64(last, 7).unwrap();
        let grown = vm_rss_kib().saturating_sub(before);
        assert_eq!(mn.load_u64(last).unwrap(), 7);
        assert!(
            grown < 64 << 10,
            "{grown} KiB became resident for a 1 GiB node"
        );
    }

    #[test]
    fn double_free_rejected() {
        let mn = node();
        let p = mn.alloc(64).unwrap();
        mn.free(p).unwrap();
        assert!(matches!(mn.free(p), Err(DmError::InvalidFree { .. })));
    }

    #[test]
    fn concurrent_faa_is_atomic() {
        let mn = std::sync::Arc::new(node());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mn = mn.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        mn.faa_u64(256, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(mn.load_u64(256).unwrap(), 4000);
    }
}
