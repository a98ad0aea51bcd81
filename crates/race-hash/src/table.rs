//! The client-side table handle and the one-sided protocol.

use std::cell::Cell;
use std::error::Error;
use std::fmt;

use dm_sim::{DmClient, DmError, RemotePtr, RetryPolicy};

use crate::layout::{
    bucket_offset, pair_index, BucketHeader, DirEntry, TableConfig, BUCKETS_PER_SEGMENT,
    BUCKET_BYTES, DIR_OFFSET, ENTRIES_PER_BUCKET, META_LOCK_OFFSET, META_VERSION_OFFSET,
    SEGMENT_BYTES,
};

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RaceError {
    /// Substrate error.
    Dm(DmError),
    /// A segment reached the maximum directory depth and cannot split.
    TableFull {
        /// The depth at which growth stopped.
        depth: u8,
    },
    /// The retry budget was exhausted (should not happen absent bugs).
    RetriesExhausted {
        /// Which operation gave up.
        op: &'static str,
    },
    /// An on-MN structure failed validation.
    Corrupt {
        /// What failed.
        what: &'static str,
    },
}

impl fmt::Display for RaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceError::Dm(e) => write!(f, "substrate error: {e}"),
            RaceError::TableFull { depth } => {
                write!(f, "table cannot grow beyond depth {depth}")
            }
            RaceError::RetriesExhausted { op } => write!(f, "{op} exhausted its retry budget"),
            RaceError::Corrupt { what } => write!(f, "corrupt table structure: {what}"),
        }
    }
}

impl Error for RaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RaceError::Dm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DmError> for RaceError {
    fn from(e: DmError) -> Self {
        RaceError::Dm(e)
    }
}

/// Structural statistics from [`RaceTable::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Live (non-zero) entry words.
    pub entries: usize,
    /// Distinct segments reachable from the directory.
    pub segments: usize,
    /// Current global depth.
    pub global_depth: u8,
    /// Entries divided by total slot capacity.
    pub load_factor: f64,
}

/// Per-handle operation counters: how often this client's directory cache
/// went stale, how often entry CASes lost races, and how many segment
/// splits it performed. Plain counters (no I/O) — read them with
/// [`RaceTable::counters`] and feed them into telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceCounters {
    /// Bucket-pair lookups issued: `search` calls plus pairs resolved
    /// with [`RaceTable::bucket_pair_ptr`] for a caller-batched read.
    pub searches: u64,
    /// Bucket reads whose suffix check failed (stale directory cache),
    /// forcing a refresh + retry.
    pub stale_retries: u64,
    /// Entry CASes lost to a concurrent writer.
    pub cas_races: u64,
    /// Segment splits performed by this handle.
    pub splits: u64,
    /// Directory refreshes (open, stale recovery, and split bookkeeping).
    pub refreshes: u64,
    /// Entries this handle's splits moved into a new segment.
    pub split_migrated: u64,
    /// Migration rounds beyond the first that this handle's splits ran
    /// because a slot changed between the snapshot and its zeroing CAS.
    pub split_extra_rounds: u64,
}

/// An entry found by [`RaceTable::search`]: the word plus the address of
/// the slot holding it (for subsequent CAS replace/delete).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoundEntry {
    /// The entry word.
    pub word: u64,
    /// Remote address of the 8-byte slot.
    pub slot: RemotePtr,
}

/// The entries of one bucket pair (at most 2 × [`ENTRIES_PER_BUCKET`]), as
/// [`RaceTable::search`] returns them: a slice of [`FoundEntry`] that lives
/// on the stack.
pub type FoundEntries = dm_sim::InlineVec<FoundEntry, { 2 * ENTRIES_PER_BUCKET }>;

/// A snapshot of one bucket pair.
struct PairView {
    base: RemotePtr,
    header: BucketHeader,
    /// 16 words: two buckets of (header + 7 entries).
    words: [u64; 16],
}

impl PairView {
    fn parse(base: RemotePtr, bytes: &[u8]) -> PairView {
        let mut words = [0u64; 16];
        for (i, w) in words.iter_mut().enumerate() {
            *w = le_word(&bytes[i * 8..i * 8 + 8]);
        }
        PairView {
            base,
            header: BucketHeader::decode(words[0]),
            words,
        }
    }

    /// Slot indexes (into `words`) that hold entries, skipping headers.
    fn entry_indexes() -> impl Iterator<Item = usize> {
        (1..=ENTRIES_PER_BUCKET).chain(9..9 + ENTRIES_PER_BUCKET)
    }

    fn slot_ptr(&self, idx: usize) -> RemotePtr {
        self.base
            .checked_add(8 * idx as u64)
            .expect("slot in range")
    }

    fn find_word(&self, word: u64) -> Option<usize> {
        Self::entry_indexes().find(|&i| self.words[i] == word)
    }

    fn first_empty(&self) -> Option<usize> {
        Self::entry_indexes().find(|&i| self.words[i] == 0)
    }

    fn entries(&self) -> FoundEntries {
        Self::entry_indexes()
            .filter(|&i| self.words[i] != 0)
            .map(|i| FoundEntry {
                word: self.words[i],
                slot: self.slot_ptr(i),
            })
            .collect()
    }
}

/// A per-client handle onto a RACE table living on one memory node.
///
/// The handle carries the client's **directory cache**; create one handle
/// per worker from the shared meta pointer with [`RaceTable::open`].
#[derive(Debug, Clone)]
pub struct RaceTable {
    meta: RemotePtr,
    max_depth: u8,
    global_depth: u8,
    /// Cached directory words (2^global_depth of them).
    dir: Vec<u64>,
    /// Shared bounded-retry budget (see [`dm_sim::RetryPolicy`]). The
    /// table previously capped retries at 100_000; it now shares the
    /// workspace-wide `op_retries` budget.
    retry: RetryPolicy,
    counters: RaceCounters,
    /// Bucket-pair lookups ([`RaceCounters::searches`]). A `Cell` because
    /// [`RaceTable::bucket_pair_ptr`] resolves them through `&self`.
    lookups: Cell<u64>,
}

impl RaceTable {
    /// Creates a new table on memory node `mn_id` and returns its meta
    /// pointer (share it with other clients, who call [`RaceTable::open`]).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from the substrate.
    pub fn create(
        client: &mut DmClient,
        mn_id: u16,
        config: &TableConfig,
    ) -> Result<RemotePtr, RaceError> {
        assert!(
            config.max_depth <= 16,
            "max_depth must be <= 16 (directory bits)"
        );
        assert!(config.initial_depth <= config.max_depth);
        let meta = client.alloc(mn_id, config.meta_bytes())?;
        let word0 = config.initial_depth as u64 | ((config.max_depth as u64) << 8);
        client.write_u64(meta, word0)?;
        for suffix in 0..(1u64 << config.initial_depth) {
            let seg = alloc_segment(client, mn_id, config.initial_depth, suffix)?;
            let entry = DirEntry {
                segment: seg,
                local_depth: config.initial_depth,
            };
            client.write_u64(meta.checked_add(DIR_OFFSET + 8 * suffix)?, entry.encode())?;
        }
        Ok(meta)
    }

    /// Opens an existing table, fetching the directory into the handle's
    /// cache.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn open(client: &mut DmClient, meta: RemotePtr) -> Result<Self, RaceError> {
        let mut table = RaceTable {
            meta,
            max_depth: 0,
            global_depth: 0,
            dir: Vec::new(),
            retry: RetryPolicy::default(),
            counters: RaceCounters::default(),
            lookups: Cell::new(0),
        };
        table.refresh(client)?;
        Ok(table)
    }

    /// The meta pointer this handle is attached to.
    pub fn meta_ptr(&self) -> RemotePtr {
        self.meta
    }

    /// Current cached global depth.
    pub fn global_depth(&self) -> u8 {
        self.global_depth
    }

    /// This handle's cumulative operation counters.
    pub fn counters(&self) -> RaceCounters {
        RaceCounters {
            searches: self.lookups.get(),
            ..self.counters
        }
    }

    /// Size of the client-side directory cache in bytes (the paper's
    /// "local directory cache, typically 2–5% of the succinct filter
    /// cache size").
    pub fn dir_cache_bytes(&self) -> usize {
        self.dir.len() * 8
    }

    /// Re-fetches the directory cache from the memory node.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn refresh(&mut self, client: &mut DmClient) -> Result<(), RaceError> {
        self.counters.refreshes += 1;
        for _ in 0..self.retry.op_retries {
            let w0 = client.read_u64(self.meta)?;
            let gd = (w0 & 0xFF) as u8;
            let maxd = ((w0 >> 8) & 0xFF) as u8;
            let bytes = client.read(self.meta.checked_add(DIR_OFFSET)?, 8 << gd)?;
            // The directory may have doubled between the two reads; loop
            // until we observe a stable depth.
            let w0_after = client.read_u64(self.meta)?;
            if (w0_after & 0xFF) as u8 != gd {
                continue;
            }
            self.global_depth = gd;
            self.max_depth = maxd;
            self.dir = bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            return Ok(());
        }
        Err(RaceError::RetriesExhausted { op: "refresh" })
    }

    fn locate(&self, hash: u64) -> Result<DirEntry, RaceError> {
        let idx = (hash & ((1u64 << self.global_depth) - 1)) as usize;
        DirEntry::decode(self.dir[idx]).ok_or(RaceError::Corrupt {
            what: "empty directory slot",
        })
    }

    /// Remote address of the bucket pair `hash` maps to, per the cached
    /// directory. Lets callers batch many pair reads into one doorbell
    /// round trip (Sphinx's "parallel hash reads", §III-A) or issue the
    /// read from a resumable state machine; validate each result with
    /// [`RaceTable::parse_pair`]. Counts one [`RaceCounters::searches`].
    ///
    /// # Errors
    ///
    /// [`RaceError::Corrupt`] on an empty directory slot.
    pub fn bucket_pair_ptr(&self, hash: u64) -> Result<RemotePtr, RaceError> {
        self.lookups.set(self.lookups.get() + 1);
        let de = self.locate(hash)?;
        let pair = pair_index(hash);
        Ok(de.segment.checked_add(bucket_offset(pair * 2))?)
    }

    /// Bytes of one bucket pair (what to read at
    /// [`RaceTable::bucket_pair_ptr`]).
    pub fn pair_len() -> usize {
        2 * BUCKET_BYTES as usize
    }

    /// Parses bytes read from [`RaceTable::bucket_pair_ptr`]. Returns
    /// `None` when the suffix check fails (stale directory cache: call
    /// [`RaceTable::refresh_stale`] and retry).
    pub fn parse_pair(base: RemotePtr, bytes: &[u8], hash: u64) -> Option<FoundEntries> {
        let pv = PairView::parse(base, bytes);
        pv.header.matches(hash).then(|| pv.entries())
    }

    fn read_pair(&self, client: &mut DmClient, hash: u64) -> Result<PairView, RaceError> {
        let de = self.locate(hash)?;
        let pair = pair_index(hash);
        let base = de.segment.checked_add(bucket_offset(pair * 2))?;
        let bytes = client.read(base, 2 * BUCKET_BYTES as usize)?;
        Ok(PairView::parse(base, &bytes))
    }

    /// Looks up all entries stored under `hash`'s bucket pair.
    ///
    /// Completes in **one round trip** when the directory cache is fresh.
    /// The caller filters the returned words (e.g. by fingerprint).
    ///
    /// # Errors
    ///
    /// [`RaceError::RetriesExhausted`] if the suffix check keeps failing.
    pub fn search(&mut self, client: &mut DmClient, hash: u64) -> Result<FoundEntries, RaceError> {
        self.lookups.set(self.lookups.get() + 1);
        for _ in 0..self.retry.op_retries {
            let pv = self.read_pair(client, hash)?;
            if pv.header.matches(hash) {
                return Ok(pv.entries());
            }
            self.refresh_stale(client)?;
        }
        Err(RaceError::RetriesExhausted { op: "search" })
    }

    /// Recovers from a bucket-pair read whose suffix check failed: counts
    /// one [`RaceCounters::stale_retries`], backs off, and re-fetches the
    /// directory cache. The caller then repeats its lookup.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn refresh_stale(&mut self, client: &mut DmClient) -> Result<(), RaceError> {
        self.counters.stale_retries += 1;
        client.backoff(&self.retry);
        self.refresh(client)
    }

    /// Inserts `word` under `hash`. Duplicate words are deduplicated.
    ///
    /// `entry_hashes` is the **split oracle**: it is handed a batch of entry
    /// words (by value, so it may rewrite them in place) and must return,
    /// in the same order, one value per word agreeing with that entry's
    /// original key hash on the low 42 bits. It is used only
    /// when this insert must split a segment, and then once per migration
    /// round with every word still undecided — so an oracle that needs
    /// remote reads (the Inner Node Hash Table's reads each referenced
    /// node's full-prefix hash) can issue them as one doorbell batch. All
    /// of a round's oracle reads precede that round's first CAS: if the
    /// first call fails the split is rolled back and the error returned
    /// with the table unchanged.
    ///
    /// # Errors
    ///
    /// [`RaceError::TableFull`] when growth hits `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is zero (reserved for empty slots).
    pub fn insert<F>(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        word: u64,
        mut entry_hashes: F,
    ) -> Result<(), RaceError>
    where
        F: FnMut(&mut DmClient, Vec<u64>) -> Result<Vec<u64>, RaceError>,
    {
        assert!(word != 0, "entry word 0 is reserved for empty slots");
        for _ in 0..self.retry.op_retries {
            let pv = self.read_pair(client, hash)?;
            if !pv.header.matches(hash) {
                self.counters.stale_retries += 1;
                client.advance_clock(self.retry.backoff_ns);
                self.refresh(client)?;
                continue;
            }
            if pv.find_word(word).is_some() {
                return Ok(());
            }
            let Some(idx) = pv.first_empty() else {
                self.split(client, hash, &mut entry_hashes)?;
                continue;
            };
            let slot = pv.slot_ptr(idx);
            // CAS the entry in and re-read the bucket header in the same
            // doorbell batch: if a split slid under us, the header changed
            // and we may sit in the wrong segment.
            let (prev, hdr_bytes) = client.cas_and_read(slot, 0, word, pv.base, 8)?;
            if prev != 0 {
                self.counters.cas_races += 1;
                continue; // slot raced away; retry
            }
            let hdr_now = BucketHeader::decode(le_word(&hdr_bytes));
            if hdr_now.matches(hash) {
                return Ok(());
            }
            // A concurrent split moved our key's range: undo and retry.
            // (If the splitter already migrated our word, the undo CAS
            // fails harmlessly and the retry finds the word resident.)
            self.counters.stale_retries += 1;
            client.cas(slot, word, 0)?;
            client.backoff(&self.retry);
            self.refresh(client)?;
        }
        Err(RaceError::RetriesExhausted { op: "insert" })
    }

    /// Removes the entry `word` stored under `hash`.
    ///
    /// Returns whether an entry was removed.
    ///
    /// # Errors
    ///
    /// [`RaceError::RetriesExhausted`] on persistent interference.
    pub fn remove(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        word: u64,
    ) -> Result<bool, RaceError> {
        self.replace_word(client, hash, word, 0, "remove")
    }

    /// Atomically replaces entry `old` with `new` (the hash-entry update
    /// after a node type switch, §IV Insert).
    ///
    /// Returns whether the replacement happened (`false` if `old` is no
    /// longer present).
    ///
    /// # Errors
    ///
    /// [`RaceError::RetriesExhausted`] on persistent interference.
    ///
    /// # Panics
    ///
    /// Panics if `new` is zero (use [`RaceTable::remove`]).
    pub fn replace(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        old: u64,
        new: u64,
    ) -> Result<bool, RaceError> {
        assert!(new != 0, "replacement word 0 is reserved; use remove");
        self.replace_word(client, hash, old, new, "replace")
    }

    fn replace_word(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        old: u64,
        new: u64,
        op: &'static str,
    ) -> Result<bool, RaceError> {
        for _ in 0..self.retry.op_retries {
            let pv = self.read_pair(client, hash)?;
            if !pv.header.matches(hash) {
                self.counters.stale_retries += 1;
                client.advance_clock(self.retry.backoff_ns);
                self.refresh(client)?;
                continue;
            }
            let Some(idx) = pv.find_word(old) else {
                // "Absent" is only an answer if no split fenced this pair
                // while it was being read: the pair read is not atomic, so
                // a header read before a split's bump can be paired with
                // entries read after the split zeroed its movers. One
                // header re-read confirms; a split in flight means retry.
                let hdr_now = BucketHeader::decode(client.read_u64(pv.base)?);
                if hdr_now.matches(hash) {
                    return Ok(false);
                }
                self.counters.stale_retries += 1;
                client.backoff(&self.retry);
                self.refresh(client)?;
                continue;
            };
            let prev = client.cas(pv.slot_ptr(idx), old, new)?;
            if prev == old {
                return Ok(true);
            }
            // Lost a race (concurrent delete/replace/migration): retry.
            self.counters.cas_races += 1;
            client.backoff(&self.retry);
        }
        Err(RaceError::RetriesExhausted { op })
    }

    /// Splits the segment owning `hash`. Called by `insert` when a bucket
    /// pair is full.
    fn split<F>(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        entry_hashes: &mut F,
    ) -> Result<(), RaceError>
    where
        F: FnMut(&mut DmClient, Vec<u64>) -> Result<Vec<u64>, RaceError>,
    {
        self.counters.splits += 1;
        self.refresh(client)?;
        let de = self.locate(hash)?;
        let seg = de.segment;

        // Phase A: segment lock, with the authoritative depth/suffix (a
        // bucket header) read behind the CAS in the same doorbell. If
        // somebody else is splitting, wait for them and let the caller
        // retry.
        let (prev, hdr_bytes) =
            client.cas_and_read(seg, 0, 1, seg.checked_add(bucket_offset(0))?, 8)?;
        if prev != 0 {
            for _ in 0..self.retry.op_retries {
                client.advance_clock(self.retry.backoff_ns * 10);
                std::thread::yield_now();
                if client.read_u64(seg)? == 0 {
                    return Ok(());
                }
            }
            return Err(RaceError::RetriesExhausted {
                op: "split lock wait",
            });
        }

        let hdr = BucketHeader::decode(le_word(&hdr_bytes));
        let result = self.split_locked(client, seg, hdr, hash, entry_hashes);
        // Unlock (even on failure paths).
        client.write_u64(seg, 0)?;
        result
    }

    /// The split proper, under the segment lock. `hdr` is the segment's
    /// bucket header as read right behind the lock CAS.
    ///
    /// Migration (phase C) runs in batched rounds rather than slot by
    /// slot: one oracle call resolves every pending word, one doorbell
    /// carries the zeroing CAS of every mover, and only slots whose CAS
    /// met a different non-zero word (a racing `replace`) go around again.
    /// Per slot that is the same oracle → CAS → reconsider sequence a
    /// serial loop would run, merely interleaved across slots.
    fn split_locked<F>(
        &mut self,
        client: &mut DmClient,
        seg: RemotePtr,
        hdr: BucketHeader,
        hash: u64,
        entry_hashes: &mut F,
    ) -> Result<(), RaceError>
    where
        F: FnMut(&mut DmClient, Vec<u64>) -> Result<Vec<u64>, RaceError>,
    {
        if !hdr.matches(hash) {
            // Someone split this range before we took the lock; retry at
            // the caller with a fresh directory.
            return Ok(());
        }
        let d = hdr.local_depth;
        if d >= self.max_depth {
            return Err(RaceError::TableFull { depth: d });
        }
        let old_suffix = hdr.suffix;
        let new_suffix = old_suffix | (1u64 << d);

        // New segment, invisible for now (buckets get their final headers
        // when the image is written at the end of phase C).
        let new_seg = client.alloc(seg.mn_id(), SEGMENT_BYTES)?;

        // Phase B: bump every old bucket header to (d+1, old_suffix) in
        // one doorbell batch. From here on, writers of relocating keys
        // fail the suffix check and undo themselves.
        let bumped = BucketHeader {
            local_depth: d + 1,
            suffix: old_suffix,
        };
        client.write_many(header_writes(seg, bumped)?)?;

        // Phase C: snapshot the segment, migrate relocating entries into
        // a local image of the new segment, zeroing them in the old one.
        let snapshot = client.read(seg, SEGMENT_BYTES)?;
        let mut image = empty_segment_image(BucketHeader {
            local_depth: d + 1,
            suffix: new_suffix,
        });
        // (slot offset, word last seen there) still to be decided.
        let mut pending: Vec<(usize, u64)> = entry_offsets()
            .map(|off| (off, le_word(&snapshot[off..off + 8])))
            .filter(|&(_, word)| word != 0)
            .collect();
        // A failure after the first CAS batch cannot be rolled back (some
        // movers live only in `image` by then): the split completes with
        // what has migrated and the error is reported afterwards.
        let mut late_err = None;
        let mut rounds = 0usize;
        while !pending.is_empty() {
            if rounds > self.retry.op_retries {
                late_err = Some(RaceError::RetriesExhausted {
                    op: "split migration",
                });
                break;
            }
            let words: Vec<u64> = pending.iter().map(|&(_, word)| word).collect();
            let hashes = entry_hashes(client, words).and_then(|hashes| {
                if hashes.len() == pending.len() {
                    Ok(hashes)
                } else {
                    Err(RaceError::Corrupt {
                        what: "split oracle answered a different number of words",
                    })
                }
            });
            let hashes = match hashes {
                Ok(hashes) => hashes,
                Err(e) if rounds == 0 => {
                    // Every oracle read of a round precedes its first CAS,
                    // so nothing has moved: put the headers back, drop the
                    // never-published segment, and the table is as it was.
                    let restored = BucketHeader {
                        local_depth: d,
                        suffix: old_suffix,
                    };
                    client.write_many(header_writes(seg, restored)?)?;
                    client.free(new_seg)?;
                    return Err(e);
                }
                Err(e) => {
                    late_err = Some(e);
                    break;
                }
            };
            rounds += 1;
            let movers: Vec<(usize, u64, u64)> = pending
                .drain(..)
                .zip(hashes)
                .filter(|&(_, h)| h & (1u64 << d) != 0)
                .map(|((off, word), h)| (off, word, h))
                .collect();
            let mut zeroing = Vec::with_capacity(movers.len());
            for &(off, word, _) in &movers {
                zeroing.push((seg.checked_add(off as u64)?, word, 0));
            }
            let prevs = client.cas_many(&zeroing)?;
            for ((off, word, h), prev) in movers.into_iter().zip(prevs) {
                if prev == word {
                    place_in_image(&mut image, h, word);
                    self.counters.split_migrated += 1;
                } else if prev != 0 {
                    pending.push((off, prev)); // entry changed under us; reconsider
                }
            }
        }
        self.counters.split_extra_rounds += rounds.saturating_sub(1) as u64;
        // Write the complete new-segment image in one round trip.
        client.write(new_seg, &image)?;

        // Phase D: publish via the directory, under the meta lock (the
        // global-depth word rides behind the lock CAS).
        let lock = self.meta.checked_add(META_LOCK_OFFSET)?;
        let w0 = loop {
            let (prev, w0) = client.cas_and_read(lock, 0, 1, self.meta, 8)?;
            if prev == 0 {
                break le_word(&w0);
            }
            client.advance_clock(self.retry.backoff_ns * 10);
            std::thread::yield_now();
        };
        let mut gd = (w0 & 0xFF) as u8;
        // Everything below lands on the meta MN in one doorbell, in verb
        // order: (doubling: mirrored upper half, new global depth,)
        // directory slots, version bump, meta unlock.
        let mut publishes = Vec::new();
        if d + 1 > gd {
            // Directory doubling: mirror the lower half into the upper.
            debug_assert_eq!(d, gd);
            let lower = client.read(self.meta.checked_add(DIR_OFFSET)?, 8 << gd)?;
            publishes.push((self.meta.checked_add(DIR_OFFSET + (8 << gd))?, lower));
            gd += 1;
            let new_w0 = (gd as u64) | (w0 & !0xFF);
            publishes.push((self.meta, new_w0.to_le_bytes().to_vec()));
        }
        // Point every directory slot of the two suffixes at the right
        // segment with the new depth.
        let old_de = DirEntry {
            segment: seg,
            local_depth: d + 1,
        }
        .encode();
        let new_de = DirEntry {
            segment: new_seg,
            local_depth: d + 1,
        }
        .encode();
        let mask = (1u64 << (d + 1)) - 1;
        for idx in 0..(1u64 << gd) {
            let word = if idx & mask == new_suffix {
                new_de
            } else if idx & mask == old_suffix {
                old_de
            } else {
                continue;
            };
            publishes.push((
                self.meta.checked_add(DIR_OFFSET + 8 * idx)?,
                word.to_le_bytes().to_vec(),
            ));
        }
        client.publish_and_unlock(publishes, self.meta.checked_add(META_VERSION_OFFSET)?, lock)?;

        self.refresh(client)?;
        late_err.map_or(Ok(()), Err)
    }

    /// Structural statistics: live entries, distinct segments, and load
    /// factor (entries / capacity). One directory refresh plus one read
    /// per distinct segment.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn stats(&mut self, client: &mut DmClient) -> Result<TableStats, RaceError> {
        self.refresh(client)?;
        let mut segs: Vec<RemotePtr> = self
            .dir
            .iter()
            .filter_map(|&w| DirEntry::decode(w))
            .map(|de| de.segment)
            .collect();
        segs.sort_unstable_by_key(|p| p.to_raw());
        segs.dedup();
        let mut entries = 0usize;
        for seg in &segs {
            let bytes = client.read(*seg, SEGMENT_BYTES)?;
            entries += entry_offsets()
                .filter(|&off| le_word(&bytes[off..off + 8]) != 0)
                .count();
        }
        let capacity = segs.len() * BUCKETS_PER_SEGMENT * ENTRIES_PER_BUCKET;
        Ok(TableStats {
            entries,
            segments: segs.len(),
            global_depth: self.global_depth,
            load_factor: entries as f64 / capacity.max(1) as f64,
        })
    }

    /// Total MN-side bytes the table occupies: meta block plus every
    /// distinct segment (for the paper's memory-overhead accounting).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn memory_bytes(&mut self, client: &mut DmClient) -> Result<u64, RaceError> {
        self.refresh(client)?;
        let mut segs: Vec<u64> = self
            .dir
            .iter()
            .filter_map(|&w| DirEntry::decode(w))
            .map(|de| de.segment.to_raw())
            .collect();
        segs.sort_unstable();
        segs.dedup();
        let meta_bytes = dm_sim::size_class(DIR_OFFSET + (8u64 << self.max_depth));
        Ok(meta_bytes + segs.len() as u64 * dm_sim::size_class(SEGMENT_BYTES as u64))
    }
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Byte offsets, within a segment, of the entry slots of bucket `b`.
fn bucket_entry_offsets(b: usize) -> impl Iterator<Item = usize> {
    (1..=ENTRIES_PER_BUCKET).map(move |e| bucket_offset(b) as usize + 8 * e)
}

/// Byte offsets of every entry slot of a segment, in bucket order.
fn entry_offsets() -> impl Iterator<Item = usize> {
    (0..BUCKETS_PER_SEGMENT).flat_map(bucket_entry_offsets)
}

/// One write per bucket of `seg`, setting its header word to `hdr`.
fn header_writes(
    seg: RemotePtr,
    hdr: BucketHeader,
) -> Result<Vec<(RemotePtr, Vec<u8>)>, RaceError> {
    let word = hdr.encode().to_le_bytes();
    (0..BUCKETS_PER_SEGMENT)
        .map(|b| Ok((seg.checked_add(bucket_offset(b))?, word.to_vec())))
        .collect()
}

/// Places `word` into the local image of a fresh segment (no concurrency:
/// the segment is unpublished).
fn place_in_image(image: &mut [u8], hash: u64, word: u64) {
    let pair = pair_index(hash);
    for off in [pair * 2, pair * 2 + 1]
        .into_iter()
        .flat_map(bucket_entry_offsets)
    {
        if le_word(&image[off..off + 8]) == 0 {
            image[off..off + 8].copy_from_slice(&word.to_le_bytes());
            return;
        }
    }
    // Both buckets of the pair full in the fresh segment: can only happen
    // if >14 relocating entries share a pair, which the old segment could
    // not have held either. Treat as corruption in debug builds.
    debug_assert!(false, "bucket pair overflow during split migration");
}

/// The bytes of an entry-less, unlocked segment whose buckets carry `hdr`.
fn empty_segment_image(hdr: BucketHeader) -> Vec<u8> {
    let mut image = vec![0u8; SEGMENT_BYTES];
    let word = hdr.encode().to_le_bytes();
    for b in 0..BUCKETS_PER_SEGMENT {
        let off = bucket_offset(b) as usize;
        image[off..off + 8].copy_from_slice(&word);
    }
    image
}

fn alloc_segment(
    client: &mut DmClient,
    mn_id: u16,
    depth: u8,
    suffix: u64,
) -> Result<RemotePtr, RaceError> {
    let seg = client.alloc(mn_id, SEGMENT_BYTES)?;
    let hdr = BucketHeader {
        local_depth: depth,
        suffix,
    };
    client.write(seg, &empty_segment_image(hdr))?;
    Ok(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PAIRS_PER_SEGMENT;
    use dm_sim::{ClusterConfig, DmCluster};

    fn cluster() -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 64 << 20,
            ..Default::default()
        })
    }

    /// Test oracle: our test entries are `hash | TAG` with TAG above bit 42,
    /// so the low 42 bits of the word *are* the hash.
    const TAG: u64 = 1 << 43;

    fn test_word(hash: u64) -> u64 {
        (hash & ((1 << 42) - 1)) | TAG
    }

    fn oracle(_c: &mut DmClient, words: Vec<u64>) -> Result<Vec<u64>, RaceError> {
        Ok(words.into_iter().map(|w| w & ((1 << 42) - 1)).collect())
    }

    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[test]
    fn create_open_insert_search() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(1);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        let found = t.search(&mut cl, h).unwrap();
        assert!(found.iter().any(|e| e.word == test_word(h)));
    }

    #[test]
    fn search_miss_returns_empty_or_unrelated() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let found = t.search(&mut cl, mix(42)).unwrap();
        assert!(found.is_empty());
    }

    #[test]
    fn search_costs_one_round_trip_when_fresh() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(7);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        let before = cl.stats().round_trips;
        t.search(&mut cl, h).unwrap();
        assert_eq!(cl.stats().round_trips - before, 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(5);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        let found = t.search(&mut cl, h).unwrap();
        assert_eq!(found.iter().filter(|e| e.word == test_word(h)).count(), 1);
    }

    #[test]
    fn remove_and_replace() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(9);
        let w = test_word(h);
        t.insert(&mut cl, h, w, oracle).unwrap();
        assert!(t.replace(&mut cl, h, w, w | 1 << 50).unwrap());
        assert!(
            !t.replace(&mut cl, h, w, w | 1 << 51).unwrap(),
            "old word gone"
        );
        assert!(t.remove(&mut cl, h, w | 1 << 50).unwrap());
        assert!(!t.remove(&mut cl, h, w | 1 << 50).unwrap());
        assert!(t.search(&mut cl, h).unwrap().is_empty());
    }

    #[test]
    fn grows_through_many_splits_without_losing_entries() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let n = 4000u64;
        for i in 0..n {
            let h = mix(i);
            t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        assert!(t.global_depth() > 1, "table must have grown");
        for i in 0..n {
            let h = mix(i);
            let found = t.search(&mut cl, h).unwrap();
            assert!(
                found.iter().any(|e| e.word == test_word(h)),
                "entry {i} lost after splits (gd={})",
                t.global_depth()
            );
        }
    }

    /// The `n`-th distinct 42-bit hash falling into bucket pair `pair`,
    /// with pseudo-random directory bits.
    fn hash_in_pair(pair: usize, n: u64) -> u64 {
        let h = (mix(pair as u64 * 1000 + n) & 0xF_FFFF)
            | ((PAIRS_PER_SEGMENT as u64 * n + pair as u64) << 20);
        assert_eq!(pair_index(h), pair);
        h
    }

    /// A depth-0 table whose single segment holds `per_pair` entries in
    /// every bucket pair except pair 0, which is full. Returns the hashes
    /// stored; the next insert into pair 0 must split.
    fn table_about_to_split(cl: &mut DmClient, per_pair: u64) -> (RaceTable, Vec<u64>) {
        let cfg = TableConfig {
            initial_depth: 0,
            max_depth: 6,
        };
        let meta = RaceTable::create(cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(cl, meta).unwrap();
        let mut hashes = Vec::new();
        for pair in 0..PAIRS_PER_SEGMENT {
            let fill = if pair == 0 { 14 } else { per_pair };
            hashes.extend((0..fill).map(|n| hash_in_pair(pair, n)));
        }
        for &h in &hashes {
            t.insert(cl, h, test_word(h), oracle).unwrap();
        }
        assert_eq!(t.counters().splits, 0);
        (t, hashes)
    }

    fn assert_all_found(t: &mut RaceTable, cl: &mut DmClient, hashes: &[u64]) {
        for &h in hashes {
            let found = t.search(cl, h).unwrap();
            assert!(found.iter().any(|e| e.word == test_word(h)), "lost {h:#x}");
        }
    }

    /// Remote address of the slot holding the test word of `h`.
    fn slot_of(t: &mut RaceTable, cl: &mut DmClient, h: u64) -> RemotePtr {
        let found = t.search(cl, h).unwrap();
        found.iter().find(|e| e.word == test_word(h)).unwrap().slot
    }

    #[test]
    fn split_round_trips_are_bounded() {
        // Half-full and nearly full: the cost of a split must not scale
        // with the number of entries it migrates.
        for per_pair in [7, 13] {
            let c = cluster();
            let mut cl = c.client(0);
            let (mut t, mut hashes) = table_about_to_split(&mut cl, per_pair);
            let h = hash_in_pair(0, 14);
            let before = cl.stats().doorbells;
            t.insert(&mut cl, h, test_word(h), oracle).unwrap();
            let doorbells = cl.stats().doorbells - before;
            let counters = t.counters();
            assert_eq!(counters.splits, 1);
            assert_eq!(counters.split_extra_rounds, 0);
            assert!(
                counters.split_migrated >= per_pair * 8,
                "only {} entries migrated",
                counters.split_migrated
            );
            assert!(
                doorbells <= 32,
                "splitting insert rang {doorbells} doorbells"
            );
            hashes.push(h);
            assert_all_found(&mut t, &mut cl, &hashes);
        }
    }

    #[test]
    fn split_reconsiders_slots_that_change_under_it() {
        let c = cluster();
        let mut cl = c.client(0);
        let (mut t, hashes) = table_about_to_split(&mut cl, 7);
        // Two entries the depth-0 split relocates (hash bit 0 set).
        let mut movers = hashes.iter().copied().filter(|h| h & 1 == 1);
        let (replaced, removed) = (movers.next().unwrap(), movers.next().unwrap());
        let replaced_slot = slot_of(&mut t, &mut cl, replaced);
        let removed_slot = slot_of(&mut t, &mut cl, removed);
        let new_word = test_word(replaced) | 1 << 50;
        // The oracle runs between the snapshot and the CAS batch: on its
        // first call it plays a `replace` and a `remove` whose pair read
        // predates the header bump and whose CAS lands now.
        let mut calls = 0;
        let racing_oracle = |c: &mut DmClient, words: Vec<u64>| {
            calls += 1;
            if calls == 1 {
                assert_eq!(
                    c.cas(replaced_slot, test_word(replaced), new_word)?,
                    test_word(replaced)
                );
                assert_eq!(
                    c.cas(removed_slot, test_word(removed), 0)?,
                    test_word(removed)
                );
            }
            oracle(c, words)
        };
        let h = hash_in_pair(0, 14);
        t.insert(&mut cl, h, test_word(h), racing_oracle).unwrap();
        assert_eq!(calls, 2, "the replaced slot needs exactly one more round");
        assert_eq!(t.counters().splits, 1);
        assert_eq!(t.counters().split_extra_rounds, 1);

        // The replacement word moved to the new segment (search validates
        // the bucket suffix), its predecessor and the removed word are
        // nowhere, and nothing else was disturbed.
        let words_at = |t: &mut RaceTable, cl: &mut DmClient, h: u64| -> Vec<u64> {
            t.search(cl, h).unwrap().iter().map(|e| e.word).collect()
        };
        let at_replaced = words_at(&mut t, &mut cl, replaced);
        assert!(at_replaced.contains(&new_word));
        assert!(!at_replaced.contains(&test_word(replaced)));
        assert!(!words_at(&mut t, &mut cl, removed).contains(&test_word(removed)));
        let rest: Vec<u64> = hashes
            .iter()
            .copied()
            .filter(|&x| x != replaced && x != removed)
            .chain([h])
            .collect();
        assert_all_found(&mut t, &mut cl, &rest);
        let stats = t.stats(&mut cl).unwrap();
        assert_eq!(stats.entries, hashes.len()); // +1 inserted, -1 removed
        assert_eq!(stats.segments, 2);
    }

    /// A pair read torn across a whole split: the header word is the one
    /// from before the split's bump, the entry words are the ones from
    /// after it zeroed its movers. (The simulator's reads are word-atomic
    /// only; a reader thread descheduled mid-copy produces exactly this.)
    struct TearAcrossSplit {
        pair: RemotePtr,
        word: u64,
        armed: std::sync::atomic::AtomicBool,
        reading: std::sync::mpsc::SyncSender<()>,
        split_done: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl dm_sim::FaultHook for TearAcrossSplit {
        fn corrupt_read(&self, ptr: RemotePtr, data: &mut [u8]) {
            use std::sync::atomic::Ordering;
            if ptr != self.pair
                || data.len() != RaceTable::pair_len()
                || !self.armed.swap(false, Ordering::SeqCst)
            {
                return;
            }
            // The header has been "read"; let the split run to completion
            // before the entries are.
            self.reading.send(()).unwrap();
            self.split_done.lock().unwrap().recv().unwrap();
            for slot in data.chunks_exact_mut(8).skip(1) {
                if le_word(slot) == self.word {
                    slot.fill(0); // the split migrated it away
                }
            }
        }
    }

    #[test]
    fn replace_does_not_trust_a_pair_read_torn_by_a_split() {
        use std::sync::{atomic::AtomicBool, mpsc, Arc, Mutex};
        let c = cluster();
        let mut cl = c.client(0);
        let (mut t, hashes) = table_about_to_split(&mut cl, 7);
        // An entry the depth-0 split relocates, outside the full pair.
        let victim = *hashes
            .iter()
            .find(|&&h| h & 1 == 1 && pair_index(h) != 0)
            .unwrap();
        let (reading_tx, reading_rx) = mpsc::sync_channel(1);
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        let hook = Arc::new(TearAcrossSplit {
            pair: t.bucket_pair_ptr(victim).unwrap(),
            word: test_word(victim),
            armed: AtomicBool::new(true),
            reading: reading_tx,
            split_done: Mutex::new(done_rx),
        });
        c.set_fault_hook(Some(hook));
        let new_word = test_word(victim) | 1 << 50;
        std::thread::scope(|s| {
            let (c, meta) = (&c, t.meta_ptr());
            let splitter = s.spawn(move || {
                let mut cl = c.client(0);
                let mut t = RaceTable::open(&mut cl, meta).unwrap();
                reading_rx.recv().unwrap();
                let h = hash_in_pair(0, 14);
                t.insert(&mut cl, h, test_word(h), oracle).unwrap();
                assert_eq!(t.counters().splits, 1);
                done_tx.send(()).unwrap();
            });
            let mut replacer_cl = c.client(0);
            let mut replacer = t.clone();
            assert!(
                replacer
                    .replace(&mut replacer_cl, victim, test_word(victim), new_word)
                    .unwrap(),
                "the entry was there all along"
            );
            splitter.join().unwrap();
        });
        c.set_fault_hook(None);
        let found = t.search(&mut cl, victim).unwrap();
        assert!(found.iter().any(|e| e.word == new_word));
    }

    #[test]
    fn failed_first_oracle_batch_rolls_the_split_back() {
        let c = cluster();
        let mut cl = c.client(0);
        let (mut t, mut hashes) = table_about_to_split(&mut cl, 7);
        let live = || c.mn(0).unwrap().alloc_stats().live_bytes;
        let baseline = live();
        let h = hash_in_pair(0, 14);
        let broken = RaceError::Corrupt {
            what: "test oracle",
        };
        let err = t
            .insert(&mut cl, h, test_word(h), |_, _| Err(broken.clone()))
            .unwrap_err();
        assert_eq!(err, broken);
        assert_eq!(live(), baseline, "the unpublished segment must be freed");
        assert_eq!(t.counters().split_migrated, 0);

        // Fully usable afterwards: both halves of the key range read,
        // remove and re-insert, from this handle and from a fresh one, and
        // the same insert goes through once the oracle works.
        let mut fresh = RaceTable::open(&mut cl, t.meta_ptr()).unwrap();
        assert_all_found(&mut fresh, &mut cl, &hashes);
        for &x in &hashes[..40] {
            assert!(t.remove(&mut cl, x, test_word(x)).unwrap());
            t.insert(&mut cl, x, test_word(x), oracle).unwrap();
        }
        assert_eq!(t.stats(&mut cl).unwrap().segments, 1);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        hashes.push(h);
        assert_all_found(&mut t, &mut cl, &hashes);
        assert_eq!(t.stats(&mut cl).unwrap().segments, 2);
    }

    #[test]
    fn late_oracle_failure_still_completes_the_split() {
        let c = cluster();
        let mut cl = c.client(0);
        let (mut t, hashes) = table_about_to_split(&mut cl, 7);
        let victim = hashes.iter().copied().find(|h| h & 1 == 1).unwrap();
        let slot = slot_of(&mut t, &mut cl, victim);
        let broken = RaceError::Corrupt {
            what: "test oracle",
        };
        let mut calls = 0;
        let h = hash_in_pair(0, 14);
        let err = t
            .insert(
                &mut cl,
                h,
                test_word(h),
                |c: &mut DmClient, words: Vec<u64>| {
                    calls += 1;
                    if calls > 1 {
                        return Err(broken.clone());
                    }
                    c.cas(slot, test_word(victim), test_word(victim) | 1 << 50)?;
                    oracle(c, words)
                },
            )
            .unwrap_err();
        assert_eq!(err, broken);
        // Round 1 already zeroed its movers, so the split had to publish:
        // only the slot that changed under it is left behind unresolved.
        let rest: Vec<u64> = hashes.iter().copied().filter(|&x| x != victim).collect();
        assert_all_found(&mut t, &mut cl, &rest);
        assert_eq!(t.stats(&mut cl).unwrap().segments, 2);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        assert_all_found(&mut t, &mut cl, &[h]);
    }

    #[test]
    fn stale_handle_recovers_after_peer_growth() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut writer = RaceTable::open(&mut cl, meta).unwrap();
        let mut reader_cl = c.client(0);
        let mut reader = RaceTable::open(&mut reader_cl, meta).unwrap();
        // Writer grows the table far beyond the reader's cached directory.
        for i in 0..4000u64 {
            let h = mix(i);
            writer.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        // Reader still has global_depth 1 cached; every lookup must
        // self-heal via the suffix check.
        assert_eq!(reader.global_depth(), 1);
        for i in (0..4000u64).step_by(97) {
            let h = mix(i);
            let found = reader.search(&mut reader_cl, h).unwrap();
            assert!(
                found.iter().any(|e| e.word == test_word(h)),
                "stale reader lost {i}"
            );
        }
        assert!(reader.global_depth() > 1, "reader should have refreshed");
    }

    #[test]
    fn table_full_surfaces() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 0,
            max_depth: 1,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let mut err = None;
        for i in 0..10_000u64 {
            let h = mix(i);
            if let Err(e) = t.insert(&mut cl, h, test_word(h), oracle) {
                err = Some(e);
                break;
            }
        }
        assert!(
            matches!(err, Some(RaceError::TableFull { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn concurrent_inserts_from_many_clients() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 12,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let threads = 4;
        let per = 800u64;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    let mut cl = c.client(0);
                    let mut t = RaceTable::open(&mut cl, meta).unwrap();
                    for i in 0..per {
                        let h = mix(tid * per + i);
                        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
                    }
                });
            }
        });
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        for i in 0..threads * per {
            let h = mix(i);
            let found = t.search(&mut cl, h).unwrap();
            assert!(found.iter().any(|e| e.word == test_word(h)), "lost {i}");
        }
    }

    #[test]
    fn stats_count_live_entries() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        for i in 0..500u64 {
            let h = mix(i);
            t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        for i in 0..100u64 {
            let h = mix(i);
            t.remove(&mut cl, h, test_word(h)).unwrap();
        }
        let stats = t.stats(&mut cl).unwrap();
        assert_eq!(stats.entries, 400);
        assert!(stats.segments >= 2);
        assert!(stats.load_factor > 0.0 && stats.load_factor < 1.0);
    }

    #[test]
    fn memory_bytes_grows_with_splits() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let before = t.memory_bytes(&mut cl).unwrap();
        for i in 0..3000u64 {
            let h = mix(i);
            t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        let after = t.memory_bytes(&mut cl).unwrap();
        assert!(after > before, "{after} <= {before}");
    }
}
