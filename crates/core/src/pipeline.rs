//! The Sphinx lookup (§IV "Search") as one resumable state machine.
//!
//! [`LocateOp`] is the only code that finds a key's place in the tree:
//! filter probe → INHT bucket-pair read → candidate node validation (the
//! entry search, Sphinx's own) → descent and validated leaf read (the
//! [`node_engine::descend`] body every ART system hosts) → false-positive
//! check. Instead of
//! blocking on [`dm_sim::DmClient::execute`] it yields a
//! [`StepOutcome::Submit`] at every round trip, so one body serves one
//! lookup or many in flight: [`SphinxClient::locate`] drives a single
//! machine through [`node_engine::run_pipelined`] at depth 1 (charge for
//! charge what blocking execution costs, also under a
//! [`dm_sim::Schedule`]), and [`SphinxClient::get_many_pipelined`] drives
//! one machine per key at depth N, where every scheduling round all
//! in-flight reads go out in one fused doorbell and share a single RTT.
//!
//! Transient states restart inside the machine: a node caught mid
//! type-switch backs off and retakes the ladder from the probe, the
//! root-entry-missing window retries the ladder on a bounded budget, a
//! false positive restarts with a shorter prefix bound. Two things need
//! the whole client and therefore stop the machine with a typed
//! [`Stop`] that the driver serves before re-admitting it: a stale INHT
//! directory ([`Stop::Refresh`]) and the leaf sample below a child whose
//! compressed path diverges from the key ([`Stop::Sample`], served by
//! [`node_engine::walk::any_leaf`]; only lookups of absent keys reach it).
//! docs/PROTOCOLS.md has the state table.

use art_core::hash::{fp12, prefix_hash42, prefix_hash64};
use art_core::key::{common_prefix_len, MAX_KEY_LEN};
use art_core::layout::{HashEntry, InnerNode, NodeStatus};
use dm_sim::{Completion, DmClient, DoorbellBatch, RemotePtr, RetryPolicy, SqeToken, Verb};
use node_engine::walk::any_leaf;
use node_engine::{
    drive, ArtReader, Descend, DescendHost, EngineError, FirstInline, Lane, Lookup, OpState,
    StepOutcome, Yield,
};
use obs::{OpKind, OpTrace, Phase};
use race_hash::RaceTable;

use crate::client::{Descent, Outcome, SphinxClient};
use crate::config::{CacheMode, SphinxConfig};
use crate::error::SphinxError;

/// Submission tags: the phase each round trip is attributed to, by the
/// span recorder for a lookup driven alone and by
/// [`node_engine::PipelineStats::by_tag`] for a pipelined run.
const TAG_INHT: u32 = Phase::InhtLookup as u32;
const TAG_TRAVERSAL: u32 = Phase::Traversal as u32;
const TAG_LEAF: u32 = Phase::LeafRead as u32;

/// Counters one lookup accumulates, folded into [`crate::OpStats`] and the
/// named `obs` counters when it ends (`u32`: one lookup is bounded by
/// `op_retries`, and every machine of a pipelined run carries a set).
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Restarts of any kind (false positive, invalid node, root missing).
    retries: u32,
    fp_retries: u32,
    invalid_retries: u32,
    entry_misses: u32,
    filter_first_hits: u32,
    filter_refreshes: u32,
    probe_hits: u32,
    probe_misses: u32,
    inht_hits: u32,
    fp_collisions: u32,
}

/// Why a machine stopped. The first three end the lookup; the driver
/// serves the other two and re-admits the machine.
#[allow(clippy::large_enum_variant)] // moved once per lookup
pub(crate) enum Stop {
    /// The full lookup finished.
    Found(Descent),
    /// An entry-only lookup finished: the validated entry node's address,
    /// the node, and its prefix length.
    Entry(RemotePtr, InnerNode, usize),
    /// The lookup failed for good.
    Failed(SphinxError),
    /// Table `mn`'s directory cache is stale: run
    /// [`RaceTable::refresh_stale`] on it.
    Refresh(usize),
    /// The descent met a child whose compressed path diverges from the
    /// key ([`Yield::Sample`]): sample a leaf below
    /// [`Descend::diverged_child`] and hand it to [`Descend::sampled`].
    Sample,
}

/// One bucket pair of the current INHT read.
struct Level {
    plen: usize,
    hash: u64,
    base: RemotePtr,
}

/// Where the machine is between round trips.
enum St {
    /// Not started.
    Start,
    /// Stopped on [`Stop::Refresh`]: resubmit the same bucket pairs.
    Stale,
    /// Waiting for the bucket pairs of `levels`.
    Pairs,
    /// Waiting for the inner node that `entry` (entry `idx` of the bucket
    /// pair `pair`, read for `level`) names, a candidate for the level's
    /// prefix. The pair stays as the bytes read: a fingerprint collision
    /// parses them again, and no lookup carries the parsed entries around.
    Candidate {
        level: Level,
        pair: Vec<u8>,
        idx: usize,
        entry: HashEntry,
    },
    /// Below the entry node: [`LocateOp::descend`] is waiting for the read
    /// it yielded for, or for the driver's sample.
    Descending,
}

/// One lookup's state. Owns nothing of the client, so the driver can use
/// the client between runs; [`Run`] lends it the client's tables and
/// filter for the duration of one [`node_engine::run_pipelined`] call.
pub(crate) struct LocateOp<'k> {
    mode: CacheMode,
    retry: RetryPolicy,
    /// Stop at the validated entry node instead of descending.
    entry_only: bool,
    /// The descent below the entry node (and the search key).
    descend: Descend<'k>,
    /// Prefix length of the entry node the descent started from.
    entry_len: usize,
    /// Upper bound on the probed prefix length (shrinks on fp restarts).
    max_len: usize,
    /// Current probe level within one entry-node search (filter mode).
    probe_len: usize,
    /// Whether the next INHT hit is a first-probe filter hit.
    first: bool,
    /// Restarts and refreshes consumed (bounded by `op_retries`).
    restarts: usize,
    /// Root-entry-missing retries left in this entry-node search.
    root_budget: usize,
    /// Prefix lengths `lo..=hi` of the current bucket-pair read: the one
    /// the filter named, or every prefix in [`CacheMode::InhtOnly`].
    range: (usize, usize),
    /// The pairs of `range` not yet examined, shallowest first (one in
    /// filter mode, stored inline) …
    levels: FirstInline<Level>,
    /// … and their bytes, once read.
    pairs: Completion,
    state: St,
    tally: Tally,
    /// The terminal stop, once reached.
    result: Option<Stop>,
    /// The key's causal-trace context in a pipelined run, leased by
    /// [`SphinxClient::get_many_pipelined`] (`None` when not sampled, and
    /// for a lookup driven alone, which records on the blocking op's).
    trace: Option<Box<OpTrace>>,
}

impl Lookup for LocateOp<'_> {
    type Stop = Stop;

    fn done(&self) -> bool {
        self.result.is_some()
    }

    fn trace(&mut self) -> &mut Option<Box<OpTrace>> {
        &mut self.trace
    }
}

impl<'k> LocateOp<'k> {
    fn new(
        key: &'k [u8],
        max_len: usize,
        entry_only: bool,
        config: &SphinxConfig,
        retry: RetryPolicy,
    ) -> Self {
        LocateOp {
            mode: config.mode,
            retry,
            entry_only,
            descend: Descend::new(key, config.leaf_read_hint, retry),
            entry_len: 0,
            max_len,
            probe_len: max_len,
            first: true,
            restarts: 0,
            root_budget: 0,
            range: (0, 0),
            levels: FirstInline::default(),
            pairs: Completion::default(),
            state: St::Start,
            tally: Tally::default(),
            result: None,
            trace: None,
        }
    }
}

/// Shorthand for a single-read submission.
fn read_batch(ptr: RemotePtr, len: usize) -> DoorbellBatch {
    DoorbellBatch::from_iter([Verb::Read { ptr, len }])
}

/// Unwraps a single-read completion.
fn into_one_read(mut results: Completion) -> Vec<u8> {
    results
        .pop()
        .expect("a lookup state awaiting one read was resumed with none")
        .into_read()
}

type Step = Result<StepOutcome<Stop>, EngineError>;

/// A [`LocateOp`] admitted to one pipeline run.
struct Run<'a, 'k> {
    op: &'a mut LocateOp<'k>,
    tables: &'a [RaceTable],
    filter: &'a sfc::FilterCache,
    lane: Lane<'a>,
}

impl Run<'_, '_> {
    fn phase(&mut self, t: &DmClient, phase: Phase) {
        self.lane.phase(t, &mut *self.op, phase);
    }

    /// Marks one failed attempt: on the trace now, on the enclosing span
    /// when the tally is folded.
    fn retry(&mut self, t: &DmClient) {
        self.op.tally.retries += 1;
        self.lane.retry(&mut *self.op, t.clock_ns());
    }

    /// Ends the run on `stop`.
    fn stop(&mut self, t: &DmClient, stop: Stop) -> Step {
        self.lane.end(&mut *self.op, t.clock_ns());
        Ok(StepOutcome::Done(stop))
    }

    fn fail(&mut self, t: &DmClient, e: SphinxError) -> Step {
        self.stop(t, Stop::Failed(e))
    }

    /// Starts an entry-node search from the longest allowed prefix.
    fn begin(&mut self, t: &mut DmClient) -> Step {
        self.op.root_budget = self.op.retry.io_retries;
        self.op.probe_len = self.op.max_len;
        self.op.first = self.op.mode == CacheMode::FilterCache;
        self.probe(t)
    }

    /// Chooses the prefix lengths to look up: the deepest one the filter
    /// claims (CN-local), or all of them without a filter (§III-A).
    fn probe(&mut self, t: &mut DmClient) -> Step {
        self.op.range = match self.op.mode {
            CacheMode::FilterCache => {
                self.phase(t, Phase::SfcProbe);
                let l = self.op.probe_len;
                let cand = self.filter.deepest_hit(self.op.descend.key, l);
                if l > 0 {
                    if cand > 0 {
                        self.op.tally.probe_hits += 1;
                    } else {
                        self.op.tally.probe_misses += 1;
                    }
                }
                (cand, cand)
            }
            CacheMode::InhtOnly => (0, self.op.max_len),
        };
        self.submit_pairs(t)
    }

    /// Submits the bucket-pair reads of `range` as one batch.
    fn submit_pairs(&mut self, t: &mut DmClient) -> Step {
        self.phase(t, Phase::InhtLookup);
        let (lo, hi) = self.op.range;
        let mut batch = DoorbellBatch::with_capacity(hi - lo + 1);
        self.op.levels.clear();
        for plen in lo..=hi {
            let hash = prefix_hash64(&self.op.descend.key[..plen]);
            let base = match self.tables[t.place(hash) as usize].bucket_pair_ptr(hash) {
                Ok(base) => base,
                Err(e) => return self.fail(t, e.into()),
            };
            batch.push(Verb::Read {
                ptr: base,
                len: RaceTable::pair_len(),
            });
            self.op.levels.push(Level { plen, hash, base });
        }
        self.op.state = St::Pairs;
        Ok(StepOutcome::Submit {
            batch,
            tag: TAG_INHT,
        })
    }

    /// Examines the deepest bucket pair not yet looked at.
    fn next_level(&mut self, t: &mut DmClient) -> Step {
        let (Some(level), Some(bytes)) = (self.op.levels.pop(), self.op.pairs.pop()) else {
            return self.ladder_miss(t);
        };
        self.next_candidate(t, level, bytes.into_read(), 0)
    }

    /// Submits the first entry of `pair` from `from` on whose fingerprint
    /// matches the level's prefix for validation, or moves on when there is
    /// none.
    fn next_candidate(
        &mut self,
        t: &mut DmClient,
        level: Level,
        pair: Vec<u8>,
        from: usize,
    ) -> Step {
        let Some(entries) = RaceTable::parse_pair(level.base, &pair, level.hash) else {
            self.op.state = St::Stale;
            let mn = t.place(level.hash) as usize;
            return Ok(StepOutcome::Done(Stop::Refresh(mn)));
        };
        let fp = fp12(&self.op.descend.key[..level.plen]);
        let candidate = entries.iter().enumerate().skip(from).find_map(|(i, e)| {
            let he = HashEntry::decode(e.word).filter(|he| he.fp == fp)?;
            Some((i, he))
        });
        let Some((idx, entry)) = candidate else {
            return self.next_level(t);
        };
        self.op.state = St::Candidate {
            level,
            pair,
            idx,
            entry,
        };
        Ok(StepOutcome::Submit {
            batch: read_batch(entry.addr, InnerNode::byte_size(entry.kind)),
            tag: TAG_INHT,
        })
    }

    /// No bucket pair of this read held a valid entry.
    fn ladder_miss(&mut self, t: &mut DmClient) -> Step {
        self.op.tally.entry_misses += 1;
        if self.op.mode == CacheMode::FilterCache {
            self.op.first = false;
            let plen = self.op.range.0;
            if plen > 0 {
                // The filter claimed `key[..plen]` exists but the INHT
                // disproved it: an observed false positive. Re-probe one
                // level shorter.
                self.filter.record_false_positive();
                self.op.probe_len = plen - 1;
                return self.probe(t);
            }
        }
        // Even the root hash entry failed validation. Under contention
        // that is a transient gap, not corruption: a concurrent type
        // switch of the root invalidates the old node before the repaired
        // entry is published, and a reader landing in that window sees no
        // valid entry at any prefix length. Back off and retake the whole
        // ladder; only a persistent gap is corruption.
        if self.op.root_budget == 0 {
            return self.fail(
                t,
                SphinxError::Corrupt {
                    what: "root hash entry missing",
                },
            );
        }
        self.op.root_budget -= 1;
        self.retry(t);
        self.phase(t, Phase::Retry);
        t.backoff(&self.op.retry);
        self.op.probe_len = self.op.max_len;
        self.probe(t)
    }

    /// A node caught mid type-switch: back off and retake the lookup from
    /// the probe.
    fn restart_invalid(&mut self, t: &mut DmClient) -> Step {
        self.op.tally.invalid_retries += 1;
        self.retry(t);
        self.phase(t, Phase::Retry);
        t.backoff(&self.op.retry);
        self.restart(t)
    }

    /// The false-positive check of §III-B: the descent from an entry node
    /// of prefix length `entry_len` reached `found`, a key from its
    /// subtree. If they share less than `entry_len` bytes with the search
    /// key, both the fp₁₂ and the 42-bit prefix hash collided — restart
    /// with a shorter prefix bound.
    fn false_positive(&mut self, t: &DmClient, found: &[u8]) -> bool {
        let entry_len = self.op.entry_len;
        if common_prefix_len(self.op.descend.key, found) >= entry_len {
            return false;
        }
        self.op.tally.fp_retries += 1;
        self.retry(t);
        self.op.max_len = entry_len.saturating_sub(1);
        true
    }

    /// Retakes the lookup from the probe.
    fn restart(&mut self, t: &mut DmClient) -> Step {
        self.budgeted(t, Self::begin)
    }

    /// Spends one unit of the restart budget (restarts and directory
    /// refreshes share it), then continues with `next`.
    fn budgeted(&mut self, t: &mut DmClient, next: fn(&mut Self, &mut DmClient) -> Step) -> Step {
        self.op.restarts += 1;
        if self.op.restarts >= self.op.retry.op_retries {
            return self.fail(t, SphinxError::RetriesExhausted { op: "locate" });
        }
        next(self, t)
    }

    /// Takes one step of the descent below the entry node, lending it the
    /// one hook Sphinx supplies.
    fn descent(
        &mut self,
        step: impl FnOnce(&mut Descend<'_>, &mut Freshness<'_>) -> Result<Yield, EngineError>,
    ) -> Result<Yield, EngineError> {
        let LocateOp {
            descend,
            tally,
            mode,
            ..
        } = &mut *self.op;
        let mut host = Freshness {
            filter: (*mode == CacheMode::FilterCache).then_some(self.filter),
            refreshes: &mut tally.filter_refreshes,
        };
        step(descend, &mut host)
    }

    /// Serves what the descent asked for: submits its read, stops for the
    /// driver, restarts, or — at its end — runs the false-positive check on
    /// the key it found.
    fn on_yield(&mut self, t: &mut DmClient, y: Yield) -> Step {
        self.op.state = St::Descending;
        let (batch, tag) = match y {
            Yield::Inner(ptr, len) => (read_batch(ptr, len), TAG_TRAVERSAL),
            Yield::Leaf(ptr, len, again) => {
                if !again {
                    self.phase(t, Phase::LeafRead);
                }
                (read_batch(ptr, len), TAG_LEAF)
            }
            Yield::Sample => return Ok(StepOutcome::Done(Stop::Sample)),
            Yield::Restart => return self.restart_invalid(t),
            Yield::Done(descent) => {
                // `Empty`, `NoValueSlot` and `EmptyChild` carry no key to
                // check the entry node against.
                let found = match &descent.outcome {
                    Outcome::Leaf { leaf, .. } => {
                        self.phase(t, Phase::Traversal); // the leaf read is over
                        Some(&leaf.key)
                    }
                    Outcome::Divergent { sample, .. } => Some(&sample.key),
                    _ => None,
                };
                if found.is_some_and(|found| self.false_positive(t, found)) {
                    return self.restart(t);
                }
                return self.stop(t, Stop::Found(descent));
            }
        };
        Ok(StepOutcome::Submit { batch, tag })
    }
}

/// The one [`DescendHost`] hook Sphinx supplies: a child that matches the
/// key teaches the filter its prefix (the "freshness" update of §IV
/// Search).
struct Freshness<'a> {
    /// `None` in [`CacheMode::InhtOnly`].
    filter: Option<&'a sfc::FilterCache>,
    refreshes: &'a mut u32,
}

impl DescendHost for Freshness<'_> {
    fn child_matched(&mut self, prefix: &[u8]) {
        if self.filter.is_some_and(|filter| filter.refresh(prefix)) {
            *self.refreshes += 1;
        }
    }
}

impl OpState for Run<'_, '_> {
    type Output = Stop;

    fn on_admitted(&mut self, now_ns: u64) {
        self.lane.admitted(&mut *self.op, now_ns);
    }

    fn on_submitted(&mut self, token: SqeToken, now_ns: u64) {
        self.lane.submitted(&mut *self.op, token, now_ns);
    }

    fn step(&mut self, t: &mut DmClient, completion: Option<Completion>) -> Step {
        match std::mem::replace(&mut self.op.state, St::Start) {
            St::Start => {
                let len = self.op.descend.key.len();
                if len > MAX_KEY_LEN {
                    return self.fail(t, SphinxError::KeyTooLong { len });
                }
                self.begin(t)
            }
            St::Stale => self.budgeted(t, Self::submit_pairs),
            St::Pairs => {
                self.op.pairs =
                    completion.expect("the Pairs state was resumed without its completion");
                self.next_level(t)
            }
            St::Candidate {
                level,
                pair,
                idx,
                entry,
            } => {
                let plen = level.plen;
                let completion =
                    completion.expect("the Candidate state was resumed without its completion");
                let node = InnerNode::decode(&into_one_read(completion))?;
                if node.header.status == NodeStatus::Invalid
                    || node.header.kind != entry.kind
                    || node.header.prefix_len as usize != plen
                    || node.header.prefix_hash42 != prefix_hash42(&self.op.descend.key[..plen])
                {
                    // The 12-bit fingerprint matched but the node did not:
                    // a genuine fp collision or a stale/retired entry.
                    self.op.tally.fp_collisions += 1;
                    return self.next_candidate(t, level, pair, idx + 1);
                }
                self.op.tally.inht_hits += 1;
                if self.op.first {
                    self.op.tally.filter_first_hits += 1;
                }
                if self.op.entry_only {
                    return self.stop(t, Stop::Entry(entry.addr, node, plen));
                }
                self.phase(t, Phase::Traversal);
                self.op.entry_len = plen;
                let y =
                    self.descent(|descend, host| descend.enter(host, node, entry.addr, None))?;
                self.on_yield(t, y)
            }
            St::Descending => {
                let bytes = completion.map(into_one_read);
                let (now, torn) = (t.clock_ns(), self.op.descend.io.checksum_retries);
                let y = self.descent(|descend, host| descend.resume(t, host, bytes))?;
                if self.op.descend.io.checksum_retries > torn {
                    // A torn leaf was backed off from and is read again.
                    self.lane.retry(&mut *self.op, now);
                }
                self.on_yield(t, y)
            }
        }
    }
}

impl SphinxClient {
    /// Finds the deepest inner node whose full prefix prefixes `key` and
    /// what lies below it (§III-B, §IV "Search").
    pub(crate) fn locate(&mut self, key: &[u8]) -> Result<Descent, SphinxError> {
        let op = LocateOp::new(key, key.len(), false, &self.config, self.worker.retry);
        match self.locate_alone(op)? {
            Stop::Found(d) => Ok(d),
            _ => unreachable!("a full lookup ends in a descent"),
        }
    }

    /// Finds a validated inner node for the deepest available prefix of
    /// `key` no longer than `max_len`: its address, the node, and its
    /// prefix length.
    pub(crate) fn locate_entry(
        &mut self,
        key: &[u8],
        max_len: usize,
    ) -> Result<(RemotePtr, InnerNode, usize), SphinxError> {
        let op = LocateOp::new(key, max_len, true, &self.config, self.worker.retry);
        match self.locate_alone(op)? {
            Stop::Entry(ptr, node, len) => Ok((ptr, node, len)),
            _ => unreachable!("an entry-only lookup ends at the entry node"),
        }
    }

    /// Drives one lookup to its end as part of the blocking op in flight.
    fn locate_alone(&mut self, mut op: LocateOp<'_>) -> Result<Stop, SphinxError> {
        let run = self.drive(std::slice::from_mut(&mut op), 1, true);
        self.fold(&op);
        run?;
        match op.result.expect("drive ends every op on a terminal stop") {
            Stop::Failed(e) => Err(e),
            stop => Ok(stop),
        }
    }

    /// Runs `ops` through [`node_engine::drive`], `depth` at a time, until
    /// each has reached a terminal [`Stop`], serving [`Stop::Refresh`] and
    /// [`Stop::Sample`] between runs. `alone` drives a single op on behalf
    /// of the blocking op in flight.
    fn drive(
        &mut self,
        ops: &mut [LocateOp<'_>],
        depth: usize,
        alone: bool,
    ) -> Result<(), SphinxError> {
        let round = |c: &mut SphinxClient, ops: &mut [LocateOp<'_>]| {
            let SphinxClient {
                worker,
                tables,
                filter,
                ..
            } = c;
            let wrap = |op, lane| Run {
                op,
                tables,
                filter,
                lane,
            };
            Ok(worker.round(ops, depth, alone, wrap)?)
        };
        drive(self, ops, alone, round, |c, op, stop| {
            match stop {
                Stop::Refresh(mn) => c.tables[mn].refresh_stale(&mut c.worker.dm)?,
                Stop::Sample => {
                    let sample = any_leaf(c, op.descend.diverged_child())?;
                    op.descend.sampled(sample);
                }
                end => op.result = Some(end),
            }
            Ok(())
        })
    }

    fn fold(&mut self, op: &LocateOp<'_>) {
        self.note_leaf_io(op.descend.io);
        let t = &op.tally;
        let obs = &mut self.worker.obs;
        for _ in 0..t.retries {
            obs.retry();
        }
        let s = &mut self.stats;
        s.false_positive_retries += u64::from(t.fp_retries);
        s.invalid_node_retries += u64::from(t.invalid_retries);
        s.entry_misses += u64::from(t.entry_misses);
        s.filter_first_hits += u64::from(t.filter_first_hits);
        s.filter_refreshes += u64::from(t.filter_refreshes);
        obs.add("sfc.probe_hit", t.probe_hits.into());
        obs.add("sfc.probe_miss", t.probe_misses.into());
        obs.add("inht.hit", t.inht_hits.into());
        obs.add("inht.fp_collision", t.fp_collisions.into());
    }

    /// Looks up many keys keeping up to `depth` lookups in flight.
    ///
    /// Each key is an independent lookup machine — the same one
    /// [`SphinxClient::get`] drives alone: keys at different depths, with
    /// different filter outcomes, or needing leaf-read retries all keep
    /// the window full, and every scheduling round the whole window's
    /// reads go out in one fused doorbell
    /// ([`dm_sim::DmClient::flush_submitted`]). With a warm filter cache
    /// `depth` lookups share three round-trip times.
    ///
    /// Results are positionally aligned with `keys`. Depth 1 issues the
    /// network charges of a loop of `get`s, one batch per flush.
    ///
    /// # Errors
    ///
    /// Same classes as [`SphinxClient::get`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use dm_sim::{ClusterConfig, DmCluster};
    /// # use sphinx::{SphinxConfig, SphinxIndex};
    /// # fn main() -> Result<(), sphinx::SphinxError> {
    /// # let cluster = DmCluster::new(ClusterConfig::default());
    /// # let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
    /// # let mut client = index.client(0)?;
    /// client.insert(b"k1", b"v1")?;
    /// client.insert(b"k2", b"v2")?;
    /// let hits = client.get_many_pipelined(&[b"k1".as_slice(), b"nope", b"k2"], 8)?;
    /// assert_eq!(hits[0].as_deref(), Some(&b"v1"[..]));
    /// assert_eq!(hits[1], None);
    /// assert_eq!(hits[2].as_deref(), Some(&b"v2"[..]));
    /// # Ok(())
    /// # }
    /// ```
    pub fn get_many_pipelined(
        &mut self,
        keys: &[&[u8]],
        depth: usize,
    ) -> Result<Vec<Option<Vec<u8>>>, SphinxError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // One MultiGet span covers the pipelined run (phases interleave
        // across ops, so per-phase attribution comes from
        // `PipelineStats::by_tag` instead of the span recorder).
        self.worker.begin(OpKind::MultiGet);
        // Lease one causal-trace context per key (all `None` when tracing
        // is off): each machine records its own admission, submissions,
        // phases, and retries alongside the enclosing MultiGet span.
        let mut ops: Vec<LocateOp<'_>> = keys
            .iter()
            .map(|key| {
                let mut op = LocateOp::new(key, key.len(), false, &self.config, self.worker.retry);
                op.trace = self.worker.lease(OpKind::Get);
                op
            })
            .collect();
        let run = self.drive(&mut ops, depth, false);
        // An aborted run leaves ops without an end; their traces are
        // dropped.
        if run.is_ok() {
            let traces = ops.iter_mut().filter_map(|op| op.trace.take());
            self.worker.finish_traces(traces);
        }
        for op in &ops {
            self.stats.gets += 1;
            self.fold(op);
        }
        self.worker.unpin_keys(ops.len());
        self.op_exit();
        run?;

        ops.into_iter()
            .map(|op| match op.result {
                Some(Stop::Found(d)) => Ok(d.into_value(op.descend.key)),
                Some(Stop::Failed(e)) => Err(e),
                _ => unreachable!("drive ends a full lookup in a descent or a failure"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SphinxIndex;
    use dm_sim::{ClusterConfig, DmCluster};
    use race_hash::TableConfig;

    fn setup(n: u64) -> (SphinxIndex, SphinxClient) {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for i in 0..n {
            client
                .insert(format!("pget-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        (index, client)
    }

    fn pget_keys(ids: impl Iterator<Item = u64>) -> Vec<Vec<u8>> {
        ids.map(|i| format!("pget-{i:05}").into_bytes()).collect()
    }

    fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(|k| k.as_slice()).collect()
    }

    /// `get_many_pipelined` turns its machines into its results in the
    /// machines' own buffer (the standard library's in-place `collect`):
    /// free while a machine's size is a multiple of a result's, one
    /// `realloc` of the whole buffer per call otherwise — which
    /// `bench.allocs_per_op` of `ycsb_c_pipe` counts.
    #[test]
    fn machines_become_results_in_place() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<LocateOp<'static>>() % size_of::<Option<Vec<u8>>>(),
            0,
            "LocateOp is {} bytes",
            size_of::<LocateOp<'static>>()
        );
    }

    #[test]
    fn pipelined_matches_get_at_all_depths() {
        let (_idx, mut client) = setup(400);
        let keys = pget_keys((0..500u64).step_by(3));
        let refs = refs(&keys);
        let expected: Vec<_> = refs.iter().map(|k| client.get(k).unwrap()).collect();
        for depth in [1, 4, 8] {
            let got = client.get_many_pipelined(&refs, depth).unwrap();
            assert_eq!(got, expected, "depth {depth}");
        }
    }

    #[test]
    fn empty_single_and_mixed_batches() {
        let (_idx, mut client) = setup(50);
        assert!(client.get_many_pipelined(&[], 8).unwrap().is_empty());
        let one = client
            .get_many_pipelined(&[b"pget-00003".as_slice()], 8)
            .unwrap();
        assert_eq!(one, vec![Some(3u64.to_le_bytes().to_vec())]);
        let mixed: [&[u8]; 4] = [b"pget-00001", b"nope", b"pget-00049", b"pget-00050"];
        let res = client.get_many_pipelined(&mixed, 8).unwrap();
        assert!(res[0].is_some());
        assert_eq!(res[1], None);
        assert!(res[2].is_some());
        assert_eq!(res[3], None, "key 50 was never inserted");
    }

    #[test]
    fn depth_changes_doorbells_not_round_trips() {
        let (_idx, mut client) = setup(300);
        let keys = pget_keys(0..200u64);
        let refs = refs(&keys);
        // Warm the filter so both runs take the identical fast path.
        for k in &refs {
            client.get(k).unwrap();
        }
        assert_eq!(
            client.worker.pipeline.ops, 0,
            "a get driven alone is not a pipeline run"
        );

        let s0 = client.net_stats();
        let t0 = client.clock_ns();
        client.get_many_pipelined(&refs, 1).unwrap();
        let d1 = client.net_stats().since(&s0);
        let t1 = client.clock_ns() - t0;
        assert_eq!(
            d1.doorbells, d1.round_trips,
            "depth 1 never fuses: every logical round trip is a doorbell"
        );

        let s0 = client.net_stats();
        let t0 = client.clock_ns();
        client.get_many_pipelined(&refs, 8).unwrap();
        let d8 = client.net_stats().since(&s0);
        let t8 = client.clock_ns() - t0;

        assert_eq!(
            d8.round_trips, d1.round_trips,
            "per-op logical round trips are depth-independent"
        );
        assert!(
            d8.doorbells < d1.doorbells,
            "depth 8 must fuse: {} doorbells vs {}",
            d8.doorbells,
            d1.doorbells
        );
        assert!(
            t8 * 2 < t1,
            "depth 8 ({t8} ns) should be far faster than depth 1 ({t1} ns)"
        );
        let p = &client.worker.pipeline;
        assert!(p.fused_batches > 0);
        assert_eq!(p.ops, 400, "both runs drove every key through a machine");
    }

    /// The whole window shares each round trip: on one MN, 100 warm
    /// lookups in flight cost the three doorbells one lookup costs.
    #[test]
    fn a_warm_window_costs_three_doorbells() {
        let cluster = DmCluster::new(ClusterConfig {
            num_mns: 1,
            ..ClusterConfig::default()
        });
        let config = SphinxConfig {
            // No amortized reclamation scan inside the measured window.
            reclaim: reclaim::ReclaimConfig {
                scan_interval: u64::MAX,
                ..Default::default()
            },
            ..SphinxConfig::small()
        };
        let index = SphinxIndex::create(&cluster, config).unwrap();
        let mut client = index.client(0).unwrap();
        let keys = pget_keys(0..100u64);
        let refs = refs(&keys);
        for (i, k) in refs.iter().enumerate() {
            client.insert(k, &(i as u64).to_le_bytes()).unwrap();
        }
        for k in &refs {
            client.get(k).unwrap();
        }
        let before = client.net_stats();
        let res = client.get_many_pipelined(&refs, 100).unwrap();
        let net = client.net_stats().since(&before);
        assert!(res.iter().all(Option::is_some));
        assert_eq!(net.doorbells, 3, "bucket pairs, inner nodes, leaves");
        assert_eq!(net.round_trips, 300);
    }

    #[test]
    fn pipeline_counters_reach_telemetry() {
        let (_idx, mut client) = setup(100);
        let keys = pget_keys(0..100u64);
        client.get_many_pipelined(&refs(&keys), 8).unwrap();
        let reg = client.telemetry();
        assert!(reg.counter("pipeline.ops") >= 100);
        assert!(reg.counter("pipeline.fused_batches") > 0);
        assert!(reg.counter("pipeline.flushes") > 0);
        assert!(reg.counter("pipeline.depth_le_8") > 0);
        // Per-phase attribution: the INHT, traversal and leaf tags all saw
        // round trips.
        assert!(reg.counter("pipeline.rts.InhtLookup") > 0);
        assert!(reg.counter("pipeline.rts.LeafRead") > 0);
    }

    #[test]
    fn lookups_are_counted_once_per_key_at_any_depth() {
        let (_idx, mut client) = setup(64);
        let keys = pget_keys(0..80u64);
        let refs = refs(&keys);
        let searches =
            |c: &SphinxClient| -> u64 { c.tables.iter().map(|t| t.counters().searches).sum() };
        for k in &refs {
            client.get(k).unwrap(); // warm: one bucket pair per lookup from here on
        }
        let (gets0, searches0) = (client.op_stats().gets, searches(&client));
        for k in &refs {
            client.get(k).unwrap();
        }
        let alone = searches(&client) - searches0;
        client.get_many_pipelined(&refs, 8).unwrap();
        assert_eq!(client.op_stats().gets - gets0, 160);
        assert_eq!(
            searches(&client) - searches0 - alone,
            alone,
            "a pipelined lookup counts its bucket-pair reads like a lone one"
        );
        assert!(alone >= 80);
    }

    /// `CacheMode::InhtOnly` runs the same machine from a different start
    /// state (all prefixes' bucket pairs in one batch).
    #[test]
    fn inht_only_results_equal_filter_cache_results() {
        let build = |mode| {
            let cluster = DmCluster::new(ClusterConfig::default());
            let config = SphinxConfig {
                mode,
                ..SphinxConfig::small()
            };
            let index = SphinxIndex::create(&cluster, config).unwrap();
            let mut client = index.client(0).unwrap();
            for i in 0..300u64 {
                client
                    .insert(format!("io-{i:03}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            (index, client)
        };
        let (_fi, mut filter) = build(CacheMode::FilterCache);
        let (_ii, mut inht) = build(CacheMode::InhtOnly);
        let keys: Vec<Vec<u8>> = (0..360u64)
            .map(|i| format!("io-{i:03}").into_bytes())
            .chain([b"io-".to_vec(), b"i".to_vec(), b"zz".to_vec()])
            .collect();
        let refs = refs(&keys);
        let expected: Vec<_> = refs.iter().map(|k| filter.get(k).unwrap()).collect();
        assert_eq!(expected.iter().flatten().count(), 300);
        for depth in [1, 8] {
            assert_eq!(
                filter.get_many_pipelined(&refs, depth).unwrap(),
                expected,
                "FilterCache depth {depth}"
            );
            assert_eq!(
                inht.get_many_pipelined(&refs, depth).unwrap(),
                expected,
                "InhtOnly depth {depth}"
            );
        }
        assert_eq!(inht.worker.pipeline.ops, 2 * refs.len() as u64);
    }

    /// Key `[group_hi, group_lo, member]`: each group of two is one inner
    /// node, i.e. one INHT entry.
    fn grouped_key(i: u64) -> Vec<u8> {
        vec![(i >> 9) as u8, (i >> 1) as u8, (i & 1) as u8]
    }

    /// Client A loads 200 keys into a one-segment INHT, then client B's
    /// inserts split that segment: A's directory cache is now stale for
    /// every entry that moved.
    fn stale_directory() -> (SphinxIndex, SphinxClient, Vec<Vec<u8>>) {
        let cluster = DmCluster::new(ClusterConfig {
            num_mns: 1,
            ..ClusterConfig::default()
        });
        let config = SphinxConfig {
            inht: TableConfig {
                initial_depth: 0,
                max_depth: 12,
            },
            ..SphinxConfig::small()
        };
        let index = SphinxIndex::create(&cluster, config).unwrap();
        let mut a = index.client(0).unwrap();
        let keys: Vec<Vec<u8>> = (0..200).map(grouped_key).collect();
        for k in &keys {
            a.insert(k, k).unwrap();
        }
        assert_eq!(a.tables[0].counters().splits, 0);
        let mut b = index.client(1).unwrap();
        let mut i = 200;
        while b.tables[0].counters().splits == 0 {
            let k = grouped_key(i);
            b.insert(&k, &k).unwrap();
            i += 1;
        }
        assert_eq!(a.tables[0].counters().stale_retries, 0);
        (index, a, keys)
    }

    #[test]
    fn stale_directory_is_refreshed_and_the_lookup_resumed() {
        for depth in [1, 8] {
            let (_idx, mut a, keys) = stale_directory();
            let got = a.get_many_pipelined(&refs(&keys), depth).unwrap();
            for (k, g) in keys.iter().zip(got) {
                assert_eq!(g.as_ref(), Some(k), "depth {depth}");
            }
            let c = a.tables[0].counters();
            assert!(
                c.stale_retries > 0,
                "depth {depth}: no lookup met the split"
            );
            assert_eq!(
                c.refreshes,
                1 + c.stale_retries,
                "open + one per stale read"
            );
        }
        // … and through `insert`, which consumes the resumed machine's
        // descent: overwrite until one lookup crosses the split.
        let (idx, mut a, keys) = stale_directory();
        for k in &keys {
            a.insert(k, b"new").unwrap();
            if a.tables[0].counters().stale_retries > 0 {
                break;
            }
        }
        assert!(a.tables[0].counters().stale_retries > 0);
        for k in &keys {
            let got = a.get(k).unwrap().expect("present");
            assert!(got == b"new" || got == *k);
        }
        assert!(idx.verify().unwrap().is_clean());
    }

    /// Email-shaped keys share long compressed paths; a lookup that leaves
    /// one in the middle stops for the leaf sample.
    #[test]
    fn divergent_compressed_path_is_sampled_by_the_driver() {
        let (idx, mut client) = setup(0);
        let present: Vec<Vec<u8>> = (0..40u64)
            .map(|i| {
                format!(
                    "user{:02}@mail.example.{}",
                    i / 2,
                    ["com", "org"][i as usize % 2]
                )
            })
            .map(String::into_bytes)
            .collect();
        for k in &present {
            client.insert(k, k).unwrap();
        }
        // Leaving the compressed path "userNN@mail.example." of an inner
        // node in the middle, or "user" after two bytes.
        let absent: Vec<Vec<u8>> = (0..20u64)
            .map(|i| format!("user{:02}@mail.exchange.org", i).into_bytes())
            .chain([b"usurper@mail.example.com".to_vec()])
            .collect();
        let d = client.locate(&absent[0]).unwrap();
        assert!(
            matches!(d.outcome, Outcome::Divergent { .. }),
            "{:?}",
            d.outcome
        );
        let all: Vec<Vec<u8>> = present.iter().chain(&absent).cloned().collect();
        for depth in [1, 8] {
            let got = client.get_many_pipelined(&refs(&all), depth).unwrap();
            for (k, g) in all.iter().zip(got) {
                let want = present.contains(k).then(|| k.clone());
                assert_eq!(g, want, "depth {depth} {}", String::from_utf8_lossy(k));
            }
        }
        // An insert consumes the divergent descent: it splits the path.
        client.insert(&absent[0], b"split").unwrap();
        assert_eq!(
            client.get(&absent[0]).unwrap().as_deref(),
            Some(&b"split"[..])
        );
        for k in &present {
            assert_eq!(client.get(k).unwrap().as_ref(), Some(k));
        }
        assert!(idx.verify().unwrap().is_clean());
    }

    /// Reports the inner node at `target` as `Invalid` — caught mid
    /// type-switch — for its next `left` reads (remote memory is intact).
    struct InvalidFor {
        target: RemotePtr,
        left: std::sync::atomic::AtomicU64,
    }

    impl dm_sim::FaultHook for InvalidFor {
        fn corrupt_read(&self, ptr: RemotePtr, data: &mut [u8]) {
            use std::sync::atomic::Ordering::SeqCst;
            if ptr == self.target
                && self
                    .left
                    .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                data[0] = NodeStatus::Invalid as u8;
            }
        }
    }

    /// 400 keys loaded through CN 0; CNs 1.. have cold filters, so their
    /// first lookup of a key walks root → … → deepest node.
    fn with_cold_cns() -> (DmCluster, SphinxIndex, SphinxClient) {
        let cluster = DmCluster::new(ClusterConfig {
            num_cns: 8,
            ..ClusterConfig::default()
        });
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut loader = index.client(0).unwrap();
        for i in 0..400u64 {
            loader
                .insert(format!("pget-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        (cluster, index, loader)
    }

    fn invalid_for(cluster: &DmCluster, target: RemotePtr, reads: u64) {
        cluster.set_fault_hook(Some(std::sync::Arc::new(InvalidFor {
            target,
            left: reads.into(),
        })));
    }

    #[test]
    fn a_child_caught_mid_type_switch_restarts_the_lookup() {
        let (cluster, index, mut loader) = with_cold_cns();
        let keys = pget_keys(120..128);
        let refs = refs(&keys);
        let deepest = loader.locate(refs[3]).unwrap().node_ptr;
        let expected: Vec<_> = refs.iter().map(|k| loader.get(k).unwrap()).collect();
        for (cn, depth) in [(1, 1), (2, 8)] {
            let mut cold = index.client(cn).unwrap();
            invalid_for(&cluster, deepest, 1);
            let t0 = cold.clock_ns();
            assert_eq!(cold.get_many_pipelined(&refs, depth).unwrap(), expected);
            assert_eq!(cold.op_stats().invalid_node_retries, 1, "depth {depth}");
            assert!(cold.clock_ns() - t0 >= cold.worker.retry.backoff_ns);
        }
        // The same restart inside an insert's lookup.
        let mut cold = index.client(3).unwrap();
        invalid_for(&cluster, deepest, 1);
        cold.insert(refs[3], b"rewritten").unwrap();
        assert_eq!(cold.op_stats().invalid_node_retries, 1);
        assert_eq!(
            loader.get(refs[3]).unwrap().as_deref(),
            Some(&b"rewritten"[..])
        );
        assert_eq!(cold.telemetry().op(OpKind::Insert).retries, 1);
    }

    #[test]
    fn the_root_missing_window_is_retried_on_a_budget() {
        let (cluster, index, mut loader) = with_cold_cns();
        let (root, _, _) = loader.locate_entry(&[], 0).unwrap();
        let keys = pget_keys(200..208);
        let refs = refs(&keys);
        let expected: Vec<_> = refs.iter().map(|k| loader.get(k).unwrap()).collect();
        for (cn, depth) in [(1, 1), (2, 8)] {
            let mut cold = index.client(cn).unwrap();
            invalid_for(&cluster, root, 2);
            assert_eq!(cold.get_many_pipelined(&refs, depth).unwrap(), expected);
            assert_eq!(cold.op_stats().entry_misses, 2, "depth {depth}");
            assert_eq!(cold.telemetry().op(OpKind::MultiGet).retries, 2);
        }
        let mut cold = index.client(3).unwrap();
        invalid_for(&cluster, root, 2);
        cold.insert(refs[0], b"rewritten").unwrap();
        assert_eq!(cold.op_stats().entry_misses, 2);
        // A gap that outlasts the budget is corruption, reported as such.
        let mut cold = index.client(4).unwrap();
        invalid_for(&cluster, root, u64::MAX);
        assert_eq!(
            cold.get(refs[1]),
            Err(SphinxError::Corrupt {
                what: "root hash entry missing"
            })
        );
        assert_eq!(
            cold.op_stats().entry_misses,
            1 + cold.worker.retry.io_retries as u64
        );
    }
}
