//! The Sphinx lookup (§IV "Search") as one `async fn`.
//!
//! [`locate`] is the only code that finds a key's place in the tree:
//! filter probe → INHT bucket-pair read → candidate node validation (the
//! entry search, Sphinx's own: [`entry`]) → descent and validated leaf
//! read ([`node_engine::follow`], the descent every ART system awaits) →
//! false-positive check. It awaits every round trip over its
//! [`node_engine::Io`], so one body serves one lookup or many in flight:
//! [`SphinxClient::locate`] runs it for the blocking op in flight under
//! [`node_engine::block_on`] (charge for charge what blocking execution
//! costs, also under a [`dm_sim::Schedule`]), and
//! [`SphinxClient::get_many_pipelined`] runs one per key at depth N under
//! [`node_engine::run_pipelined`], where every scheduling round all
//! in-flight reads go out in one fused doorbell and share a single RTT.
//!
//! Transient states restart inside the body: a node caught mid
//! type-switch backs off and retakes the ladder from the probe, the
//! root-entry-missing window retries the ladder on a bounded budget, a
//! false positive restarts with a shorter prefix bound. Two steps need the
//! whole client and are drained steps ([`node_engine::Io::drained`]),
//! served after every peer of the run has stopped, in key order (the
//! drained-serve rule): a stale
//! INHT directory's refresh and the leaf sample below a child whose
//! compressed path diverges from the key (inside the descent; only lookups
//! of absent keys reach it). docs/PROTOCOLS.md lists the bodies' await
//! points.

use art_core::hash::{fp12, prefix_hash42, prefix_hash64};
use art_core::key::{common_prefix_len, MAX_KEY_LEN};
use art_core::layout::{HashEntry, InnerNode, NodeStatus};
use dm_sim::{DoorbellBatch, FirstInline, RemotePtr, Verb};
use node_engine::{block_on, follow, run_pipelined, ArtReader, DescendHost, Io, Lend, TraceCell};
use obs::{OpKind, Phase};
use race_hash::{RaceError, RaceTable};

use crate::client::{Descent, Outcome, SphinxClient};
use crate::config::CacheMode;
use crate::error::SphinxError;

/// Submission tag of the INHT reads (bucket pairs, candidate nodes): the
/// phase their round trips are attributed to, by the span for a lookup
/// driven alone and by [`node_engine::PipelineStats::by_tag`] in a
/// pipelined run.
const TAG_INHT: u32 = Phase::InhtLookup as u32;

/// A lookup's own end: its answer, or its failure — which ends this
/// lookup only, where the `Err` around it aborts the whole run.
type Answer<T> = Result<T, SphinxError>;

type SphinxIo<'l, 'c> = Io<'l, 'c, SphinxClient>;

/// One bucket pair of the current INHT read.
struct Level {
    plen: usize,
    hash: u64,
    base: RemotePtr,
}

/// The one [`DescendHost`] hook Sphinx supplies: a child that matches the
/// key teaches the filter its prefix (the "freshness" update of §IV
/// Search).
struct Freshness;

impl DescendHost<SphinxClient> for Freshness {
    fn child_matched(&mut self, c: &mut SphinxClient, prefix: &[u8]) {
        if c.config.mode == CacheMode::FilterCache && c.filter.refresh(prefix) {
            c.stats.filter_refreshes += 1;
        }
    }
}

/// One failed attempt of the lookup: on its trace, and on the span's
/// retry count.
fn retried(io: &mut SphinxIo<'_, '_>) {
    let now = io.now();
    io.retry_at(now);
    io.with(|c| c.worker.obs.retry());
}

/// The entry search of §III-B: a validated inner node for the deepest
/// available prefix of `key` no longer than `max_len` — its address, the
/// node, and its prefix length. The filter names the deepest prefix it
/// claims (CN-local) and one bucket pair is read; without a filter every
/// prefix's pair is read in one batch (§III-A). `restarts` is what the
/// lookup has spent of its `op_retries` budget; a directory refresh
/// spends one.
async fn entry(
    io: &mut SphinxIo<'_, '_>,
    key: &[u8],
    max_len: usize,
    restarts: &mut usize,
) -> Result<Answer<(RemotePtr, InnerNode, usize)>, SphinxError> {
    let (mode, retry) = io.with(|c| (c.config.mode, c.worker.retry));
    let mut root_budget = retry.io_retries;
    let mut probe_len = max_len;
    // Whether the next INHT hit is a first-probe filter hit.
    let mut first = mode == CacheMode::FilterCache;
    loop {
        if mode == CacheMode::FilterCache {
            io.phase(Phase::SfcProbe);
            probe_len = io.with(|c| {
                let cand = c.filter.deepest_hit(key, probe_len);
                if probe_len > 0 {
                    let counter = if cand > 0 {
                        "sfc.probe_hit"
                    } else {
                        "sfc.probe_miss"
                    };
                    c.worker.obs.incr(counter);
                }
                cand
            });
        }
        let found = 'pairs: loop {
            io.phase(Phase::InhtLookup);
            let (lo, hi) = match mode {
                CacheMode::FilterCache => (probe_len, probe_len),
                CacheMode::InhtOnly => (0, max_len),
            };
            let read = io.with(|c| -> Result<_, RaceError> {
                let mut batch = DoorbellBatch::with_capacity(hi - lo + 1);
                let mut levels = FirstInline::with_capacity(hi - lo + 1);
                for plen in lo..=hi {
                    let hash = prefix_hash64(&key[..plen]);
                    let base = c.tables[c.worker.dm.place(hash) as usize].bucket_pair_ptr(hash)?;
                    batch.push(Verb::Read {
                        ptr: base,
                        len: RaceTable::pair_len(),
                    });
                    levels.push(Level { plen, hash, base });
                }
                Ok((batch, levels))
            });
            let (batch, mut levels) = match read {
                Ok(read) => read,
                Err(e) => {
                    io.end();
                    return Ok(Err(e.into()));
                }
            };
            let mut pairs = io.submit(batch, TAG_INHT).await?;
            // The deepest pair first.
            while let (Some(level), Some(pair)) = (levels.pop(), pairs.pop()) {
                let pair = pair.into_read();
                let Some(entries) = RaceTable::parse_pair(level.base, &pair, level.hash) else {
                    // The table's directory cache is stale: refresh it and
                    // read the same pairs again.
                    let mn = io.with(|c| c.worker.dm.place(level.hash) as usize);
                    io.drained(|io| io.with(|c| c.tables[mn].refresh_stale(&mut c.worker.dm)))
                        .await?;
                    *restarts += 1;
                    if *restarts >= retry.op_retries {
                        io.end();
                        return Ok(Err(SphinxError::RetriesExhausted { op: "locate" }));
                    }
                    continue 'pairs;
                };
                let fp = fp12(&key[..level.plen]);
                for he in entries.iter().filter_map(|e| HashEntry::decode(e.word)) {
                    if he.fp != fp {
                        continue;
                    }
                    let bytes = io
                        .read(he.addr, InnerNode::byte_size(he.kind), TAG_INHT)
                        .await?;
                    let node = InnerNode::decode(&bytes).map_err(node_engine::EngineError::from)?;
                    if node.header.status == NodeStatus::Invalid
                        || node.header.kind != he.kind
                        || node.header.prefix_len as usize != level.plen
                        || node.header.prefix_hash42 != prefix_hash42(&key[..level.plen])
                    {
                        // The 12-bit fingerprint matched but the node did
                        // not: a genuine fp collision or a stale/retired
                        // entry.
                        io.with(|c| c.worker.obs.incr("inht.fp_collision"));
                        continue;
                    }
                    break 'pairs Some((he.addr, node, level.plen));
                }
            }
            break None;
        };
        if let Some(found) = found {
            io.with(|c| {
                c.worker.obs.incr("inht.hit");
                if first {
                    c.stats.filter_first_hits += 1;
                }
            });
            return Ok(Ok(found));
        }

        // No bucket pair of this read held a valid entry.
        io.with(|c| c.stats.entry_misses += 1);
        if mode == CacheMode::FilterCache {
            first = false;
            if probe_len > 0 {
                // The filter claimed `key[..probe_len]` exists but the
                // INHT disproved it: an observed false positive. Re-probe
                // one level shorter.
                io.with(|c| c.filter.record_false_positive());
                probe_len -= 1;
                continue;
            }
        }
        // Even the root hash entry failed validation. Under contention
        // that is a transient gap, not corruption: a concurrent type
        // switch of the root invalidates the old node before the repaired
        // entry is published, and a reader landing in that window sees no
        // valid entry at any prefix length. Back off and retake the whole
        // ladder; only a persistent gap is corruption.
        if root_budget == 0 {
            io.end();
            let what = "root hash entry missing";
            return Ok(Err(SphinxError::Corrupt { what }));
        }
        root_budget -= 1;
        retried(io);
        io.phase(Phase::Retry);
        io.with(|c| c.worker.dm.backoff(&retry));
        probe_len = max_len;
    }
}

/// Finds the deepest inner node whose full prefix prefixes `key` and what
/// lies below it (§III-B, §IV "Search"): the entry search, then the
/// descent, then the false-positive check on the key it found.
async fn locate(io: &mut SphinxIo<'_, '_>, key: &[u8]) -> Result<Answer<Descent>, SphinxError> {
    if key.len() > MAX_KEY_LEN {
        io.end();
        return Ok(Err(SphinxError::KeyTooLong { len: key.len() }));
    }
    let retry = io.with(|c| c.worker.retry);
    // Upper bound on the probed prefix length (shrinks on fp restarts).
    let mut max_len = key.len();
    let mut restarts = 0;
    loop {
        let (entry_ptr, node, entry_len) = match entry(io, key, max_len, &mut restarts).await? {
            Ok(entry) => entry,
            Err(e) => return Ok(Err(e)),
        };
        io.phase(Phase::Traversal);
        match follow(io, &mut Freshness, key, node, entry_ptr, None).await? {
            None => {
                // A node caught mid type-switch: back off and retake the
                // lookup from the probe.
                io.with(|c| c.stats.invalid_node_retries += 1);
                retried(io);
                io.phase(Phase::Retry);
                io.with(|c| c.worker.dm.backoff(&retry));
            }
            Some(d) => {
                // The false-positive check of §III-B: the descent from an
                // entry node of prefix length `entry_len` reached a key of
                // its subtree (`Empty`, `NoValueSlot` and `EmptyChild`
                // carry none). If they share less than `entry_len` bytes
                // with the search key, both the fp₁₂ and the 42-bit prefix
                // hash collided — restart with a shorter prefix bound.
                let found = match &d.outcome {
                    Outcome::Leaf { leaf, .. } => Some(&leaf.key),
                    Outcome::Divergent { sample, .. } => Some(&sample.key),
                    _ => None,
                };
                if found.is_none_or(|found| common_prefix_len(key, found) >= entry_len) {
                    io.end();
                    return Ok(Ok(d));
                }
                io.with(|c| c.stats.false_positive_retries += 1);
                retried(io);
                max_len = entry_len.saturating_sub(1);
            }
        }
        restarts += 1;
        if restarts >= retry.op_retries {
            io.end();
            return Ok(Err(SphinxError::RetriesExhausted { op: "locate" }));
        }
    }
}

impl SphinxClient {
    /// [`locate`] for the blocking op in flight.
    pub(crate) fn locate(&mut self, key: &[u8]) -> Result<Descent, SphinxError> {
        let lend = Lend::new(self, SphinxClient::worker);
        let mut io = lend.alone();
        block_on(&lend, locate(&mut io, key))?
    }

    /// [`entry`] for the blocking op in flight: a validated inner node for
    /// the deepest available prefix of `key` no longer than `max_len`.
    pub(crate) fn locate_entry(
        &mut self,
        key: &[u8],
        max_len: usize,
    ) -> Result<(RemotePtr, InnerNode, usize), SphinxError> {
        if key.len() > MAX_KEY_LEN {
            return Err(SphinxError::KeyTooLong { len: key.len() });
        }
        let lend = Lend::new(self, SphinxClient::worker);
        let mut io = lend.alone();
        block_on(&lend, entry(&mut io, key, max_len, &mut 0))?
    }

    /// Looks up many keys keeping up to `depth` lookups in flight.
    ///
    /// Each key is an independent lookup — the `async fn` body
    /// [`SphinxClient::get`] runs alone: keys at different depths, with
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
        // across lookups, so per-phase attribution comes from
        // `PipelineStats::by_tag` instead of the span recorder).
        self.worker.begin(OpKind::MultiGet);
        // Lease one causal-trace context per key (all `None` when tracing
        // is off): each lookup records its own admission, submissions,
        // phases, and retries alongside the enclosing MultiGet span.
        let traces: Vec<TraceCell> = keys
            .iter()
            .map(|_| TraceCell::new(self.worker.lease(OpKind::Get)))
            .collect();
        let lend = Lend::new(self, SphinxClient::worker);
        let lookups =
            keys.iter().zip(&traces).map(|(key, trace)| {
                let mut io = lend.lookup(Some(trace));
                async move {
                    Ok::<_, SphinxError>(locate(&mut io, key).await?.map(|d| d.into_value(key)))
                }
            });
        let run = run_pipelined(&lend, lookups, depth);
        // An aborted run leaves lookups without an end; their traces are
        // dropped.
        if run.is_ok() {
            let traces = traces.into_iter().filter_map(TraceCell::into_inner);
            self.worker.finish_traces(traces);
        }
        self.stats.gets += keys.len() as u64;
        self.worker.unpin_keys(keys.len());
        self.op_exit();
        run?.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SphinxConfig, SphinxIndex};
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
        assert_eq!(p.ops, 400, "both runs drove every key through a lookup");
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

    /// `CacheMode::InhtOnly` runs the same body reading all prefixes'
    /// bucket pairs in one batch.
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
        // … and through `insert`, which consumes the resumed lookup's
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
