//! Op pipelining: resumable operation state machines and the per-worker
//! pipeline driver.
//!
//! A DM index op is a chain of dependent round trips (probe → entry →
//! descend → leaf), so a blocking worker spends almost all its virtual
//! time parked on RTTs. The driver here keeps up to `depth` *independent*
//! operations in flight on one worker: each op is an explicit state
//! machine ([`OpState`]) that, instead of calling
//! [`DmClient::execute`], *returns* the [`DoorbellBatch`] it wants
//! posted ([`StepOutcome::Submit`]) and is resumed with the completion.
//! Every scheduling round the driver submits one batch per in-flight op
//! and issues a single [`DmClient::flush_submitted`] — same-MN verbs
//! from different ops fuse into one physical doorbell, and all in-flight
//! ops share one RTT per round instead of paying one each.
//!
//! ## Contract for `step`
//!
//! * `step(t, None)` is the initial call; `step(t, Some(results))` resumes
//!   with the completion of the batch the previous call submitted.
//! * `step` may use the client for CPU-side work (placement, backoff,
//!   allocation) but must **not** call `execute`/`wait` — a blocking call
//!   inside `step` would flush every peer's pending submission early.
//!   (Correctness would survive — completions are reaped by token — but
//!   the fusion and RTT-overlap benefits would silently vanish.)
//! * Cross-op fusion is legal because the driver only fuses batches from
//!   *different* operations: no intra-op ordering edge ever crosses a
//!   flush fence, as each op has at most one batch in flight.

use std::collections::BTreeMap;

use dm_sim::{Completion, DmClient, DoorbellBatch, FirstInline, SqeToken};

use crate::EngineError;

/// Default per-worker pipeline depth: enough in-flight ops to hide the
/// common three-round-trip chain several times over without blowing up
/// per-worker memory.
pub const DEFAULT_DEPTH: usize = 8;

/// What an [`OpState::step`] call decided.
pub enum StepOutcome<R> {
    /// Post this batch; resume the op when its completion arrives.
    Submit {
        /// The verbs to post (must be non-empty).
        batch: DoorbellBatch,
        /// Caller-defined attribution tag (e.g. an `obs` phase index)
        /// aggregated per tag in [`PipelineStats::by_tag`].
        tag: u32,
    },
    /// The op finished with this result.
    Done(R),
}

/// A resumable index operation: straight-line blocking code restructured
/// into an explicit state machine that yields at every round trip.
pub trait OpState {
    /// The op's result type.
    type Output;

    /// Advances the op: consumes the previous submission's completion
    /// (`None` on the first call) and either submits the next batch or
    /// finishes. See the module docs for the full contract.
    ///
    /// # Errors
    ///
    /// A fatal engine error aborts the whole pipeline run.
    fn step(
        &mut self,
        t: &mut DmClient,
        completion: Option<Completion>,
    ) -> Result<StepOutcome<Self::Output>, EngineError>;

    /// Called once when the driver admits the op into a pipeline slot (or
    /// would — ops that finish on their first step are still admitted),
    /// before the first [`step`](OpState::step). `now_ns` is the
    /// client's virtual clock. Default: no-op; tracing ops record a
    /// pipeline-admission event here.
    fn on_admitted(&mut self, now_ns: u64) {
        let _ = now_ns;
    }

    /// Called after each of this op's batches is placed on the submission
    /// queue, with the issued completion-queue token. Covers both the
    /// first submission and every resubmission (e.g. a retry after a torn
    /// read). Default: no-op; tracing ops record the token to establish
    /// doorbell-fusion membership.
    fn on_submitted(&mut self, token: SqeToken, now_ns: u64) {
        let _ = (token, now_ns);
    }
}

/// Per-tag network aggregates for one pipeline run (tags are the `tag`
/// values ops attach to their submissions — typically `obs` phase
/// indices, so callers can attribute round trips per phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagAgg {
    /// Batches submitted with this tag.
    pub batches: u64,
    /// Logical round trips (distinct MNs per batch).
    pub round_trips: u64,
    /// Verbs submitted.
    pub verbs: u64,
    /// Wire bytes moved.
    pub bytes: u64,
}

/// Number of `≤`-buckets in [`PipelineStats::depth_hist`]
/// (1, 2, 4, 8, 16, >16).
pub const DEPTH_BUCKETS: usize = 6;

/// Counters describing one or more [`run_pipelined`] invocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Ops driven to completion.
    pub ops: u64,
    /// Flush rounds issued.
    pub flushes: u64,
    /// Batches that shared their flush with at least one other batch
    /// (i.e. went out in a fused doorbell burst).
    pub fused_batches: u64,
    /// Flush rounds issued with fewer in-flight ops than the configured
    /// depth — the input stream ran dry or the pipeline was draining.
    pub stalls: u64,
    /// In-flight ops at each flush, bucketed ≤1, ≤2, ≤4, ≤8, ≤16, >16.
    pub depth_hist: [u64; DEPTH_BUCKETS],
    /// Network work grouped by the submitting op's tag.
    pub by_tag: BTreeMap<u32, TagAgg>,
}

impl PipelineStats {
    fn record_flush(&mut self, in_flight: usize, depth: usize) {
        self.flushes += 1;
        if in_flight > 1 {
            self.fused_batches += in_flight as u64;
        }
        if in_flight < depth {
            self.stalls += 1;
        }
        let bucket = match in_flight {
            0..=1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            _ => 5,
        };
        self.depth_hist[bucket] += 1;
    }

    fn record_submit(&mut self, tag: u32, batch: &DoorbellBatch) {
        let agg = self.by_tag.entry(tag).or_default();
        agg.batches += 1;
        agg.round_trips += batch.mn_groups() as u64;
        agg.verbs += batch.len() as u64;
        agg.bytes += batch.wire_bytes();
    }

    /// Fused submissions per million completed ops — the integer gauge
    /// form of the fusion rate, for samplers and machine-readable bench
    /// summaries (deterministic, no float rounding).
    pub fn fusion_ppm(&self) -> u64 {
        (self.fused_batches * 1_000_000)
            .checked_div(self.ops)
            .unwrap_or(0)
    }

    /// Adds these counters to a worker's telemetry registry: the
    /// `pipeline.*` scalars and the structural [`obs::PipelineAgg`], with
    /// per-tag work under the name of the [`obs::Phase`] whose index the
    /// submitting op used as its tag (other tags are not exported).
    pub fn export(&self, reg: &mut obs::Registry) {
        reg.add("pipeline.ops", self.ops);
        reg.add("pipeline.flushes", self.flushes);
        reg.add("pipeline.fused_batches", self.fused_batches);
        reg.add("pipeline.stalls", self.stalls);
        for (bucket, name) in self.depth_hist.iter().zip([
            "pipeline.depth_le_1",
            "pipeline.depth_le_2",
            "pipeline.depth_le_4",
            "pipeline.depth_le_8",
            "pipeline.depth_le_16",
            "pipeline.depth_gt_16",
        ]) {
            reg.add(name, *bucket);
        }
        reg.pipeline.ops += self.ops;
        reg.pipeline.flushes += self.flushes;
        reg.pipeline.fused_batches += self.fused_batches;
        reg.pipeline.stalls += self.stalls;
        for (mine, bucket) in reg.pipeline.depth_hist.iter_mut().zip(self.depth_hist) {
            *mine += bucket;
        }
        for (tag, agg) in &self.by_tag {
            if let Some(phase) = obs::Phase::ALL.get(*tag as usize) {
                reg.add(&format!("pipeline.rts.{}", phase.name()), agg.round_trips);
                let t = reg
                    .pipeline
                    .by_tag
                    .entry(phase.name().to_string())
                    .or_default();
                t.batches += agg.batches;
                t.round_trips += agg.round_trips;
                t.verbs += agg.verbs;
                t.bytes += agg.bytes;
            }
        }
    }

    /// Merges another run's counters into this accumulator.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.ops += other.ops;
        self.flushes += other.flushes;
        self.fused_batches += other.fused_batches;
        self.stalls += other.stalls;
        for (a, b) in self.depth_hist.iter_mut().zip(&other.depth_hist) {
            *a += b;
        }
        for (tag, agg) in &other.by_tag {
            let mine = self.by_tag.entry(*tag).or_default();
            mine.batches += agg.batches;
            mine.round_trips += agg.round_trips;
            mine.verbs += agg.verbs;
            mine.bytes += agg.bytes;
        }
    }
}

/// One pipeline slot: an admitted op and its outstanding submission.
struct Slot<S> {
    idx: usize,
    op: S,
    token: SqeToken,
}

/// Drives `ops` to completion keeping up to `depth` of them in flight,
/// returning their outputs in input order (iterate the result; a run of
/// one op allocates nothing, see [`FirstInline`]).
///
/// Each round: every in-flight op has exactly one submitted batch; one
/// [`DmClient::flush_submitted`] posts them all (fused into one burst
/// when unscheduled); each op is resumed with its completion and either
/// resubmits (joining the next round) or finishes, freeing its slot for
/// the next op off the iterator. `depth` is clamped to at least 1; depth
/// 1 degenerates to the blocking path, one batch per flush.
///
/// `stats` is `None` when the run is not a pipeline run to be counted: a
/// single blocking op driven through its state machine.
///
/// # Errors
///
/// The first batch error or fatal `step` error aborts the run (remaining
/// ops are abandoned; their effects so far are retained, as with blocking
/// execution).
pub fn run_pipelined<S, I>(
    t: &mut DmClient,
    ops: I,
    depth: usize,
    mut stats: Option<&mut PipelineStats>,
) -> Result<FirstInline<S::Output>, EngineError>
where
    S: OpState,
    I: IntoIterator<Item = S>,
{
    let depth = depth.max(1);
    let mut input = ops.into_iter();
    // One output per op: the input's own count where it knows it.
    let mut outputs: FirstInline<Option<S::Output>> =
        FirstInline::with_capacity(input.size_hint().0);
    let mut slots: FirstInline<Slot<S>> = FirstInline::with_capacity(depth);

    loop {
        // Admit ops into the free slots: run each one's first step; ops
        // that finish without touching the network never occupy a slot.
        while slots.len() < depth {
            let Some(mut op) = input.next() else { break };
            let idx = outputs.len();
            outputs.push(None);
            op.on_admitted(t.clock_ns());
            let first = op.step(t, None)?;
            let output = outputs.get_mut(idx).expect("just pushed");
            if let Some(token) = settle(t, &mut stats, output, &mut op, first) {
                slots.push(Slot { idx, op, token });
            }
        }
        if slots.is_empty() {
            break;
        }

        if let Some(stats) = stats.as_deref_mut() {
            stats.record_flush(slots.len(), depth);
        }
        t.flush_submitted();

        // Resume every op with its completion, in submission order; the
        // ones that resubmit keep their slot.
        let mut failed = None;
        slots.retain_mut(|slot| {
            if failed.is_some() {
                return true;
            }
            let resumed = t
                .poll(slot.token)
                .expect("flushed submission must have a completion")
                .map_err(EngineError::Dm)
                .and_then(|results| slot.op.step(t, Some(results)));
            match resumed {
                Ok(next) => {
                    let output = outputs.get_mut(slot.idx).expect("pushed at admission");
                    let token = settle(t, &mut stats, output, &mut slot.op, next);
                    slot.token = token.unwrap_or(slot.token);
                    token.is_some()
                }
                Err(e) => {
                    failed = Some(e);
                    true
                }
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
    }

    let done =
        |o: Option<S::Output>| o.expect("every admitted op either finished or aborted the run");
    Ok(outputs.map(done))
}

/// Applies one step's decision: stores a finished op's output, or submits
/// the batch and returns its token.
fn settle<S: OpState>(
    t: &mut DmClient,
    stats: &mut Option<&mut PipelineStats>,
    output: &mut Option<S::Output>,
    op: &mut S,
    outcome: StepOutcome<S::Output>,
) -> Option<SqeToken> {
    match outcome {
        StepOutcome::Done(out) => {
            *output = Some(out);
            if let Some(stats) = stats {
                stats.ops += 1;
            }
            None
        }
        StepOutcome::Submit { batch, tag } => {
            if let Some(stats) = stats {
                stats.record_submit(tag, &batch);
            }
            let token = t.submit(batch);
            op.on_submitted(token, t.clock_ns());
            Some(token)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::{ClusterConfig, DmCluster, NetConfig, RemotePtr, Verb};

    /// A toy op: `hops` dependent 8-byte reads of the same word, then
    /// returns the value observed.
    struct ChainRead {
        ptr: RemotePtr,
        hops: usize,
        last: u64,
    }

    impl OpState for ChainRead {
        type Output = u64;

        fn step(
            &mut self,
            _t: &mut DmClient,
            completion: Option<Completion>,
        ) -> Result<StepOutcome<u64>, EngineError> {
            if let Some(mut res) = completion {
                let bytes = res.pop().expect("one read").into_read();
                self.last = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                self.hops -= 1;
            }
            if self.hops == 0 {
                return Ok(StepOutcome::Done(self.last));
            }
            Ok(StepOutcome::Submit {
                batch: DoorbellBatch::from_iter([Verb::Read {
                    ptr: self.ptr,
                    len: 8,
                }]),
                tag: 0,
            })
        }
    }

    fn cluster() -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        })
    }

    #[test]
    fn pipelined_results_match_input_order() {
        let c = cluster();
        let mut cl = c.client(0);
        let mut ptrs = Vec::new();
        for i in 0..10u64 {
            let p = cl.alloc(0, 8).unwrap();
            cl.write_u64(p, 100 + i).unwrap();
            ptrs.push(p);
        }
        let ops = ptrs.iter().map(|&ptr| ChainRead {
            ptr,
            hops: 3,
            last: 0,
        });
        let mut stats = PipelineStats::default();
        let out = run_pipelined(&mut cl, ops, 4, Some(&mut stats)).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(
            out.into_iter().collect::<Vec<_>>(),
            (100..110).collect::<Vec<u64>>()
        );
        assert_eq!(stats.ops, 10);
        assert!(stats.fused_batches > 0);
        assert_eq!(stats.by_tag[&0].batches, 30, "3 hops x 10 ops");
    }

    #[test]
    fn deeper_pipeline_is_faster_and_rings_fewer_doorbells() {
        let c = cluster();
        let mk_ops = |cl: &mut dm_sim::DmClient| {
            let mut ptrs = Vec::new();
            for i in 0..32u64 {
                let p = cl.alloc(0, 8).unwrap();
                cl.write_u64(p, i).unwrap();
                ptrs.push(p);
            }
            ptrs
        };
        let mut d1 = c.client(0);
        let ptrs = mk_ops(&mut d1);
        c.reset_network();
        d1.set_clock_ns(0);
        let s0 = d1.stats();
        let mut st1 = PipelineStats::default();
        run_pipelined(
            &mut d1,
            ptrs.iter().map(|&ptr| ChainRead {
                ptr,
                hops: 3,
                last: 0,
            }),
            1,
            Some(&mut st1),
        )
        .unwrap();
        let t1 = d1.clock_ns();
        let db1 = d1.stats().since(&s0).doorbells;

        c.reset_network();
        let mut d8 = c.client(0);
        let s0 = d8.stats();
        let mut st8 = PipelineStats::default();
        run_pipelined(
            &mut d8,
            ptrs.iter().map(|&ptr| ChainRead {
                ptr,
                hops: 3,
                last: 0,
            }),
            8,
            Some(&mut st8),
        )
        .unwrap();
        let t8 = d8.clock_ns();
        let d = d8.stats().since(&s0);

        assert_eq!(
            d.round_trips, db1,
            "logical per-op round trips are depth-independent"
        );
        assert!(
            d.doorbells < db1,
            "depth 8 must fuse: {} physical vs {} at depth 1",
            d.doorbells,
            db1
        );
        assert!(
            t8 * 4 < t1 * 3,
            "depth 8 ({t8} ns) should beat depth 1 ({t1} ns) clearly"
        );
        assert_eq!(st8.depth_hist[3], st8.flushes - st8.stalls);
        assert!(st1.fused_batches == 0, "depth 1 never fuses");
    }

    #[test]
    fn a_run_of_one_op_allocates_no_collection() {
        let c = cluster();
        let mut cl = c.client(0);
        let ptr = cl.alloc(0, 8).unwrap();
        cl.write_u64(ptr, 9).unwrap();
        let op = ChainRead {
            ptr,
            hops: 3,
            last: 0,
        };
        let out = run_pipelined(&mut cl, [op], 1, None).unwrap();
        assert_eq!(out.into_iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn immediate_done_ops_need_no_network() {
        struct Nop;
        impl OpState for Nop {
            type Output = u8;
            fn step(
                &mut self,
                _t: &mut DmClient,
                _c: Option<Completion>,
            ) -> Result<StepOutcome<u8>, EngineError> {
                Ok(StepOutcome::Done(7))
            }
        }
        let c = cluster();
        let mut cl = c.client(0);
        let mut stats = PipelineStats::default();
        let out = run_pipelined(&mut cl, (0..5).map(|_| Nop), 8, Some(&mut stats)).unwrap();
        assert_eq!(out.into_iter().collect::<Vec<_>>(), vec![7; 5]);
        assert_eq!(cl.stats().round_trips, 0);
        assert_eq!(stats.flushes, 0);
    }

    #[test]
    fn depth_one_matches_blocking_costs_exactly() {
        let c = DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 1 << 20,
            net: NetConfig::rdma(),
            ..Default::default()
        });
        let mut blocking = c.client(0);
        let p = blocking.alloc(0, 8).unwrap();
        blocking.write_u64(p, 42).unwrap();
        c.reset_network();
        blocking.set_clock_ns(0);
        let sb = blocking.stats();
        for _ in 0..6 {
            blocking.read(p, 8).unwrap();
        }
        let blocking_elapsed = blocking.clock_ns();
        let blocking_stats = blocking.stats().since(&sb);

        c.reset_network();
        let mut piped = c.client(0);
        let mut stats = PipelineStats::default();
        let out = run_pipelined(
            &mut piped,
            (0..2).map(|_| ChainRead {
                ptr: p,
                hops: 3,
                last: 0,
            }),
            1,
            Some(&mut stats),
        )
        .unwrap();
        assert_eq!(out.into_iter().collect::<Vec<_>>(), vec![42, 42]);
        assert_eq!(piped.clock_ns(), blocking_elapsed);
        // `piped` is a fresh client, so its whole history is this run.
        assert_eq!(piped.stats(), blocking_stats);
    }
}
