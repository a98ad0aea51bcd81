//! Op pipelining: lookups as `async fn` bodies and the two drivers that run
//! them.
//!
//! A DM index lookup is a chain of dependent round trips (probe → entry →
//! descend → leaf), so a blocking worker spends almost all its virtual
//! time parked on RTTs. A lookup here is one `async fn` over an [`Io`]: at
//! every round trip it posts one [`DoorbellBatch`] with a tag
//! ([`Io::submit`]) and awaits its [`Completion`]. The same future runs
//! under two drivers:
//!
//! * [`block_on`] runs one lookup for the blocking op in flight: poll it,
//!   flush what it submitted, resume it — charge for charge what blocking
//!   execution costs, also under a [`dm_sim::Schedule`];
//! * [`run_pipelined`] keeps up to `depth` lookups in flight on one worker.
//!   Every round each in-flight lookup has one batch submitted, one
//!   [`dm_sim::DmClient::flush_submitted`] posts them all — same-MN verbs from
//!   different lookups fuse into one physical doorbell, and they share one
//!   RTT instead of paying one each — and each lookup is resumed with its
//!   completion, in submission order, to submit again or finish.
//!
//! ## The lent client
//!
//! The lookups of a run share their client through a [`Lend`]: a
//! `RefCell<&mut C>` that a body borrows between awaits ([`Io::with`]) and
//! never across one. A body must not call `execute`/`wait` itself — a
//! blocking call would flush every peer's pending submission early (the
//! completions would still be reaped by token, but fusion and RTT overlap
//! would silently vanish). Cross-lookup fusion is legal because each lookup
//! has at most one batch in flight: no intra-lookup ordering edge ever
//! crosses a flush fence.
//!
//! ## The drained-serve rule
//!
//! A step that needs the whole client — Sphinx's stale-directory refresh,
//! the leaf sample below a divergent child, SMART/ART's root-word retry —
//! is awaited through [`Io::drained`]. Its lookup leaves its slot (the
//! next lookup takes it); once every peer of the run has stopped, the
//! driver serves the drained steps in key order and re-admits those
//! lookups, in key order, as the next run. Alone, [`block_on`] serves the
//! step at once: there is no peer to wait for.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};

use dm_sim::{Completion, DoorbellBatch, RemotePtr, Verb};
use obs::{OpTrace, Phase};

use crate::{EngineError, Worker};

/// Default per-worker pipeline depth: enough in-flight ops to hide the
/// common three-round-trip chain several times over without blowing up
/// per-worker memory.
pub const DEFAULT_DEPTH: usize = 8;

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
    /// Logical round trips (distinct MNs per batch) by the submitting
    /// op's tag — typically an `obs` phase index, so callers can attribute
    /// round trips per phase.
    pub by_tag: BTreeMap<u32, u64>,
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

    /// Adds these counters to a worker's telemetry registry as the
    /// `pipeline.*` counters, with per-tag round trips under the name of
    /// the [`obs::Phase`] whose index the submitting op used as its tag
    /// (other tags are not exported).
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
        for (tag, round_trips) in &self.by_tag {
            if let Some(phase) = obs::Phase::ALL.get(*tag as usize) {
                reg.add(&format!("pipeline.rts.{}", phase.name()), *round_trips);
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
        for (tag, round_trips) in &other.by_tag {
            *self.by_tag.entry(*tag).or_default() += round_trips;
        }
    }
}

/// What a lookup stopped on, posted for its driver when its future returns
/// `Pending`.
#[derive(Debug, Clone, Copy, Default)]
enum Mail {
    /// Nothing: the lookup awaited something no driver serves.
    #[default]
    Empty,
    /// A batch of `rts` logical round trips, tagged `tag`, is on the
    /// submission queue: resume after the next flush.
    Flush { tag: u32, rts: u64 },
    /// A step that needs the whole client: serve it once the run drained.
    Drain,
    /// The drained step ran: re-admit with the next run.
    Served,
}

/// A key's causal trace in a pipelined run, lent to its lookup.
pub type TraceCell = Cell<Option<Box<OpTrace>>>;

/// A client lent to the lookups of one run (see the module docs).
pub struct Lend<'c, C> {
    client: RefCell<&'c mut C>,
    worker: fn(&mut C) -> &mut Worker,
    mail: Cell<Mail>,
}

impl<'c, C> Lend<'c, C> {
    /// Lends `client`, whose verbs go through the worker `worker` names.
    pub fn new(client: &'c mut C, worker: fn(&mut C) -> &mut Worker) -> Self {
        Lend {
            client: RefCell::new(client),
            worker,
            mail: Cell::default(),
        }
    }

    /// Borrows the client for one step between awaits.
    ///
    /// # Panics
    ///
    /// When called inside another borrow.
    fn with<R>(&self, f: impl FnOnce(&mut C) -> R) -> R {
        f(&mut self.client.borrow_mut())
    }

    fn worker<R>(&self, f: impl FnOnce(&mut Worker) -> R) -> R {
        self.with(|c| f((self.worker)(c)))
    }

    /// The lookup of the blocking op in flight: its phases and retries
    /// are the op's, on the worker's span and the op's trace.
    pub fn alone(&self) -> Io<'_, 'c, C> {
        Io {
            lend: self,
            trace: None,
            alone: true,
            resume_in: None,
        }
    }

    /// A lookup of a pipelined run, admitted now: its phases interleave
    /// with its peers' ([`PipelineStats::by_tag`] attributes its round
    /// trips), so it reports on its own trace only, if it was sampled.
    pub fn lookup<'l>(&'l self, trace: Option<&'l TraceCell>) -> Io<'l, 'c, C> {
        let mut io = Io {
            lend: self,
            trace,
            alone: false,
            resume_in: None,
        };
        io.admitted();
        io
    }
}

/// One lookup's line to its driver and its client.
pub struct Io<'l, 'c, C> {
    lend: &'l Lend<'c, C>,
    trace: Option<&'l TraceCell>,
    alone: bool,
    resume_in: Option<Phase>,
}

impl<C> Io<'_, '_, C> {
    /// Borrows the client for one step between awaits.
    pub fn with<R>(&self, f: impl FnOnce(&mut C) -> R) -> R {
        self.lend.with(f)
    }

    /// Whether this is the lookup of the blocking op in flight.
    pub fn alone(&self) -> bool {
        self.alone
    }

    /// Alone, the lookup re-enters `phase` as it resumes after each
    /// drained step (a baseline traversal's phase, which every resumption
    /// of its lookup opens).
    pub fn resume_in(&mut self, phase: Phase) {
        self.resume_in = Some(phase);
    }

    /// The worker's virtual clock.
    pub fn now(&self) -> u64 {
        self.lend.worker(|w| w.dm.clock_ns())
    }

    /// Records on the lookup's own trace, if it has one, at the clock.
    fn on_trace(&self, f: impl FnOnce(&mut OpTrace, u64)) {
        if let Some(mut tr) = self.trace.and_then(Cell::take) {
            f(&mut tr, self.now());
            self.trace.expect("taken from it").set(Some(tr));
        }
    }

    /// The lookup enters `phase`: on the span and the op's trace when
    /// alone, on its own trace in a run.
    pub fn phase(&mut self, phase: Phase) {
        if self.alone {
            self.lend.worker(|w| w.phase(phase));
        } else {
            self.on_trace(|tr, now| tr.phase(phase, now));
        }
    }

    /// One failed attempt of the lookup at `now_ns`, on its trace (the
    /// op's when alone).
    pub fn retry_at(&mut self, now_ns: u64) {
        if self.alone {
            self.lend.worker(|w| w.trace_retry(now_ns));
        } else {
            self.on_trace(|tr, _| tr.retry(now_ns));
        }
    }

    /// The lookup reached its end (the op's trace ends with the op).
    pub fn end(&mut self) {
        self.on_trace(|tr, now| tr.end_ns = now);
    }

    fn admitted(&mut self) {
        match self.resume_in {
            Some(phase) if self.alone => self.phase(phase),
            _ => self.on_trace(|tr, now| tr.admit(now)),
        }
    }

    /// Posts `batch`, attributed to `tag`, and resolves to its completion
    /// after the driver's flush.
    ///
    /// # Errors
    ///
    /// The error the batch completed with.
    pub async fn submit(
        &mut self,
        batch: DoorbellBatch,
        tag: u32,
    ) -> Result<Completion, EngineError> {
        let rts = batch.mn_groups() as u64;
        let token = self.lend.worker(|w| w.dm.submit(batch));
        self.on_trace(|tr, now| tr.submitted(token.raw(), now));
        self.lend.mail.set(Mail::Flush { tag, rts });
        park().await;
        let done = self.lend.worker(|w| w.dm.poll(token));
        Ok(done.expect("a flushed submission has its completion")?)
    }

    /// Reads `len` bytes at `ptr`, one round trip attributed to `tag`.
    ///
    /// # Errors
    ///
    /// As [`Io::submit`].
    pub async fn read(
        &mut self,
        ptr: RemotePtr,
        len: usize,
        tag: u32,
    ) -> Result<Vec<u8>, EngineError> {
        let batch = DoorbellBatch::from_iter([Verb::Read { ptr, len }]);
        let mut done = self.submit(batch, tag).await?;
        Ok(done.pop().expect("one read, one result").into_read())
    }

    /// Runs `serve` — a step that needs the whole client — under the
    /// drained-serve rule (module docs), and resumes the lookup at its
    /// re-admission. An error of `serve` ends the lookup at once, so it
    /// aborts the run before any later step is served.
    ///
    /// # Errors
    ///
    /// What `serve` returns.
    pub async fn drained<R, E>(
        &mut self,
        serve: impl FnOnce(&mut Self) -> Result<R, E>,
    ) -> Result<R, E> {
        self.lend.mail.set(Mail::Drain);
        park().await;
        let served = serve(self)?;
        self.lend.mail.set(Mail::Served);
        park().await;
        self.admitted();
        Ok(served)
    }
}

/// Returns `Pending` once: the lookup stops until its driver polls again.
fn park() -> impl Future<Output = ()> {
    let mut parked = false;
    poll_fn(move |_| {
        if std::mem::replace(&mut parked, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
}

/// Drives one lookup of the blocking op in flight to its end: poll, flush
/// what it submitted, resume; a drained step is served at once.
pub fn block_on<C, T>(lend: &Lend<'_, C>, lookup: impl Future<Output = T>) -> T {
    let mut lookup = pin!(lookup);
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        if let Poll::Ready(out) = lookup.as_mut().poll(&mut cx) {
            return out;
        }
        match lend.mail.take() {
            Mail::Flush { .. } => lend.worker(|w| w.dm.flush_submitted()),
            Mail::Drain | Mail::Served => {}
            Mail::Empty => unreachable!("a lookup awaited what no driver serves"),
        }
    }
}

/// Where a slot's lookup stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    /// No lookup: the box waits for the next admission.
    Vacant,
    /// A batch in flight.
    Flight,
    /// Stopped on a drained step.
    Drained,
    /// Its drained step served, waiting for the next run.
    Served,
}

/// A pipeline slot: a boxed lookup (the box is reused lookup after lookup)
/// and the index of its key in the run's input.
struct Slot<F> {
    idx: usize,
    at: At,
    lookup: Pin<Box<Option<F>>>,
}

/// Drives `lookups` to their ends keeping up to `depth` of them in flight
/// on `lend`'s worker, counting into its [`PipelineStats`], and returns
/// their outputs in input order.
///
/// Each round: every in-flight lookup has exactly one batch submitted; one
/// [`dm_sim::DmClient::flush_submitted`] posts them all (fused into one burst when
/// unscheduled); each is resumed with its completion in submission order
/// and either submits again (joining the next round), finishes, or stops
/// on a drained step, freeing its slot for the next lookup off the
/// iterator, which makes a lookup as it admits it. When nothing is left in
/// flight the drained steps are served and their lookups re-admitted (the
/// module docs' drained-serve rule). `depth` is clamped to at least 1.
///
/// # Errors
///
/// The first lookup that ends in an `Err` aborts the run (remaining
/// lookups are abandoned; their effects so far are retained, as with
/// blocking execution).
pub fn run_pipelined<C, F, T, E>(
    lend: &Lend<'_, C>,
    lookups: impl IntoIterator<Item = F>,
    depth: usize,
) -> Result<Vec<T>, E>
where
    F: Future<Output = Result<T, E>>,
{
    let depth = depth.max(1);
    let mut input = lookups.into_iter();
    let mut outputs: Vec<Option<T>> = Vec::with_capacity(input.size_hint().0);
    // In-flight slots first, in submission order; then vacant, drained and
    // served ones.
    let mut slots: Vec<Slot<F>> = Vec::with_capacity(depth.min(input.size_hint().0));
    let mut live = 0;
    let mut cx = Context::from_waker(Waker::noop());
    // Polls the lookup of `slot` and records where it stopped.
    let mut step = |slot: &mut Slot<F>, outputs: &mut Vec<Option<T>>| -> Result<(), E> {
        let lookup = slot.lookup.as_mut().as_pin_mut().expect("a slot in use");
        slot.at = match lookup.poll(&mut cx) {
            Poll::Ready(out) => {
                outputs[slot.idx] = Some(out?);
                slot.lookup.set(None);
                lend.worker(|w| w.pipeline.ops += 1);
                At::Vacant
            }
            Poll::Pending => match lend.mail.take() {
                Mail::Flush { tag, rts } => {
                    lend.worker(|w| *w.pipeline.by_tag.entry(tag).or_default() += rts);
                    At::Flight
                }
                Mail::Drain => At::Drained,
                Mail::Served => At::Served,
                Mail::Empty => unreachable!("a lookup awaited what no driver serves"),
            },
        };
        Ok(())
    };

    loop {
        // Admit into the free slots: the served lookups of the last run in
        // key order, else the next lookups off the iterator.
        while live < depth {
            let i = match first(&slots, live, At::Served) {
                Some(i) => i,
                None => {
                    let Some(lookup) = input.next() else { break };
                    let i = first(&slots, live, At::Vacant).unwrap_or_else(|| {
                        slots.push(Slot {
                            idx: 0,
                            at: At::Vacant,
                            lookup: Box::pin(None),
                        });
                        slots.len() - 1
                    });
                    let slot = &mut slots[i];
                    slot.idx = outputs.len();
                    slot.lookup.set(Some(lookup));
                    outputs.push(None);
                    i
                }
            };
            slots.swap(live, i);
            step(&mut slots[live], &mut outputs)?;
            if slots[live].at == At::Flight {
                live += 1;
            }
        }
        if live == 0 {
            // Every lookup of the run has stopped: serve the drained steps.
            if first(&slots, 0, At::Drained).is_none() {
                break;
            }
            while let Some(i) = first(&slots, 0, At::Drained) {
                step(&mut slots[i], &mut outputs)?;
            }
            continue;
        }

        lend.worker(|w| w.pipeline.record_flush(live, depth));
        lend.worker(|w| w.dm.flush_submitted());

        // Resume every lookup with its completion, in submission order;
        // the ones that submit again keep their order at the front.
        let mut kept = 0;
        for i in 0..live {
            step(&mut slots[i], &mut outputs)?;
            if slots[i].at == At::Flight {
                slots.swap(kept, i);
                kept += 1;
            }
        }
        live = kept;
    }

    Ok(outputs
        .into_iter()
        .map(|o| o.expect("every admitted lookup either finished or aborted the run"))
        .collect())
}

/// The slot of smallest key index from `from` on whose lookup is `at`.
fn first<F>(slots: &[Slot<F>], from: usize, at: At) -> Option<usize> {
    (from..slots.len())
        .filter(|&i| slots[i].at == at)
        .min_by_key(|&i| slots[i].idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::{ClusterConfig, DmClient, DmCluster, NetConfig};

    /// A toy lookup: `hops` dependent 8-byte reads of the same word, then
    /// the value observed.
    async fn chain_read(
        io: &mut Io<'_, '_, Worker>,
        ptr: RemotePtr,
        hops: usize,
    ) -> Result<u64, EngineError> {
        let mut last = 0;
        for _ in 0..hops {
            let bytes = io.read(ptr, 8, 0).await?;
            last = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        }
        Ok(last)
    }

    fn worker(w: &mut Worker) -> &mut Worker {
        w
    }

    /// `chain_read` of each pointer, `depth` in flight.
    fn run(
        w: &mut Worker,
        ptrs: &[RemotePtr],
        hops: usize,
        depth: usize,
    ) -> Result<Vec<u64>, EngineError> {
        let lend = Lend::new(w, worker);
        let lookups = ptrs.iter().map(|&ptr| {
            let mut io = lend.lookup(None);
            async move { chain_read(&mut io, ptr, hops).await }
        });
        run_pipelined(&lend, lookups, depth)
    }

    fn cluster() -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        })
    }

    fn words(cl: &mut DmClient, values: impl Iterator<Item = u64>) -> Vec<RemotePtr> {
        values
            .map(|v| {
                let p = cl.alloc(0, 8).unwrap();
                cl.write_u64(p, v).unwrap();
                p
            })
            .collect()
    }

    #[test]
    fn pipelined_results_match_input_order() {
        let c = cluster();
        let mut w = Worker::detached(c.client(0));
        let ptrs = words(&mut w.dm, 100..110);
        let out = run(&mut w, &ptrs, 3, 4).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out, (100..110).collect::<Vec<u64>>());
        let stats = &w.pipeline;
        assert_eq!(stats.ops, 10);
        assert!(stats.fused_batches > 0);
        assert_eq!(stats.by_tag[&0], 30, "3 hops x 10 ops, one MN each");
    }

    #[test]
    fn deeper_pipeline_is_faster_and_rings_fewer_doorbells() {
        let c = cluster();
        let mut d1 = Worker::detached(c.client(0));
        let ptrs = words(&mut d1.dm, 0..32);
        c.reset_network();
        d1.dm.set_clock_ns(0);
        let s0 = d1.dm.stats();
        run(&mut d1, &ptrs, 3, 1).unwrap();
        let t1 = d1.dm.clock_ns();
        let db1 = d1.dm.stats().since(&s0).doorbells;

        c.reset_network();
        let mut d8 = Worker::detached(c.client(0));
        let s0 = d8.dm.stats();
        run(&mut d8, &ptrs, 3, 8).unwrap();
        let t8 = d8.dm.clock_ns();
        let d = d8.dm.stats().since(&s0);

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
        let st8 = &d8.pipeline;
        assert_eq!(st8.depth_hist[3], st8.flushes - st8.stalls);
        assert!(d1.pipeline.fused_batches == 0, "depth 1 never fuses");
    }

    #[test]
    fn a_run_of_one_op_allocates_no_collection() {
        let c = cluster();
        let mut w = Worker::detached(c.client(0));
        let ptr = words(&mut w.dm, [9].into_iter())[0];
        let lend = Lend::new(&mut w, worker);
        let mut io = lend.alone();
        let out = block_on(&lend, chain_read(&mut io, ptr, 3)).unwrap();
        assert_eq!(out, 9);
        assert_eq!(w.pipeline, PipelineStats::default(), "not a pipeline run");
    }

    #[test]
    fn immediate_done_ops_need_no_network() {
        let c = cluster();
        let mut w = Worker::detached(c.client(0));
        let lend = Lend::new(&mut w, worker);
        let nops = (0..5).map(|_| async { Ok::<u8, EngineError>(7) });
        let out = run_pipelined(&lend, nops, 8).unwrap();
        assert_eq!(out, vec![7; 5]);
        assert_eq!(w.dm.stats().round_trips, 0);
        assert_eq!(w.pipeline.flushes, 0);
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
        let mut piped = Worker::detached(c.client(0));
        let out = run(&mut piped, &[p, p], 3, 1).unwrap();
        assert_eq!(out, vec![42, 42]);
        assert_eq!(piped.dm.clock_ns(), blocking_elapsed);
        // `piped` is a fresh client, so its whole history is this run.
        assert_eq!(piped.dm.stats(), blocking_stats);
    }

    /// Lookup `i` of `steps[i]` reads, then a drained step that logs its
    /// key, then one more read; `log` records the order of everything.
    #[test]
    fn drained_steps_wait_for_the_run_and_go_in_key_order() {
        let c = cluster();
        let mut w = Worker::detached(c.client(0));
        let ptr = words(&mut w.dm, [5].into_iter())[0];
        let log = RefCell::new(Vec::new());
        let steps = [3, 1, 2, 1];
        let lend = Lend::new(&mut w, worker);
        let lookups = steps.iter().enumerate().map(|(key, &reads)| {
            let (log, mut io) = (&log, lend.lookup(None));
            async move {
                chain_read(&mut io, ptr, reads).await?;
                log.borrow_mut().push(format!("stop {key}"));
                io.drained(|_| {
                    log.borrow_mut().push(format!("serve {key}"));
                    Ok::<_, EngineError>(())
                })
                .await?;
                log.borrow_mut().push(format!("resume {key}"));
                chain_read(&mut io, ptr, 1).await
            }
        });
        let out = run_pipelined(&lend, lookups, 2).unwrap();
        assert_eq!(out, vec![5; 4]);
        assert_eq!(
            log.into_inner(),
            [
                "stop 1", "stop 0", "stop 2", "stop 3", "serve 0", "serve 1", "serve 2", "serve 3",
                "resume 0", "resume 1", "resume 2", "resume 3"
            ]
        );
        assert_eq!(w.pipeline.ops, 4, "a drained stop is no completed op");
    }
}
