//! The per-worker half of every client, written once: the verb client,
//! retry budget, pipeline counters, span recorder, trace sampler and
//! reclamation handle of a [`Worker`], with the span bracket, the registry
//! export, a multi-get's per-key traces and unpin cadence, and the
//! served-stop lookup driver ([`drive`]) over [`run_pipelined`].

use dm_sim::trace::TransportEvent;
use dm_sim::{DmClient, FirstInline, RetryPolicy, SqeToken};
use obs::{OpKind, OpTrace, Phase, Recorder, Registry, Tracer};
use reclaim::ReclaimHandle;

use crate::pipeline::{run_pipelined, OpState, PipelineStats};
use crate::walk::ArtReader;
use crate::EngineError;

/// One worker's transport, budgets and instruments.
#[derive(Debug)]
pub struct Worker {
    /// The verb client: this worker's virtual clock and network counters.
    pub dm: DmClient,
    /// The bounded-retry budget every protocol step spends. The generous
    /// default `op_retries` waits out concurrent type switches and splits,
    /// and a lock holder that needs many scheduling rounds on a host with
    /// fewer cores than workers (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Cumulative pipelined-execution counters.
    pub pipeline: PipelineStats,
    /// Span recorder: per-op phase attribution, latency and named counters.
    pub obs: Recorder,
    /// Epoch-reclamation handle (pin slot + limbo list).
    pub reclaim: ReclaimHandle,
    tracer: Tracer,
    /// Trace of the blocking op in flight.
    trace: Option<Box<OpTrace>>,
    /// Reusable buffer for transport-event windows.
    scratch: Vec<TransportEvent>,
    /// Transport-ring mark taken at the current op's begin.
    mark: u64,
}

impl Worker {
    /// A worker over `dm` with reclamation handle `reclaim` and the
    /// default tracer (tail sampling on).
    pub fn new(mut dm: DmClient, reclaim: ReclaimHandle) -> Self {
        let tracer = Tracer::new();
        dm.trace_set_enabled(tracer.is_active());
        Worker {
            dm,
            retry: RetryPolicy::default(),
            pipeline: PipelineStats::default(),
            obs: Recorder::new(),
            reclaim,
            tracer,
            trace: None,
            scratch: Vec::new(),
            mark: 0,
        }
    }

    /// A worker outside every reclamation domain (its handle is the
    /// detached [`ReclaimHandle::default`]).
    pub fn detached(dm: DmClient) -> Self {
        Worker::new(dm, ReclaimHandle::default())
    }

    /// Keeps full traces of the `tail_k` slowest / most-retried ops plus
    /// every `head_every`-th op (0 = off); `(0, 0)` disables tracing, down
    /// to the transport-event recording.
    pub fn set_trace_sampling(&mut self, head_every: u64, tail_k: usize) {
        self.tracer.configure(head_every, tail_k);
        self.dm.trace_set_enabled(self.tracer.is_active());
    }

    /// Sets the worker id in the high half of this worker's trace ids.
    pub fn set_trace_worker(&mut self, worker: u32) {
        self.tracer.set_worker(worker);
    }

    /// Drains the traces retained by this worker's sampler (sorted by id).
    pub fn take_traces(&mut self) -> Vec<OpTrace> {
        self.tracer.take_traces()
    }

    /// Leases a trace for one lookup of a pipelined run beginning now.
    pub fn lease(&mut self, kind: OpKind) -> Option<Box<OpTrace>> {
        self.tracer.lease(kind, self.dm.clock_ns())
    }

    /// Opens an op: pins the reclamation epoch, opens the span (which only
    /// snapshots the clock and counters) and leases the op's trace.
    #[inline]
    pub fn begin(&mut self, kind: OpKind) {
        self.reclaim.pin();
        let now = self.dm.clock_ns();
        self.obs.begin(kind, self.dm.stats(), now);
        if let Some(mut t) = self.tracer.lease(kind, now) {
            t.pin(now);
            self.mark = self.dm.trace_mark();
            self.trace = Some(t);
        }
    }

    /// The op in flight enters `phase`, on its span and its trace.
    #[inline]
    pub fn phase(&mut self, phase: Phase) {
        self.obs.phase(phase, self.dm.stats(), self.dm.clock_ns());
        if let Some(t) = self.trace.as_mut() {
            t.phase(phase, self.dm.clock_ns());
        }
    }

    /// One failed attempt of the op in flight, on its span and its trace.
    #[inline]
    pub fn retried(&mut self) {
        self.obs.retry();
        if let Some(t) = self.trace.as_mut() {
            t.retry(self.dm.clock_ns());
        }
    }

    /// The op-exit tail: a due reclamation scan enters
    /// [`Phase::Maintenance`], the client's `maintain` step runs, the unpin
    /// runs the scan, and the op's trace and span close.
    pub fn exit(&mut self, maintain: impl FnOnce(&mut Self)) {
        if self.reclaim.scan_due() {
            self.phase(Phase::Maintenance);
        }
        maintain(self);
        self.reclaim.unpin(&mut self.dm);
        let now = self.dm.clock_ns();
        if let Some(mut t) = self.trace.take() {
            t.unpin(now);
            t.end_ns = now;
            self.finish_traces(Some(t));
        }
        self.obs.end(self.dm.stats(), now);
    }

    /// A multi-get's unpin per key but the last (which [`Worker::exit`]
    /// makes): the reclamation cadence of a loop of gets.
    pub fn unpin_keys(&mut self, keys: usize) {
        for _ in 1..keys {
            if self.reclaim.scan_due() {
                self.phase(Phase::Maintenance);
            }
            self.reclaim.unpin(&mut self.dm);
        }
    }

    /// Finishes the per-key traces of a pipelined run, each at its own
    /// `end_ns`, against one transport-event window from the op's begin.
    pub fn finish_traces(&mut self, traces: impl IntoIterator<Item = Box<OpTrace>>) {
        self.finish_traces_since(self.mark, traces);
    }

    /// [`Worker::finish_traces`] from the transport-ring mark `mark`.
    pub fn finish_traces_since(
        &mut self,
        mark: u64,
        traces: impl IntoIterator<Item = Box<OpTrace>>,
    ) {
        let mut traces = traces.into_iter().peekable();
        if traces.peek().is_none() {
            return;
        }
        self.scratch.clear();
        let complete = self.dm.trace_collect_since(mark, &mut self.scratch);
        for mut t in traces {
            t.complete = complete;
            let end = t.end_ns;
            self.tracer.finish(t, end, &self.scratch);
        }
    }

    /// The span recorder's registry plus the `reclaim.*` and `pipeline.*`
    /// counters.
    pub fn registry(&self) -> Registry {
        let mut reg = self.obs.registry();
        let r = self.reclaim.stats();
        reg.add("reclaim.retired_count", r.retired_count);
        reg.add("reclaim.retired_bytes", r.retired_bytes);
        reg.add("reclaim.freed_count", r.freed_count);
        reg.add("reclaim.freed_bytes", r.freed_bytes);
        reg.add("reclaim.limbo_depth", self.reclaim.limbo_len() as u64);
        reg.add("reclaim.limbo_bytes", self.reclaim.limbo_bytes());
        reg.add("reclaim.scans", r.scans);
        reg.add("reclaim.epoch_advances", r.epoch_advances);
        reg.add("reclaim.errors", r.errors);
        reg.add("reclaim.epoch_lag_le_1", r.lag_le_1);
        reg.add("reclaim.epoch_lag_le_2", r.lag_le_2);
        reg.add("reclaim.epoch_lag_le_4", r.lag_le_4);
        reg.add("reclaim.epoch_lag_gt_4", r.lag_gt_4);
        self.pipeline.export(&mut reg);
        reg
    }

    /// One round of [`drive`]: [`run_pipelined`] over the lookups of `ops`
    /// not yet done, each wrapped by `wrap` with its [`Lane`]. A lookup
    /// driven `alone` reports to the blocking op's span and trace, and is
    /// not a pipeline run ([`PipelineStats`] untouched).
    ///
    /// # Errors
    ///
    /// As [`run_pipelined`].
    pub fn round<'a, L: Lookup, S: OpState<Output = L::Stop>>(
        &'a mut self,
        ops: &'a mut [L],
        depth: usize,
        alone: bool,
        mut wrap: impl FnMut(&'a mut L, Lane<'a>) -> S,
    ) -> Result<FirstInline<L::Stop>, EngineError> {
        let Worker {
            dm,
            obs,
            trace,
            pipeline,
            ..
        } = self;
        let mut op_in_flight = alone.then_some((obs, trace));
        let runs = ops.iter_mut().filter(|op| !op.done());
        let runs = runs.map(|op| wrap(op, Lane(op_in_flight.take())));
        run_pipelined(dm, runs, depth, (!alone).then_some(pipeline))
    }
}

/// A lookup machine [`drive`] runs to its end.
pub trait Lookup {
    /// What a run ends on: the lookup's end, or a stop the client serves.
    type Stop;

    /// Whether the lookup has reached its end.
    fn done(&self) -> bool;

    /// The key's trace in a pipelined run (a lookup driven alone records
    /// on the blocking op's).
    fn trace(&mut self) -> &mut Option<Box<OpTrace>>;
}

/// Where a lookup in a [`Worker::round`] reports: the worker's span and
/// the blocking op's trace when driven alone; in a pipelined run, whose
/// phases interleave ([`PipelineStats::by_tag`] attributes its round
/// trips), its own trace only.
pub struct Lane<'a>(Option<(&'a mut Recorder, &'a mut Option<Box<OpTrace>>)>);

impl Lane<'_> {
    fn trace<'s, L: Lookup>(&'s mut self, op: &'s mut L) -> Option<&'s mut OpTrace> {
        match &mut self.0 {
            Some((_, trace)) => trace.as_deref_mut(),
            None => op.trace().as_deref_mut(),
        }
    }

    /// `op` enters `phase`: on the span when driven alone, on its trace.
    pub fn phase<L: Lookup>(&mut self, t: &DmClient, op: &mut L, phase: Phase) {
        let now = t.clock_ns();
        if let Some((span, _)) = &mut self.0 {
            span.phase(phase, t.stats(), now);
        }
        if let Some(tr) = self.trace(op) {
            tr.phase(phase, now);
        }
    }

    /// One failed attempt of `op`, on its trace.
    pub fn retry<L: Lookup>(&mut self, op: &mut L, now_ns: u64) {
        if let Some(tr) = self.trace(op) {
            tr.retry(now_ns);
        }
    }

    /// `op` reached its end at `now_ns`.
    pub fn end<L: Lookup>(&mut self, op: &mut L, now_ns: u64) {
        if let Some(tr) = self.trace(op) {
            tr.end_ns = now_ns;
        }
    }

    /// [`OpState::on_admitted`]. A lookup driven alone is a blocking op,
    /// alone on the wire: no admission or burst membership to record.
    pub fn admitted<L: Lookup>(&mut self, op: &mut L, now_ns: u64) {
        if let (None, Some(tr)) = (&self.0, op.trace()) {
            tr.admit(now_ns);
        }
    }

    /// [`OpState::on_submitted`], recorded as [`Lane::admitted`] is.
    pub fn submitted<L: Lookup>(&mut self, op: &mut L, token: SqeToken, now_ns: u64) {
        if let (None, Some(tr)) = (&self.0, op.trace()) {
            tr.submitted(token.raw(), now_ns);
        }
    }
}

/// The served-stop lookup driver: runs `round` (the client's
/// [`Worker::round`]) until every op of `ops` is done, handing each stop to
/// `serve`, which ends the lookup or serves it for the next round. `alone`
/// drives one lookup for the blocking op in flight.
///
/// # Errors
///
/// The first error of a round or of `serve`.
pub fn drive<H: ArtReader, L: Lookup, E>(
    host: &mut H,
    ops: &mut [L],
    alone: bool,
    mut round: impl FnMut(&mut H, &mut [L]) -> Result<FirstInline<L::Stop>, E>,
    mut serve: impl FnMut(&mut H, &mut L, L::Stop) -> Result<(), E>,
) -> Result<(), E> {
    while ops.iter().any(|op| !op.done()) {
        let stops = round(host, ops)?;
        for (op, stop) in ops.iter_mut().filter(|op| !op.done()).zip(stops) {
            serve(host, op, stop)?;
            // A served stop is not a completed op.
            if !alone && !op.done() {
                host.worker().pipeline.ops -= 1;
            }
        }
    }
    Ok(())
}
