//! The per-worker span recorder.
//!
//! A [`Recorder`] is owned by one client (no locks, no sharing). Callers
//! bracket each operation with [`begin`](Recorder::begin) /
//! [`end`](Recorder::end) and mark phase transitions with
//! [`phase`](Recorder::phase), passing the client's current `ClientStats`
//! and virtual clock at each boundary. The recorder attributes the stats
//! delta of each interval to the phase that was active, so round trips,
//! verbs, and bytes sum up per (op kind, phase) with no tracing. Which
//! individual ops were slow is the [`Tracer`](crate::Tracer)'s tail.

use dm_sim::ClientStats;

use crate::registry::Registry;
use crate::span::{OpKind, Phase, PhaseAgg, NUM_PHASES};

#[derive(Debug, Clone, Default)]
struct SpanState {
    kind: Option<OpKind>,
    start_ns: u64,
    mark: ClientStats,
    mark_ns: u64,
    current: Option<Phase>,
    retries: u32,
    phases: [PhaseAgg; NUM_PHASES],
}

/// Per-worker telemetry recorder: an active op span plus the registry the
/// completed spans aggregate into.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    registry: Registry,
    span: SpanState,
}

impl Recorder {
    /// Creates an idle recorder with an empty registry.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Opens a span for one operation. `stats`/`now_ns` are the client's
    /// cumulative counters and virtual clock at op start. An unfinished
    /// previous span (e.g. an op that bailed without `end`) is discarded.
    pub fn begin(&mut self, kind: OpKind, stats: ClientStats, now_ns: u64) {
        self.span.kind = Some(kind);
        self.span.start_ns = now_ns;
        self.span.mark = stats;
        self.span.mark_ns = now_ns;
        self.span.current = None;
        self.span.retries = 0;
        self.span.phases = [PhaseAgg::default(); NUM_PHASES];
    }

    /// Switches the active span to `phase`, attributing the stats delta
    /// since the previous boundary to the phase that was running (or
    /// [`Phase::Other`] before the first transition). No-op outside a span.
    pub fn phase(&mut self, phase: Phase, stats: ClientStats, now_ns: u64) {
        if self.span.kind.is_none() {
            return;
        }
        self.close_interval(stats, now_ns);
        self.span.current = Some(phase);
    }

    /// The phase the active span is currently in (for save/restore around
    /// nested helpers).
    pub fn current_phase(&self) -> Option<Phase> {
        self.span.current
    }

    /// Marks one failed attempt / restart within the active span.
    pub fn retry(&mut self) {
        if self.span.kind.is_some() {
            self.span.retries += 1;
        }
    }

    /// Closes the active span: records end-to-end latency and folds the
    /// phase breakdown into the registry. No-op outside a span.
    pub fn end(&mut self, stats: ClientStats, now_ns: u64) {
        let Some(kind) = self.span.kind.take() else {
            return;
        };
        self.close_interval(stats, now_ns);
        let agg = &mut self.registry.ops[kind.idx()];
        agg.count += 1;
        agg.retries += self.span.retries as u64;
        agg.latency
            .record(now_ns.saturating_sub(self.span.start_ns));
        for (a, b) in agg.phases.iter_mut().zip(&self.span.phases) {
            a.merge(b);
        }
    }

    /// Adds `n` to a named registry counter.
    pub fn add(&mut self, name: &str, n: u64) {
        self.registry.add(name, n);
    }

    /// Increments a named registry counter.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Snapshot of the registry accumulated so far.
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    fn close_interval(&mut self, stats: ClientStats, now_ns: u64) {
        let delta = stats.since(&self.span.mark);
        let dt = now_ns.saturating_sub(self.span.mark_ns);
        // An explicitly entered phase always records its interval — a
        // CN-local phase (e.g. an SFC probe) costs no verbs and no virtual
        // time yet must still show up in the attribution. Only implicit
        // `Other` intervals carrying no work are dropped.
        if self.span.current.is_some() || dt > 0 || delta.verbs() > 0 {
            let target = self.span.current.unwrap_or(Phase::Other);
            self.span.phases[target.idx()].add_interval(&delta, dt);
        }
        self.span.mark = stats;
        self.span.mark_ns = now_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(round_trips: u64, reads: u64, bytes_read: u64) -> ClientStats {
        ClientStats {
            round_trips,
            reads,
            bytes_read,
            ..Default::default()
        }
    }

    #[test]
    fn span_attributes_deltas_to_phases() {
        let mut rec = Recorder::new();
        rec.begin(OpKind::Get, stats(0, 0, 0), 0);
        rec.phase(Phase::SfcProbe, stats(0, 0, 0), 10);
        // SFC probe cost: 1 RT, 1 read, 64 bytes, 1000 ns.
        rec.phase(Phase::InhtLookup, stats(1, 1, 64), 1010);
        // INHT cost: 2 RTs.
        rec.phase(Phase::LeafRead, stats(3, 3, 192), 3010);
        // Leaf read cost: 1 RT, 1 KiB.
        rec.end(stats(4, 4, 1216), 4010);

        let reg = rec.registry();
        let op = reg.op(OpKind::Get);
        assert_eq!(op.count, 1);
        assert_eq!(op.latency.count(), 1);
        assert_eq!(op.latency.max_ns(), 4010);
        let sfc = &op.phases[Phase::SfcProbe.idx()];
        assert_eq!((sfc.round_trips, sfc.verbs, sfc.bytes), (1, 1, 64));
        assert_eq!(sfc.time_ns, 1000);
        let inht = &op.phases[Phase::InhtLookup.idx()];
        assert_eq!(inht.round_trips, 2);
        let leaf = &op.phases[Phase::LeafRead.idx()];
        assert_eq!((leaf.round_trips, leaf.bytes), (1, 1024));
        assert_eq!(op.round_trips(), 4);
    }

    #[test]
    fn retries_are_counted() {
        let mut rec = Recorder::new();
        rec.begin(OpKind::Insert, stats(0, 0, 0), 0);
        rec.phase(Phase::LockAcquire, stats(0, 0, 0), 0);
        rec.retry();
        rec.retry();
        rec.end(stats(5, 5, 0), 9000);
        // Outside a span a retry has nothing to count against.
        rec.retry();
        let reg = rec.registry();
        assert_eq!(reg.op(OpKind::Insert).retries, 2);
        assert_eq!(reg.op(OpKind::Insert).latency.max_ns(), 9000);
    }

    #[test]
    fn phase_outside_span_is_ignored() {
        let mut rec = Recorder::new();
        rec.phase(Phase::LeafRead, stats(9, 9, 9), 100);
        rec.end(stats(9, 9, 9), 100);
        assert_eq!(rec.registry().total_ops(), 0);
    }

    #[test]
    fn unattributed_work_lands_in_other() {
        let mut rec = Recorder::new();
        rec.begin(OpKind::Get, stats(0, 0, 0), 0);
        // One RT happens before any phase() call.
        rec.end(stats(1, 1, 8), 500);
        let reg = rec.registry();
        let other = &reg.op(OpKind::Get).phases[Phase::Other.idx()];
        assert_eq!(other.round_trips, 1);
    }

    #[test]
    fn counters_flow_into_registry() {
        let mut rec = Recorder::new();
        rec.incr("sfc.probe_hit");
        rec.add("sfc.probe_miss", 3);
        assert_eq!(rec.registry().counter("sfc.probe_hit"), 1);
        assert_eq!(rec.registry().counter("sfc.probe_miss"), 3);
    }
}
