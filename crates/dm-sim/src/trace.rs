//! Transport-level causal event tracing.
//!
//! The virtual clock of a [`DmClient`](crate::DmClient) only ever moves at
//! two sites: a doorbell burst
//! ([`flush_submitted`](crate::DmClient::flush_submitted), one batch or
//! several fused), or an explicit backoff
//! ([`advance_clock`](crate::DmClient::advance_clock)). Recording one event
//! per site therefore yields a *complete* account of where an op's
//! wall-clock (virtual) time went: any interval of a client's timeline is
//! exactly tiled by the events that moved the clock through it.
//!
//! The `obs` crate's trace layer exploits this: an op's causal trace is the
//! window of transport events between its begin and end timestamps, and the
//! critical-path extractor can assert that its segment decomposition sums
//! *exactly* to the op's end-to-end latency.
//!
//! Every client carries a ring, and every hook is a no-op (one branch)
//! until [`TransportTrace::set_enabled`] turns it on.

/// Most submissions a single [`BurstEvent`] records individually. A fused
/// flush joining more ops than this sets
/// [`BurstEvent::tokens_truncated`]; consumers must then treat every
/// in-flight op as a member of the burst.
pub const MAX_BURST_TOKENS: usize = 16;

/// Most per-MN completion fins recorded per burst (the simulated clusters
/// are far smaller).
pub const MAX_BURST_MNS: usize = 8;

/// One submission's share of a burst: the completion-queue token it was
/// issued and how many verbs it contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BurstToken {
    /// Raw completion-queue token (see
    /// [`SqeToken::raw`](crate::transport::SqeToken::raw)).
    pub token: u64,
    /// Verbs this submission contributed to the burst.
    pub verbs: u32,
}

/// One doorbell burst: a batch (or fused set of batches) charged against
/// the NIC model, advancing the client clock from `from_ns` to `to_ns`.
///
/// The interval decomposes exactly: `to_ns - from_ns = delay_ns +
/// service_ns + cpu_ns` (scheduler grant delay, then NIC service including
/// the trailing RTT, then CN-side per-verb compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstEvent {
    /// Client clock when the flush was issued.
    pub from_ns: u64,
    /// Client clock after the burst completed (completion + RTT + compute).
    pub to_ns: u64,
    /// Scheduler-imposed grant delay before the wire saw anything (0 when
    /// running without a [`Schedule`](crate::Schedule)).
    pub delay_ns: u64,
    /// NIC service time including the trailing RTT.
    pub service_ns: u64,
    /// CN-side compute charged for the burst (`client_op_ns` × total verbs).
    pub cpu_ns: u64,
    /// Physical doorbells rung (distinct MNs addressed).
    pub doorbells: u32,
    /// Total verbs across every member submission.
    pub verbs: u32,
    /// Deterministic schedule step that granted this burst, when running
    /// under a [`Schedule`](crate::Schedule).
    pub grant_step: Option<u64>,
    /// Set when more than [`MAX_BURST_TOKENS`] submissions fused into this
    /// burst and the membership list is incomplete.
    pub tokens_truncated: bool,
    tokens: [BurstToken; MAX_BURST_TOKENS],
    tokens_len: u8,
    mns: [(u16, u64); MAX_BURST_MNS],
    mns_len: u8,
}

impl BurstEvent {
    /// A burst covering `[from_ns, to_ns]` with the given charge split.
    pub fn new(from_ns: u64, to_ns: u64, delay_ns: u64, cpu_ns: u64) -> Self {
        let service_ns = (to_ns - from_ns).saturating_sub(delay_ns + cpu_ns);
        BurstEvent {
            from_ns,
            to_ns,
            delay_ns,
            service_ns,
            cpu_ns,
            doorbells: 0,
            verbs: 0,
            grant_step: None,
            tokens_truncated: false,
            tokens: [BurstToken::default(); MAX_BURST_TOKENS],
            tokens_len: 0,
            mns: [(0, 0); MAX_BURST_MNS],
            mns_len: 0,
        }
    }

    /// Records a member submission; sets
    /// [`tokens_truncated`](Self::tokens_truncated) once full.
    pub fn push_token(&mut self, token: u64, verbs: u32) {
        if (self.tokens_len as usize) < MAX_BURST_TOKENS {
            self.tokens[self.tokens_len as usize] = BurstToken { token, verbs };
            self.tokens_len += 1;
        } else {
            self.tokens_truncated = true;
        }
    }

    /// Records one MN's completion fin (virtual time its NIC finished
    /// serving this burst's messages). Silently drops past
    /// [`MAX_BURST_MNS`].
    pub fn push_mn_fin(&mut self, mn: u16, fin_ns: u64) {
        if (self.mns_len as usize) < MAX_BURST_MNS {
            self.mns[self.mns_len as usize] = (mn, fin_ns);
            self.mns_len += 1;
        }
    }

    /// Member submissions recorded for this burst.
    pub fn tokens(&self) -> &[BurstToken] {
        &self.tokens[..self.tokens_len as usize]
    }

    /// Per-MN `(mn_id, fin_ns)` completion times.
    pub fn mn_fins(&self) -> &[(u16, u64)] {
        &self.mns[..self.mns_len as usize]
    }
}

/// One clock-moving transport event on a client's virtual timeline.
// The size gap between the fixed-capacity `Burst` and the two-word
// `Advance` is deliberate: events live in a bounded preallocated ring
// and are copied out in bulk; boxing the burst would put an allocation
// on the NIC recording path, exactly what the fixed arrays avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// A doorbell burst (single batch or fused flush).
    Burst(BurstEvent),
    /// An explicit clock advance outside any burst — retry backoff, gate
    /// padding. Pure queueing from any in-flight op's perspective.
    Advance {
        /// Clock before the advance.
        from_ns: u64,
        /// Clock after the advance.
        to_ns: u64,
    },
}

impl TransportEvent {
    /// Interval start on the client's virtual timeline.
    pub fn from_ns(&self) -> u64 {
        match self {
            TransportEvent::Burst(b) => b.from_ns,
            TransportEvent::Advance { from_ns, .. } => *from_ns,
        }
    }

    /// Interval end on the client's virtual timeline.
    pub fn to_ns(&self) -> u64 {
        match self {
            TransportEvent::Burst(b) => b.to_ns,
            TransportEvent::Advance { to_ns, .. } => *to_ns,
        }
    }
}

/// Bounded per-client ring of [`TransportEvent`]s.
///
/// Sequence numbers are monotonic for the life of the client; the ring
/// retains the most recent [`TransportTrace::CAPACITY`] events and counts
/// the rest as dropped. Pushing while disabled is a no-op, so an untraced
/// run's hot path costs one branch.
#[derive(Debug, Default)]
pub struct TransportTrace {
    enabled: bool,
    base_seq: u64,
    dropped: u64,
    events: std::collections::VecDeque<TransportEvent>,
}

impl TransportTrace {
    /// Events retained; older ones are dropped (and counted).
    pub const CAPACITY: usize = 4096;

    /// Turns the ring on or off. Turning it off clears retained events.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.base_seq = self.next_seq();
            self.events.clear();
        }
    }

    /// Whether pushes are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op while disabled).
    pub fn push(&mut self, ev: TransportEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == Self::CAPACITY {
            self.events.pop_front();
            self.base_seq += 1;
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The sequence number the next push will get — take one before an op
    /// begins and pass it to [`collect_since`](Self::collect_since) at the
    /// end to harvest the op's window.
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.events.len() as u64
    }

    /// Appends every retained event with sequence ≥ `mark` to `out`.
    /// Returns `true` if the window is complete (nothing after `mark` was
    /// dropped).
    pub fn collect_since(&self, mark: u64, out: &mut Vec<TransportEvent>) -> bool {
        let start = mark.max(self.base_seq);
        out.extend(
            self.events
                .iter()
                .skip((start - self.base_seq) as usize)
                .copied(),
        );
        mark >= self.base_seq
    }

    /// Events evicted by capacity since the ring was created.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drops retained events (keeping sequence numbers monotonic) — called
    /// on clock resets, after which old windows are meaningless.
    pub fn clear(&mut self) {
        self.base_seq = self.next_seq();
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_interval_decomposes_exactly() {
        let mut b = BurstEvent::new(100, 1_600, 200, 400);
        assert_eq!(b.service_ns, 900);
        assert_eq!(b.delay_ns + b.service_ns + b.cpu_ns, b.to_ns - b.from_ns);
        b.push_token(7, 2);
        b.push_mn_fin(1, 900);
        assert_eq!(b.tokens(), &[BurstToken { token: 7, verbs: 2 }]);
        assert_eq!(b.mn_fins(), &[(1, 900)]);
    }

    #[test]
    fn token_overflow_sets_truncated() {
        let mut b = BurstEvent::new(0, 10, 0, 0);
        for i in 0..MAX_BURST_TOKENS as u64 + 3 {
            b.push_token(i, 1);
        }
        assert_eq!(b.tokens().len(), MAX_BURST_TOKENS);
        assert!(b.tokens_truncated);
    }

    #[test]
    fn ring_marks_and_windows() {
        let mut t = TransportTrace::default();
        t.push(TransportEvent::Advance {
            from_ns: 0,
            to_ns: 1,
        });
        assert_eq!(t.next_seq(), 0, "disabled pushes are no-ops");
        t.set_enabled(true);
        t.push(TransportEvent::Advance {
            from_ns: 0,
            to_ns: 1,
        });
        let mark = t.next_seq();
        t.push(TransportEvent::Advance {
            from_ns: 1,
            to_ns: 5,
        });
        let mut out = Vec::new();
        assert!(t.collect_since(mark, &mut out));
        assert_eq!(
            out,
            vec![TransportEvent::Advance {
                from_ns: 1,
                to_ns: 5
            }]
        );
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let mut t = TransportTrace::default();
        t.set_enabled(true);
        for i in 0..TransportTrace::CAPACITY as u64 + 10 {
            t.push(TransportEvent::Advance {
                from_ns: i,
                to_ns: i + 1,
            });
        }
        assert_eq!(t.dropped(), 10);
        let mut out = Vec::new();
        assert!(!t.collect_since(0, &mut out), "window must report the gap");
        assert_eq!(out.len(), TransportTrace::CAPACITY);
        t.clear();
        assert_eq!(t.next_seq(), TransportTrace::CAPACITY as u64 + 10);
        let mut out2 = Vec::new();
        t.collect_since(t.next_seq(), &mut out2);
        assert!(out2.is_empty());
    }
}
