//! Virtual-time network and NIC model.
//!
//! Every [`DmClient`](crate::DmClient) carries its own virtual clock
//! (nanoseconds). Issuing a doorbell batch of verbs to one memory node
//! charges the clock:
//!
//! ```text
//! completion = t + backlog(nic, t) + service + rtt_ns
//! service    = n_msgs * msg_ns + bytes * byte_ns
//! ```
//!
//! where `backlog` models the NIC as a **work-conserving fluid queue** in
//! virtual time: the NIC tracks an outstanding-service backlog that drains
//! at line rate as virtual time advances; a batch arriving at time `t`
//! waits out the current backlog, then occupies the NIC for `service`
//! nanoseconds. Under low load the queueing term vanishes; when the
//! aggregate message/byte rate exceeds the NIC's capacity the backlog
//! grows without bound — reproducing the "early saturation of network
//! resources" the paper attributes to traversal-heavy indexes.
//!
//! A fluid queue (rather than a strict FIFO `next_free` pointer) is used
//! deliberately: benchmark workers advance their virtual clocks slightly
//! out of order relative to real scheduling, and a strict FIFO would make
//! late-scheduled arrivals queue behind virtual history. The fluid model
//! charges them only the genuinely outstanding backlog.

use parking_lot::Mutex;

/// Network/NIC cost parameters.
///
/// Defaults mirror the paper's testbed (ConnectX-6, 2×100 Gbps, ~2 µs RTT):
///
/// * `rtt_ns = 2000` — base round-trip latency;
/// * `msg_ns = 10` — per-message NIC processing (≈100 M msgs/s per NIC);
/// * `byte_ns_x1000 = 80` — 0.08 ns/byte ≈ 100 Gbps serialization;
/// * `client_op_ns = 150` — CN-side CPU cost per verb issued (post/poll).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Base round-trip time in nanoseconds.
    pub rtt_ns: u64,
    /// NIC processing cost per message (request/response pair), ns.
    pub msg_ns: u64,
    /// Serialization cost in thousandths of a nanosecond per byte
    /// (80 = 0.08 ns/B = 100 Gbps).
    pub byte_ns_x1000: u64,
    /// Compute-side CPU cost charged per verb (posting, polling), ns.
    pub client_op_ns: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            rtt_ns: 2_000,
            msg_ns: 10,
            byte_ns_x1000: 80,
            client_op_ns: 150,
        }
    }
}

impl NetConfig {
    /// The default RDMA profile (ConnectX-6-class: 2 µs RTT, ~100 M msgs/s,
    /// 100 Gbps). Same as `NetConfig::default()`.
    pub fn rdma() -> Self {
        NetConfig::default()
    }

    /// A CXL-attached-memory profile (what-if analysis, §II mentions CXL as
    /// the other DM interconnect): ~400 ns round trip, cheap per-request
    /// processing, ~512 Gbps of link bandwidth. With round trips this
    /// cheap, the *number* of round trips matters less and an index's
    /// bandwidth footprint matters relatively more.
    pub fn cxl() -> Self {
        NetConfig {
            rtt_ns: 400,
            msg_ns: 4,
            byte_ns_x1000: 16,
            client_op_ns: 60,
        }
    }

    /// Service time a batch of `msgs` messages moving `bytes` payload bytes
    /// occupies a NIC for, in nanoseconds.
    pub fn service_ns(&self, msgs: u64, bytes: u64) -> u64 {
        msgs * self.msg_ns + bytes * self.byte_ns_x1000 / 1000
    }
}

/// The cost split of one submitted batch: when the NIC finishes it, how
/// long it queued behind the existing backlog, and its own service time.
/// `fin_ns == arrival + wait_ns + service_ns` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicCharge {
    /// Virtual time the NIC finishes serving the batch (excluding RTT).
    pub fin_ns: u64,
    /// Time the batch waited behind the outstanding backlog.
    pub wait_ns: u64,
    /// The batch's own service time.
    pub service_ns: u64,
}

/// The fluid-queue state: outstanding service and its reference time.
#[derive(Debug, Default)]
struct Backlog {
    /// Unserved work, in nanoseconds of NIC time.
    outstanding_ns: u64,
    /// Virtual time up to which the backlog has been drained.
    drained_to_ns: u64,
}

/// A NIC modeled as a work-conserving fluid queue in virtual time.
///
/// Shared by all clients that route traffic through it.
#[derive(Debug)]
pub struct Nic {
    config: NetConfig,
    backlog: Mutex<Backlog>,
}

impl Nic {
    /// Creates an idle NIC with the given cost parameters.
    pub fn new(config: NetConfig) -> Self {
        Nic {
            config,
            backlog: Mutex::new(Backlog::default()),
        }
    }

    /// Submits a batch arriving at virtual time `now_ns` carrying `msgs`
    /// messages and `bytes` payload bytes. Returns the virtual time at which
    /// the NIC finishes serving the batch (excluding propagation RTT).
    pub fn submit(&self, now_ns: u64, msgs: u64, bytes: u64) -> u64 {
        self.submit_charged(now_ns, msgs, bytes).fin_ns
    }

    /// Like [`Nic::submit`], but also returns the queue/service split of
    /// the charge — the raw material of per-MN load accounting.
    pub fn submit_charged(&self, now_ns: u64, msgs: u64, bytes: u64) -> NicCharge {
        let service = self.config.service_ns(msgs, bytes);
        let mut b = self.backlog.lock();
        // Drain the queue at line rate for the virtual time that has
        // passed. Arrivals slightly in the past (out-of-order worker
        // scheduling) simply skip the drain.
        if now_ns > b.drained_to_ns {
            b.outstanding_ns = b.outstanding_ns.saturating_sub(now_ns - b.drained_to_ns);
            b.drained_to_ns = now_ns;
        }
        let wait = b.outstanding_ns;
        b.outstanding_ns += service;
        NicCharge {
            fin_ns: now_ns + wait + service,
            wait_ns: wait,
            service_ns: service,
        }
    }

    /// The NIC's configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Resets the queue state (between benchmark phases).
    pub fn reset(&self) {
        *self.backlog.lock() = Backlog::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn service_time_formula() {
        let c = NetConfig {
            rtt_ns: 2000,
            msg_ns: 10,
            byte_ns_x1000: 80,
            client_op_ns: 0,
        };
        // 5 msgs, 1000 bytes: 50 + 80 = 130 ns
        assert_eq!(c.service_ns(5, 1000), 130);
    }

    #[test]
    fn presets_are_distinct_and_sane() {
        let rdma = NetConfig::rdma();
        let cxl = NetConfig::cxl();
        assert_eq!(rdma, NetConfig::default());
        assert!(
            cxl.rtt_ns < rdma.rtt_ns / 2,
            "CXL round trips are much cheaper"
        );
        assert!(
            cxl.byte_ns_x1000 < rdma.byte_ns_x1000,
            "CXL links are faster"
        );
    }

    #[test]
    fn idle_nic_has_no_queueing() {
        let nic = Nic::new(NetConfig::default());
        let fin = nic.submit(10_000, 1, 8);
        assert_eq!(fin, 10_000 + NetConfig::default().service_ns(1, 8));
    }

    #[test]
    fn back_to_back_batches_queue() {
        let nic = Nic::new(NetConfig::default());
        let s = NetConfig::default().service_ns(1, 8);
        let f1 = nic.submit(0, 1, 8);
        let f2 = nic.submit(0, 1, 8); // arrives while busy -> queues
        assert_eq!(f1, s);
        assert_eq!(f2, 2 * s);
    }

    #[test]
    fn late_arrival_sees_idle_nic() {
        let nic = Nic::new(NetConfig::default());
        let s = NetConfig::default().service_ns(1, 8);
        nic.submit(0, 1, 8);
        let f = nic.submit(1_000_000, 1, 8);
        assert_eq!(f, 1_000_000 + s);
    }

    #[test]
    fn submit_charged_splits_wait_and_service() {
        let nic = Nic::new(NetConfig::default());
        let s = NetConfig::default().service_ns(1, 8);
        let a = nic.submit_charged(0, 1, 8);
        assert_eq!((a.wait_ns, a.service_ns, a.fin_ns), (0, s, s));
        let b = nic.submit_charged(0, 1, 8); // queues behind the first
        assert_eq!((b.wait_ns, b.service_ns, b.fin_ns), (s, s, 2 * s));
        assert_eq!(b.fin_ns, b.wait_ns + b.service_ns);
    }

    #[test]
    fn concurrent_submissions_conserve_service_time() {
        let nic = std::sync::Arc::new(Nic::new(NetConfig::default()));
        let s = NetConfig::default().service_ns(1, 0);
        let max_fin = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let nic = nic.clone();
                let max_fin = max_fin.clone();
                sc.spawn(move || {
                    for _ in 0..500 {
                        let f = nic.submit(0, 1, 0);
                        max_fin.fetch_max(f, Ordering::Relaxed);
                    }
                });
            }
        });
        // FIFO server: 2000 unit batches all arriving at t=0 must finish at
        // exactly 2000 * service.
        assert_eq!(max_fin.load(Ordering::Relaxed), 2000 * s);
    }
}
