//! The five workloads. Sizes are the full-scale (`--seconds 10`) figures;
//! every count is multiplied by one common factor, `seconds / 10`.

use dm_sim::NetConfig;
use ycsb::{KeySpace, Workload};

/// How a workload drives the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One op per client call, one worker.
    Single,
    /// `batch` gets per `get_many_pipelined(.., depth)` call, one worker.
    Pipe { batch: usize, depth: usize },
    /// Two participants in lock-step under `dm_sim::Schedule`, all ops on
    /// `hot_keys` keys.
    Sched { hot_keys: u64 },
}

/// One workload's definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in BENCHMARK.json).
    pub why: &'static str,
    pub keyspace: KeySpace,
    /// Keys preloaded at full scale.
    pub preload: u64,
    /// SFC budget is `keys / sfc_div` bytes.
    pub sfc_div: u64,
    pub net: NetConfig,
    pub mix: Workload,
    /// Client calls in the measured window at full scale (per participant
    /// for [`Shape::Sched`]).
    pub calls: u64,
    pub shape: Shape,
}

/// Participants of the scheduled workload (`nproc` is 2: never more).
pub const SCHED_PARTICIPANTS: usize = 2;

impl Spec {
    /// Index operations per client call.
    pub fn ops_per_call(&self) -> u64 {
        match self.shape {
            Shape::Pipe { batch, .. } => batch as u64,
            _ => 1,
        }
    }

    /// Worker threads the workload runs.
    pub fn participants(&self) -> usize {
        match self.shape {
            Shape::Sched { .. } => SCHED_PARTICIPANTS,
            _ => 1,
        }
    }
}

/// Scales a full-size count, keeping it a positive multiple of the slice
/// count so every slice holds the same number of calls.
pub fn scaled(full: u64, scale: f64) -> u64 {
    let slices = crate::stats::SLICES as u64;
    (((full as f64 * scale) as u64) / slices).max(1) * slices
}

fn mix(name: &'static str, read: f64, update: f64, insert: f64) -> Workload {
    Workload {
        name,
        read,
        update,
        insert,
        uniform: true,
        ..Workload::a()
    }
}

/// The NIC as one worker among the paper's 96 sees it: 1/96 of the message
/// rate and of the bandwidth of `NetConfig::rdma()`.
pub fn saturated_nic() -> NetConfig {
    NetConfig {
        msg_ns: 960,
        byte_ns_x1000: 7680,
        ..NetConfig::rdma()
    }
}

/// The five workloads, in report order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "ycsb_c_pipe",
            why: "read path at pipeline depth 8 on an SFC that fits: RTT-bound, doorbell fusion matters, bytes and verbs are nearly free",
            keyspace: KeySpace::U64,
            preload: 500_000,
            sfc_div: 3,
            net: NetConfig::rdma(),
            mix: Workload::c(),
            calls: 100_000,
            shape: Shape::Pipe { batch: 32, depth: 8 },
        },
        Spec {
            name: "ycsb_a_nicbound",
            why: "50/50 get/update on email keys with the NIC priced at 1/96 share: messages and bytes per op cost virtual time, the paper's saturated regime from one thread",
            keyspace: KeySpace::Email,
            preload: 500_000,
            sfc_div: 3,
            net: saturated_nic(),
            mix: Workload::a(),
            calls: 2_000_000,
            shape: Shape::Single,
        },
        Spec {
            name: "write_mix_email",
            why: "uniform 30/40/30 get/update/insert on email keys with an SFC 1/8 of the prefix set: write engine, node growth, INHT splits, SFC eviction and rebuilds, reclaim",
            keyspace: KeySpace::Email,
            preload: 500_000,
            sfc_div: 24,
            net: NetConfig::rdma(),
            mix: mix("MIX", 0.3, 0.4, 0.3),
            calls: 1_200_000,
            shape: Shape::Single,
        },
        Spec {
            name: "ycsb_e_scan",
            why: "95% scans of up to 100 keys: bandwidth- and decode-heavy, little SFC or INHT work, so point-path optimisations must not move it",
            keyspace: KeySpace::U64,
            preload: 500_000,
            sfc_div: 3,
            net: NetConfig::rdma(),
            mix: Workload::e(),
            calls: 150_000,
            shape: Shape::Single,
        },
        Spec {
            name: "hot_update_sched",
            why: "two participants in deterministic lock-step, 70/30 update/get on 16 hot keys: the only contended workload (lock CAS losses, backoff, checksum re-reads)",
            keyspace: KeySpace::U64,
            preload: 10_000,
            sfc_div: 3,
            net: NetConfig::rdma(),
            mix: mix("HOT", 0.3, 0.7, 0.0),
            calls: 200_000,
            shape: Shape::Sched { hot_keys: 16 },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_are_slice_multiples() {
        assert_eq!(scaled(100_000, 1.0), 100_000);
        assert_eq!(scaled(100_000, 0.6), 60_000);
        assert_eq!(scaled(150_000, 0.1) % 40, 0);
        assert_eq!(scaled(10, 0.1), 40);
    }

    #[test]
    fn five_uniquely_named_workloads() {
        let specs = all();
        assert_eq!(specs.len(), 5);
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        assert!(specs.iter().all(|s| s.why.len() <= 200));
        assert!(specs.iter().all(|s| s.participants() <= 2));
    }
}
