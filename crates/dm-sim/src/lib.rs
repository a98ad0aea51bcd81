//! # dm-sim — a disaggregated-memory substrate simulator
//!
//! This crate stands in for the RDMA-based disaggregated memory (DM) cluster
//! used by the Sphinx paper (DAC 2025). It provides:
//!
//! * **Memory nodes** ([`MemoryNode`]): byte-addressable remote heaps backed
//!   by `AtomicU64` words, so concurrent one-sided accesses exhibit the same
//!   torn-read/torn-write behaviour as real RDMA, and 8-byte aligned words
//!   can be manipulated atomically (RDMA CAS/FAA semantics).
//! * **One-sided verbs** ([`DmClient`], the one verb API): `read`, `write`,
//!   `cas`, `faa`, the batch combinators (`read_many`, `cas_and_read`, …),
//!   plus [`DoorbellBatch`] for issuing many verbs in a single network round
//!   trip (the doorbell-batching mechanism of Kalia et al., USENIX ATC'16)
//!   and a submission/completion queue whose flush fuses the batches of
//!   several in-flight ops into one burst.
//! * **A virtual-time network model** ([`NetConfig`], [`Nic`]): every client
//!   carries its own virtual clock; each round trip charges base RTT,
//!   per-message NIC processing, and per-byte serialization, with NIC
//!   contention modeled as a FIFO server in virtual time. Throughput and
//!   latency measurements are therefore deterministic in *shape* and
//!   independent of how many physical cores the host has.
//! * **Cluster placement** ([`DmCluster`]): consistent hashing of objects
//!   across memory nodes.
//!
//! ## Example
//!
//! ```
//! use dm_sim::{DmCluster, ClusterConfig};
//!
//! # fn main() -> Result<(), dm_sim::DmError> {
//! let cluster = DmCluster::new(ClusterConfig::default());
//! let mut client = cluster.client(0);
//! let ptr = client.alloc(0, 64)?;
//! client.write(ptr, b"hello disaggregated world")?;
//! let back = client.read(ptr, 25)?;
//! assert_eq!(&back, b"hello disaggregated world");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod alloc;
mod client;
mod cluster;
mod error;
mod heap;
mod inline;
mod mn_stats;
mod net;
mod ring;
mod schedule;
mod stats;
pub mod trace;
mod transport;

pub use addr::RemotePtr;
pub use alloc::{size_class, AllocStats};
pub use client::{DmClient, DoorbellBatch, Verb, VerbResult};
pub use cluster::{ClusterConfig, DmCluster};
pub use error::DmError;
pub use heap::MemoryNode;
pub use inline::{FirstInline, InlineVec};
pub use mn_stats::{ClusterStats, MnStats, HEAT_REGIONS};
pub use net::{NetConfig, Nic, NicCharge};
pub use ring::HashRing;
pub use schedule::{Schedule, ScheduleConfig, ScheduleHandle, StepDecision, TraceStep};
pub use stats::{ClientStats, LatencyHistogram};
pub use transport::{Completion, FaultHook, RetryPolicy, SqeToken};
