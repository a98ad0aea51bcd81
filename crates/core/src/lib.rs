//! # sphinx — a hybrid range index for disaggregated memory
//!
//! Reproduction of *"Sphinx: A High-Performance Hybrid Index for
//! Disaggregated Memory With Succinct Filter Cache"* (DAC 2025).
//!
//! Sphinx stores an adaptive radix tree (ART) on the memory nodes of a
//! disaggregated-memory cluster and attacks the two costs that cripple
//! tree indexes on DM:
//!
//! * **Round trips** — an MN-side **Inner Node Hash Table** maps every
//!   inner node's *full prefix* to its address, so a client can jump
//!   straight to the deepest relevant inner node instead of walking the
//!   tree from the root (§III-A).
//! * **Bandwidth / NIC load** — a CN-side **Succinct Filter Cache**
//!   tracks which prefixes have inner nodes, reducing the hash-entry
//!   reads per operation from Θ(key length) to one in the common case,
//!   while staying coherent under remote modifications (§III-B). The
//!   generational implementation ([`sfc`]) freezes the steady working
//!   set into an immutable binary-fuse generation (~10 bits per prefix
//!   at scale) over a mutable cuckoo delta with second-chance eviction,
//!   folds the delta into the next generation at op boundaries, and
//!   warm-starts joining CNs from CRC-framed snapshots.
//!
//! In the common case an index operation costs **three network round
//! trips**: hash-bucket read → inner-node read → leaf read.
//!
//! ## Example
//!
//! ```
//! use dm_sim::{ClusterConfig, DmCluster};
//! use sphinx::{SphinxConfig, SphinxIndex};
//!
//! # fn main() -> Result<(), sphinx::SphinxError> {
//! let cluster = DmCluster::new(ClusterConfig::default());
//! let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
//! let mut client = index.client(0)?;
//! client.insert(b"lyrics", b"value-1")?;
//! assert_eq!(client.get(b"lyrics")?.as_deref(), Some(&b"value-1"[..]));
//! client.insert(b"lyre", b"value-2")?;
//! let hits = client.scan(b"ly", b"lz")?;
//! assert_eq!(hits.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod error;
mod index;
mod pipeline;
mod scan;
mod scan_iter;
mod scan_n;
mod stats;
mod verify;
mod write_ops;

pub use client::SphinxClient;
pub use config::{CacheMode, SphinxConfig};
pub use error::SphinxError;
pub use index::{SpaceBreakdown, SphinxIndex};
pub use obs;
pub use scan_iter::ScanIter;
pub use sfc;
pub use stats::OpStats;
pub use verify::IntegrityReport;
