//! # race-hash — one-sided extendible hashing on disaggregated memory
//!
//! A RACE-style hash table (Zuo et al., USENIX ATC'21) storing 8-byte
//! entries, used by Sphinx as the **Inner Node Hash Table** (§III-A).
//! Design points reproduced from RACE:
//!
//! * **One round-trip search.** Clients cache the directory locally; a
//!   lookup computes the bucket-pair address from the cache and reads the
//!   128-byte pair with a single one-sided READ.
//! * **Lock-free entry writes.** Inserting/removing/replacing an entry is
//!   a single 8-byte CAS, as the Sphinx paper requires ("a write operation
//!   only affects an 8-byte hash entry").
//! * **Extendible resizing.** Segments carry a local depth; when a bucket
//!   pair fills, the segment splits under a segment lock, the directory is
//!   updated (under a meta lock that serializes directory/global-depth
//!   changes), and clients with stale caches detect the move via the
//!   *suffix check*: every bucket header records its segment's local depth
//!   and hash suffix, and a mismatch with the key's hash tells the client
//!   to refresh its directory cache and retry.
//!
//! The table is *value-agnostic*: entries are any non-zero `u64` words
//! (zero means "empty slot"). Sphinx stores its 8-byte hash entries; the
//! tests here use arbitrary words.
//!
//! ## Example
//!
//! ```
//! use dm_sim::{ClusterConfig, DmCluster};
//! use race_hash::{RaceTable, TableConfig};
//!
//! # fn main() -> Result<(), race_hash::RaceError> {
//! let cluster = DmCluster::new(ClusterConfig::default());
//! let mut client = cluster.client(0);
//! let meta = RaceTable::create(&mut client, 0, &TableConfig::default())?;
//! let mut table = RaceTable::open(&mut client, meta)?;
//! // The closure is the split oracle: given a batch of entry words it
//! // returns each entry's key hash (here every entry has the same one).
//! table.insert(&mut client, 0xFEED_u64, 42, |_c, ws| Ok(vec![0xFEED; ws.len()]))?;
//! let hits = table.search(&mut client, 0xFEED_u64)?;
//! assert_eq!(hits[0].word, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layout;
mod table;

pub use layout::{BucketHeader, DirEntry, TableConfig};
pub use table::{FoundEntries, FoundEntry, RaceCounters, RaceError, RaceTable, TableStats};
