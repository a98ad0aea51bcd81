//! Serialized on-memory-node formats (Fig. 3 of the Sphinx paper).
//!
//! Everything here is pure byte encoding/decoding; the actual remote
//! transfers happen in the `sphinx` and `baselines` crates over `dm-sim`.
//!
//! ## Inner node
//!
//! ```text
//! offset  size  field
//! 0       8     control word: status | node type | prefix_len | version
//! 8       8     full-prefix hash (42 bits) — false-positive rejection
//! 16      8     value slot (leaf whose key == this node's full prefix)
//! 24      8*C   child slots (C = 4/16/48/256 by node type)
//! ```
//!
//! Every control quantity fits in one 8-byte word so it can be read and
//! CAS-ed atomically with a single one-sided verb.
//!
//! ## Leaf node
//!
//! ```text
//! offset  size  field
//! 0       8     status | leaf_len (64 B units) | key_len | checksum
//! 8       8     val_len | version
//! 16      ...   key bytes, value bytes, zero padding to a 64 B multiple
//! ```
//!
//! The CRC-32 checksum covers the lengths, key and value — not the status
//! byte — so a reader can detect torn reads caused by a concurrent
//! in-place update, and a writer can flip the lock bit without
//! re-checksumming.

mod crc;
mod entry;
mod header;
mod inner;
mod leaf;

pub use crc::crc32;
pub use entry::HashEntry;
pub use header::{InnerHeader, NodeStatus};
pub use inner::{InnerNode, Slots, SLOTS_OFFSET, VALUE_SLOT_OFFSET};
pub use leaf::LeafNode;

use std::error::Error;
use std::fmt;

/// A child pointer inside an inner node: one 8-byte word.
///
/// ```text
/// bits 0..48   packed48 address (8-bit MN | 40-bit offset)
/// bits 48..56  key byte dispatched on
/// bit  56      occupied
/// bit  57      child is a leaf (vs an inner node)
/// bits 58..60  child node kind (inner children; lets the reader fetch
///              exactly the right number of bytes in one round trip)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The key byte this child is dispatched on.
    pub key_byte: u8,
    /// Whether the child is a leaf node.
    pub is_leaf: bool,
    /// For inner children, the child's adaptive node kind (ignored for
    /// leaves — set it to `NodeKind::Node4`).
    pub child_kind: crate::local::NodeKind,
    /// Address of the child node.
    pub addr: dm_sim::RemotePtr,
}

impl Slot {
    /// Convenience constructor for a leaf child.
    pub fn leaf(key_byte: u8, addr: dm_sim::RemotePtr) -> Slot {
        Slot {
            key_byte,
            is_leaf: true,
            child_kind: crate::local::NodeKind::Node4,
            addr,
        }
    }

    /// Convenience constructor for an inner child of the given kind.
    pub fn inner(key_byte: u8, kind: crate::local::NodeKind, addr: dm_sim::RemotePtr) -> Slot {
        Slot {
            key_byte,
            is_leaf: false,
            child_kind: kind,
            addr,
        }
    }

    /// Encodes the slot into its 8-byte word (occupied bit set).
    pub fn encode(&self) -> u64 {
        let kind_tag = match self.child_kind {
            crate::local::NodeKind::Node4 => 0u64,
            crate::local::NodeKind::Node16 => 1,
            crate::local::NodeKind::Node48 => 2,
            crate::local::NodeKind::Node256 => 3,
        };
        let mut w = self.addr.to_packed48();
        w |= (self.key_byte as u64) << 48;
        w |= 1 << 56; // occupied
        if self.is_leaf {
            w |= 1 << 57;
        }
        w |= kind_tag << 58;
        w
    }

    /// Decodes a slot word; `None` if the occupied bit is clear.
    pub fn decode(word: u64) -> Option<Slot> {
        if word & (1 << 56) == 0 {
            return None;
        }
        let child_kind = match (word >> 58) & 0b11 {
            0 => crate::local::NodeKind::Node4,
            1 => crate::local::NodeKind::Node16,
            2 => crate::local::NodeKind::Node48,
            _ => crate::local::NodeKind::Node256,
        };
        Some(Slot {
            key_byte: ((word >> 48) & 0xFF) as u8,
            is_leaf: word & (1 << 57) != 0,
            child_kind,
            addr: dm_sim::RemotePtr::from_packed48(word & ((1 << 48) - 1)),
        })
    }
}

/// Errors from decoding on-MN bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// The buffer is shorter than the encoded structure requires.
    TruncatedNode {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// An unknown node-type tag was found in a header.
    UnknownNodeType {
        /// The offending tag.
        tag: u8,
    },
    /// An unknown status tag was found in a header.
    UnknownStatus {
        /// The offending tag.
        tag: u8,
    },
    /// A leaf checksum did not match (torn read or corruption).
    ChecksumMismatch {
        /// Checksum stored in the leaf.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::TruncatedNode { need, have } => {
                write!(f, "truncated node: need {need} bytes, have {have}")
            }
            LayoutError::UnknownNodeType { tag } => write!(f, "unknown node type tag {tag}"),
            LayoutError::UnknownStatus { tag } => write!(f, "unknown status tag {tag}"),
            LayoutError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "leaf checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
        }
    }
}

impl Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::RemotePtr;

    #[test]
    fn slot_roundtrip() {
        let s = Slot::leaf(0xAB, RemotePtr::new(2, 0x1234));
        let w = s.encode();
        assert_eq!(Slot::decode(w), Some(s));
    }

    #[test]
    fn slot_carries_child_kind() {
        use crate::local::NodeKind;
        for kind in [
            NodeKind::Node4,
            NodeKind::Node16,
            NodeKind::Node48,
            NodeKind::Node256,
        ] {
            let s = Slot::inner(9, kind, RemotePtr::new(0, 128));
            assert_eq!(Slot::decode(s.encode()).unwrap().child_kind, kind);
        }
    }

    #[test]
    fn empty_word_decodes_to_none() {
        assert_eq!(Slot::decode(0), None);
    }

    #[test]
    fn inner_child_slot_roundtrip() {
        let s = Slot::inner(0, crate::local::NodeKind::Node48, RemotePtr::new(0, 64));
        assert_eq!(Slot::decode(s.encode()), Some(s));
    }
}
