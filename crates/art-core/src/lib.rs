//! # art-core — adaptive radix tree building blocks
//!
//! The serialized on-memory-node formats of Fig. 3 of the Sphinx paper
//! ([`layout`]): inner-node headers with status/type/prefix-hash, 8-byte
//! atomic child slots of the four adaptive node kinds ([`NodeKind`],
//! Node4/16/48/256 as in Leis et al., ICDE'13), and checksum-protected leaf
//! nodes; plus the key helpers ([`key`]) and the prefix hash ([`hash`]) the
//! remote trees share. These encodings are *pure* (bytes in, bytes out) and
//! shared between the Sphinx index and the SMART/ART baselines, which move
//! the bytes over the `dm-sim` substrate: the tree itself lives on the
//! memory nodes.
//!
//! One deliberate simplification relative to textbook ART: inner nodes here
//! record their **full prefix** (all bytes from the root) rather than a
//! compressed fragment plus depth. The structure and adaptivity are
//! identical, and the full prefix is exactly the quantity Sphinx's Inner
//! Node Hash Table and Succinct Filter Cache key on.
//!
//! ## Example
//!
//! ```
//! use art_core::layout::{InnerNode, Slot};
//! use art_core::NodeKind;
//! use dm_sim::RemotePtr;
//!
//! let mut node = InnerNode::new(NodeKind::Node4, b"lyr");
//! node.set_child(Slot::leaf(b'e', RemotePtr::new(0, 64)));
//! node.set_child(Slot::inner(b'i', NodeKind::Node16, RemotePtr::new(1, 128)));
//! let bytes = node.encode();
//! assert_eq!(bytes.len(), InnerNode::byte_size(NodeKind::Node4));
//! let back = InnerNode::decode(&bytes).unwrap();
//! assert_eq!(back.find_child(b'i').unwrap().1.child_kind, NodeKind::Node16);
//! assert!(back.find_child(b'x').is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod key;
pub mod layout;

pub use layout::NodeKind;
