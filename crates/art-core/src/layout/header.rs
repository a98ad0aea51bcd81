//! Inner-node header words (control word + full-prefix hash word).

use crate::layout::{LayoutError, NodeKind};

/// Node status, stored in the low byte of the control word.
///
/// * `Idle` — normal state.
/// * `Locked` — a writer holds the node-grained lock (readers of *leaf*
///   nodes instead rely on checksums; inner-node readers may proceed and
///   validate via version/prefix hash).
/// * `Invalid` — the node was retired by a node-type switch; any reader
///   that fetched it through a stale hash entry must retry (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum NodeStatus {
    /// Normal state.
    #[default]
    Idle = 0,
    /// Write-locked.
    Locked = 1,
    /// Retired by a node type switch; readers must retry.
    Invalid = 2,
}

impl NodeStatus {
    /// Decodes a status tag.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownStatus`] for tags other than 0–2.
    pub fn try_from_u8(tag: u8) -> Result<Self, LayoutError> {
        match tag {
            0 => Ok(NodeStatus::Idle),
            1 => Ok(NodeStatus::Locked),
            2 => Ok(NodeStatus::Invalid),
            _ => Err(LayoutError::UnknownStatus { tag }),
        }
    }
}

fn kind_tag(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Node4 => 0,
        NodeKind::Node16 => 1,
        NodeKind::Node48 => 2,
        NodeKind::Node256 => 3,
    }
}

fn kind_from_tag(tag: u8) -> Result<NodeKind, LayoutError> {
    match tag {
        0 => Ok(NodeKind::Node4),
        1 => Ok(NodeKind::Node16),
        2 => Ok(NodeKind::Node48),
        3 => Ok(NodeKind::Node256),
        _ => Err(LayoutError::UnknownNodeType { tag }),
    }
}

/// Decoded inner-node header (the first two 8-byte words of Fig. 3).
///
/// Control word bit layout:
///
/// ```text
/// bits 0..8    status
/// bits 8..16   node type tag
/// bits 16..32  prefix_len (length in bytes of the node's full prefix)
/// bits 32..48  version (incremented on every structural change)
/// bits 48..64  reserved
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InnerHeader {
    /// Current node status.
    pub status: NodeStatus,
    /// Adaptive node type.
    pub kind: NodeKind,
    /// Length of the node's full prefix in bytes.
    pub prefix_len: u16,
    /// Structural version counter.
    pub version: u16,
    /// 42-bit hash of the full prefix (false-positive rejection, §III-B).
    pub prefix_hash42: u64,
}

impl InnerHeader {
    /// Builds an `Idle`, version-0 header for a node of `kind` whose full
    /// prefix is `prefix`.
    pub fn new(kind: NodeKind, prefix: &[u8]) -> Self {
        InnerHeader {
            status: NodeStatus::Idle,
            kind,
            prefix_len: prefix.len() as u16,
            version: 0,
            prefix_hash42: crate::hash::prefix_hash42(prefix),
        }
    }

    /// Encodes the control word (word 0).
    pub fn encode_control(&self) -> u64 {
        (self.status as u64)
            | ((kind_tag(self.kind) as u64) << 8)
            | ((self.prefix_len as u64) << 16)
            | ((self.version as u64) << 32)
    }

    /// Encodes the hash word (word 1).
    pub fn encode_hash(&self) -> u64 {
        self.prefix_hash42 & ((1 << 42) - 1)
    }

    /// Decodes both header words.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownStatus`] / [`LayoutError::UnknownNodeType`]
    /// on corrupt tags.
    pub fn decode(control: u64, hash: u64) -> Result<Self, LayoutError> {
        Ok(InnerHeader {
            status: NodeStatus::try_from_u8((control & 0xFF) as u8)?,
            kind: kind_from_tag(((control >> 8) & 0xFF) as u8)?,
            prefix_len: ((control >> 16) & 0xFFFF) as u16,
            version: ((control >> 32) & 0xFFFF) as u16,
            prefix_hash42: hash & ((1 << 42) - 1),
        })
    }

    /// The control word with only the status replaced — the "expected" /
    /// "new" pair for lock CAS operations.
    pub fn control_with_status(&self, status: NodeStatus) -> u64 {
        let mut h = *self;
        h.status = status;
        h.encode_control()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = InnerHeader {
            status: NodeStatus::Locked,
            kind: NodeKind::Node48,
            prefix_len: 17,
            version: 42,
            prefix_hash42: 0x3FF_FFFF_FFFF,
        };
        let d = InnerHeader::decode(h.encode_control(), h.encode_hash()).unwrap();
        assert_eq!(d, h);
    }

    #[test]
    fn new_header_hashes_prefix() {
        let h = InnerHeader::new(NodeKind::Node4, b"lyr");
        assert_eq!(h.prefix_len, 3);
        assert_eq!(h.prefix_hash42, crate::hash::prefix_hash42(b"lyr"));
        assert_eq!(h.status, NodeStatus::Idle);
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            InnerHeader::decode(0xFF, 0),
            Err(LayoutError::UnknownStatus { tag: 0xFF })
        ));
        assert!(matches!(
            InnerHeader::decode(9 << 8, 0),
            Err(LayoutError::UnknownNodeType { tag: 9 })
        ));
    }

    #[test]
    fn lock_cas_words_differ_only_in_status() {
        let h = InnerHeader::new(NodeKind::Node16, b"abc");
        let idle = h.control_with_status(NodeStatus::Idle);
        let locked = h.control_with_status(NodeStatus::Locked);
        assert_eq!(idle ^ locked, 1); // only the status bit differs
    }

    #[test]
    fn status_tags_roundtrip() {
        for s in [NodeStatus::Idle, NodeStatus::Locked, NodeStatus::Invalid] {
            assert_eq!(NodeStatus::try_from_u8(s as u8).unwrap(), s);
        }
    }
}
