//! Inner Node Hash Table entries (8 bytes, Fig. 3).

use crate::layout::NodeKind;

/// One Inner Node Hash Table entry: maps a full inner-node prefix to the
/// node's address plus lightweight metadata, in a single 8-byte word so it
/// can be read and updated with one atomic verb.
///
/// ```text
/// bits 0..48   packed48 node address
/// bits 48..50  node type tag
/// bits 50..62  12-bit prefix fingerprint fp₂
/// bit  62      valid
/// bit  63      reserved
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashEntry {
    /// 12-bit fingerprint of the full prefix (never 0).
    pub fp: u16,
    /// Adaptive type of the referenced inner node (lets the client read
    /// exactly the right number of bytes).
    pub kind: NodeKind,
    /// Address of the inner node.
    pub addr: dm_sim::RemotePtr,
}

impl HashEntry {
    /// Encodes the entry with the valid bit set.
    pub fn encode(&self) -> u64 {
        let kind_tag = match self.kind {
            NodeKind::Node4 => 0u64,
            NodeKind::Node16 => 1,
            NodeKind::Node48 => 2,
            NodeKind::Node256 => 3,
        };
        debug_assert!(self.fp < (1 << 12) && self.fp != 0);
        self.addr.to_packed48() | (kind_tag << 48) | ((self.fp as u64) << 50) | (1 << 62)
    }

    /// Decodes an entry word; `None` if the valid bit is clear.
    pub fn decode(word: u64) -> Option<HashEntry> {
        if word & (1 << 62) == 0 {
            return None;
        }
        let kind = match (word >> 48) & 0b11 {
            0 => NodeKind::Node4,
            1 => NodeKind::Node16,
            2 => NodeKind::Node48,
            _ => NodeKind::Node256,
        };
        Some(HashEntry {
            fp: ((word >> 50) & 0xFFF) as u16,
            kind,
            addr: dm_sim::RemotePtr::from_packed48(word & ((1 << 48) - 1)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::RemotePtr;

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [
            NodeKind::Node4,
            NodeKind::Node16,
            NodeKind::Node48,
            NodeKind::Node256,
        ] {
            let e = HashEntry {
                fp: 0xABC,
                kind,
                addr: RemotePtr::new(3, 0x1_0000),
            };
            assert_eq!(HashEntry::decode(e.encode()), Some(e));
        }
    }

    #[test]
    fn zero_word_is_empty() {
        assert_eq!(HashEntry::decode(0), None);
    }

    #[test]
    fn max_fp_fits() {
        let e = HashEntry {
            fp: 0xFFF,
            kind: NodeKind::Node4,
            addr: RemotePtr::new(0, 64),
        };
        assert_eq!(HashEntry::decode(e.encode()).unwrap().fp, 0xFFF);
    }
}
