//! Leaf-node encoding with checksum protection.

use crate::layout::crc::crc32_parts;
use crate::layout::header::NodeStatus;
use crate::layout::LayoutError;

/// A decoded leaf node.
///
/// On-MN layout (64-byte aligned, `LeafLen` in 64-byte units per §IV):
///
/// ```text
/// word 0: status(8) | leaf_len_units(8) | key_len(16) | checksum(32)
/// word 1: val_len(32) | version(32)
/// 16.. : key bytes, value bytes, zero padding
/// ```
///
/// The checksum covers `key_len`, `val_len`, key and value — **not** the
/// status byte — so writers can lock/unlock without re-checksumming and
/// readers detect torn reads from concurrent in-place updates (§III-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafNode {
    /// Leaf status (`Idle`, `Locked` during in-place update, `Invalid`
    /// after deletion).
    pub status: NodeStatus,
    /// The stored key.
    pub key: Vec<u8>,
    /// The stored value.
    pub value: Vec<u8>,
    /// Update version counter.
    pub version: u32,
    /// Allocated size in 64-byte units (the `LeafLen` field). At least the
    /// minimal size for the content; an in-place update may leave it
    /// larger than minimal.
    units: u8,
}

impl LeafNode {
    /// Creates an `Idle`, version-0 leaf sized minimally for its content.
    pub fn new(key: Vec<u8>, value: Vec<u8>) -> Self {
        let units = (Self::encoded_size(key.len(), value.len()) / 64) as u8;
        LeafNode {
            status: NodeStatus::Idle,
            key,
            value,
            version: 0,
            units,
        }
    }

    /// Encoded size in bytes for a key/value pair: header plus payload,
    /// rounded up to a multiple of 64.
    pub fn encoded_size(key_len: usize, val_len: usize) -> usize {
        (16 + key_len + val_len).div_ceil(64) * 64
    }

    /// Size of this leaf in 64-byte units (the `LeafLen` field).
    pub fn len_units(&self) -> u8 {
        self.units
    }

    /// Fixes the allocated size to `units` 64-byte units (in-place updates
    /// keep the original allocation).
    ///
    /// # Panics
    ///
    /// Panics if the content needs more than `units` units.
    pub fn set_len_units(&mut self, units: u8) {
        let need = Self::encoded_size(self.key.len(), self.value.len());
        assert!(
            need <= units as usize * 64,
            "leaf content exceeds {units} units"
        );
        self.units = units;
    }

    /// Capacity in bytes available for the value without reallocating
    /// (i.e. the in-place-update budget of §IV's Update operation).
    pub fn value_capacity(&self) -> usize {
        self.len_units() as usize * 64 - 16 - self.key.len()
    }

    /// Whether a new value of `val_len` bytes fits in place.
    pub fn fits_in_place(&self, val_len: usize) -> bool {
        val_len <= self.value_capacity()
    }

    fn checksum(&self) -> u32 {
        checksum(&self.key, &self.value)
    }

    /// Serializes the leaf to its on-MN byte layout.
    ///
    /// # Panics
    ///
    /// Panics if the key exceeds 64 KiB or the leaf exceeds 255 64-byte
    /// units (the `LeafLen` field width).
    pub fn encode(&self) -> Vec<u8> {
        let header = (self.status, self.units, self.version);
        encode_parts(header, &self.key, &self.value)
    }

    /// The bytes [`LeafNode::new`]`(key, value).encode()` produces, from
    /// borrowed content: what a writer publishing a fresh leaf needs,
    /// without a `LeafNode` (and its two copies) in between.
    ///
    /// # Panics
    ///
    /// As [`LeafNode::encode`].
    pub fn encode_new(key: &[u8], value: &[u8]) -> Vec<u8> {
        let units = (Self::encoded_size(key.len(), value.len()) / 64) as u8;
        encode_parts((NodeStatus::Idle, units, 0), key, value)
    }

    /// The allocated size in bytes the first word of an encoded leaf names
    /// (`LeafLen` × 64, at least one unit) — what a reader that fetched a
    /// size hint needs to fetch the rest. `None`: fewer than 8 bytes.
    pub fn stored_len(bytes: &[u8]) -> Option<usize> {
        let word0 = u64::from_le_bytes(bytes.get(..8)?.try_into().expect("8 bytes"));
        Some((((word0 >> 8) & 0xFF) as usize).max(1) * 64)
    }

    /// Decodes and checksum-verifies a leaf.
    ///
    /// # Errors
    ///
    /// * [`LayoutError::TruncatedNode`] — buffer shorter than the header
    ///   or the payload lengths claim.
    /// * [`LayoutError::ChecksumMismatch`] — torn read or corruption; the
    ///   caller should re-read the leaf.
    /// * [`LayoutError::UnknownStatus`] — corrupt status tag.
    pub fn decode(bytes: &[u8]) -> Result<Self, LayoutError> {
        Self::decode_inner(bytes, true)
    }

    /// Decodes a leaf **without** verifying the checksum (structural checks
    /// still apply). This deliberately serves torn bytes; it exists only so
    /// fault-injection harnesses can model a protocol with validation
    /// switched off (`node_engine::set_leaf_validation`) and prove the
    /// linearizability checker catches the resulting anomalies. Never call
    /// it on a data path.
    pub fn decode_unverified(bytes: &[u8]) -> Result<Self, LayoutError> {
        Self::decode_inner(bytes, false)
    }

    fn decode_inner(bytes: &[u8], verify: bool) -> Result<Self, LayoutError> {
        if bytes.len() < 16 {
            return Err(LayoutError::TruncatedNode {
                need: 16,
                have: bytes.len(),
            });
        }
        let word0 = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let word1 = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let status = NodeStatus::try_from_u8((word0 & 0xFF) as u8)?;
        let key_len = ((word0 >> 16) & 0xFFFF) as usize;
        let stored = (word0 >> 32) as u32;
        let val_len = (word1 & 0xFFFF_FFFF) as usize;
        let version = (word1 >> 32) as u32;
        let need = 16 + key_len + val_len;
        if bytes.len() < need {
            return Err(LayoutError::TruncatedNode {
                need,
                have: bytes.len(),
            });
        }
        let units = ((word0 >> 8) & 0xFF) as u8;
        let leaf = LeafNode {
            status,
            key: bytes[16..16 + key_len].to_vec(),
            value: bytes[16 + key_len..need].to_vec(),
            version,
            units: units.max(need.div_ceil(64) as u8),
        };
        let computed = leaf.checksum();
        if verify && computed != stored {
            return Err(LayoutError::ChecksumMismatch { stored, computed });
        }
        Ok(leaf)
    }

    /// The header word a peer must observe to CAS this leaf's status from
    /// `from` to `to` (both words share everything but the status byte).
    pub fn status_cas_words(&self, from: NodeStatus, to: NodeStatus) -> (u64, u64) {
        let base = ((self.len_units() as u64) << 8)
            | ((self.key.len() as u64) << 16)
            | ((self.checksum() as u64) << 32);
        (base | from as u64, base | to as u64)
    }
}

fn checksum(key: &[u8], value: &[u8]) -> u32 {
    // Both length words as one 8-byte part: one sliced CRC step.
    let lens = (key.len() as u32 as u64) | ((value.len() as u32 as u64) << 32);
    crc32_parts(&[&lens.to_le_bytes(), key, value])
}

/// The on-MN image of a leaf with header `(status, units, version)`.
fn encode_parts(header: (NodeStatus, u8, u32), key: &[u8], value: &[u8]) -> Vec<u8> {
    let (status, units, version) = header;
    let size = units as usize * 64;
    debug_assert!(size >= LeafNode::encoded_size(key.len(), value.len()));
    assert!(
        key.len() <= u16::MAX as usize,
        "key too long for leaf header"
    );
    let mut out = vec![0u8; size];
    let word0 = (status as u64)
        | ((units as u64) << 8)
        | ((key.len() as u64) << 16)
        | ((checksum(key, value) as u64) << 32);
    let word1 = (value.len() as u64) | ((version as u64) << 32);
    out[0..8].copy_from_slice(&word0.to_le_bytes());
    out[8..16].copy_from_slice(&word1.to_le_bytes());
    out[16..16 + key.len()].copy_from_slice(key);
    let v0 = 16 + key.len();
    out[v0..v0 + value.len()].copy_from_slice(value);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let leaf = LeafNode::new(b"user42".to_vec(), vec![7u8; 64]);
        let bytes = leaf.encode();
        assert_eq!(bytes.len() % 64, 0);
        assert_eq!(LeafNode::decode(&bytes).unwrap(), leaf);
        assert_eq!(LeafNode::encode_new(b"user42", &[7u8; 64]), bytes);
        assert_eq!(
            LeafNode::encode_new(b"", b""),
            LeafNode::new(vec![], vec![]).encode()
        );
    }

    #[test]
    fn empty_value_roundtrip() {
        let leaf = LeafNode::new(b"k".to_vec(), Vec::new());
        assert_eq!(LeafNode::decode(&leaf.encode()).unwrap(), leaf);
    }

    #[test]
    fn encoded_size_is_64_aligned_and_minimal() {
        assert_eq!(LeafNode::encoded_size(6, 42), 64);
        assert_eq!(LeafNode::encoded_size(6, 43), 128);
        assert_eq!(LeafNode::encoded_size(0, 0), 64);
    }

    #[test]
    fn corruption_detected() {
        let leaf = LeafNode::new(b"key".to_vec(), b"value".to_vec());
        let mut bytes = leaf.encode();
        bytes[20] ^= 0x01; // flip one key bit
        assert!(matches!(
            LeafNode::decode(&bytes),
            Err(LayoutError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn decode_unverified_serves_torn_bytes() {
        let leaf = LeafNode::new(b"key".to_vec(), b"value".to_vec());
        let mut bytes = leaf.encode();
        bytes[20] ^= 0x01; // flip one payload bit
        assert!(LeafNode::decode(&bytes).is_err());
        let torn = LeafNode::decode_unverified(&bytes).unwrap();
        assert_ne!(torn.value, leaf.value, "torn payload must be served as-is");
        // Structural failures are still rejected.
        assert!(LeafNode::decode_unverified(&bytes[..10]).is_err());
    }

    #[test]
    fn status_change_does_not_break_checksum() {
        let mut leaf = LeafNode::new(b"key".to_vec(), b"value".to_vec());
        leaf.status = NodeStatus::Locked;
        let decoded = LeafNode::decode(&leaf.encode()).unwrap();
        assert_eq!(decoded.status, NodeStatus::Locked);
    }

    #[test]
    fn fits_in_place_budget() {
        let leaf = LeafNode::new(b"12345678".to_vec(), vec![0; 30]);
        // one 64-byte unit: 64 - 16 - 8 = 40 bytes of value capacity
        assert_eq!(leaf.value_capacity(), 40);
        assert!(leaf.fits_in_place(40));
        assert!(!leaf.fits_in_place(41));
    }

    #[test]
    fn cas_words_flip_only_status() {
        let leaf = LeafNode::new(b"a".to_vec(), b"b".to_vec());
        let (from, to) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Locked);
        assert_eq!(from ^ to, 1);
        // the "from" word matches the actually encoded word0
        let bytes = leaf.encode();
        let word0 = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        assert_eq!(word0, from);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let leaf = LeafNode::new(b"key".to_vec(), vec![1; 100]);
        let bytes = leaf.encode();
        assert!(LeafNode::decode(&bytes[..10]).is_err());
        assert!(LeafNode::decode(&bytes[..60]).is_err());
    }

    #[test]
    fn padded_units_survive_roundtrip_and_cas_words() {
        let mut leaf = LeafNode::new(b"k".to_vec(), vec![5u8; 10]); // naturally 1 unit
        leaf.set_len_units(3);
        let bytes = leaf.encode();
        assert_eq!(bytes.len(), 192);
        let d = LeafNode::decode(&bytes).unwrap();
        assert_eq!(d.value, leaf.value);
        assert_eq!(d.len_units(), 3, "allocation size must be preserved");
        // the CAS words computed from the decoded leaf must match the
        // stored word 0 exactly (otherwise a second update livelocks)
        let word0 = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let (from, _to) = d.status_cas_words(NodeStatus::Idle, NodeStatus::Locked);
        assert_eq!(word0, from);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn set_len_units_rejects_overflow() {
        let mut leaf = LeafNode::new(b"key".to_vec(), vec![0u8; 200]);
        leaf.set_len_units(1);
    }

    #[test]
    fn version_survives_roundtrip() {
        let mut leaf = LeafNode::new(b"k".to_vec(), b"v".to_vec());
        leaf.version = 0xDEAD_BEEF;
        assert_eq!(
            LeafNode::decode(&leaf.encode()).unwrap().version,
            0xDEAD_BEEF
        );
    }
}
