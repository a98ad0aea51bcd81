//! Property tests: the on-MN node codecs round-trip arbitrary inputs.

use proptest::prelude::*;

use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot};
use art_core::NodeKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn leaf_codec_roundtrips(
        key in proptest::collection::vec(any::<u8>(), 0..64),
        value in proptest::collection::vec(any::<u8>(), 0..300),
        version in any::<u32>(),
        extra_units in 0u8..3,
    ) {
        let mut leaf = LeafNode::new(key, value);
        leaf.version = version;
        let units = leaf.len_units() + extra_units;
        leaf.set_len_units(units);
        let bytes = leaf.encode();
        prop_assert_eq!(bytes.len(), units as usize * 64);
        let decoded = LeafNode::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &leaf);
        // Any single corrupted payload byte must be detected.
        if bytes.len() > 17 {
            let mut corrupt = bytes.clone();
            corrupt[17] ^= 0x5A;
            if corrupt != bytes {
                prop_assert!(LeafNode::decode(&corrupt).is_err());
            }
        }
    }

    #[test]
    fn inner_codec_roundtrips(
        prefix in proptest::collection::vec(any::<u8>(), 0..20),
        children in proptest::collection::btree_set(any::<u8>(), 0..40),
        kinds in proptest::collection::vec(0u8..4, 40),
    ) {
        let kind = match children.len() {
            0..=4 => NodeKind::Node4,
            5..=16 => NodeKind::Node16,
            _ => NodeKind::Node48,
        };
        let mut node = InnerNode::new(kind, &prefix);
        for (i, byte) in children.iter().enumerate() {
            let child_kind = match kinds[i] {
                0 => NodeKind::Node4,
                1 => NodeKind::Node16,
                2 => NodeKind::Node48,
                _ => NodeKind::Node256,
            };
            node.set_child(Slot::inner(*byte, child_kind, dm_sim::RemotePtr::new(1, 64 + 64 * i as u64)));
        }
        let decoded = InnerNode::decode(&node.encode()).unwrap();
        prop_assert_eq!(&decoded, &node);
        prop_assert_eq!(decoded.header.status, NodeStatus::Idle);
        for byte in &children {
            prop_assert!(decoded.find_child(*byte).is_some());
        }
    }

    #[test]
    fn grown_node_preserves_all_children(
        children in proptest::collection::btree_set(any::<u8>(), 1..48),
    ) {
        let kind = match children.len() {
            0..=4 => NodeKind::Node4,
            5..=16 => NodeKind::Node16,
            _ => NodeKind::Node48,
        };
        let mut node = InnerNode::new(kind, b"p");
        for byte in &children {
            node.set_child(Slot::leaf(*byte, dm_sim::RemotePtr::new(0, 64)));
        }
        let grown = node.grow();
        prop_assert_eq!(grown.child_count(), children.len());
        for byte in &children {
            prop_assert!(grown.find_child(*byte).is_some());
        }
        prop_assert_eq!(grown.header.version, node.header.version.wrapping_add(1));
    }
}
