//! Failure injection: corrupt and tear on-MN state directly and verify
//! the client-side defenses (checksums, status words, suffix checks)
//! respond as designed.

use art_core::hash::prefix_hash64;
use art_core::layout::NodeStatus;
use integration_tests::{find_leaf_ptr, small_cluster as cluster};
use sphinx::{SphinxConfig, SphinxError, SphinxIndex};

#[test]
fn torn_leaf_write_is_detected_never_served() {
    let c = cluster();
    let index = SphinxIndex::create(&c, SphinxConfig::small()).unwrap();
    let mut client = index.client(0).unwrap();
    client
        .insert(b"victim", b"payload-payload-payload")
        .unwrap();
    let ptr = find_leaf_ptr(&c, b"victim", b"payload-payload-payload");

    // Tear the value bytes behind the checksum's back (what a reader of a
    // half-finished in-place update would observe on real RDMA).
    let mn = c.mn(ptr.mn_id()).unwrap();
    let mut original = vec![0u8; 4];
    mn.read_bytes(ptr.offset() + 20, &mut original).unwrap();
    mn.write_bytes(ptr.offset() + 20, &[0xEE; 4]).unwrap();

    // The read path must NOT return the torn value. (A real tear is
    // transient — the writer's WRITE completes — so the reader retries;
    // with a *permanently* torn leaf it exhausts its retry budget, which
    // is the correct refusal behaviour.)
    let got = client.get(b"victim");
    assert!(
        matches!(got, Err(SphinxError::RetriesExhausted { .. })),
        "torn leaf must never be served: {got:?}"
    );

    // The writer's in-flight write "completes" (bytes restored): reads
    // immediately recover — no state was poisoned by the failed attempts.
    mn.write_bytes(ptr.offset() + 20, &original).unwrap();
    assert_eq!(
        client.get(b"victim").unwrap().as_deref(),
        Some(&b"payload-payload-payload"[..])
    );
}

#[test]
fn invalid_status_blocks_reads_until_slot_swap() {
    let c = cluster();
    let index = SphinxIndex::create(&c, SphinxConfig::small()).unwrap();
    let mut client = index.client(0).unwrap();
    client.insert(b"tomb", b"old-value").unwrap();
    let ptr = find_leaf_ptr(&c, b"tomb", b"old-value");

    // Set the leaf's status byte to Invalid (what a deleter does first).
    let mn = c.mn(ptr.mn_id()).unwrap();
    let word0 = mn.load_u64(ptr.offset()).unwrap();
    mn.store_u64(ptr.offset(), (word0 & !0xFF) | NodeStatus::Invalid as u64)
        .unwrap();

    // Readers treat it as deleted.
    assert_eq!(client.get(b"tomb").unwrap(), None);
    // An insert over the tombstone swaps in a fresh leaf.
    client.insert(b"tomb", b"new-value").unwrap();
    assert_eq!(
        client.get(b"tomb").unwrap().as_deref(),
        Some(&b"new-value"[..])
    );
}

#[test]
fn bogus_hash_entry_is_rejected_by_validation() {
    // A hash entry whose fingerprint matches but whose referenced node
    // does not (the filter-cache false-positive path of §III-B) must be
    // filtered by the prefix-hash/length validation, not followed blindly.
    let c = cluster();
    let index = SphinxIndex::create(&c, SphinxConfig::small()).unwrap();
    let mut client = index.client(0).unwrap();
    for word in ["alpha", "alien", "alloy"] {
        client.insert(word.as_bytes(), b"v").unwrap();
    }

    // Locate the real inner node for "al" through the INHT.
    let h_al = prefix_hash64(b"al");
    let mut dm = c.client(0);
    let mn_al = c.place(h_al) as usize;
    let mut table = race_hash::RaceTable::open(&mut dm, index.inht_metas()[mn_al]).unwrap();
    let found = table.search(&mut dm, h_al).unwrap();
    let al_entry = found
        .iter()
        .filter_map(|e| art_core::layout::HashEntry::decode(e.word))
        .find(|he| he.fp == art_core::hash::fp12(b"al"))
        .expect("inner node 'al' registered");

    // Forge an entry for prefix "zz" (which has NO inner node) pointing at
    // the "al" node, with "zz"'s fingerprint — exactly what a double
    // fp-collision would present to the client.
    let h_zz = prefix_hash64(b"zz");
    let mn_zz = c.place(h_zz) as usize;
    let forged = art_core::layout::HashEntry {
        fp: art_core::hash::fp12(b"zz"),
        kind: al_entry.kind,
        addr: al_entry.addr,
    };
    let mut table_zz = race_hash::RaceTable::open(&mut dm, index.inht_metas()[mn_zz]).unwrap();
    table_zz
        .insert(&mut dm, h_zz, forged.encode(), |_c, ws| {
            Ok(vec![h_zz; ws.len()])
        })
        .unwrap();
    // Teach the filter the forged prefix so lookups actually try it.
    client.filter_handle().insert(b"zz");

    // Lookups under the forged prefix must not be misrouted into the 'al'
    // subtree: validation rejects the node (prefix hash mismatch) and the
    // client falls back to shorter prefixes, answering correctly.
    assert_eq!(client.get(b"zzz").unwrap(), None);
    assert_eq!(client.get(b"zz").unwrap(), None);
    // And the real data is untouched.
    assert_eq!(client.get(b"alpha").unwrap().as_deref(), Some(&b"v"[..]));
}

/// Plays the second round trip of an in-place update — the write that
/// stores the value and, with it, releases the leaf's lock — the third
/// time another client reads the leaf, and notes whether the leaf was
/// still `Locked` at that moment.
struct PublishOnThirdRead {
    cluster: dm_sim::DmCluster,
    leaf: dm_sim::RemotePtr,
    publish: Vec<u8>,
    reads: std::sync::atomic::AtomicU64,
    still_locked: std::sync::atomic::AtomicBool,
}

impl dm_sim::FaultHook for PublishOnThirdRead {
    fn corrupt_read(&self, ptr: dm_sim::RemotePtr, _data: &mut [u8]) {
        use std::sync::atomic::Ordering::SeqCst;
        if ptr != self.leaf || self.reads.fetch_add(1, SeqCst) != 2 {
            return;
        }
        let mn = self.cluster.mn(ptr.mn_id()).unwrap();
        let status = mn.load_u64(ptr.offset()).unwrap() & 0xFF;
        self.still_locked
            .store(status == NodeStatus::Locked as u64, SeqCst);
        mn.write_bytes(ptr.offset(), &self.publish).unwrap();
    }
}

/// A delete never CASes a status it did not observe as `Idle`. `remove`
/// used to build its tombstone CAS from whatever status it had read, so it
/// turned a leaf an in-place updater held `Locked` — between the two round
/// trips of `cas_locked_write` — into `Invalid`; the updater's publishing
/// write then stored `Idle` again and the deleted key was back. Here the
/// lock is taken by hand, the remover must wait (it reads the leaf three
/// times and the header still says `Locked`), and only after the
/// publishing write lands does it delete — once.
#[test]
fn remove_waits_for_a_held_leaf_lock() {
    use art_core::layout::LeafNode;
    use bench_harness::systems::System;
    use std::sync::atomic::Ordering::SeqCst;

    for sys in [System::Sphinx, System::Smart, System::Art] {
        let handle = sys.build(64 << 20, Some(64 << 10));
        let c = handle.cluster().clone();
        let mut w = handle.worker(0);
        w.insert(b"held", b"value-one");
        w.insert(b"other", b"x");
        let ptr = find_leaf_ptr(&c, b"held", b"value-one");
        let mn = c.mn(ptr.mn_id()).unwrap();

        // Round trip one of the update: Idle → Locked.
        let old = LeafNode::new(b"held".to_vec(), b"value-one".to_vec());
        let (idle, locked) = old.status_cas_words(NodeStatus::Idle, NodeStatus::Locked);
        assert_eq!(mn.cas_u64(ptr.offset(), idle, locked).unwrap(), idle);
        // Round trip two, held back until the remover has waited.
        let mut new = LeafNode::new(b"held".to_vec(), b"value-two".to_vec());
        new.version = old.version.wrapping_add(1);
        new.set_len_units(old.len_units());
        let hook = std::sync::Arc::new(PublishOnThirdRead {
            cluster: c.clone(),
            leaf: ptr,
            publish: new.encode(),
            reads: 0.into(),
            still_locked: false.into(),
        });
        c.set_fault_hook(Some(hook.clone()));

        assert!(w.remove(b"held"), "{}", sys.label());
        c.set_fault_hook(None);
        assert!(
            hook.still_locked.load(SeqCst),
            "{}: the remover stole the updater's lock ({} leaf reads)",
            sys.label(),
            hook.reads.load(SeqCst)
        );
        assert_eq!(w.get(b"held"), None, "{}", sys.label());
        assert!(!w.remove(b"held"), "{}: deleted twice", sys.label());
        assert_eq!(w.get(b"other").as_deref(), Some(&b"x"[..]));
    }
}
