//! SFC warm-start snapshots at the index level: round trips, corruption
//! robustness, and staleness.
//!
//! The contract under test (docs/SFC.md): a CN loading a snapshot either
//! installs it whole (CRC framing verified, generation not stale) or
//! falls back to a cold start with one counted
//! `sfc.gen.snapshot_rejects` telemetry event — a bad snapshot degrades
//! warm-start, it never poisons the cache, corrupts answers, or panics.

use dm_sim::{ClusterConfig, DmCluster};
use sphinx::sfc::{crc32, SnapshotError, MAGIC, VERSION};
use sphinx::{SphinxConfig, SphinxIndex};

fn key(i: u64) -> Vec<u8> {
    format!("tenant-{:04}/record-{:06}", i % 37, i).into_bytes()
}

/// A populated index whose CN-0 filter has a non-trivial frozen
/// generation (insert → teach filter → force a rebuild).
fn warm_index() -> SphinxIndex {
    let cluster = DmCluster::new(ClusterConfig {
        mn_capacity: 64 << 20,
        ..ClusterConfig::default()
    });
    let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
    let mut client = index.client(0).unwrap();
    for i in 0..600 {
        client.insert(&key(i), format!("v{i}").as_bytes()).unwrap();
    }
    for i in 0..600 {
        client.get(&key(i)).unwrap();
    }
    client.filter_handle().force_rebuild();
    index
}

/// Re-frames `bytes` with a valid CRC after an in-place payload edit, so
/// a test reaches the checks *behind* the CRC gate.
fn reframe(mut bytes: Vec<u8>) -> Vec<u8> {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn snapshot_round_trip_warm_starts_a_joining_cn() {
    let index = warm_index();
    let snap = index.sfc_snapshot(0);
    assert_eq!(&snap[..MAGIC.len()], &MAGIC);
    let frozen_before = index.sfc_stats().frozen_len;
    assert!(
        frozen_before > 0,
        "warm index must have a frozen generation"
    );

    // CN 2 has no workers yet: its filter is created cold by the load.
    index.load_sfc_snapshot(2, &snap).unwrap();
    let stats = index.sfc_stats();
    assert_eq!(stats.snapshot_loads, 1);
    assert_eq!(stats.snapshot_rejects, 0);

    // The warm-started CN answers correctly and its filter already holds
    // the frozen prefix set — no Θ(L) cold-miss ramp.
    let mut joined = index.client(2).unwrap();
    let base = joined.op_stats();
    for i in 0..600 {
        assert_eq!(
            joined.get(&key(i)).unwrap().as_deref(),
            Some(format!("v{i}").as_bytes()),
        );
    }
    let warm = joined.op_stats();
    let gets = warm.gets - base.gets;
    let misses = warm.entry_misses - base.entry_misses;
    assert!(
        (misses as f64) < gets as f64 * 0.10,
        "warm-started CN still ramping: {misses} entry misses over {gets} gets"
    );
}

/// A snapshot taken while the delta cuckoo is grown past its budget carries
/// the delta as its exact log, as always: the loading CN re-seeds (and
/// re-grows) its own cuckoo from it, and snapshots the same bytes back.
#[test]
fn a_grown_delta_travels_as_its_log() {
    let cluster = DmCluster::new(ClusterConfig {
        mn_capacity: 64 << 20,
        ..ClusterConfig::default()
    });
    let config = SphinxConfig {
        cache_bytes: 1 << 10, // a 128-byte delta: 64 slots
        ..SphinxConfig::small()
    };
    let index = SphinxIndex::create(&cluster, config).unwrap();
    let mut client = index.client(0).unwrap();
    let budgeted = index.sfc_stats().delta_bytes;
    let mut taught = 0;
    while index.sfc_stats().delta_bytes <= budgeted {
        assert!(taught < 2_000, "the delta never outgrew {budgeted} B");
        client.insert(&key(taught), b"v").unwrap();
        client.get(&key(taught)).unwrap();
        taught += 1;
    }
    let grown = index.sfc_stats();
    assert!(grown.delta_len > 0 && grown.evictions == 0);

    let snap = index.sfc_snapshot(0);
    index.load_sfc_snapshot(2, &snap).unwrap();
    assert_eq!(index.sfc_snapshot(2), snap, "load, re-snapshot: identity");
    let mut joined = index.client(2).unwrap();
    let filter = joined.filter_handle().clone();
    assert!(
        filter.stats().delta_bytes > budgeted,
        "re-seeded past the budget"
    );
    for i in 0..taught {
        assert_eq!(joined.get(&key(i)).unwrap().as_deref(), Some(&b"v"[..]));
    }
    assert_eq!(filter.stats().evictions, 0);
}

#[test]
fn corrupt_snapshots_are_rejected_counted_and_never_fatal() {
    let index = warm_index();
    let good = index.sfc_snapshot(0);
    let n = good.len();

    // Truncated at an arbitrary interior point.
    let truncated = good[..n / 2].to_vec();
    // One flipped payload bit (CRC catches it).
    let mut flipped = good.clone();
    flipped[n / 2] ^= 0x40;
    // Foreign bytes entirely.
    let garbage = vec![0xA5u8; 64];
    // Wrong version with a *valid* CRC: rejected by the version gate.
    let mut wrong_version = good.clone();
    wrong_version[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
    let wrong_version = reframe(wrong_version);

    let cases: [(&str, &[u8]); 4] = [
        ("truncated", &truncated),
        ("bit-flipped", &flipped),
        ("garbage", &garbage),
        ("wrong-version", &wrong_version),
    ];
    for (i, (what, bytes)) in cases.iter().enumerate() {
        let err = index
            .load_sfc_snapshot(1, bytes)
            .expect_err(&format!("{what} snapshot must be rejected"));
        if *what == "wrong-version" {
            assert_eq!(err, SnapshotError::BadVersion { found: 99 });
        }
        assert_eq!(
            index.sfc_stats().snapshot_rejects,
            i as u64 + 1,
            "{what}: every rejection is one telemetry count"
        );
    }
    assert_eq!(index.sfc_stats().snapshot_loads, 0);
    let reg = index.sfc_telemetry();
    assert_eq!(reg.counter("sfc.gen.snapshot_rejects"), cases.len() as u64);

    // CN 1 stayed cold but fully functional...
    let mut cold = index.client(1).unwrap();
    assert_eq!(cold.get(&key(7)).unwrap().as_deref(), Some(&b"v7"[..]));
    // ...and a good snapshot still installs after all the rejects.
    index.load_sfc_snapshot(1, &good).unwrap();
    assert_eq!(index.sfc_stats().snapshot_loads, 1);
}

#[test]
fn stale_snapshots_do_not_roll_a_cache_back() {
    let index = warm_index();
    let old = index.sfc_snapshot(0);
    let gen_old = index.sfc_stats().generation;

    // Advance CN 0 past the snapshot: new keys, another frozen
    // generation.
    let mut client = index.client(0).unwrap();
    for i in 600..900 {
        client.insert(&key(i), b"later").unwrap();
    }
    client.filter_handle().force_rebuild();
    let gen_new = index.sfc_stats().generation;
    assert!(gen_new > gen_old);

    let err = index.load_sfc_snapshot(0, &old).expect_err("stale");
    assert_eq!(
        err,
        SnapshotError::Stale {
            snapshot: gen_old,
            current: gen_new,
        }
    );
    assert_eq!(index.sfc_stats().snapshot_rejects, 1);
    // The live (newer) generation survived.
    assert_eq!(index.sfc_stats().generation, gen_new);
    let _ = VERSION; // framing constant is part of the public API
}
