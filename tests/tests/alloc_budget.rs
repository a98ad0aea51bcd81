//! Allocation budget of the round-trip path: how many heap allocations one
//! simulated verb, lookup, update and scan cost on a warm index. The
//! ceilings are what the code measured when they were written, plus one —
//! a `Vec` added to the path of a round trip fails here, exactly, where a
//! host clock would only get a little noisier. docs/TESTING.md says how to
//! re-measure one.
//!
//! The counters are thread-local, so the harness's other threads (and other
//! tests of this binary) do not pollute a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dm_sim::{ClusterConfig, DmCluster};
use sphinx::{SphinxClient, SphinxConfig, SphinxIndex};
use ycsb::{value_for, KeySpace};

thread_local! {
    // `const` initialiser, no destructor: touching it from inside the
    // allocator neither allocates nor runs TLS drop.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations per call over `n` calls of `f`: `(all but the costliest 1 %,
/// the costliest)`. The two differ by the maintenance a call in a hundred
/// carries for the others (the amortised reclaim scan: four allocations,
/// three of them inside `reclaim`).
fn per_call<R>(n: u64, mut f: impl FnMut(u64) -> R) -> (u64, u64) {
    let mut counts: Vec<u64> = (0..n).map(|i| allocs(|| f(i)).0).collect();
    counts.sort_unstable();
    (
        counts[counts.len() * 99 / 100 - 1],
        counts[counts.len() - 1],
    )
}

const KEYS: u64 = 20_000;

fn cluster() -> DmCluster {
    DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 1,
        mn_capacity: 64 << 20,
        ..Default::default()
    })
}

/// A warm index over `space`: loaded, then every key read once so the
/// filter has learnt the tree and every scratch buffer has its size.
fn warm(space: KeySpace) -> (DmCluster, SphinxIndex, SphinxClient) {
    let cluster = cluster();
    let index = SphinxIndex::create(&cluster, SphinxConfig::small()).expect("index");
    let mut client = index.client(0).expect("client");
    for i in 0..KEYS {
        client
            .insert(&space.key(i), &value_for(i, 0))
            .expect("load");
    }
    for i in 0..KEYS {
        assert!(client.get(&space.key(i)).expect("warm-up get").is_some());
    }
    (cluster, index, client)
}

/// The substrate's own share: a read is the buffer it returns, a CAS
/// nothing at all — queues, tallies and the one-verb batch and completion
/// are retained or inline.
#[test]
fn a_verb_allocates_the_buffer_it_returns() {
    let c = cluster();
    let mut cl = c.client(0);
    let block = cl.alloc(0, 256).expect("block");
    for _ in 0..4 {
        cl.read(block, 128).expect("warm-up read");
        cl.cas(block, 0, 0).expect("warm-up cas");
    }
    assert_eq!(per_call(64, |_| cl.read(block, 128).expect("read")), (1, 1));
    assert_eq!(
        per_call(64, |i| cl.cas(block, i, i + 1).expect("cas")),
        (0, 0)
    );
}

/// Ceilings of one key space, measured at the commit that wrote them (run
/// with `--nocapture` to see today's numbers), plus one. `get` and `update`
/// are `(all but the costliest 1 %, costliest)`; `scan_over` is what a
/// 50-row scan allocates beyond two per row; `get_many` is one call of 32
/// keys at depth 8.
struct Ceilings {
    get: (u64, u64),
    update: (u64, u64),
    scan_over: i64,
    get_many: u64,
}

fn within_ceilings(space: KeySpace, ceil: Ceilings) {
    let name = space.name();
    let (_cluster, _index, mut client) = warm(space);
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| space.key(i)).collect();
    let pick = |i: u64| &keys[(i * 7919 % KEYS) as usize];

    // A hit: three READ buffers (bucket pair, entry node, leaf), one more
    // per inner node below the entry (two for a `Node48`/`Node256`: its
    // slots do not fit inline), the decoded key and the value returned.
    let get = per_call(2_000, |i| client.get(pick(i)).expect("get").expect("hit"));
    eprintln!("{name}: get {get:?}");
    assert!(
        get.0 <= ceil.get.0 && get.1 <= ceil.get.1,
        "{name}: get {get:?}"
    );

    // In place: the lookup, the lock CAS, the leaf image and its write.
    let value = value_for(1, 1);
    let update = per_call(2_000, |i| {
        assert!(client.update(pick(i), &value).expect("update"));
    });
    eprintln!("{name}: update {update:?}");
    assert!(
        update.0 <= ceil.update.0 && update.1 <= ceil.update.1,
        "{name}: update {update:?}"
    );

    // Two per returned row are the API's (key and value); the rest is the
    // entry lookup, one buffer and one verb list per level, the level
    // vectors, and two per leaf read but out of range.
    let mut sorted = keys.clone();
    sorted.sort();
    let mut over = 0;
    for at in (0..sorted.len() - 50).step_by(997) {
        let (n, rows) = allocs(|| client.scan(&sorted[at], &sorted[at + 49]).expect("scan"));
        assert_eq!(rows.len(), 50, "{name}: a 50-row window");
        over = over.max(n as i64 - 2 * rows.len() as i64);
    }
    eprintln!("{name}: scan {over}");
    assert!(over <= ceil.scan_over, "{name}: scan 2 x rows + {over}");

    // 32 lookups in flight 8 at a time: the machines, their outputs and
    // the result vector are three allocations for the call, not 32.
    let batch = |i: u64| -> Vec<&[u8]> { (0..32).map(|j| pick(i * 32 + j).as_slice()).collect() };
    client.get_many_pipelined(&batch(0), 8).expect("warm-up");
    let many = (1..=50)
        .map(|i| {
            let batch = batch(i);
            allocs(|| client.get_many_pipelined(&batch, 8).expect("multi-get")).0
        })
        .max()
        .unwrap_or(0);
    eprintln!("{name}: many {many}");
    assert!(many <= ceil.get_many, "{name}: get_many(32 keys) {many}");
}

#[test]
fn u64_ops_stay_within_their_ceilings() {
    within_ceilings(
        KeySpace::U64,
        Ceilings {
            get: (7, 11),
            update: (11, 15),
            scan_over: 29,
            get_many: 207,
        },
    );
}

#[test]
fn email_ops_stay_within_their_ceilings() {
    within_ceilings(
        KeySpace::Email,
        Ceilings {
            get: (7, 11),
            update: (11, 14),
            scan_over: 72,
            get_many: 182,
        },
    );
}
