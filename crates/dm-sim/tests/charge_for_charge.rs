//! Charge for charge: one fixed script of round trips must cost exactly
//! what it cost at commit 23ae6eb — every client counter, the virtual
//! clock, every memory node's server-side ledger — and, under the
//! adversarial schedule, take the same grants. The substrate may change
//! how a round trip is *represented* on the host (buffers, queues,
//! tallies); it may not change a verb, a charge or an order.
//!
//! The pinned numbers are the parent's. To re-derive them, copy this file
//! into a checkout of the commit to compare against, run
//! `cargo test -p dm-sim --test charge_for_charge` there and read the
//! values off the assertion messages (docs/TESTING.md).

use std::sync::Arc;

use dm_sim::{
    ClientStats, ClusterConfig, DmClient, DmCluster, DmError, DoorbellBatch, FaultHook, RemotePtr,
    Schedule, ScheduleConfig, Verb,
};

const MNS: u16 = 3;
const SLOTS_PER_MN: usize = 16;

/// 64-bit FNV-1a, for digests of what is too long to pin literally.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Flips the low bit of the first byte of every READ it is shown.
struct FlipFirst;

impl FaultHook for FlipFirst {
    fn corrupt_read(&self, _ptr: RemotePtr, data: &mut [u8]) {
        if let Some(b) = data.first_mut() {
            *b ^= 1;
        }
    }
}

fn cluster() -> DmCluster {
    DmCluster::new(ClusterConfig {
        num_mns: MNS,
        num_cns: 1,
        mn_capacity: 1 << 20,
        ..Default::default()
    })
}

/// The script: the single submissions, then the flushes. Returns how many
/// batches failed.
fn script(cl: &mut DmClient) -> usize {
    let slots = slots(cl);
    single_submissions(cl, &slots);
    flushes(cl, &slots)
}

/// The slots the script addresses, `SLOTS_PER_MN` on each MN.
fn slots(cl: &mut DmClient) -> Vec<RemotePtr> {
    (0..MNS)
        .flat_map(|mn| (0..SLOTS_PER_MN).map(move |_| mn))
        .map(|mn| cl.alloc(mn, 64).expect("slot"))
        .collect()
}

/// The script's first part, where every flush holds one submission: 200
/// single reads, 50 four-verb batches across MNs, 50 `cas_and_read`s.
fn single_submissions(cl: &mut DmClient, slots: &[RemotePtr]) {
    let at = |i: usize| slots[(i * 7) % slots.len()];
    for i in 0..200 {
        let got = cl.read(at(i), 8 + (i % 5) * 12).expect("single read");
        assert_eq!(got.len(), 8 + (i % 5) * 12);
    }
    for i in 0..50 {
        let mut batch = DoorbellBatch::new();
        batch.push(Verb::Write {
            ptr: at(i),
            data: vec![i as u8; 16 + i % 8],
        });
        batch.push(Verb::Read {
            ptr: at(i + 1),
            len: 64,
        });
        batch.push(Verb::Cas {
            ptr: at(i + 2),
            expected: 0,
            new: i as u64,
        });
        batch.push(Verb::Faa {
            ptr: at(i + 3),
            delta: 1,
        });
        assert_eq!(cl.execute(batch).expect("four-verb batch").len(), 4);
    }
    for i in 0..50 {
        let (_, bytes) = cl
            .cas_and_read(at(i), i as u64, i as u64 + 1, at(i + 5), 32)
            .expect("cas_and_read");
        assert_eq!(bytes.len(), 32);
    }
}

/// The script's second part: 20 flushes of 8 submissions, the eleventh with
/// a batch to an unknown MN in its middle. Returns how many batches failed.
fn flushes(cl: &mut DmClient, slots: &[RemotePtr]) -> usize {
    let at = |i: usize| slots[(i * 7) % slots.len()];
    let mut failed = 0;
    for round in 0..20 {
        let tokens: Vec<_> = (0..8)
            .map(|j| {
                let i = round * 8 + j;
                let ptr = if round == 10 && j == 3 {
                    RemotePtr::new(9, 64)
                } else {
                    at(i)
                };
                let verb = match j % 3 {
                    0 => Verb::Read { ptr, len: 24 },
                    1 => Verb::Faa { ptr, delta: 2 },
                    _ => Verb::Write {
                        ptr,
                        data: vec![j as u8; 8],
                    },
                };
                let mut batch = DoorbellBatch::from_iter([verb]);
                if j == 7 {
                    batch.push(Verb::Read {
                        ptr: at(i + 11),
                        len: 40,
                    });
                }
                cl.submit(batch)
            })
            .collect();
        cl.flush_submitted();
        for token in tokens {
            match cl.poll(token).expect("flushed") {
                Ok(_) => {}
                Err(DmError::UnknownMemoryNode { mn_id: 9 }) => failed += 1,
                Err(e) => panic!("unexpected batch error: {e}"),
            }
        }
    }
    failed
}

/// Everything a run leaves behind, as one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    client: ClientStats,
    clock_ns: u64,
    /// Per MN: (verbs, doorbells, service_ns, queue_ns, bytes_read,
    /// bytes_written, digest of the whole `MnStats`).
    mns: Vec<(u64, u64, u64, u64, u64, u64, u64)>,
    dropped_verbs: u64,
    fault_injections: u64,
}

fn ledger(c: &DmCluster, cl: &DmClient) -> Ledger {
    let stats = c.cluster_stats();
    stats
        .check_conservation(&cl.stats())
        .expect("both sides of the ledger agree");
    Ledger {
        client: cl.stats(),
        clock_ns: cl.clock_ns(),
        mns: stats
            .mns
            .iter()
            .map(|m| {
                (
                    m.verbs(),
                    m.doorbells,
                    m.service_ns,
                    m.queue_ns,
                    m.bytes_read,
                    m.bytes_written,
                    fnv(format!("{m:?}").as_bytes()),
                )
            })
            .collect(),
        dropped_verbs: stats.dropped_verbs,
        fault_injections: c.fault_injections(),
    }
}

#[test]
fn the_script_costs_what_it_cost_at_the_parent() {
    let c = cluster();
    let mut cl = c.client(0);
    assert_eq!(script(&mut cl), 1, "only the batch to MN 9 fails");
    let got = ledger(&c, &cl);
    let pinned = Ledger {
        client: ClientStats {
            round_trips: 585,
            doorbells: 466,
            reads: 380,
            writes: 90,
            cas: 100,
            faa: 110,
            frees: 0,
            bytes_read: 13416,
            bytes_written: 2969,
        },
        clock_ns: 749_911,
        mns: vec![
            (232, 158, 2738, 0, 4596, 1033, 1961240188083452613),
            (224, 154, 2639, 0, 4420, 976, 5684363007262671898),
            (223, 154, 2624, 0, 4400, 960, 1850133739010623069),
        ],
        dropped_verbs: 1,
        fault_injections: 0,
    };
    assert_eq!(got, pinned);
}

/// The same script as one scheduled participant under the full fault
/// matrix, a tear hook installed: `(grants, digest of the grant trace,
/// ledger)` per seed.
fn scheduled(seed: u64) -> (usize, u64, Ledger) {
    let c = cluster();
    let schedule = Schedule::new(ScheduleConfig::adversarial(seed));
    schedule.set_tear_hook(Some(Arc::new(FlipFirst)));
    let mut cl = c.client(0);
    cl.attach_schedule(schedule.register());
    assert_eq!(script(&mut cl), 1);
    let trace = schedule.trace();
    let text: Vec<String> = trace.iter().map(ToString::to_string).collect();
    (trace.len(), fnv(text.join(",").as_bytes()), ledger(&c, &cl))
}

#[test]
fn the_adversarial_schedule_takes_the_parents_grants() {
    // (grants, trace digest, clock, torn reads, digest of the whole ledger)
    let got: Vec<(usize, u64, u64, u64, u64)> = (1..=3)
        .map(|seed| {
            let (grants, digest, ledger) = scheduled(seed);
            let whole = fnv(format!("{ledger:?}").as_bytes());
            (
                grants,
                digest,
                ledger.clock_ns,
                ledger.fault_injections,
                whole,
            )
        })
        .collect();
    let pinned = vec![
        (
            460,
            5037324107646497209,
            3_101_469,
            101,
            14255137731004672096,
        ),
        (
            460,
            16046731190825622312,
            3_338_689,
            110,
            16051694530864916300,
        ),
        (460, 4689396232172138100, 3_150_064, 98, 244497311499443978),
    ];
    assert_eq!(got, pinned);
}

/// A schedule gates a step and adds nothing to its charge: the single
/// submissions, run as the only participant of a quiet schedule, leave the
/// ledger they leave unscheduled, one grant per submission.
#[test]
fn a_quiet_schedule_adds_nothing_to_a_single_submissions_charge() {
    let run = |schedule: Option<&Schedule>| {
        let c = cluster();
        let mut cl = c.client(0);
        if let Some(schedule) = schedule {
            cl.attach_schedule(schedule.register());
        }
        let slots = slots(&mut cl);
        single_submissions(&mut cl, &slots);
        ledger(&c, &cl)
    };
    let schedule = Schedule::new(ScheduleConfig::quiet(1));
    assert_eq!(run(Some(&schedule)), run(None));
    assert_eq!(schedule.steps(), 300);
}

/// A flushed empty batch under a schedule takes no grant and charges
/// nothing.
#[test]
fn a_scheduled_empty_batch_takes_no_grant() {
    let c = cluster();
    let schedule = Schedule::new(ScheduleConfig::adversarial(1));
    let mut cl = c.client(0);
    cl.attach_schedule(schedule.register());
    let before = ledger(&c, &cl);
    let token = cl.submit(DoorbellBatch::new());
    cl.flush_submitted();
    let completion = cl.poll(token).expect("flushed").expect("an empty batch");
    assert!(completion.is_empty());
    assert_eq!(schedule.steps(), 0);
    assert_eq!(ledger(&c, &cl), before);
}

/// A cluster-wide fault hook counts exactly the reads it changed.
#[test]
fn a_cluster_fault_hook_counts_each_changed_read_once() {
    let c = cluster();
    c.set_fault_hook(Some(Arc::new(FlipFirst)));
    let mut cl = c.client(0);
    script(&mut cl);
    let reads = cl.stats().reads;
    // The batch to MN 9 is rejected before its effects: its read is
    // counted as issued (and dropped), never served, never corrupted.
    assert_eq!(c.fault_injections(), reads - 1);
}
