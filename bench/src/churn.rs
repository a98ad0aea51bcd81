//! `sphinx-bench delete-churn`: the repro of the two delete-path defects
//! that keep deletes out of the benchmark's workloads (see README.md,
//! "Excluded: deletes"). Not a workload: it reports no metric.

use art_core::hash::mix64;
use bench_harness::systems::{System, SystemHandle};
use dm_sim::{ClusterConfig, DmCluster};
use ycsb::KeySpace;

use crate::oracle::Items;

const PRELOAD: u64 = 100_000;
const OPS: u64 = 2_000_000;

/// Single-threaded 35 % insert / 35 % delete / 30 % get churn on email
/// keys, then `verify()`. Returns whether both came out clean.
pub fn run(seed: u64) -> Result<bool, String> {
    let cluster = DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 3,
        mn_capacity: 128 << 20,
        ..Default::default()
    });
    let SystemHandle::Sphinx(index) =
        System::Sphinx.build_on(&cluster, Some((PRELOAD / 3) as usize))
    else {
        unreachable!("System::Sphinx builds a Sphinx index");
    };
    let mut client = index.client(0).map_err(|e| format!("client: {e}"))?;
    let items = Items::new(KeySpace::Email, seed);
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    let mut insert = |client: &mut sphinx::SphinxClient, live: &mut Vec<u64>| {
        let idx = next;
        next += 1;
        live.push(idx);
        client.insert(&items.key(idx), &items.value(idx, 0))
    };
    for _ in 0..PRELOAD {
        insert(&mut client, &mut live).map_err(|e| format!("preload: {e}"))?;
    }

    let mut churn_clean = true;
    let mut rng = seed;
    for n in 0..OPS {
        rng = mix64(rng.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let pick = (rng >> 32) as usize % live.len().max(1);
        let (what, failed) = match rng % 100 {
            0..=34 => ("insert", insert(&mut client, &mut live).err()),
            35..=69 if !live.is_empty() => {
                let idx = live.swap_remove(pick);
                match client.remove(&items.key(idx)) {
                    Ok(true) => ("delete", None),
                    Ok(false) => {
                        println!("op {n}: delete of live item {idx} reported it missing");
                        churn_clean = false;
                        ("delete", None)
                    }
                    Err(e) => ("delete", Some(e)),
                }
            }
            _ if !live.is_empty() => match client.get(&items.key(live[pick])) {
                Ok(Some(_)) => ("get", None),
                Ok(None) => {
                    println!("op {n}: get of live item {} found nothing", live[pick]);
                    churn_clean = false;
                    ("get", None)
                }
                Err(e) => ("get", Some(e)),
            },
            _ => continue,
        };
        if let Some(e) = failed {
            println!("op {n} of {OPS} ({} live keys): {what}: {e:?}", live.len());
            churn_clean = false;
            break;
        }
    }
    if churn_clean {
        println!("churn: {OPS} ops clean, {} live keys", live.len());
    }

    let report = index.verify().map_err(|e| format!("verify: {e}"))?;
    println!(
        "verify(): {} leaves (model: {}), {} problems",
        report.leaves,
        live.len(),
        report.problems.len()
    );
    for p in report.problems.iter().take(5) {
        println!("  {p}");
    }
    Ok(churn_clean && report.is_clean())
}
