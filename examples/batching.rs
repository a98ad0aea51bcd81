//! The batching extensions in action: `get_many_pipelined`, `scan_n`,
//! `scan_iter`.
//!
//! The paper's doorbell-batching idiom generalizes beyond single
//! operations: N independent lookups in flight share each round-trip time
//! (their reads fuse into one doorbell per scheduling round), and ordered
//! scans page with cost proportional to the result. This example measures
//! each against its naive equivalent.
//!
//! ```text
//! cargo run --release -p sphinx-examples --bin batching
//! ```

use dm_sim::{ClusterConfig, DmCluster};
use sphinx::{SphinxConfig, SphinxIndex};
use ycsb::{value_for, KeySpace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 30_000u64;
    let cluster = DmCluster::new(ClusterConfig {
        mn_capacity: 1 << 30,
        ..ClusterConfig::default()
    });
    let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
    let mut client = index.client(0)?;
    println!("loading {n} u64 keys…");
    for i in 0..n {
        client.insert(&KeySpace::U64.key(i), &value_for(i, 0))?;
    }
    // Warm the filter, then measure from a clean network state.
    for i in (0..n).step_by(2) {
        client.get(&KeySpace::U64.key(i))?;
    }

    // ---- pipelined gets vs a loop of gets ---------------------------
    let batch = 256usize;
    let keys: Vec<Vec<u8>> = (0..batch as u64)
        .map(|i| KeySpace::U64.key(i * 97 % n))
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

    cluster.reset_network();
    client.set_clock_ns(0);
    let before = client.net_stats();
    for k in &refs {
        client.get(k)?;
    }
    let loop_bells = client.net_stats().since(&before).doorbells;
    let loop_ns = client.clock_ns();

    cluster.reset_network();
    client.set_clock_ns(0);
    let before = client.net_stats();
    let results = client.get_many_pipelined(&refs, batch)?;
    let batch_bells = client.net_stats().since(&before).doorbells;
    let batch_ns = client.clock_ns();
    assert!(results.iter().all(Option::is_some));

    println!("\n{batch} point lookups (warm):");
    println!(
        "  get() loop          {loop_bells:>5} doorbells   {:>8.1} us",
        loop_ns as f64 / 1e3
    );
    println!(
        "  get_many_pipelined  {batch_bells:>5} doorbells   {:>8.1} us   ({:.0}x fewer)",
        batch_ns as f64 / 1e3,
        loop_bells as f64 / batch_bells.max(1) as f64
    );

    // ---- scan_n: "next 50 rows" with result-proportional cost -------
    cluster.reset_network();
    client.set_clock_ns(0);
    let before = client.net_stats();
    let window = client.scan_n(&KeySpace::U64.key(1234), 50)?;
    let rts = client.net_stats().since(&before).round_trips;
    println!(
        "\nscan_n(start, 50) over {n} keys: {} rows in {rts} round trips",
        window.len()
    );

    // ---- scan_iter: stream a big range without materializing --------
    cluster.reset_network();
    client.set_clock_ns(0);
    let mut checksum = 0u64;
    let mut rows = 0u64;
    for item in client
        .scan_iter(&KeySpace::U64.key(0))
        .with_page_size(128)
        .take(5_000)
    {
        let (k, _) = item?;
        checksum ^= u64::from_be_bytes(k[..8].try_into()?);
        rows += 1;
    }
    println!(
        "scan_iter streamed {rows} rows (xor fingerprint {checksum:#018x}) in {:.1} us virtual",
        client.clock_ns() as f64 / 1e3
    );
    Ok(())
}
