//! Scan probe: what one 50-row range scan costs, on both key spaces.
//!
//! Loads `keys` u64 keys and `keys` email keys into two indexes, then runs
//! `ranges` fixed 50-row `scan`s over each and prints the mean round trips,
//! wire bytes and virtual latency per scan. A scan enters the tree at the
//! deepest inner node whose prefix both bounds share, so the numbers say
//! how much of the root-down walk the entry saved (email keys share long
//! prefixes and save the most). Virtual-time numbers are deterministic:
//! compare them digit for digit between two commits.
//!
//! ```text
//! cargo run --release -p sphinx-examples --bin scan_probe [-- keys ranges value_bytes]
//! ```

use dm_sim::{ClusterConfig, DmCluster};
use sphinx::{SphinxConfig, SphinxIndex};
use ycsb::KeySpace;

const ROWS: usize = 50;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let n = args.next().transpose()?.unwrap_or(250_000);
    let ranges = args.next().transpose()?.unwrap_or(2_000);
    let value_bytes = args.next().transpose()?.unwrap_or(64);
    println!("{ranges} scans of {ROWS} rows over {n} keys, {value_bytes}-byte values");
    println!("keys    rts/scan  bytes/scan  us/scan  rows/scan");
    for space in [KeySpace::U64, KeySpace::Email] {
        let cluster = DmCluster::new(ClusterConfig {
            mn_capacity: 1 << 30,
            ..ClusterConfig::default()
        });
        let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
        let mut client = index.client(0)?;
        let mut keys: Vec<Vec<u8>> = (0..n as u64).map(|i| space.key(i)).collect();
        for key in &keys {
            client.insert(key, &vec![key[0]; value_bytes])?;
        }
        keys.sort();

        cluster.reset_network();
        client.set_clock_ns(0);
        let before = client.net_stats();
        let mut rows = 0;
        for r in 0..ranges {
            let at = r * 7919 % (keys.len() - ROWS);
            rows += client.scan(&keys[at], &keys[at + ROWS - 1])?.len();
        }
        let net = client.net_stats().since(&before);
        let per = |total: u64| total as f64 / ranges as f64;
        println!(
            "{:<7} {:>8.2}  {:>10.0}  {:>7.2}  {:>9.2}",
            space.name(),
            per(net.round_trips),
            per(net.bytes_total()),
            per(client.clock_ns()) / 1e3,
            per(rows as u64),
        );
    }
    Ok(())
}
