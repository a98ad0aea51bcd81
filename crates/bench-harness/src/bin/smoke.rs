//! The CI smoke gate (see [`bench_harness::smoke`]): runs the named
//! contracts, or all of them, and panics on the first violation.
//!
//! ```text
//! cargo run --release -p bench-harness --bin smoke -- [contract...]
//! ```

use bench_harness::report::usage_exit;
use bench_harness::smoke;

fn main() {
    let contracts =
        smoke::parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(smoke::USAGE, &e));
    let fixture = smoke::Fixture::default();
    for (name, contract) in contracts {
        contract(&fixture);
        println!("smoke {name} OK\n");
    }
}
