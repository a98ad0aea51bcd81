//! Regenerates the paper's figures and the extension experiments (see
//! [`bench_harness::figs`]): tables on stdout, CSVs and telemetry JSON
//! under `results/`.
//!
//! ```text
//! cargo run --release -p bench-harness --bin figs -- <figure>... [flags]
//! ```

use bench_harness::figs;
use bench_harness::report::{usage_exit, write_json};

fn main() {
    let figures =
        figs::parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(figs::USAGE, &e));
    for (figure, scale) in figures {
        println!("== {} {scale:?}\n", figure.name);
        let out = figs::run(figure, &scale);
        for (name, table) in &out.tables {
            println!("\n{}", table.render());
            table.write_csv(name);
            println!("wrote results/{name}.csv");
        }
        for (name, doc) in &out.json {
            write_json(name, doc);
        }
        for text in &out.text {
            println!("\n{text}");
        }
        println!();
    }
}
