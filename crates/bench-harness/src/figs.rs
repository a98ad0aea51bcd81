//! The paper's evaluation (§V) and the extension experiments, as data.
//!
//! Six figures are *run grids*: cells of (key space × network × system ×
//! workload × workers × depth), one YCSB run each (its workers stepped in
//! clock order on one thread, so a grid's output is byte-identical per
//! seed). Each is one [`Grid`] value (`fig4-pipeline` is two sections, two
//! values), and one loop, `run_grid`, serves them all: it builds and loads
//! each (key space, network, system) tree once, on its own thread with its
//! own cluster, and runs that tree's cells in the grid's order; the cells
//! and their report lines come back in grid order. `tabulate` lays the cells out as the grid's CSV columns. `fig6`,
//! `fig6-reclaim` and `sfc-stats` measure memory and filter state rather
//! than runs and stay plain functions. [`FIGURES`] lists all nine.
//!
//! ```text
//! cargo run --release -p bench-harness --bin figs -- <figure>... [flags]
//! ```
//!
//! Rules every grid shares rather than configures: YCSB-E runs an eighth of
//! the ops (a scan reads up to 100 keys), warm-up is a fifth of the measured
//! ops, the B+-tree runs u64 keys only, and a tree is sized for the most
//! workers the grid runs on it plus eight loaders.

use baselines::{BaselineConfig, BaselineIndex};
use dm_sim::NetConfig;
use obs::{OpKind, Phase};
use reclaim::ReclaimConfig;
use sphinx::{SphinxConfig, SphinxIndex};
use ycsb::{value_for, KeySpace, Workload};

use crate::report::{ascii_curve, f3, Args, Flag, Table};
use crate::runner::{load_phase, run_phase, RunConfig, RunResult};
use crate::systems::{paper_cache_bytes, testbed, System, SystemHandle, WorkerClient};

/// A network cost model a grid runs on: its label and its constructor.
pub type Net = (&'static str, fn() -> NetConfig);

const RDMA: Net = ("RDMA", NetConfig::rdma);
const CXL: Net = ("CXL", NetConfig::cxl);
const BOTH: &[KeySpace] = &[KeySpace::U64, KeySpace::Email];
const U64: &[KeySpace] = &[KeySpace::U64];
const LINEUP: &[System] = &[System::Sphinx, System::Smart, System::SmartC, System::Art];
const PIPELINED: &[usize] = &[1, node_engine::pipeline::DEFAULT_DEPTH];
/// Bytes of each memory node of a grid; `fig6` and `fig6-reclaim` run on
/// twice that.
const MN_BYTES: usize = 1 << 30;
const PIPELINE_COLUMNS: &str = "section,dataset,system,workers,depth,mops,speedup,rts_per_op,\
                                doorbells_per_op,inht_rts_op,trav_rts_op,leaf_rts_op";

/// One run grid.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// What the `section` column says.
    pub name: &'static str,
    /// Key spaces, outermost loop.
    pub keyspaces: &'static [KeySpace],
    /// Network cost models.
    pub nets: &'static [Net],
    /// Systems; each gets one loaded tree per key space and network.
    pub systems: &'static [System],
    /// Workloads in execution order, all on the same loaded tree.
    pub workloads: &'static [&'static str],
    /// Pipeline depths; `speedup` is relative to the first.
    pub depths: &'static [usize],
    /// Worker counts, or empty for the one `--workers` gives.
    pub ladder: &'static [usize],
    /// Fewest warm-up ops per worker.
    pub min_warmup: u64,
    /// Base seed of every run.
    pub seed: u64,
    /// The CSV header; each column names what it holds (see `value`).
    pub columns: &'static str,
    /// Whether each tree's merged telemetry is exported as
    /// `<csv>_telemetry_<dataset>_<system>.json`.
    pub telemetry: bool,
}

/// What most grids share: one network (RDMA), depth 1, the `--workers`
/// count, no telemetry export.
const BASE: Grid = Grid {
    name: "",
    keyspaces: BOTH,
    nets: &[RDMA],
    systems: LINEUP,
    workloads: &["C"],
    depths: &[1],
    ladder: &[],
    min_warmup: 50,
    seed: 0,
    columns: "",
    telemetry: false,
};

/// What a figure runs at: its defaults, overridden by the flags given.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys loaded (`--keys`).
    pub keys: u64,
    /// Measured ops per worker (`--ops`).
    pub ops: u64,
    /// Workers of a grid without a ladder (`--workers`).
    pub workers: u64,
    /// Measured ops per ladder rung, split over its workers
    /// (`--total-ops`); 0 means `ops` per worker.
    pub total_ops: u64,
    /// Churn rounds (`--rounds`).
    pub rounds: u64,
    /// The one key space to run (`--dataset u64|email`), or all.
    pub dataset: Option<KeySpace>,
}

/// How a figure runs.
#[derive(Clone, Copy)]
pub enum Run {
    /// Its grids, in order, into one CSV (or one per key space).
    Grids(&'static [Grid]),
    /// A plain function.
    Plain(fn(&Scale) -> Output),
}

/// One figure of the `figs` command.
#[derive(Clone, Copy)]
pub struct Figure {
    /// Its name on the command line.
    pub name: &'static str,
    /// The flags it takes, each with its default; `--dataset`'s is both
    /// key spaces, whatever the number says.
    pub defaults: &'static [(&'static str, u64)],
    /// How it runs.
    pub run: Run,
    /// Printed after its tables: what the paper reports.
    pub note: &'static str,
}

impl Figure {
    /// The default of `flag`, if the figure takes it.
    fn default_of(&self, flag: &str) -> Option<u64> {
        let taken = self.defaults.iter().find(|(name, _)| *name == flag);
        taken.map(|&(_, default)| default)
    }
}

/// What a figure produces; every name is a file stem under `results/`.
#[derive(Default)]
pub struct Output {
    /// CSV tables.
    pub tables: Vec<(String, Table)>,
    /// Telemetry JSON documents.
    pub json: Vec<(String, String)>,
    /// Text printed after the tables.
    pub text: Vec<String>,
}

impl Output {
    /// The table `name`, created with `header` on first use.
    fn table(&mut self, name: &str, header: &[&str]) -> &mut Table {
        let i = match self.tables.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.tables
                    .push((name.to_string(), Table::new(header.iter().copied())));
                self.tables.len() - 1
            }
        };
        &mut self.tables[i].1
    }
}

/// Every figure, in the order `all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig4",
        defaults: &[("--keys", 60_000), ("--ops", 2_000), ("--workers", 96)],
        run: Run::Grids(&[Grid {
            name: "fig4",
            // Read-only first, on a pristine tree; LOAD last: inserts of
            // fresh keys into the loaded tree.
            workloads: &["C", "B", "A", "D", "E", "LOAD"],
            seed: 0xF160_0004,
            columns: "system,YCSB-LOAD,YCSB-A,YCSB-B,YCSB-C,YCSB-D,YCSB-E",
            telemetry: true,
            ..BASE
        }]),
        note: "paper: Sphinx 1.2-3.6x over SMART, SMART+C and ART on u64 keys, \
               1.9-7.3x on email",
    },
    Figure {
        name: "fig4-pipeline",
        defaults: &[("--keys", 60_000), ("--ops", 2_000), ("--workers", 24)],
        run: Run::Grids(&[
            Grid {
                name: "fig4",
                systems: &[
                    System::Sphinx,
                    System::Smart,
                    System::SmartC,
                    System::Art,
                    System::BpTree,
                ],
                depths: PIPELINED,
                seed: 0xF160_0004,
                columns: PIPELINE_COLUMNS,
                ..BASE
            },
            Grid {
                name: "fig5",
                keyspaces: U64,
                systems: &[System::Sphinx],
                workloads: &["A"],
                depths: PIPELINED,
                ladder: &[6, 12, 24, 48],
                min_warmup: 20,
                seed: 0xF160_0005,
                columns: PIPELINE_COLUMNS,
                ..BASE
            },
        ]),
        note: "",
    },
    Figure {
        name: "fig5",
        defaults: &[
            ("--keys", 60_000),
            ("--total-ops", 48_000),
            ("--dataset", 0),
        ],
        run: Run::Grids(&[Grid {
            name: "fig5",
            workloads: &["A"],
            ladder: &[6, 12, 24, 48, 96, 192],
            min_warmup: 20,
            seed: 0xF160_0005,
            columns: "system,workers,mops,avg_lat_us,p99_lat_us,rts_per_op",
            ..BASE
        }]),
        note: "paper: Sphinx up to 2.6x the throughput at 2.2x lower latency on u64, \
               6.1x / 11.7x on email",
    },
    Figure {
        name: "fig6",
        defaults: &[("--keys", 200_000)],
        run: Run::Plain(fig6),
        note: "paper: INHT overhead 3.3% (u64) / 4.9% (email) of ART; SMART 2.1-3.0x ART",
    },
    Figure {
        name: "fig6-reclaim",
        defaults: &[("--keys", 20_000), ("--rounds", 3)],
        run: Run::Plain(fig6_reclaim),
        note: "",
    },
    Figure {
        name: "ablation",
        defaults: &[("--keys", 60_000), ("--ops", 2_000), ("--workers", 24)],
        run: Run::Grids(&[Grid {
            name: "ablation",
            systems: &[System::Sphinx, System::SphinxInhtOnly, System::Art],
            seed: 0xAB1A_7104,
            columns: "dataset,variant,mops,avg_lat_us,rts_per_op,bytes_per_op,\
                      inht_rts,trav_rts,leaf_rts",
            telemetry: true,
            ..BASE
        }]),
        note: "",
    },
    Figure {
        name: "btree-compare",
        defaults: &[("--keys", 60_000), ("--ops", 1_500), ("--workers", 24)],
        run: Run::Grids(&[Grid {
            name: "btree-compare",
            keyspaces: U64,
            systems: &[System::Sphinx, System::Smart, System::Art, System::BpTree],
            workloads: &["C", "A", "E"],
            seed: 0xB7EE_0001,
            columns: "workload,system,mops,avg_lat_us,rts_per_op,bytes_per_op",
            ..BASE
        }]),
        note: "email dataset: no B+Tree row - 2-32-byte keys cannot fill fixed 8-byte slots \
               without padding every key to the maximum (4x space, lost prefix sharing), \
               the gap ART-family indexes fill",
    },
    Figure {
        name: "whatif-cxl",
        defaults: &[("--keys", 60_000), ("--ops", 1_500), ("--workers", 24)],
        run: Run::Grids(&[Grid {
            name: "whatif-cxl",
            keyspaces: U64,
            nets: &[RDMA, CXL],
            systems: &[System::Sphinx, System::Smart, System::Art],
            seed: 0xC1_2024,
            columns: "interconnect,system,mops,avg_lat_us,rts_per_op",
            ..BASE
        }]),
        note: "",
    },
    Figure {
        name: "sfc-stats",
        defaults: &[("--keys", 100_000), ("--ops", 50_000)],
        run: Run::Plain(sfc_stats),
        note: "paper targets: entry misses <1% of checks, double-collision retries <0.01%",
    },
];

/// `figs` usage.
pub const USAGE: &str = "usage: figs <figure>... [--keys N] [--ops N] [--workers N] \
    [--total-ops N] [--dataset u64|email|both] [--rounds N]\n\
    figures: fig4 fig4-pipeline fig5 fig6 fig6-reclaim ablation btree-compare whatif-cxl \
    sfc-stats, or all; a flag applies to the named figures that take it";

const FLAGS: &[Flag] = &[
    Flag::Num("--keys"),
    Flag::Num("--ops"),
    Flag::Num("--workers"),
    Flag::Num("--total-ops"),
    Flag::Num("--rounds"),
    Flag::Text("--dataset"),
];

/// The figures a `figs` command line names, each at its scale. An unknown
/// figure, a flag none of them takes and an unknown `--dataset` are errors.
pub fn parse_cli<I: IntoIterator<Item = String>>(
    argv: I,
) -> Result<Vec<(&'static Figure, Scale)>, String> {
    let args = Args::parse(FLAGS, argv)?;
    let mut figures: Vec<&Figure> = Vec::new();
    for word in &args.words {
        match FIGURES.iter().find(|f| f.name == word) {
            Some(f) => figures.push(f),
            None if word == "all" => figures.extend(FIGURES),
            None => return Err(format!("unknown figure {word}")),
        }
    }
    if figures.is_empty() {
        return Err("name a figure, or all".into());
    }
    let untaken = |flag: &&str| figures.iter().all(|f| f.default_of(flag).is_none());
    if let Some(flag) = args.given().find(untaken) {
        return Err(format!("no figure named takes {flag}"));
    }
    let dataset = match args.text("--dataset", "both") {
        "both" => None,
        "u64" => Some(KeySpace::U64),
        "email" => Some(KeySpace::Email),
        other => return Err(format!("unknown --dataset {other} (u64|email|both)")),
    };
    let scaled = |f: &'static Figure| {
        let num = |flag| {
            f.default_of(flag)
                .map_or(0, |default| args.num(flag, default))
        };
        let scale = Scale {
            keys: num("--keys"),
            ops: num("--ops"),
            workers: num("--workers"),
            total_ops: num("--total-ops"),
            rounds: num("--rounds"),
            dataset: f.default_of("--dataset").and(dataset),
        };
        (f, scale)
    };
    Ok(figures.into_iter().map(scaled).collect())
}

/// Runs `figure` at `scale`.
pub fn run(figure: &Figure, scale: &Scale) -> Output {
    run_with(figure, scale, &run_phase)
}

/// [`run`], with `measure` in place of [`run_phase`] for a grid's cells.
pub(crate) fn run_with(figure: &Figure, scale: &Scale, measure: &Measure) -> Output {
    let mut out = match figure.run {
        Run::Plain(f) => f(scale),
        Run::Grids(grids) => {
            let mut out = Output::default();
            let csv = figure.name.replace('-', "_");
            for grid in grids {
                let cells = run_grid(grid, scale, measure);
                tabulate(grid, &csv, &cells, &mut out);
            }
            out
        }
    };
    if !figure.note.is_empty() {
        out.text.push(figure.note.to_string());
    }
    out
}

/// How a grid measures one cell on a loaded tree (on the tree's thread).
pub(crate) type Measure = dyn Fn(&SystemHandle, &RunConfig) -> RunResult + Sync;

/// One measured cell of a grid.
pub(crate) struct Cell {
    /// Key space.
    keyspace: KeySpace,
    /// Network label.
    net: &'static str,
    /// System.
    system: System,
    /// Workload name.
    workload: &'static str,
    /// Workers.
    workers: usize,
    /// Pipeline depth.
    depth: usize,
    /// Mops over the same cell at the grid's first depth.
    speedup: f64,
    /// The run, its traces dropped.
    r: RunResult,
}

/// Runs every cell of `grid`, loading each (key space, network, system)
/// tree once; cells come back in grid order. Each tree has its own cluster
/// and runs on its own thread; what a tree prints is printed in grid order
/// once every tree has finished.
pub(crate) fn run_grid(grid: &Grid, scale: &Scale, measure: &Measure) -> Vec<Cell> {
    let keyspaces = grid
        .keyspaces
        .iter()
        .filter(|&&k| scale.dataset.is_none_or(|d| d == k));
    let mut trees = Vec::new();
    for &keyspace in keyspaces {
        for &net in grid.nets {
            for &system in grid.systems {
                if system != System::BpTree || keyspace == KeySpace::U64 {
                    trees.push((keyspace, net, system));
                }
            }
        }
    }
    let per_tree: Vec<(Vec<Cell>, String)> = std::thread::scope(|s| {
        let runs: Vec<_> = trees
            .into_iter()
            .map(|tree| s.spawn(move || run_tree(grid, scale, measure, tree)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut cells = Vec::new();
    for (tree_cells, log) in per_tree {
        print!("{log}");
        cells.extend(tree_cells);
    }
    cells
}

/// Builds and loads one tree of `grid` and runs its cells in the grid's
/// order; returns them with the lines the run reports.
fn run_tree(
    grid: &Grid,
    scale: &Scale,
    measure: &Measure,
    (keyspace, (net, model), system): (KeySpace, Net, System),
) -> (Vec<Cell>, String) {
    let flag = [scale.workers as usize];
    let ladder = if grid.ladder.is_empty() {
        &flag[..]
    } else {
        grid.ladder
    };
    let clients = ladder.iter().max().copied().unwrap_or(0) + 8;
    let handle = system.build_scaled_on(&testbed(MN_BYTES, model()), scale.keys, clients);
    load_phase(&handle, keyspace, scale.keys, 8);
    let (mut cells, mut log) = (Vec::new(), String::new());
    for &workload in grid.workloads {
        for &workers in ladder {
            let mut ops = match scale.total_ops {
                0 => scale.ops,
                total => (total / workers as u64).max(50),
            };
            if workload == "E" {
                ops = (ops / 8).max(1);
            }
            let mut base = 0.0;
            for &depth in grid.depths {
                let w = Workload::by_name(workload).expect("a grid names workloads");
                let mut r = measure(
                    &handle,
                    &RunConfig {
                        num_keys: scale.keys,
                        workers,
                        ops_per_worker: ops,
                        warmup_per_worker: (ops / 5).max(grid.min_warmup),
                        seed: grid.seed,
                        pipeline_depth: depth,
                        ..RunConfig::quick(keyspace, w)
                    },
                );
                r.traces = Vec::new();
                if depth == grid.depths[0] {
                    base = r.mops;
                }
                log.push_str(&format!(
                    "{} {} {net} {} YCSB-{workload} {workers} workers depth \
                     {depth}: {:.3} Mops, rts/op {:.3}, doorbells/op {:.3}\n",
                    grid.name,
                    keyspace.name(),
                    system.label(),
                    r.mops,
                    r.round_trips_per_op,
                    r.doorbells_per_op,
                ));
                cells.push(Cell {
                    keyspace,
                    net,
                    system,
                    workload,
                    workers,
                    depth,
                    speedup: r.mops / base,
                    r,
                });
            }
        }
    }
    (cells, log)
}

/// Lays a grid's cells out as its columns into the CSV table `csv` — or,
/// when the grid spans key spaces and no column names the dataset, one
/// `<csv>_<dataset>` table per key space. Rows run by key space, network
/// and workload, then in execution order; where `YCSB-<W>` columns name
/// workloads, a row is a tree and those columns its Mops on each. Also
/// exports each tree's telemetry when the grid asks, and draws a grid that
/// climbs a worker ladder and reports latency as a throughput–latency
/// curve.
pub(crate) fn tabulate(grid: &Grid, csv: &str, cells: &[Cell], out: &mut Output) {
    let columns: Vec<&str> = grid.columns.split(',').collect();
    let split = grid.keyspaces.len() > 1 && !columns.contains(&"dataset");
    let pivot = columns.iter().any(|c| c.starts_with("YCSB-"));
    let table_of = |k: KeySpace| match split {
        true => format!("{csv}_{}", k.name()),
        false => csv.to_string(),
    };
    let order = |c: &Cell| {
        (
            grid.keyspaces.iter().position(|&k| k == c.keyspace),
            grid.nets.iter().position(|n| n.0 == c.net),
            grid.workloads.iter().position(|&w| w == c.workload),
        )
    };
    let mut rows: Vec<&Cell> = cells
        .iter()
        .filter(|c| !pivot || c.workload == grid.workloads[0])
        .collect();
    rows.sort_by_key(|c| order(c));
    for c in rows {
        let row = columns.iter().map(|col| value(grid, col, c, cells));
        out.table(&table_of(c.keyspace), &columns).row(row);
    }

    let same_tree =
        |a: &Cell, b: &Cell| (a.keyspace, a.net, a.system) == (b.keyspace, b.net, b.system);
    for (i, c) in cells.iter().enumerate() {
        if !grid.telemetry || (i > 0 && same_tree(&cells[i - 1], c)) {
            continue;
        }
        let mut merged = obs::Registry::new();
        for o in cells.iter().filter(|o| same_tree(o, c)) {
            merged.merge(&o.r.telemetry);
        }
        let slug = c.system.label().to_lowercase().replace('+', "_plus_");
        let name = format!("{csv}_telemetry_{}_{slug}", c.keyspace.name());
        out.json.push((name, merged.to_json()));
    }

    if !grid.ladder.is_empty() && columns.contains(&"avg_lat_us") {
        for &k in grid.keyspaces {
            let curve = |s: &System| {
                let on = cells.iter().filter(|c| (c.keyspace, c.system) == (k, *s));
                (
                    s.label(),
                    on.map(|c| (c.r.mops, c.r.avg_latency_us)).collect(),
                )
            };
            let series: Vec<(&str, Vec<(f64, f64)>)> = grid.systems.iter().map(curve).collect();
            if series.iter().any(|(_, points)| !points.is_empty()) {
                out.text
                    .push(format!("{}:\n{}", table_of(k), ascii_curve(&series)));
            }
        }
    }
}

/// What `column` says about `cell`; `cells` are the grid's, for `YCSB-<W>`.
fn value(grid: &Grid, column: &str, c: &Cell, cells: &[Cell]) -> String {
    let phase = |p| f3(phase_rts(&c.r, c.depth, p));
    match column {
        "section" => grid.name.to_string(),
        "dataset" => c.keyspace.name().to_string(),
        "interconnect" => c.net.to_string(),
        "system" | "variant" => c.system.label().to_string(),
        "workload" => format!("YCSB-{}", c.workload),
        "workers" => c.workers.to_string(),
        "depth" => c.depth.to_string(),
        "mops" => f3(c.r.mops),
        "speedup" => f3(c.speedup),
        "avg_lat_us" => f3(c.r.avg_latency_us),
        "p99_lat_us" => f3(c.r.p99_latency_us),
        "rts_per_op" => f3(c.r.round_trips_per_op),
        "doorbells_per_op" => f3(c.r.doorbells_per_op),
        "bytes_per_op" => format!("{:.0}", c.r.bytes_per_op),
        "inht_rts" | "inht_rts_op" => phase(Phase::InhtLookup),
        "trav_rts" | "trav_rts_op" => phase(Phase::Traversal),
        "leaf_rts" | "leaf_rts_op" => phase(Phase::LeafRead),
        _ => {
            let w = column
                .strip_prefix("YCSB-")
                .unwrap_or_else(|| panic!("unknown column {column}"));
            let at = (c.keyspace, c.net, c.system, c.workers, c.depth);
            let on_w = cells
                .iter()
                .find(|o| {
                    o.workload == w && (o.keyspace, o.net, o.system, o.workers, o.depth) == at
                })
                .expect("a grid runs every workload on every tree");
            f3(on_w.r.mops)
        }
    }
}

/// Per-phase round trips per op: from the pipeline's per-tag aggregates at
/// depth > 1 (pipelined spans interleave), from the point lookups' phase
/// spans at depth 1.
fn phase_rts(r: &RunResult, depth: usize, phase: Phase) -> f64 {
    if depth > 1 {
        let ops = r.telemetry.counter("pipeline.ops");
        let rts = r
            .telemetry
            .counter(&format!("pipeline.rts.{}", phase.name()));
        return rts as f64 / ops.max(1) as f64;
    }
    let get = r.telemetry.op(OpKind::Get);
    get.phases[phase.idx()].round_trips as f64 / get.count.max(1) as f64
}

fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// Fig. 6 + §V-D: MN-side memory after loading the same keys into ART,
/// Sphinx (= ART + INHT) and SMART.
fn fig6(s: &Scale) -> Output {
    let header = [
        "dataset",
        "system",
        "art_mib",
        "aux_mib",
        "total_mib",
        "vs_art",
    ];
    let mut out = Output::default();
    for keyspace in [KeySpace::U64, KeySpace::Email] {
        let mut art_total = 0;
        for sys in [System::Art, System::Sphinx, System::Smart] {
            let handle = sys.build(2 * MN_BYTES, None);
            load_phase(&handle, keyspace, s.keys, 8);
            let (art, aux) = handle.memory_breakdown();
            if sys == System::Art {
                art_total = art + aux;
            }
            out.table("fig6_memory", &header).row([
                keyspace.name().to_string(),
                sys.label().to_string(),
                mib(art),
                mib(aux),
                mib(art + aux),
                format!("{:.2}x", (art + aux) as f64 / art_total as f64),
            ]);
        }
    }
    out
}

/// Fig. 6 follow-up: MN memory after delete/re-insert churn (every flip
/// replaces a leaf out of place), with epoch reclamation off and on.
fn fig6_reclaim(s: &Scale) -> Output {
    let header = [
        "dataset",
        "system",
        "reclaim",
        "load_mib",
        "churned_mib",
        "reclaimed_mib",
        "vs_load",
    ];
    let mut out = Output::default();
    for keyspace in [KeySpace::U64, KeySpace::Email] {
        for system in [System::Sphinx, System::Art] {
            for enabled in [false, true] {
                let cluster = testbed(2 * MN_BYTES, NetConfig::default());
                let reclaim = ReclaimConfig {
                    enabled,
                    ..ReclaimConfig::default()
                };
                let handle = match system {
                    System::Sphinx => SystemHandle::Sphinx(
                        SphinxIndex::create(
                            &cluster,
                            SphinxConfig {
                                reclaim,
                                ..SphinxConfig::default()
                            },
                        )
                        .expect("create sphinx"),
                    ),
                    _ => SystemHandle::Baseline(
                        BaselineIndex::create(
                            &cluster,
                            BaselineConfig {
                                reclaim,
                                ..BaselineConfig::art()
                            },
                        )
                        .expect("create art"),
                    ),
                };
                load_phase(&handle, keyspace, s.keys, 8);
                let loaded = handle.cluster().total_live_bytes();
                churn(&handle, keyspace, s.keys, s.rounds);
                let after = handle.cluster().total_live_bytes();
                let reclaimed = handle.index_telemetry().counter("mem.reclaimed_bytes");
                out.table("fig6_reclaim", &header).row([
                    keyspace.name().to_string(),
                    system.label().to_string(),
                    if enabled { "on" } else { "off" }.to_string(),
                    mib(loaded),
                    mib(after),
                    mib(reclaimed),
                    format!("{:.2}x", after as f64 / loaded as f64),
                ]);
            }
        }
    }
    out
}

/// Delete/re-insert churn over the whole key set, alternating between the
/// loaded 64-byte values and oversized 150-byte ones so every flip goes out
/// of place. Two workers, so frees are genuinely epoch-gated.
fn churn(handle: &SystemHandle, keyspace: KeySpace, keys: u64, rounds: u64) {
    let mut workers = [handle.worker(0), handle.worker(1)];
    for round in 0..rounds {
        for i in 0..keys {
            let key = keyspace.key(i);
            let w = &mut workers[(i % 2) as usize];
            w.remove(&key);
            if round % 2 == 0 {
                w.insert(&key, &[0xCD; 150]);
            } else {
                w.insert(&key, &value_for(i, round as u32));
            }
        }
    }
    // Back to the loaded value size, then quiesce: round-robin scans so
    // every worker's slot advances, then drain both limbo lists.
    for i in 0..keys {
        let key = keyspace.key(i);
        let w = &mut workers[(i % 2) as usize];
        w.remove(&key);
        w.insert(&key, &value_for(i, 0));
    }
    for _ in 0..8 {
        for w in workers.iter_mut() {
            w.reclaim_scan();
        }
    }
    for w in workers.iter_mut() {
        w.reclaim_quiesce(16);
        w.reclaim_deregister();
    }
}

/// §III-B: Succinct Filter Cache accuracy and cost over a read-only window,
/// for the cuckoo-only and the generational filter, under the paper's
/// cache-to-dataset ratio. Rates difference two telemetry snapshots around
/// the window; `bits_per_entry` counts only the probe structures.
fn sfc_stats(s: &Scale) -> Output {
    let header = [
        "dataset",
        "variant",
        "filter_first_hit_%",
        "entry_miss_per_op",
        "fp_retry_per_op",
        "raw_filter_fp_%",
        "filter_hit_rate_%",
        "bits_per_entry",
        "inht_reads_per_get",
    ];
    let mut out = Output::default();
    for keyspace in [KeySpace::U64, KeySpace::Email] {
        for (variant, generational) in [("cuckoo-only", false), ("generational", true)] {
            let config = SphinxConfig {
                cache_bytes: paper_cache_bytes(s.keys),
                sfc: sphinx::sfc::SfcConfig {
                    generational,
                    ..Default::default()
                },
                ..SphinxConfig::default()
            };
            let cluster = testbed(MN_BYTES, NetConfig::default());
            let index = SphinxIndex::create(&cluster, config).expect("create sphinx");
            let handle = SystemHandle::Sphinx(index.clone());
            load_phase(&handle, keyspace, s.keys, 8);
            let mut worker = handle.worker(0);
            let WorkerClient::Sphinx(client) = &worker else {
                unreachable!("a Sphinx handle mints Sphinx workers")
            };
            let filter = client.filter_handle().clone();

            // Warm the filter on a sample, then freeze the pending delta so
            // the window probes the steady generational state.
            for i in (0..s.keys).step_by(7) {
                worker.get(&keyspace.key(i));
            }
            filter.force_rebuild();
            let (base, sfc_base) = (worker.telemetry(), index.sfc_stats());
            let mut x = 0x1234_5678u64;
            for _ in 0..s.ops {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                worker.get(&keyspace.key((x >> 16) % s.keys));
            }
            let (cur, sfc_cur) = (worker.telemetry(), index.sfc_stats());
            let gets = (cur.op(OpKind::Get).count - base.op(OpKind::Get).count) as f64;
            let per_get = |name: &str| (cur.counter(name) - base.counter(name)) as f64 / gets;
            let inht_reads = cur.phase(OpKind::Get, Phase::InhtLookup).verbs
                - base.phase(OpKind::Get, Phase::InhtLookup).verbs;
            let probes = (sfc_cur.lookups - sfc_base.lookups).max(1);
            let hit_rate = (sfc_cur.hits - sfc_base.hits) as f64 / probes as f64 * 100.0;
            let raw_probes = 50_000u64;
            let fps = (0..raw_probes)
                .filter(|i| filter.contains_quiet(format!("no-such-prefix-{i}").as_bytes()))
                .count();
            let bits = filter.memory_bytes() as f64 * 8.0 / filter.len().max(1) as f64;
            out.table("sfc_stats", &header).row([
                keyspace.name().to_string(),
                variant.to_string(),
                format!("{:.1}", per_get("sphinx.filter_first_hits") * 100.0),
                format!("{:.4}", per_get("sphinx.entry_misses")),
                format!("{:.6}", per_get("sphinx.fp_retries")),
                format!("{:.3}", fps as f64 / raw_probes as f64 * 100.0),
                format!("{hit_rate:.1}"),
                format!("{bits:.1}"),
                format!("{:.3}", inht_reads as f64 / gets),
            ]);
            let name = format!("sfc_stats_telemetry_{}_{variant}", keyspace.name());
            out.json.push((name, cur.to_json()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Vec<(&'static Figure, Scale)>, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    fn rejected(args: &[&str]) -> String {
        cli(args).err().expect("a usage error")
    }

    /// A CSV's name, header and first column.
    type Csv = (String, String, Vec<String>);

    /// The one figure `args` names.
    fn one(args: &[&str]) -> (&'static Figure, Scale) {
        let [(figure, scale)] = cli(args).unwrap()[..] else {
            panic!("one figure")
        };
        (figure, scale)
    }

    /// Runs the one figure `args` names, small, each cell on one worker for
    /// a few ops, and returns what it would write: per CSV its name, header
    /// and first column, then the JSON names.
    fn layout(args: &[&str]) -> (Vec<Csv>, Vec<String>) {
        let (figure, scale) = one(args);
        let tiny = |h: &SystemHandle, c: &RunConfig| {
            let c = RunConfig {
                workers: 1,
                ops_per_worker: 4,
                warmup_per_worker: 1,
                ..c.clone()
            };
            run_phase(h, &c)
        };
        let out = run_with(figure, &scale, &tiny);
        let tables = out.tables.iter().map(|(name, t)| {
            let first = t.rows().iter().map(|r| r[0].clone()).collect();
            (name.clone(), t.header().join(","), first)
        });
        let json = out.json.iter().map(|(name, _)| name.clone()).collect();
        (tables.collect(), json)
    }

    /// `label` repeated `n` times for each `(label, n)`.
    fn runs(spec: &[(&str, usize)]) -> Vec<String> {
        let each = spec.iter().flat_map(|&(l, n)| std::iter::repeat_n(l, n));
        each.map(str::to_string).collect()
    }

    fn csv(name: &str, header: &str, first: Vec<String>) -> Csv {
        (name.to_string(), header.to_string(), first)
    }

    fn telemetry(prefix: &str, names: &[&str]) -> Vec<String> {
        let both = ["u64", "email"].into_iter();
        both.flat_map(|k| {
            names
                .iter()
                .map(move |n| format!("{prefix}_telemetry_{k}_{n}"))
        })
        .collect()
    }

    const LINEUP_LABELS: &[(&str, usize)] =
        &[("Sphinx", 1), ("SMART", 1), ("SMART+C", 1), ("ART", 1)];

    #[test]
    fn fig4_layout() {
        let header = "system,YCSB-LOAD,YCSB-A,YCSB-B,YCSB-C,YCSB-D,YCSB-E";
        let (tables, json) = layout(&["fig4", "--keys", "300", "--ops", "8", "--workers", "2"]);
        assert_eq!(
            tables,
            [
                csv("fig4_u64", header, runs(LINEUP_LABELS)),
                csv("fig4_email", header, runs(LINEUP_LABELS)),
            ]
        );
        assert_eq!(
            json,
            telemetry("fig4", &["sphinx", "smart", "smart_plus_c", "art"])
        );
    }

    #[test]
    fn fig4_pipeline_layout() {
        let header = "section,dataset,system,workers,depth,mops,speedup,rts_per_op,\
                      doorbells_per_op,inht_rts_op,trav_rts_op,leaf_rts_op";
        let (tables, json) = layout(&["fig4-pipeline", "--keys", "300", "--ops", "8"]);
        let first = runs(&[("fig4", 18), ("fig5", 8)]);
        assert_eq!(tables, [csv("fig4_pipeline", header, first)]);
        assert!(json.is_empty());
    }

    #[test]
    fn fig5_layout() {
        let header = "system,workers,mops,avg_lat_us,p99_lat_us,rts_per_op";
        let first = runs(&[("Sphinx", 6), ("SMART", 6), ("SMART+C", 6), ("ART", 6)]);
        let (tables, _) = layout(&["fig5", "--keys", "300", "--total-ops", "60"]);
        assert_eq!(
            tables,
            [
                csv("fig5_u64", header, first.clone()),
                csv("fig5_email", header, first.clone()),
            ]
        );
        let (tables, _) = layout(&["fig5", "--keys", "300", "--dataset", "email"]);
        assert_eq!(tables, [csv("fig5_email", header, first)]);
    }

    #[test]
    fn fig6_layouts() {
        let (tables, _) = layout(&["fig6", "--keys", "300"]);
        let header = "dataset,system,art_mib,aux_mib,total_mib,vs_art";
        let first = runs(&[("u64", 3), ("email", 3)]);
        assert_eq!(tables, [csv("fig6_memory", header, first)]);

        let (tables, _) = layout(&["fig6-reclaim", "--keys", "200", "--rounds", "1"]);
        let header = "dataset,system,reclaim,load_mib,churned_mib,reclaimed_mib,vs_load";
        let first = runs(&[("u64", 4), ("email", 4)]);
        assert_eq!(tables, [csv("fig6_reclaim", header, first)]);
    }

    #[test]
    fn ablation_and_btree_compare_layouts() {
        let (tables, json) = layout(&["ablation", "--keys", "300", "--ops", "8", "--workers", "2"]);
        let header =
            "dataset,variant,mops,avg_lat_us,rts_per_op,bytes_per_op,inht_rts,trav_rts,leaf_rts";
        let first = runs(&[("u64", 3), ("email", 3)]);
        assert_eq!(tables, [csv("ablation", header, first)]);
        assert_eq!(
            json,
            telemetry("ablation", &["sphinx", "sphinx-inht", "art"])
        );

        let args = [
            "btree-compare",
            "--keys",
            "300",
            "--ops",
            "8",
            "--workers",
            "2",
        ];
        let (tables, json) = layout(&args);
        let header = "workload,system,mops,avg_lat_us,rts_per_op,bytes_per_op";
        let first = runs(&[("YCSB-C", 4), ("YCSB-A", 4), ("YCSB-E", 4)]);
        assert_eq!(tables, [csv("btree_compare", header, first)]);
        assert!(json.is_empty());
    }

    #[test]
    fn sfc_stats_layout() {
        let (tables, json) = layout(&["sfc-stats", "--keys", "300", "--ops", "50"]);
        let header = "dataset,variant,filter_first_hit_%,entry_miss_per_op,fp_retry_per_op,\
                      raw_filter_fp_%,filter_hit_rate_%,bits_per_entry,inht_reads_per_get";
        let first = runs(&[("u64", 2), ("email", 2)]);
        assert_eq!(tables, [csv("sfc_stats", header, first)]);
        assert_eq!(
            json,
            telemetry("sfc_stats", &["cuckoo-only", "generational"])
        );
    }

    /// `whatif-cxl` end to end through [`run`]: real cells, rows
    /// in the parent's order, and cheaper round trips visibly faster.
    #[test]
    fn whatif_cxl_end_to_end() {
        let args = [
            "whatif-cxl",
            "--keys",
            "400",
            "--ops",
            "40",
            "--workers",
            "2",
        ];
        let (figure, scale) = one(&args);
        let out = run(figure, &scale);
        let [(name, table)] = &out.tables[..] else {
            panic!("one table")
        };
        assert_eq!(name, "whatif_cxl");
        assert_eq!(
            table.header().join(","),
            "interconnect,system,mops,avg_lat_us,rts_per_op"
        );
        let labels: Vec<String> = table.rows().iter().map(|r| r[..2].join(" ")).collect();
        let expected = [
            "RDMA Sphinx",
            "RDMA SMART",
            "RDMA ART",
            "CXL Sphinx",
            "CXL SMART",
            "CXL ART",
        ];
        assert_eq!(labels, expected);
        let col = |row: usize, col: usize| table.rows()[row][col].parse::<f64>().unwrap();
        for row in 0..6 {
            assert!(
                col(row, 2) > 0.0 && col(row, 4) >= 1.0,
                "{:?}",
                table.rows()[row]
            );
            if row >= 3 {
                assert!(
                    col(row, 2) > col(row - 3, 2),
                    "CXL must beat RDMA: {:?}",
                    table.rows()
                );
            }
        }
    }

    #[test]
    fn all_names_every_figure_once_in_order_at_its_defaults() {
        let all = cli(&["all"]).unwrap();
        let names: Vec<&str> = all.iter().map(|(f, _)| f.name).collect();
        assert_eq!(
            names,
            [
                "fig4",
                "fig4-pipeline",
                "fig5",
                "fig6",
                "fig6-reclaim",
                "ablation",
                "btree-compare",
                "whatif-cxl",
                "sfc-stats"
            ]
        );
        let scale = |name: &str| all.iter().find(|(f, _)| f.name == name).unwrap().1;
        assert_eq!(
            (scale("fig4").keys, scale("fig4").ops, scale("fig4").workers),
            (60_000, 2_000, 96)
        );
        assert_eq!(
            (scale("fig5").total_ops, scale("fig5").dataset),
            (48_000, None)
        );
        assert_eq!(
            (scale("fig6").keys, scale("fig6-reclaim").rounds),
            (200_000, 3)
        );
        assert_eq!(
            (scale("sfc-stats").keys, scale("sfc-stats").ops),
            (100_000, 50_000)
        );
    }

    #[test]
    fn a_flag_scales_only_the_figures_that_take_it() {
        let named = cli(&["fig4", "fig6", "--ops", "7", "--keys", "900"]).unwrap();
        assert_eq!((named[0].1.keys, named[0].1.ops), (900, 7));
        assert_eq!((named[1].1.keys, named[1].1.ops), (900, 0));
    }

    #[test]
    fn an_unknown_figure_is_rejected() {
        assert!(rejected(&["fig7"]).contains("unknown figure fig7"));
        assert!(
            cli(&["fig4_pipeline"]).is_err(),
            "the old bin name is not a figure"
        );
        assert!(rejected(&[]).contains("name a figure"));
    }

    #[test]
    fn an_unknown_dataset_is_rejected() {
        // `fig5 --dataset emial` used to run nothing and exit 0.
        let err = rejected(&["fig5", "--dataset", "emial"]);
        assert!(err.contains("unknown --dataset emial"), "{err}");
        let named = cli(&["fig5", "--dataset", "email"]).unwrap();
        assert_eq!(named[0].1.dataset, Some(KeySpace::Email));
    }

    #[test]
    fn a_flag_no_named_figure_takes_is_rejected() {
        assert!(rejected(&["fig6", "--workers", "8"]).contains("--workers"));
        assert!(cli(&["fig4", "--dataset", "u64"]).is_err());
        assert!(rejected(&["fig4", "--seed", "1"]).contains("unknown flag --seed"));
        assert!(rejected(&["fig4", "--keys", "many"]).contains("takes a number"));
        assert!(rejected(&["fig4", "--ops"]).contains("needs a value"));
    }
}
