//! Tables, CSV and JSON emission, and the command-line parser of the
//! harness binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple fixed-width text table matching the rows/series the paper
/// reports.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The rows, in order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(
                    out,
                    "{:<width$}  ",
                    cell,
                    width = widths.get(i).copied().unwrap_or(0)
                );
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Writes the table as CSV under `results/` (created on demand).
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (bench context).
    pub fn write_csv(&self, name: &str) {
        let dir = Path::new("results");
        fs::create_dir_all(dir).expect("create results dir");
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        fs::write(dir.join(format!("{name}.csv")), out).expect("write csv");
    }
}

/// Writes a JSON document under `results/` (created on demand) — the
/// export path for telemetry registries
/// ([`obs::Registry::to_json`]).
///
/// # Panics
///
/// Panics on I/O errors (bench context).
pub fn write_json(name: &str, json: &str) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    fs::write(dir.join(format!("{name}.json")), json).expect("write json");
}

/// Renders a throughput–latency scatter as ASCII: one letter per series,
/// log-scaled axes, suitable for eyeballing the Fig. 5 hockey stick in a
/// terminal. Points are `(x = Mops, y = latency µs)`.
pub fn ascii_curve(series: &[(&str, Vec<(f64, f64)>)]) -> String {
    const W: usize = 64;
    const H: usize = 18;
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from(
            "(no data)
",
        );
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &all {
        x0 = x0.min(x.max(1e-6));
        x1 = x1.max(x);
        y0 = y0.min(y.max(1e-6));
        y1 = y1.max(y);
    }
    let (lx0, lx1) = (x0.ln(), (x1.max(x0 * 1.01)).ln());
    let (ly0, ly1) = (y0.ln(), (y1.max(y0 * 1.01)).ln());
    let mut grid = vec![vec![b' '; W]; H];
    for (si, (label, pts)) in series.iter().enumerate() {
        let ch = label.as_bytes().first().copied().unwrap_or(b'A' + si as u8);
        for &(x, y) in pts {
            let cx = ((x.max(1e-6).ln() - lx0) / (lx1 - lx0) * (W - 1) as f64).round();
            let cy = ((y.max(1e-6).ln() - ly0) / (ly1 - ly0) * (H - 1) as f64).round();
            let (cx, cy) = (
                cx.clamp(0.0, (W - 1) as f64) as usize,
                cy.clamp(0.0, (H - 1) as f64) as usize,
            );
            grid[H - 1 - cy][cx] = ch;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "latency (us, log) {y1:>8.1}");
    for row in &grid {
        out.push_str("  |");
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    let _ = writeln!(out, "  +{}", "-".repeat(W));
    let _ = writeln!(
        out,
        "  {:.2} Mops (log) {:>width$.2}",
        x0,
        x1,
        width = W.saturating_sub(18)
    );
    let legend: Vec<String> = series
        .iter()
        .map(|(l, _)| format!("{} = {l}", l.chars().next().unwrap_or('?')))
        .collect();
    let _ = writeln!(out, "  {}", legend.join("   "));
    out
}

/// A flag a harness command accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--name N`, a non-negative integer.
    Num(&'static str),
    /// `--name TEXT`.
    Text(&'static str),
    /// `--name` alone.
    Switch(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Num(n) | Flag::Text(n) | Flag::Switch(n) => n,
        }
    }
}

/// A command line parsed strictly against the flags a command declares —
/// the one parser of `figs`, `smoke`, `lincheck_explorer` and the
/// `ycsb_driver` example.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(&'static str, String)>,
    /// The arguments that are not flags (figure or contract names), in
    /// order.
    pub words: Vec<String>,
}

impl Args {
    /// Parses `args` (program name excluded). An undeclared `--flag`, a
    /// valued flag without its value and a `Num` value that is not a
    /// number are errors.
    pub fn parse<I: IntoIterator<Item = String>>(flags: &[Flag], args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                out.words.push(arg);
                continue;
            }
            let flag = *flags
                .iter()
                .find(|f| f.name() == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match flag {
                Flag::Switch(_) => String::new(),
                _ => args
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value"))?,
            };
            if matches!(flag, Flag::Num(_)) && value.parse::<u64>().is_err() {
                return Err(format!("{arg} takes a number, not {value:?}"));
            }
            out.given.push((flag.name(), value));
        }
        Ok(out)
    }

    /// The value `flag` was last given, if it was (`""` for a `Switch`).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The flags given, in order.
    pub fn given(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|(f, _)| *f)
    }

    /// The value of the `Num` flag `flag`, or `default`.
    pub fn num(&self, flag: &str, default: u64) -> u64 {
        self.get(flag)
            .map_or(default, |v| v.parse().expect("checked by parse"))
    }

    /// The value of the `Text` flag `flag`, or `default`.
    pub fn text<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.get(flag).unwrap_or(default)
    }

    /// Whether the `Switch` flag `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }
}

/// Prints `err` and `usage` and exits with status 2: how every harness
/// command rejects a command line.
pub fn usage_exit(usage: &str, err: &str) -> ! {
    eprintln!("error: {err}\n\n{usage}");
    std::process::exit(2)
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["sys", "mops"]);
        t.row(["Sphinx", "1.234"]);
        t.row(["ART", "0.1"]);
        let s = t.render();
        assert!(s.contains("Sphinx"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn ascii_curve_draws_all_series() {
        let s = ascii_curve(&[
            ("Sphinx", vec![(1.0, 9.0), (10.0, 12.0)]),
            ("ART", vec![(0.5, 12.0), (3.0, 50.0)]),
        ]);
        assert!(s.contains('S') && s.contains('A'));
        assert!(s.contains("S = Sphinx"));
        assert!(s.lines().count() > 15);
    }

    #[test]
    fn ascii_curve_empty() {
        assert_eq!(ascii_curve(&[]), "(no data)\n");
    }

    const FLAGS: &[Flag] = &[
        Flag::Num("--keys"),
        Flag::Num("--ops"),
        Flag::Num("--workers"),
        Flag::Text("--out"),
        Flag::Switch("--verify-determinism"),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(FLAGS, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arg_parsing() {
        let a = parse(&[
            "fig4",
            "--keys",
            "5000",
            "--ops",
            "100",
            "--verify-determinism",
        ])
        .unwrap();
        assert_eq!(a.num("--keys", 1), 5000);
        assert_eq!(a.num("--ops", 1), 100);
        assert_eq!(a.num("--workers", 24), 24);
        assert_eq!(a.text("--out", "results"), "results");
        assert!(a.switch("--verify-determinism"));
        assert_eq!(a.words, ["fig4"]);
        assert_eq!(
            a.given().collect::<Vec<_>>(),
            ["--keys", "--ops", "--verify-determinism"]
        );
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        // The misspelling that used to switch determinism checking off.
        let err = parse(&["--verify-determinsm"]).unwrap_err();
        assert!(err.contains("unknown flag --verify-determinsm"), "{err}");
    }

    #[test]
    fn a_missing_value_is_rejected() {
        assert!(parse(&["--workers"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--out", "--keys", "5"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn an_unparsable_number_is_rejected() {
        // `--seeds x` used to run the default number of seeds.
        let err = parse(&["--keys", "x"]).unwrap_err();
        assert!(err.contains("takes a number"), "{err}");
        assert!(parse(&["--ops", "-3"]).is_err());
    }
}
