//! Workload mixes and per-worker operation streams.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dist::Distribution;

/// One benchmark operation, in terms of *item indexes* (materialize keys
/// via [`KeySpace::key`](crate::KeySpace::key)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup of an existing item.
    Read(u64),
    /// Update the value of an existing item.
    Update(u64),
    /// Insert a brand-new item (index allocated from the shared cursor).
    Insert(u64),
    /// Range scan starting at an existing item, for `len` items.
    Scan(u64, usize),
}

/// The operation mix of a YCSB workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name as used in the paper ("A".."E", "LOAD").
    pub name: &'static str,
    /// Fraction of reads.
    pub read: f64,
    /// Fraction of updates.
    pub update: f64,
    /// Fraction of inserts.
    pub insert: f64,
    /// Fraction of scans.
    pub scan: f64,
    /// Whether reads follow the "latest" distribution (workload D).
    pub latest: bool,
    /// Use a uniform request distribution instead of zipfian (not used by
    /// the paper's workloads; available for sensitivity studies).
    pub uniform: bool,
    /// Maximum scan length (YCSB default 100, uniform 1..=max).
    pub max_scan_len: usize,
}

impl Workload {
    /// YCSB-A: 50% reads, 50% updates, zipfian.
    pub fn a() -> Self {
        Workload {
            name: "A",
            read: 0.5,
            update: 0.5,
            insert: 0.0,
            scan: 0.0,
            latest: false,
            uniform: false,
            max_scan_len: 0,
        }
    }

    /// Returns this workload with a uniform request distribution.
    ///
    /// # Examples
    ///
    /// ```
    /// use ycsb::Workload;
    /// let w = Workload::a().with_uniform();
    /// assert!(w.uniform);
    /// ```
    pub fn with_uniform(mut self) -> Self {
        self.uniform = true;
        self
    }

    /// YCSB-B: 95% reads, 5% updates, zipfian.
    pub fn b() -> Self {
        Workload {
            read: 0.95,
            update: 0.05,
            name: "B",
            ..Self::a()
        }
    }

    /// YCSB-C: 100% reads, zipfian.
    pub fn c() -> Self {
        Workload {
            read: 1.0,
            update: 0.0,
            name: "C",
            ..Self::a()
        }
    }

    /// YCSB-D as run in the paper: 95% reads over the *latest*
    /// distribution, 5% updates.
    pub fn d() -> Self {
        Workload {
            read: 0.95,
            update: 0.05,
            latest: true,
            name: "D",
            ..Self::a()
        }
    }

    /// YCSB-E: 95% scans (uniform length 1..=100), 5% inserts, zipfian.
    pub fn e() -> Self {
        Workload {
            name: "E",
            read: 0.0,
            update: 0.0,
            insert: 0.05,
            scan: 0.95,
            latest: false,
            uniform: false,
            max_scan_len: 100,
        }
    }

    /// LOAD: 100% inserts.
    pub fn load() -> Self {
        Workload {
            read: 0.0,
            update: 0.0,
            insert: 1.0,
            scan: 0.0,
            name: "LOAD",
            ..Self::a()
        }
    }

    /// Looks a workload up by its paper name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Workload> {
        match name.to_ascii_uppercase().as_str() {
            "A" => Some(Self::a()),
            "B" => Some(Self::b()),
            "C" => Some(Self::c()),
            "D" => Some(Self::d()),
            "E" => Some(Self::e()),
            "LOAD" => Some(Self::load()),
            _ => None,
        }
    }
}

/// A shared, monotonically growing item-index cursor.
///
/// All workers allocating fresh indexes for inserts share one cursor, so
/// inserted items get globally unique indexes, and the "latest"
/// distribution can see the current population.
#[derive(Debug, Clone)]
pub struct SharedInsertCursor {
    next: Arc<AtomicU64>,
}

impl SharedInsertCursor {
    /// Creates a cursor starting after `preloaded` items.
    pub fn new(preloaded: u64) -> Self {
        SharedInsertCursor {
            next: Arc::new(AtomicU64::new(preloaded)),
        }
    }

    /// Allocates the next fresh item index.
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Current item population (preloaded + inserted so far).
    pub fn population(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

/// A per-worker deterministic stream of operations.
#[derive(Debug)]
pub struct OpStream {
    workload: Workload,
    dist: Distribution,
    cursor: SharedInsertCursor,
    rng: SmallRng,
}

impl OpStream {
    /// Creates a stream over `preloaded` initial items with a fresh private
    /// cursor (single-worker usage).
    pub fn new(workload: Workload, preloaded: u64, seed: u64) -> Self {
        Self::with_cursor(
            workload,
            preloaded,
            seed,
            SharedInsertCursor::new(preloaded),
        )
    }

    /// Creates a stream sharing `cursor` with other workers. Give each
    /// worker a distinct `seed`.
    pub fn with_cursor(
        workload: Workload,
        preloaded: u64,
        seed: u64,
        cursor: SharedInsertCursor,
    ) -> Self {
        let dist = if workload.latest {
            Distribution::latest(preloaded.max(1))
        } else if workload.uniform {
            Distribution::Uniform
        } else {
            Distribution::zipfian(preloaded.max(1))
        };
        OpStream {
            workload,
            dist,
            cursor,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The shared insert cursor (to hand to other workers).
    pub fn cursor(&self) -> SharedInsertCursor {
        self.cursor.clone()
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let w = &self.workload;
        let roll: f64 = self.rng.gen();
        let population = self.cursor.population().max(1);
        if roll < w.read {
            Op::Read(self.dist.sample(&mut self.rng, population))
        } else if roll < w.read + w.update {
            Op::Update(self.dist.sample(&mut self.rng, population))
        } else if roll < w.read + w.update + w.insert {
            Op::Insert(self.cursor.allocate())
        } else {
            let start = self.dist.sample(&mut self.rng, population);
            let len = self.rng.gen_range(1..=w.max_scan_len.max(1));
            Op::Scan(start, len)
        }
    }
}

/// `OpStream` is an infinite iterator of operations.
impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_counts(workload: Workload, n: usize) -> (usize, usize, usize, usize) {
        let mut s = OpStream::new(workload, 10_000, 1);
        let (mut r, mut u, mut i, mut sc) = (0, 0, 0, 0);
        for _ in 0..n {
            match s.next_op() {
                Op::Read(_) => r += 1,
                Op::Update(_) => u += 1,
                Op::Insert(_) => i += 1,
                Op::Scan(_, _) => sc += 1,
            }
        }
        (r, u, i, sc)
    }

    #[test]
    fn workload_a_mix() {
        let (r, u, i, s) = mix_counts(Workload::a(), 100_000);
        assert!((45_000..55_000).contains(&r), "reads {r}");
        assert!((45_000..55_000).contains(&u), "updates {u}");
        assert_eq!(i + s, 0);
    }

    #[test]
    fn workload_b_and_c_mix() {
        let (r, u, _, _) = mix_counts(Workload::b(), 100_000);
        assert!((93_000..97_000).contains(&r));
        assert!((3_000..7_000).contains(&u));
        let (r, u, i, s) = mix_counts(Workload::c(), 10_000);
        assert_eq!((r, u, i, s), (10_000, 0, 0, 0));
    }

    #[test]
    fn workload_e_scans_and_inserts() {
        let (r, u, i, s) = mix_counts(Workload::e(), 100_000);
        assert_eq!(r + u, 0);
        assert!((3_000..7_000).contains(&i));
        assert!((93_000..97_000).contains(&s));
    }

    #[test]
    fn load_is_all_inserts_with_unique_indexes() {
        let mut s = OpStream::new(Workload::load(), 500, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            match s.next_op() {
                Op::Insert(idx) => {
                    assert!(idx >= 500);
                    assert!(seen.insert(idx), "duplicate insert index");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn scan_lengths_in_bounds() {
        let mut s = OpStream::new(Workload::e(), 10_000, 9);
        for _ in 0..10_000 {
            if let Op::Scan(start, len) = s.next_op() {
                assert!(start < s.cursor.population());
                assert!((1..=100).contains(&len));
            }
        }
    }

    #[test]
    fn workload_d_reads_recent() {
        let mut s = OpStream::new(Workload::d(), 100_000, 5);
        let mut recent = 0;
        let mut reads = 0;
        for _ in 0..50_000 {
            if let Op::Read(idx) = s.next_op() {
                reads += 1;
                if idx > 90_000 {
                    recent += 1;
                }
            }
        }
        assert!(
            recent as f64 / reads as f64 > 0.5,
            "latest reads should hit the newest 10%: {recent}/{reads}"
        );
    }

    #[test]
    fn shared_cursor_is_global_across_workers() {
        let cursor = SharedInsertCursor::new(100);
        let mut a = OpStream::with_cursor(Workload::load(), 100, 1, cursor.clone());
        let mut b = OpStream::with_cursor(Workload::load(), 100, 2, cursor.clone());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            if let Op::Insert(i) = a.next_op() {
                assert!(seen.insert(i));
            }
            if let Op::Insert(i) = b.next_op() {
                assert!(seen.insert(i));
            }
        }
        assert_eq!(cursor.population(), 300);
    }

    #[test]
    fn by_name_roundtrip() {
        for name in ["A", "b", "C", "d", "E", "load"] {
            assert!(Workload::by_name(name).is_some(), "{name}");
        }
        for name in ["F", "Z"] {
            assert!(Workload::by_name(name).is_none(), "{name}");
        }
    }

    #[test]
    fn uniform_variant_spreads_requests() {
        let mut s = OpStream::new(Workload::c().with_uniform(), 1_000, 5);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..100_000 {
            if let Op::Read(i) = s.next_op() {
                counts[i as usize] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        assert!(max < 300, "uniform workload too skewed: max bucket {max}");
    }

    #[test]
    fn op_stream_is_an_infinite_iterator() {
        let ops: Vec<Op> = OpStream::new(Workload::a(), 100, 1).take(25).collect();
        assert_eq!(ops.len(), 25);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = OpStream::new(Workload::a(), 1000, 77);
        let mut b = OpStream::new(Workload::a(), 1000, 77);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
