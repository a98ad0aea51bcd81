//! The driver's model of the index: which keys are live and which value
//! each must hold. Every result the program returns is checked against it.

use std::collections::{BTreeMap, HashMap};

use ycsb::{value_for, KeySpace};

/// Maps a logical item index (`0..live`) to the key and values the program
/// sees. The seed shifts the item indices, so each seed has its own key set
/// (`KeySpace::key` is a pure function of the index).
#[derive(Debug, Clone, Copy)]
pub struct Items {
    pub keyspace: KeySpace,
    base: u64,
}

impl Items {
    pub fn new(keyspace: KeySpace, seed: u64) -> Self {
        // Email keys embed the index in six base-36 digits (< 2.17e9):
        // 1000 disjoint windows of 2M indices. u64 keys are a bijection of
        // the index, so any disjoint windows do.
        let base = match keyspace {
            KeySpace::Email => (seed % 1000) * 2_000_000,
            KeySpace::U64 => seed.wrapping_mul(1 << 32),
        };
        Items { keyspace, base }
    }

    pub fn key(&self, idx: u64) -> Vec<u8> {
        self.keyspace.key(self.base.wrapping_add(idx))
    }

    pub fn value(&self, idx: u64, version: u32) -> Vec<u8> {
        value_for(self.base.wrapping_add(idx), version)
    }
}

/// Failure tally. `attempted` counts index operations and read-back keys;
/// every other field counts failures of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Operations inside client calls that returned `Err`.
    pub errors: u64,
    /// Wrong, missing or unexpected values, rows or flags.
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.wrong += o.wrong;
    }
}

/// An inclusive scan range and the items a scan of it must return, in order.
#[derive(Debug)]
pub struct ScanRange {
    pub low: Vec<u8>,
    pub high: Vec<u8>,
    pub rows: Vec<u64>,
}

/// Single-writer model: the live index range and each key's last written
/// version. The scan workload additionally keeps the keys ordered.
#[derive(Debug)]
pub struct Oracle {
    pub items: Items,
    versions: Vec<u32>,
    /// Key (as a big-endian integer) → item index; only for u64 scans.
    ordered: Option<BTreeMap<u64, u64>>,
    pub tally: Tally,
    /// First few mismatches, for the report.
    pub examples: Vec<String>,
}

fn key_u64(key: &[u8]) -> u64 {
    u64::from_be_bytes(key.try_into().expect("ordered model holds 8-byte keys"))
}

impl Oracle {
    pub fn new(items: Items, with_order: bool) -> Self {
        Oracle {
            items,
            versions: Vec::new(),
            ordered: with_order.then(BTreeMap::new),
            tally: Tally::default(),
            examples: Vec::new(),
        }
    }

    /// Live keys (preloaded + inserted).
    pub fn live(&self) -> u64 {
        self.versions.len() as u64
    }

    fn note(&mut self, what: String) {
        self.tally.wrong += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    /// A call returned `Err`: all `ops` operations in it failed.
    pub fn call_failed(&mut self, ops: u64, err: &dyn std::fmt::Display) {
        self.tally.attempted += ops;
        self.tally.errors += ops;
        if self.examples.len() < 5 {
            self.examples.push(format!("call failed: {err}"));
        }
    }

    /// The version an update of `idx` must write next.
    pub fn next_version(&self, idx: u64) -> u32 {
        self.versions[idx as usize] + 1
    }

    pub fn inserted(&mut self, idx: u64, key: &[u8]) {
        self.tally.attempted += 1;
        if idx != self.live() {
            self.note(format!("insert of item {idx} out of order"));
            return;
        }
        self.versions.push(0);
        if let Some(o) = self.ordered.as_mut() {
            o.insert(key_u64(key), idx);
        }
    }

    pub fn updated(&mut self, idx: u64, found: bool) {
        self.tally.attempted += 1;
        if found {
            self.versions[idx as usize] += 1;
        } else {
            self.note(format!("update of live item {idx} reported it missing"));
        }
    }

    pub fn got(&mut self, idx: u64, value: Option<&[u8]>) {
        self.tally.attempted += 1;
        let want = self.items.value(idx, self.versions[idx as usize]);
        if value != Some(want.as_slice()) {
            let v = self.versions[idx as usize];
            self.note(format!(
                "get of item {idx} (version {v}): {}",
                if value.is_some() {
                    "wrong value"
                } else {
                    "missing"
                }
            ));
        }
    }

    /// The inclusive scan range covering the `len` live keys from item
    /// `start`'s key upward, and the rows a scan of it must return.
    pub fn scan_range(&self, start: u64, len: usize) -> ScanRange {
        let ordered = self.ordered.as_ref().expect("scan needs the ordered model");
        let low = self.items.key(start);
        let mut high = key_u64(&low);
        let mut rows = Vec::with_capacity(len);
        for (&k, &idx) in ordered.range(high..).take(len.max(1)) {
            high = k;
            rows.push(idx);
        }
        ScanRange {
            low,
            high: high.to_be_bytes().to_vec(),
            rows,
        }
    }

    pub fn scanned(&mut self, want: &[u64], got: &[(Vec<u8>, Vec<u8>)]) {
        self.tally.attempted += 1;
        let ok = want.len() == got.len()
            && want.iter().zip(got).all(|(&idx, (k, v))| {
                *k == self.items.key(idx)
                    && *v == self.items.value(idx, self.versions[idx as usize])
            });
        if !ok {
            self.note(format!(
                "scan returned {} rows, expected {} (or a row differs)",
                got.len(),
                want.len()
            ));
        }
    }
}

/// Model for the contended workload: several participants update the same
/// few keys, so a read may legally return any version whose update has
/// started. Shared behind a mutex; lock-step scheduling makes the order of
/// accesses deterministic.
#[derive(Debug)]
pub struct HotOracle {
    pub items: Items,
    /// Item index of each hot key.
    pub hot: Vec<u64>,
    next_version: Vec<u32>,
    /// Per hot key: first 8 value bytes → version, for versions started.
    started: Vec<HashMap<[u8; 8], u32>>,
    pub tally: Tally,
    pub examples: Vec<String>,
}

impl HotOracle {
    pub fn new(items: Items, hot: Vec<u64>) -> Self {
        let started = hot
            .iter()
            .map(|&idx| {
                let mut m = HashMap::new();
                m.insert(head(&items.value(idx, 0)), 0);
                m
            })
            .collect();
        HotOracle {
            items,
            next_version: vec![1; hot.len()],
            hot,
            started,
            tally: Tally::default(),
            examples: Vec::new(),
        }
    }

    fn note(&mut self, what: String) {
        self.tally.wrong += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    pub fn call_failed(&mut self, err: &dyn std::fmt::Display) {
        self.tally.attempted += 1;
        self.tally.errors += 1;
        if self.examples.len() < 5 {
            self.examples.push(format!("call failed: {err}"));
        }
    }

    /// Reserves the next version of hot key `slot` and returns its value;
    /// from now on reads may observe it.
    pub fn start_update(&mut self, slot: usize) -> Vec<u8> {
        let v = self.next_version[slot];
        self.next_version[slot] += 1;
        let value = self.items.value(self.hot[slot], v);
        self.started[slot].insert(head(&value), v);
        value
    }

    pub fn updated(&mut self, slot: usize, found: bool) {
        self.tally.attempted += 1;
        if !found {
            self.note(format!("update of hot key {slot} reported it missing"));
        }
    }

    /// A read of hot key `slot` must return a value some started update
    /// (or the preload) wrote.
    pub fn got(&mut self, slot: usize, value: Option<&[u8]>) {
        self.tally.attempted += 1;
        let ok = value.is_some_and(|v| {
            v.len() >= 8
                && self.started[slot]
                    .get(&head(v))
                    .is_some_and(|&ver| v == self.items.value(self.hot[slot], ver))
        });
        if !ok {
            self.note(format!("get of hot key {slot}: value never written"));
        }
    }
}

fn head(value: &[u8]) -> [u8; 8] {
    value[..8].try_into().expect("values are 64 bytes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_give_disjoint_key_sets() {
        for ks in [KeySpace::U64, KeySpace::Email] {
            let a = Items::new(ks, 1);
            let b = Items::new(ks, 2);
            assert_ne!(a.key(0), b.key(0));
            assert_eq!(a.key(7), Items::new(ks, 1).key(7));
        }
        // The largest email window stays inside six base-36 digits.
        assert!(999 * 2_000_000 + 2_000_000 <= 36u64.pow(6));
    }

    #[test]
    fn oracle_tracks_versions_and_flags_mismatches() {
        let items = Items::new(KeySpace::U64, 1);
        let mut o = Oracle::new(items, true);
        for i in 0..10 {
            o.inserted(i, &items.key(i));
        }
        assert_eq!(o.live(), 10);
        o.got(3, Some(&items.value(3, 0)));
        assert_eq!(o.next_version(3), 1);
        o.updated(3, true);
        o.got(3, Some(&items.value(3, 1)));
        assert_eq!(o.tally.failed(), 0);
        o.got(3, Some(&items.value(3, 0)));
        o.got(4, None);
        o.updated(5, false);
        assert_eq!(o.tally.wrong, 3);
        assert_eq!(o.tally.attempted, 16);
    }

    #[test]
    fn scan_range_covers_len_keys_in_order() {
        let items = Items::new(KeySpace::U64, 3);
        let mut o = Oracle::new(items, true);
        for i in 0..100 {
            o.inserted(i, &items.key(i));
        }
        let ScanRange { low, high, rows } = o.scan_range(17, 5);
        assert_eq!(low, items.key(17));
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], 17);
        assert!(low < high);
        let keys: Vec<_> = rows.iter().map(|&i| items.key(i)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(&high, keys.last().unwrap());
        let got: Vec<_> = rows
            .iter()
            .map(|&i| (items.key(i), items.value(i, 0)))
            .collect();
        o.scanned(&rows, &got);
        assert_eq!(o.tally.failed(), 0);
        o.scanned(&rows, &got[1..]);
        assert_eq!(o.tally.wrong, 1);
    }

    #[test]
    fn hot_oracle_accepts_any_started_version() {
        let items = Items::new(KeySpace::U64, 1);
        let mut h = HotOracle::new(items, vec![5, 9]);
        h.got(0, Some(&items.value(5, 0)));
        let v1 = h.start_update(0);
        let v2 = h.start_update(0);
        h.got(0, Some(&v2));
        h.got(0, Some(&v1));
        assert_eq!(h.tally.failed(), 0);
        h.got(0, Some(&items.value(5, 3)));
        h.got(1, Some(&v1));
        h.got(1, None);
        assert_eq!(h.tally.wrong, 3);
    }
}
