//! Operation histories: invoke/response events with virtual timestamps.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Keys are arbitrary byte strings.
pub type Key = Vec<u8>;
/// Values are arbitrary byte strings.
pub type Value = Vec<u8>;

/// The response timestamp of an operation that never returned.
pub const PENDING_TS: u64 = u64::MAX;

/// A map operation, as invoked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Get {
        /// Key looked up.
        key: Key,
    },
    /// Upsert.
    Insert {
        /// Key written.
        key: Key,
        /// Value written.
        value: Value,
    },
    /// Write iff present.
    Update {
        /// Key written.
        key: Key,
        /// Value written.
        value: Value,
    },
    /// Remove iff present.
    Delete {
        /// Key removed.
        key: Key,
    },
    /// Batched point lookups.
    MultiGet {
        /// Keys looked up, in request order.
        keys: Vec<Key>,
    },
    /// Inclusive range scan `low <= k <= high`.
    Scan {
        /// Lower bound (inclusive).
        low: Key,
        /// Upper bound (inclusive).
        high: Key,
    },
    /// Bounded scan: first `limit` keys at or after `low`.
    ScanN {
        /// Lower bound (inclusive).
        low: Key,
        /// Maximum entries returned.
        limit: usize,
    },
}

/// An operation's response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ret {
    /// `Get` response.
    Got(Option<Value>),
    /// `Insert` response (upsert: always succeeds).
    Inserted,
    /// `Update` response: whether the key was present.
    Updated(bool),
    /// `Delete` response: whether the key was present.
    Deleted(bool),
    /// `MultiGet` response, parallel to the request's key list.
    MultiGot(Vec<Option<Value>>),
    /// `Scan`/`ScanN` response: returned pairs in key order.
    Scanned(Vec<(Key, Value)>),
    /// The operation never returned (crash, hang, or run cut short).
    Pending,
}

/// Identifies one recorded operation within its recorder/history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub(crate) usize);

/// One operation's full record: who, when, what, and what came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the history (also the [`OpId`]).
    pub op_id: usize,
    /// Logical client (thread/worker) that issued the operation.
    pub client: u32,
    /// Virtual time at invocation.
    pub invoke_ts: u64,
    /// Virtual time at response ([`PENDING_TS`] if none).
    pub response_ts: u64,
    /// The operation.
    pub op: Op,
    /// Its response.
    pub ret: Ret,
}

/// A finished, immutable history of events (in invocation order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// Recorded events, indexed by [`Event::op_id`].
    pub events: Vec<Event>,
}

impl History {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether any operation was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A canonical byte serialization of the whole history. Two runs that
    /// produced byte-identical canonical forms performed identical
    /// operations with identical results at identical virtual times — the
    /// replay-fidelity witness the schedule tests assert on.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.events.len() * 48);
        let put_bytes = |out: &mut Vec<u8>, b: &[u8]| {
            out.extend_from_slice(&(b.len() as u64).to_le_bytes());
            out.extend_from_slice(b);
        };
        for e in &self.events {
            out.extend_from_slice(&(e.op_id as u64).to_le_bytes());
            out.extend_from_slice(&e.client.to_le_bytes());
            out.extend_from_slice(&e.invoke_ts.to_le_bytes());
            out.extend_from_slice(&e.response_ts.to_le_bytes());
            match &e.op {
                Op::Get { key } => {
                    out.push(0);
                    put_bytes(&mut out, key);
                }
                Op::Insert { key, value } => {
                    out.push(1);
                    put_bytes(&mut out, key);
                    put_bytes(&mut out, value);
                }
                Op::Update { key, value } => {
                    out.push(2);
                    put_bytes(&mut out, key);
                    put_bytes(&mut out, value);
                }
                Op::Delete { key } => {
                    out.push(3);
                    put_bytes(&mut out, key);
                }
                Op::MultiGet { keys } => {
                    out.push(4);
                    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
                    for k in keys {
                        put_bytes(&mut out, k);
                    }
                }
                Op::Scan { low, high } => {
                    out.push(5);
                    put_bytes(&mut out, low);
                    put_bytes(&mut out, high);
                }
                Op::ScanN { low, limit } => {
                    out.push(6);
                    put_bytes(&mut out, low);
                    out.extend_from_slice(&(*limit as u64).to_le_bytes());
                }
            }
            match &e.ret {
                Ret::Got(v) => {
                    out.push(0);
                    match v {
                        None => out.push(0),
                        Some(v) => {
                            out.push(1);
                            put_bytes(&mut out, v);
                        }
                    }
                }
                Ret::Inserted => out.push(1),
                Ret::Updated(ok) => {
                    out.push(2);
                    out.push(*ok as u8);
                }
                Ret::Deleted(ok) => {
                    out.push(3);
                    out.push(*ok as u8);
                }
                Ret::MultiGot(vs) => {
                    out.push(4);
                    out.extend_from_slice(&(vs.len() as u64).to_le_bytes());
                    for v in vs {
                        match v {
                            None => out.push(0),
                            Some(v) => {
                                out.push(1);
                                put_bytes(&mut out, v);
                            }
                        }
                    }
                }
                Ret::Scanned(pairs) => {
                    out.push(5);
                    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
                    for (k, v) in pairs {
                        put_bytes(&mut out, k);
                        put_bytes(&mut out, v);
                    }
                }
                Ret::Pending => out.push(6),
            }
        }
        out
    }

    /// FNV-1a digest of [`canonical_bytes`](Self::canonical_bytes) — a
    /// compact fingerprint for "same (seed, trace) replays byte-identical
    /// histories" assertions and failure-report filenames.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn fmt_bytes(f: &mut fmt::Formatter<'_>, b: &[u8]) -> fmt::Result {
    if b.len() > 16 {
        for x in &b[..16] {
            write!(f, "{x:02x}")?;
        }
        write!(f, "..(+{})", b.len() - 16)
    } else {
        for x in b {
            write!(f, "{x:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Get { key } => {
                write!(f, "get(")?;
                fmt_bytes(f, key)?;
                write!(f, ")")
            }
            Op::Insert { key, value } => {
                write!(f, "insert(")?;
                fmt_bytes(f, key)?;
                write!(f, ", ")?;
                fmt_bytes(f, value)?;
                write!(f, ")")
            }
            Op::Update { key, value } => {
                write!(f, "update(")?;
                fmt_bytes(f, key)?;
                write!(f, ", ")?;
                fmt_bytes(f, value)?;
                write!(f, ")")
            }
            Op::Delete { key } => {
                write!(f, "delete(")?;
                fmt_bytes(f, key)?;
                write!(f, ")")
            }
            Op::MultiGet { keys } => write!(f, "multi_get({} keys)", keys.len()),
            Op::Scan { low, high } => {
                write!(f, "scan(")?;
                fmt_bytes(f, low)?;
                write!(f, "..=")?;
                fmt_bytes(f, high)?;
                write!(f, ")")
            }
            Op::ScanN { low, limit } => {
                write!(f, "scan_n(")?;
                fmt_bytes(f, low)?;
                write!(f, ", {limit})")
            }
        }
    }
}

impl fmt::Display for Ret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ret::Got(None) => write!(f, "None"),
            Ret::Got(Some(v)) => {
                write!(f, "Some(")?;
                fmt_bytes(f, v)?;
                write!(f, ")")
            }
            Ret::Inserted => write!(f, "ok"),
            Ret::Updated(ok) => write!(f, "updated={ok}"),
            Ret::Deleted(ok) => write!(f, "deleted={ok}"),
            Ret::MultiGot(vs) => write!(f, "{} values", vs.len()),
            Ret::Scanned(pairs) => write!(f, "{} pairs", pairs.len()),
            Ret::Pending => write!(f, "<pending>"),
        }
    }
}

/// A thread-safe recorder workers share (behind an `Arc`) while the run is
/// in progress.
///
/// Timestamps: pass explicit virtual times from the deterministic
/// scheduler's step counter when one is attached, or use the `_now`
/// variants, which draw from the recorder's own strictly monotonic clock.
/// Mixing is fine as long as the caller keeps the combined order a valid
/// real-time witness (the schedule drivers set the scheduler's base step
/// past every preload timestamp for exactly this reason).
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    events: Mutex<Vec<Event>>,
    clock: AtomicU64,
}

impl HistoryRecorder {
    /// An empty recorder with its clock at zero.
    pub fn new() -> Self {
        HistoryRecorder::default()
    }

    /// Draws the next timestamp from the recorder's internal clock.
    pub fn next_ts(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// The next timestamp the internal clock would hand out.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Records an invocation at virtual time `ts`; the returned id must be
    /// passed to [`respond`](Self::respond) when the operation completes.
    /// An operation never responded to stays [`Ret::Pending`].
    pub fn invoke(&self, client: u32, op: Op, ts: u64) -> OpId {
        let mut ev = self.events.lock().expect("recorder poisoned");
        let id = ev.len();
        ev.push(Event {
            op_id: id,
            client,
            invoke_ts: ts,
            response_ts: PENDING_TS,
            op,
            ret: Ret::Pending,
        });
        OpId(id)
    }

    /// [`invoke`](Self::invoke) stamped with the internal clock.
    pub fn invoke_now(&self, client: u32, op: Op) -> OpId {
        let ts = self.next_ts();
        self.invoke(client, op, ts)
    }

    /// Records the response to a previously invoked operation.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown, already responded, or `ts` precedes
    /// the invocation (a corrupt timestamp source would silently break the
    /// checker's real-time order, so it fails loudly here).
    pub fn respond(&self, id: OpId, ret: Ret, ts: u64) {
        let mut ev = self.events.lock().expect("recorder poisoned");
        let e = &mut ev[id.0];
        assert_eq!(e.ret, Ret::Pending, "operation {} responded twice", id.0);
        assert!(
            ts >= e.invoke_ts,
            "response ts {ts} precedes invoke ts {} for op {}",
            e.invoke_ts,
            id.0
        );
        e.response_ts = ts;
        e.ret = ret;
    }

    /// [`respond`](Self::respond) stamped with the internal clock.
    pub fn respond_now(&self, id: OpId, ret: Ret) {
        let ts = self.next_ts();
        self.respond(id, ret, ts);
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the recorder and yields the immutable history.
    pub fn finish(self) -> History {
        History {
            events: self.events.into_inner().expect("recorder poisoned"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_orders_and_stamps() {
        let rec = HistoryRecorder::new();
        let a = rec.invoke_now(0, Op::Get { key: b"a".to_vec() });
        let b = rec.invoke_now(1, Op::Delete { key: b"a".to_vec() });
        rec.respond_now(a, Ret::Got(None));
        // b never responds → pending.
        let _ = b;
        let h = rec.finish();
        assert_eq!(h.len(), 2);
        assert!(h.events[0].invoke_ts < h.events[0].response_ts);
        assert_eq!(h.events[1].response_ts, PENDING_TS);
        assert_eq!(h.events[1].ret, Ret::Pending);
    }

    #[test]
    #[should_panic(expected = "responded twice")]
    fn double_respond_panics() {
        let rec = HistoryRecorder::new();
        let a = rec.invoke_now(0, Op::Get { key: b"a".to_vec() });
        rec.respond_now(a, Ret::Got(None));
        rec.respond_now(a, Ret::Got(None));
    }

    #[test]
    fn canonical_bytes_distinguish_histories() {
        let mk = |val: &[u8]| {
            let rec = HistoryRecorder::new();
            let a = rec.invoke_now(
                0,
                Op::Insert {
                    key: b"k".to_vec(),
                    value: val.to_vec(),
                },
            );
            rec.respond_now(a, Ret::Inserted);
            rec.finish()
        };
        let h1 = mk(b"v1");
        let h2 = mk(b"v1");
        let h3 = mk(b"v2");
        assert_eq!(h1.canonical_bytes(), h2.canonical_bytes());
        assert_eq!(h1.digest(), h2.digest());
        assert_ne!(h1.canonical_bytes(), h3.canonical_bytes());
        assert_ne!(h1.digest(), h3.digest());
    }

    #[test]
    fn display_truncates_long_bytes() {
        let op = Op::Get {
            key: vec![0xab; 40],
        };
        let s = op.to_string();
        assert!(s.contains("..(+24)"), "{s}");
    }
}
