//! Benchmark-side spans: one per generator call, per client call and per
//! replay batch, on both clocks. Kept in a pre-sized `Vec` and written to
//! `out/<workload>.spans.json` when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One span. Host times are ns since the log was created; virtual times are
/// the calling client's clock (0 for host-only replay batches).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `ycsb.next_op`, `core.update`.
    pub name: &'static str,
    pub start_host_ns: u64,
    pub end_host_ns: u64,
    pub start_vt_ns: u64,
    pub end_vt_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Shared by the spans of one operation (its call sequence number).
    pub op_id: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(n: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    /// Host ns since the log's epoch.
    pub fn host_ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends a span and returns its index (for use as a parent).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a root span covering a whole pass; close it with
    /// [`SpanLog::close`].
    pub fn open_root(&mut self, name: &'static str, vt_ns: u64) -> u32 {
        let now = self.host_ns(Instant::now());
        self.push(Span {
            name,
            start_host_ns: now,
            end_host_ns: now,
            start_vt_ns: vt_ns,
            end_vt_ns: vt_ns,
            parent: NO_PARENT,
            op_id: 0,
        })
    }

    pub fn close(&mut self, idx: u32, vt_ns: u64) {
        let now = self.host_ns(Instant::now());
        let s = &mut self.spans[idx as usize];
        s.end_host_ns = now;
        s.end_vt_ns = vt_ns;
    }

    /// Appends another participant's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = self.spans.len() as u32;
        let dt = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s.start_host_ns += dt;
            s.end_host_ns += dt;
            s
        }));
    }

    /// Writes the log as one JSON document: a header and one row per span.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"schema\":\"sphinx.bench.spans.v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"fields\":[\"name\",\"start_host_ns\",\"end_host_ns\",\"start_vt_ns\",\"end_vt_ns\",\"parent\",\"op_id\"],\
             \"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "[\"{}\",{},{},{},{},{},{}]{}",
                s.name,
                s.start_host_ns,
                s.end_host_ns,
                s.start_vt_ns,
                s.end_vt_ns,
                parent,
                s.op_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut log = SpanLog::with_capacity(4);
        let root = log.open_root("bench.traced_pass", 0);
        let t = Instant::now();
        let child = log.push(Span {
            name: "core.get",
            start_host_ns: log.host_ns(t),
            end_host_ns: log.host_ns(t) + 10,
            start_vt_ns: 5,
            end_vt_ns: 9,
            parent: root,
            op_id: 1,
        });
        log.close(root, 9);
        assert_eq!(child, 1);
        assert_eq!(log.spans[0].end_vt_ns, 9);
        assert!(log.spans[0].end_host_ns >= log.spans[0].start_host_ns);

        let mut other = SpanLog::with_capacity(1);
        let r2 = other.open_root("bench.replay", 0);
        other.close(r2, 0);
        log.absorb(other);
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[2].parent, NO_PARENT);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("t.spans.json");
        log.write_json(&path, "t", 1).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = obs::json::parse(&text).expect("spans file is valid JSON");
        let rows = doc.get("spans").and_then(|v| v.as_arr()).expect("spans");
        assert_eq!(rows.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
