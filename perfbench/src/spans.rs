//! In-memory span recorder for traced runs.
//!
//! A span is a named wall-clock interval with a parent and an op id
//! shared by every span of one request or op. Spans are recorded from
//! the benchmark's side of each layer boundary, kept in memory, and
//! written out once at the end of the run. A disabled recorder records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::json::escape;

/// Handle of an open span (`None` when the recorder is disabled).
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Span time not covered by any child span.
    pub self_ns: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an already-closed interval.
    pub fn record(
        &self,
        name: &str,
        op: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(Span { name: name.to_owned(), op, parent, start_ns, end_ns });
        Some(spans.len() - 1)
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&self, name: &str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let now = self.now_ns();
            self.spans.lock().unwrap_or_else(PoisonError::into_inner)[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent nested spans.
    pub fn time<T>(&self, name: &str, op: u64, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.open(name, op, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Count, total time and self time per span name. Self time is a
    /// span's duration minus the union of its children's intervals, so
    /// children running in parallel are not subtracted twice.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut text = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                escape(&s.name),
                s.op,
                s.start_ns,
                s.end_ns
            ));
        }
        fs::write(path, text)
    }

    /// Writes the spans to `path` and prints each span name's count,
    /// total time and self time.
    pub fn dump(&self, path: &Path) -> Result<(), String> {
        self.write_jsonl(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        for (name, t) in self.totals() {
            println!(
                "# span {name:<32} n={:<6} total_ms={:<12.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = Spans::new(true);
        let root = spans.record("root", 1, None, 0, 100);
        // Two overlapping children cover 10..60, one disjoint 80..90.
        spans.record("kid", 1, root, 10, 50);
        spans.record("kid", 1, root, 30, 60);
        spans.record("kid", 1, root, 80, 90);
        let totals = spans.totals();
        assert_eq!(totals["root"].self_ns, 100 - 60);
        assert_eq!(totals["kid"].count, 3);
        assert_eq!(totals["kid"].total_ns, 40 + 30 + 10);
        let off = Spans::new(false);
        assert_eq!(off.time("x", 0, None, |id| id), None);
        assert!(off.totals().is_empty());
    }
}
