//! Spans, tracks, and the nesting rules that make traces well-formed.

use std::fmt;
use std::sync::Arc;

use crate::tracer::Shared;

/// What kind of work a span covers. The variant order is the canonical
/// reporting order used by every sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// A whole-network simulation.
    Network,
    /// One layer inside a network simulation.
    Layer,
    /// One phase segment of a machine trace (load/compute/drain).
    Phase,
    /// One design point of a hardware sweep.
    Sweep,
    /// One model-variant evaluation of the co-design study.
    Codesign,
    /// One hybrid-vs-fixed architecture comparison.
    Compare,
    /// One bench-report experiment generator.
    Experiment,
}

impl Category {
    /// Short stable tag used in sink output.
    pub fn tag(&self) -> &'static str {
        match self {
            Category::Network => "network",
            Category::Layer => "layer",
            Category::Phase => "phase",
            Category::Sweep => "sweep",
            Category::Codesign => "codesign",
            Category::Compare => "compare",
            Category::Experiment => "experiment",
        }
    }

    /// Every category, in canonical order.
    pub fn all() -> [Category; 7] {
        [
            Category::Network,
            Category::Layer,
            Category::Phase,
            Category::Sweep,
            Category::Codesign,
            Category::Compare,
            Category::Experiment,
        ]
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One closed span on a track's simulated-time (cycle) timeline.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanRecord {
    /// Span name (layer name, design-point label, ...).
    pub name: String,
    /// Kind of work.
    pub category: Category,
    /// Start, in cycles from the track origin.
    pub start: u64,
    /// Duration in cycles.
    pub duration: u64,
    /// Nesting depth (0 = top level of the track).
    pub depth: usize,
    /// Attached integer counters (MACs, DRAM bytes, ...). Counter names
    /// are `&'static str` so recording never allocates for the keys.
    pub counters: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// End of the span (`start + duration`).
    pub fn end(&self) -> u64 {
        self.start + self.duration
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// All spans recorded on one logical timeline, in pre-order (a parent
/// precedes its children; siblings are in start order).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TrackData {
    /// Track name — a *logical* lane (one network run, one sweep point),
    /// never an OS thread id.
    pub name: String,
    /// Spans in pre-order.
    pub spans: Vec<SpanRecord>,
}

impl TrackData {
    /// Total timeline extent: the maximum span end.
    pub fn extent(&self) -> u64 {
        self.spans.iter().map(SpanRecord::end).max().unwrap_or(0)
    }

    /// Verifies the nesting invariants a [`Track`] guarantees by
    /// construction: depth steps down freely but up by at most one,
    /// every child interval is contained in its parent's, and siblings
    /// at the same depth do not overlap.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending span.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut stack: Vec<&SpanRecord> = Vec::new();
        let mut last_end: Vec<u64> = Vec::new();
        for s in &self.spans {
            stack.truncate(s.depth);
            last_end.truncate(s.depth + 1);
            if stack.len() != s.depth {
                return Err(format!(
                    "span `{}` jumps to depth {} with only {} ancestors",
                    s.name,
                    s.depth,
                    stack.len()
                ));
            }
            if let Some(parent) = stack.last() {
                if s.start < parent.start || s.end() > parent.end() {
                    return Err(format!(
                        "span `{}` [{}, {}) escapes parent `{}` [{}, {})",
                        s.name,
                        s.start,
                        s.end(),
                        parent.name,
                        parent.start,
                        parent.end()
                    ));
                }
            }
            if let Some(&prev) = last_end.get(s.depth) {
                if s.start < prev {
                    return Err(format!(
                        "span `{}` starts at {} before its sibling ended at {}",
                        s.name, s.start, prev
                    ));
                }
            }
            if last_end.len() == s.depth {
                last_end.push(s.end());
            } else {
                last_end[s.depth] = s.end();
            }
            stack.push(s);
        }
        Ok(())
    }
}

/// A live recording handle for one logical timeline.
///
/// A track owns a simulated-time cursor that starts at 0. [`Track::leaf`]
/// appends a complete span at the cursor and advances it;
/// [`Track::open`]/[`Track::close`] bracket nested spans whose duration
/// is however far the cursor moved in between. All methods are no-ops on
/// the tracks of a disabled or counters-only tracer.
///
/// Dropping the track closes any still-open spans and publishes the
/// recorded data to the owning [`crate::Tracer`].
#[derive(Debug)]
pub struct Track {
    pub(crate) shared: Option<Arc<Shared>>,
    pub(crate) name: String,
    pub(crate) spans: Vec<SpanRecord>,
    /// Indices into `spans` of the currently open spans, outermost first.
    pub(crate) open: Vec<usize>,
    pub(crate) cursor: u64,
}

impl Track {
    /// Whether this track records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The current simulated-time cursor.
    pub fn now(&self) -> u64 {
        self.cursor
    }

    /// Opens a nested span at the cursor. Pair with [`Track::close`].
    pub fn open(&mut self, name: &str, category: Category) {
        if self.shared.is_none() {
            return;
        }
        let depth = self.open.len();
        self.open.push(self.spans.len());
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            category,
            start: self.cursor,
            duration: 0,
            depth,
            counters: Vec::new(),
        });
    }

    /// Closes the innermost open span; its duration is the cursor
    /// movement since [`Track::open`]. No-op when nothing is open.
    pub fn close(&mut self) {
        self.close_with(&[]);
    }

    /// Closes the innermost open span, attaching `counters` to it.
    pub fn close_with(&mut self, counters: &[(&'static str, u64)]) {
        if self.shared.is_none() {
            return;
        }
        if let Some(i) = self.open.pop() {
            let start = self.spans[i].start;
            self.spans[i].duration = self.cursor - start;
            self.spans[i].counters.extend_from_slice(counters);
        }
    }

    /// Appends a complete span of `duration` cycles at the cursor and
    /// advances the cursor past it.
    pub fn leaf(
        &mut self,
        name: &str,
        category: Category,
        duration: u64,
        counters: &[(&'static str, u64)],
    ) {
        if self.shared.is_none() {
            return;
        }
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            category,
            start: self.cursor,
            duration,
            depth: self.open.len(),
            counters: counters.to_vec(),
        });
        self.cursor += duration;
    }

    /// Advances the cursor without recording a span (idle time).
    pub fn advance(&mut self, cycles: u64) {
        if self.shared.is_some() {
            self.cursor += cycles;
        }
    }
}

impl Drop for Track {
    fn drop(&mut self) {
        if self.shared.is_none() {
            return;
        }
        while !self.open.is_empty() {
            self.close();
        }
        let Some(shared) = self.shared.take() else { return };
        if !self.spans.is_empty() {
            shared.publish(TrackData {
                name: std::mem::take(&mut self.name),
                spans: std::mem::take(&mut self.spans),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn leaf_spans_tile_the_timeline() {
        let tracer = Tracer::enabled();
        let mut t = tracer.track("t");
        t.leaf("a", Category::Layer, 10, &[("macs", 5)]);
        t.leaf("b", Category::Layer, 20, &[]);
        assert_eq!(t.now(), 30);
        drop(t);
        let data = tracer.snapshot();
        let track = &data.tracks[0];
        assert_eq!(track.spans[0].end(), 10);
        assert_eq!(track.spans[1].start, 10);
        assert_eq!(track.spans[0].counter("macs"), Some(5));
        assert_eq!(track.spans[0].counter("absent"), None);
        assert_eq!(track.extent(), 30);
        track.check_nesting().expect("leaf spans are well-formed");
    }

    #[test]
    fn open_close_brackets_children() {
        let tracer = Tracer::enabled();
        let mut t = tracer.track("t");
        t.open("outer", Category::Network);
        t.leaf("a", Category::Layer, 7, &[]);
        t.open("inner", Category::Network);
        t.leaf("b", Category::Layer, 3, &[]);
        t.close();
        t.close_with(&[("total", 10)]);
        drop(t);
        let data = tracer.snapshot();
        let spans = &data.tracks[0].spans;
        assert_eq!(spans[0].duration, 10, "outer covers both leaves");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].name, "inner");
        assert_eq!(spans[2].start, 7);
        assert_eq!(spans[2].duration, 3);
        assert_eq!(spans[3].depth, 2);
        assert_eq!(spans[0].counter("total"), Some(10));
        data.tracks[0].check_nesting().expect("bracketed spans are well-formed");
    }

    #[test]
    fn disabled_tracks_record_nothing() {
        let tracer = Tracer::disabled();
        let mut t = tracer.track("t");
        assert!(!t.is_enabled());
        t.open("outer", Category::Network);
        t.leaf("a", Category::Layer, 10, &[]);
        t.advance(5);
        t.close();
        assert_eq!(t.now(), 0, "disabled cursor never moves");
        drop(t);
        assert!(tracer.snapshot().tracks.is_empty());
    }

    #[test]
    fn dropping_with_open_spans_closes_them() {
        let tracer = Tracer::enabled();
        let mut t = tracer.track("t");
        t.open("outer", Category::Network);
        t.leaf("a", Category::Layer, 4, &[]);
        drop(t); // no explicit close
        let data = tracer.snapshot();
        assert_eq!(data.tracks[0].spans[0].duration, 4);
        data.tracks[0].check_nesting().expect("auto-closed spans are well-formed");
    }

    #[test]
    fn check_nesting_rejects_malformed_traces() {
        let span = |name: &str, start: u64, duration: u64, depth: usize| SpanRecord {
            name: name.into(),
            category: Category::Layer,
            start,
            duration,
            depth,
            counters: Vec::new(),
        };
        // Depth jump without an ancestor.
        let t = TrackData { name: "t".into(), spans: vec![span("a", 0, 5, 1)] };
        assert!(t.check_nesting().is_err());
        // Child escaping its parent.
        let t =
            TrackData { name: "t".into(), spans: vec![span("p", 0, 5, 0), span("c", 3, 10, 1)] };
        assert!(t.check_nesting().is_err());
        // Overlapping siblings.
        let t = TrackData { name: "t".into(), spans: vec![span("a", 0, 5, 0), span("b", 3, 5, 0)] };
        assert!(t.check_nesting().is_err());
        // A well-formed tree passes.
        let t = TrackData {
            name: "t".into(),
            spans: vec![span("p", 0, 10, 0), span("a", 0, 4, 1), span("b", 4, 6, 1)],
        };
        t.check_nesting().expect("well-formed tree");
    }
}
