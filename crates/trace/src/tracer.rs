//! The tracer handle and the snapshot it produces.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::span::{Track, TrackData};

/// State shared by every clone of an enabled [`Tracer`].
#[derive(Debug, Default)]
pub(crate) struct Shared {
    tracks: Mutex<Vec<TrackData>>,
    /// Global named counters. A `BTreeMap` keeps snapshot order
    /// deterministic; `u64` sums keep aggregation order-independent.
    counters: Mutex<BTreeMap<String, u64>>,
    /// Whether [`Tracer::track`] hands out recording tracks (`false`
    /// for a [`Tracer::counters_only`] tracer).
    spans: bool,
}

impl Shared {
    pub(crate) fn publish(&self, track: TrackData) {
        self.tracks.lock().unwrap_or_else(PoisonError::into_inner).push(track);
    }
}

/// A cheap, cloneable tracing handle.
///
/// A disabled tracer (the default) is a `None`: recording calls branch
/// on it and return immediately, with no allocation and no locking, so
/// instrumented code can keep its tracer argument unconditionally.
/// Cloning shares the underlying buffers, so one handle can fan out
/// across parallel sweep workers.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl Tracer {
    /// A tracer that records spans and counters.
    pub fn enabled() -> Self {
        Self { shared: Some(Arc::new(Shared { spans: true, ..Shared::default() })) }
    }

    /// A tracer that records counters but no spans: [`Tracer::track`]
    /// hands out no-op tracks. For long-lived processes (`codesign
    /// serve`) that want cumulative counters without accumulating a
    /// track per request.
    pub fn counters_only() -> Self {
        Self { shared: Some(Arc::new(Shared::default())) }
    }

    /// A no-op tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// Whether this handle records anything (counters at least).
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether [`Tracer::track`] records spans. Instrumentation sites
    /// check this before formatting track names or span counters.
    pub fn records_spans(&self) -> bool {
        self.shared.as_ref().is_some_and(|shared| shared.spans)
    }

    /// Starts a new logical timeline. The name should identify the unit
    /// of work (`"sim:SqueezeNet v1.0:hybrid"`, `"sweep:16x16/rf8/64KB"`),
    /// never a thread. The track publishes itself when dropped; on a
    /// disabled or counters-only tracer it records nothing.
    pub fn track(&self, name: impl Into<String>) -> Track {
        match &self.shared {
            Some(shared) if shared.spans => Track {
                shared: Some(Arc::clone(shared)),
                name: name.into(),
                spans: Vec::new(),
                open: Vec::new(),
                cursor: 0,
            },
            _ => Track {
                shared: None,
                name: String::new(),
                spans: Vec::new(),
                open: Vec::new(),
                cursor: 0,
            },
        }
    }

    /// Adds `delta` to the global counter `name` (creating it at zero).
    pub fn add_counter(&self, name: &str, delta: u64) {
        if let Some(shared) = &self.shared {
            let mut counters = shared.counters.lock().unwrap_or_else(PoisonError::into_inner);
            match counters.get_mut(name) {
                Some(v) => *v += delta,
                None => {
                    counters.insert(name.to_owned(), delta);
                }
            }
        }
    }

    /// A deterministic snapshot of everything recorded so far.
    ///
    /// Tracks are sorted by `(name, content)`: two tracks with the same
    /// name and identical spans are interchangeable, so the sort is a
    /// canonical order that does not depend on which thread finished
    /// first. Live (undropped) tracks are not included.
    pub fn snapshot(&self) -> TraceData {
        let Some(shared) = &self.shared else {
            return TraceData::default();
        };
        let mut tracks = shared.tracks.lock().unwrap_or_else(PoisonError::into_inner).clone();
        tracks.sort();
        let counters = shared
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .into_iter()
            .collect();
        TraceData { tracks, counters }
    }
}

/// An immutable snapshot of a tracer's recordings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceData {
    /// All published tracks, in canonical `(name, content)` order.
    pub tracks: Vec<TrackData>,
    /// Global counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl TraceData {
    /// Total spans across all tracks.
    pub fn span_count(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len()).sum()
    }

    /// Looks up a global counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Category;

    #[test]
    fn disabled_is_free_and_empty() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.add_counter("x", 5);
        assert_eq!(t.snapshot(), TraceData::default());
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let t = Tracer::enabled();
        t.add_counter("b", 2);
        t.add_counter("a", 1);
        t.add_counter("b", 3);
        let data = t.snapshot();
        assert_eq!(data.counters, vec![("a".to_owned(), 1), ("b".to_owned(), 5)]);
        assert_eq!(data.counter("b"), Some(5));
        assert_eq!(data.counter("zz"), None);
    }

    #[test]
    fn snapshot_order_ignores_publication_order() {
        let mk = |names: [&str; 3]| {
            let t = Tracer::enabled();
            for n in names {
                let mut track = t.track(n);
                track.leaf("work", Category::Layer, 1, &[]);
            }
            t.snapshot()
        };
        assert_eq!(mk(["c", "a", "b"]), mk(["b", "c", "a"]));
    }

    #[test]
    fn counters_only_records_counters_but_no_spans() {
        let t = Tracer::counters_only();
        assert!(t.is_enabled());
        assert!(!t.records_spans());
        assert!(Tracer::enabled().records_spans());
        assert!(!Tracer::disabled().records_spans());

        let clone = t.clone();
        clone.add_counter("sim.layer_sims", 2);
        let mut track = clone.track("sim:net:hybrid");
        assert!(!track.is_enabled());
        track.leaf("conv1", Category::Layer, 10, &[("macs", 5)]);
        drop(track);
        let data = t.snapshot();
        assert!(data.tracks.is_empty());
        assert_eq!(data.counter("sim.layer_sims"), Some(2));
    }

    #[test]
    fn clones_share_buffers() {
        let t = Tracer::enabled();
        let clone = t.clone();
        clone.add_counter("shared", 7);
        let mut track = clone.track("t");
        track.leaf("x", Category::Layer, 2, &[]);
        drop(track);
        let data = t.snapshot();
        assert_eq!(data.counter("shared"), Some(7));
        assert_eq!(data.span_count(), 1);
    }

    #[test]
    fn live_tracks_are_not_snapshotted() {
        let t = Tracer::enabled();
        let mut track = t.track("t");
        track.leaf("x", Category::Layer, 2, &[]);
        assert_eq!(t.snapshot().span_count(), 0, "track not yet dropped");
        drop(track);
        assert_eq!(t.snapshot().span_count(), 1);
    }
}
