//! Trace representation shared by the WS, OS and RS machine traces.

use crate::perf::PhaseCycles;

/// What the PE array is doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Loading stationary data (weights in WS, input tiles in OS).
    Load,
    /// Performing MAC work.
    Compute,
    /// Draining results to the global buffer.
    Drain,
}

impl Phase {
    /// Short stable tag used in traces and waveforms.
    pub fn tag(&self) -> &'static str {
        match self {
            Phase::Load => "load",
            Phase::Compute => "compute",
            Phase::Drain => "drain",
        }
    }
}

/// A run of consecutive cycles in the same machine state, repeated
/// `repeat` times back to back.
///
/// `repeat` is the fast-forward lever: a run-length schedule projects to
/// one macro-segment per distinct tile shape instead of one segment per
/// schedule step, so a thousand identical (group × tile × tap) steps
/// collapse to a single entry. All aggregate accessors on
/// [`MachineTrace`] weight by `repeat`; nothing needs to re-expand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSegment {
    /// Activity during the segment.
    pub phase: Phase,
    /// Number of cycles per repetition.
    pub cycles: u64,
    /// Useful MACs performed per cycle (0 outside compute).
    pub macs_per_cycle: u64,
    /// PEs busy per cycle (for utilization traces).
    pub active_pes: u64,
    /// How many times the segment runs back to back (>= 1).
    pub repeat: u64,
}

impl PhaseSegment {
    /// Total cycles across all repetitions.
    pub fn total_cycles(&self) -> u64 {
        self.cycles * self.repeat
    }

    /// Total useful MACs across all repetitions.
    pub fn total_macs(&self) -> u64 {
        self.cycles * self.repeat * self.macs_per_cycle
    }
}

/// Snapshot of one machine cycle (produced by
/// [`MachineTrace::iter_cycles`]).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CycleState {
    /// Cycle index from the start of the layer.
    pub cycle: u64,
    /// Activity.
    pub phase: Phase,
    /// Useful MACs this cycle.
    pub macs: u64,
    /// Busy PEs this cycle.
    pub active_pes: u64,
}

/// The full execution trace of one layer on the PE array.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineTrace {
    segments: Vec<PhaseSegment>,
}

impl MachineTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment (no-op when `cycles == 0`).
    pub fn push(&mut self, phase: Phase, cycles: u64, macs_per_cycle: u64, active_pes: u64) {
        self.push_repeated(phase, cycles, macs_per_cycle, active_pes, 1);
    }

    /// Appends a macro-segment standing for `repeat` back-to-back runs
    /// (no-op when `cycles == 0` or `repeat == 0`). Coalesces with the
    /// previous segment when every field matches.
    pub fn push_repeated(
        &mut self,
        phase: Phase,
        cycles: u64,
        macs_per_cycle: u64,
        active_pes: u64,
        repeat: u64,
    ) {
        if cycles == 0 || repeat == 0 {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            if last.phase == phase
                && last.cycles == cycles
                && last.macs_per_cycle == macs_per_cycle
                && last.active_pes == active_pes
            {
                last.repeat += repeat;
                return;
            }
        }
        self.segments.push(PhaseSegment { phase, cycles, macs_per_cycle, active_pes, repeat });
    }

    /// The raw (macro-)segments.
    pub fn segments(&self) -> &[PhaseSegment] {
        &self.segments
    }

    /// Number of schedule steps the trace stands for once repeats are
    /// expanded (what `segments().len()` was before run-length
    /// aggregation).
    pub fn steps(&self) -> u64 {
        self.segments.iter().map(|s| s.repeat).sum()
    }

    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.segments.iter().map(PhaseSegment::total_cycles).sum()
    }

    /// Total useful MACs.
    pub fn macs(&self) -> u64 {
        self.segments.iter().map(PhaseSegment::total_macs).sum()
    }

    /// Busy-PE cycle integral (for average utilization).
    pub fn active_pe_cycles(&self) -> u64 {
        self.segments.iter().map(|s| s.cycles * s.repeat * s.active_pes).sum()
    }

    /// Per-phase totals in [`PhaseCycles`] form, comparable with the
    /// analytic models' output.
    pub fn phase_totals(&self) -> PhaseCycles {
        let mut t = PhaseCycles::default();
        for s in &self.segments {
            let cycles = s.total_cycles();
            match s.phase {
                Phase::Load => t.load += cycles,
                Phase::Compute => t.compute += cycles,
                Phase::Drain => t.drain += cycles,
            }
        }
        t
    }

    /// Records the trace onto a `codesign-trace` track: one
    /// [`codesign_trace::Category::Phase`] leaf span per macro-segment,
    /// tiling the track's cycle timeline exactly as the machine tiled its
    /// own. Repeats stay aggregated — a span covers all repetitions and
    /// carries the repeat count as a counter.
    pub fn record_spans(&self, track: &mut codesign_trace::Track) {
        if !track.is_enabled() {
            return;
        }
        for s in &self.segments {
            track.leaf(
                s.phase.tag(),
                codesign_trace::Category::Phase,
                s.total_cycles(),
                &[("macs", s.total_macs()), ("active_pes", s.active_pes), ("repeat", s.repeat)],
            );
        }
    }

    /// Expands the trace to one [`CycleState`] per machine cycle,
    /// repeats included: the unit tests' cycle-by-cycle check of the
    /// run-length folds.
    #[cfg(test)]
    pub(crate) fn iter_cycles(&self) -> impl Iterator<Item = CycleState> + '_ {
        self.segments.iter().flat_map(|s| (0..s.total_cycles()).map(move |_| s)).enumerate().map(
            |(i, s)| CycleState {
                cycle: i as u64,
                phase: s.phase,
                macs: s.macs_per_cycle,
                active_pes: s.active_pes,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_spans_mirrors_the_segments() {
        let mut t = MachineTrace::new();
        t.push(Phase::Load, 3, 0, 0);
        t.push(Phase::Compute, 2, 64, 64);
        t.push(Phase::Drain, 1, 0, 0);
        let tracer = codesign_trace::Tracer::enabled();
        let mut track = tracer.track("cycle:test");
        t.record_spans(&mut track);
        drop(track);
        let data = tracer.snapshot();
        let spans = &data.tracks[0].spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "load");
        assert_eq!(spans[1].counter("macs"), Some(128));
        assert_eq!(data.tracks[0].extent(), t.cycles());
        data.tracks[0].check_nesting().expect("phase spans tile the timeline");
    }

    #[test]
    fn totals_and_expansion() {
        let mut t = MachineTrace::new();
        t.push(Phase::Load, 3, 0, 0);
        t.push(Phase::Compute, 2, 64, 64);
        t.push(Phase::Drain, 0, 0, 0); // dropped
        t.push(Phase::Drain, 1, 0, 0);
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.cycles(), 6);
        assert_eq!(t.macs(), 128);
        assert_eq!(t.active_pe_cycles(), 128);
        let p = t.phase_totals();
        assert_eq!((p.load, p.compute, p.drain), (3, 2, 1));
        let states: Vec<_> = t.iter_cycles().collect();
        assert_eq!(states.len(), 6);
        assert_eq!(states[3].phase, Phase::Compute);
        assert_eq!(states[5].phase, Phase::Drain);
        assert_eq!(states[4].cycle, 4);
    }

    #[test]
    fn repeats_weight_every_accessor() {
        let mut t = MachineTrace::new();
        t.push_repeated(Phase::Load, 2, 0, 0, 3);
        t.push_repeated(Phase::Compute, 5, 8, 16, 4);
        t.push_repeated(Phase::Drain, 1, 0, 0, 0); // dropped: repeat 0
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.steps(), 7);
        assert_eq!(t.cycles(), 2 * 3 + 5 * 4);
        assert_eq!(t.macs(), 5 * 4 * 8);
        assert_eq!(t.active_pe_cycles(), 5 * 4 * 16);
        let p = t.phase_totals();
        assert_eq!((p.load, p.compute, p.drain), (6, 20, 0));
        assert_eq!(t.iter_cycles().count() as u64, t.cycles());
        let macs: u64 = t.iter_cycles().map(|c| c.macs).sum();
        assert_eq!(macs, t.macs());
    }

    #[test]
    fn identical_pushes_coalesce() {
        let mut t = MachineTrace::new();
        t.push_repeated(Phase::Load, 2, 0, 0, 3);
        t.push_repeated(Phase::Load, 2, 0, 0, 2);
        t.push_repeated(Phase::Load, 3, 0, 0, 1); // different cycles: new segment
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.segments()[0].repeat, 5);
        assert_eq!(t.cycles(), 13);
    }

    #[test]
    fn record_spans_aggregates_repeats() {
        let mut t = MachineTrace::new();
        t.push_repeated(Phase::Compute, 4, 2, 8, 5);
        let tracer = codesign_trace::Tracer::enabled();
        let mut track = tracer.track("cycle:test");
        t.record_spans(&mut track);
        drop(track);
        let data = tracer.snapshot();
        let spans = &data.tracks[0].spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].counter("macs"), Some(40));
        assert_eq!(spans[0].counter("repeat"), Some(5));
        assert_eq!(data.tracks[0].extent(), 20);
    }
}
