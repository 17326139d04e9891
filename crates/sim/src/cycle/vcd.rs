//! VCD (Value Change Dump) export of machine traces.
//!
//! Dumps a [`MachineTrace`] as an IEEE-1364 VCD waveform with three
//! signals — the phase, the busy-PE count, and the per-cycle MAC rate —
//! so a layer's execution can be inspected in GTKWave or any other
//! waveform viewer next to RTL simulations of a real implementation.
//!
//! The writer streams through a [`BufWriter`] at *segment granularity*:
//! one value-change record per macro-segment state change, so dumping a
//! layer never re-expands the run-length aggregated trace to single
//! cycles. The dump size is O(segments), not O(cycles).

use std::io::{self, BufWriter, Write};

use super::machine::{MachineTrace, Phase};

fn phase_code(p: Phase) -> &'static str {
    match p {
        Phase::Load => "b00",
        Phase::Compute => "b01",
        Phase::Drain => "b10",
    }
}

fn binary(v: u64, width: usize) -> String {
    format!("b{v:0width$b}")
}

fn write_header<W: Write>(out: &mut W, module: &str) -> io::Result<()> {
    writeln!(out, "$date codesign-sim $end")?;
    writeln!(out, "$timescale 1ns $end")?;
    writeln!(out, "$scope module {} $end", module.replace(char::is_whitespace, "_"))?;
    writeln!(out, "$var wire 2 p phase[1:0] $end")?;
    writeln!(out, "$var wire 16 a active_pes[15:0] $end")?;
    writeln!(out, "$var wire 16 m macs_per_cycle[15:0] $end")?;
    writeln!(out, "$upscope $end")?;
    writeln!(out, "$enddefinitions $end")
}

fn write_state<W: Write>(
    out: &mut W,
    time: u64,
    phase: Phase,
    pes: u64,
    macs: u64,
) -> io::Result<()> {
    writeln!(out, "#{time}")?;
    writeln!(out, "{} p", phase_code(phase))?;
    writeln!(out, "{} a", binary(pes.min(0xffff), 16))?;
    writeln!(out, "{} m", binary(macs.min(0xffff), 16))
}

/// Streams the trace as a VCD document into `sink` (wrapped in a
/// [`BufWriter`], so handing a raw [`File`](std::fs::File) or stdout
/// lock is fine). `module` names the enclosing scope (e.g. the layer);
/// the timescale is one cycle = 1 ns nominal. Consecutive segments in
/// the same state share one record.
///
/// Signals:
///
/// * `phase[1:0]` — 00 load, 01 compute, 10 drain;
/// * `active_pes[15:0]` — PEs busy this segment;
/// * `macs_per_cycle[15:0]` — useful MACs per cycle.
///
/// # Errors
///
/// Propagates the sink's I/O errors.
pub fn write_vcd<W: Write>(trace: &MachineTrace, module: &str, sink: W) -> io::Result<()> {
    let mut out = BufWriter::new(sink);
    write_header(&mut out, module)?;
    let mut time = 0u64;
    let mut last: Option<(Phase, u64, u64)> = None;
    for seg in trace.segments() {
        let state = (seg.phase, seg.active_pes, seg.macs_per_cycle);
        if last != Some(state) {
            write_state(&mut out, time, seg.phase, seg.active_pes, seg.macs_per_cycle)?;
            last = Some(state);
        }
        time += seg.total_cycles();
    }
    writeln!(out, "#{time}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::trace_ws;
    use crate::workload::{ConvWork, WorkKind};
    use codesign_arch::AcceleratorConfig;

    fn trace() -> MachineTrace {
        let cfg = AcceleratorConfig::builder().array_size(8).build().unwrap();
        let work = ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: 8,
            out_channels: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 6,
            in_w: 6,
            out_h: 4,
            out_w: 4,
        };
        trace_ws(&work, &cfg)
    }

    /// The document [`write_vcd`] writes into a `Vec`.
    fn segment_vcd(trace: &MachineTrace, module: &str) -> String {
        let mut buf = Vec::new();
        write_vcd(trace, module, &mut buf).expect("vec sink");
        String::from_utf8_lossy(&buf).into_owned()
    }

    #[test]
    fn header_and_footprint() {
        let t = trace();
        let vcd = segment_vcd(&t, "conv demo");
        assert!(vcd.contains("$scope module conv_demo $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        // Final timestamp equals total cycles, repeats included.
        let last_ts = vcd
            .lines()
            .filter_map(|l| l.strip_prefix('#'))
            .next_back()
            .and_then(|v| v.parse::<u64>().ok())
            .expect("at least one timestamp");
        assert_eq!(last_ts, t.cycles());
    }

    #[test]
    fn timestamps_are_monotone() {
        let vcd = segment_vcd(&trace(), "m");
        let ts: Vec<u64> = vcd
            .lines()
            .filter_map(|l| l.strip_prefix('#'))
            .map(|v| v.parse().expect("numeric timestamp"))
            .collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
        assert!(ts.len() >= 2, "expect change points plus the final stamp");
    }

    #[test]
    fn consecutive_identical_states_are_merged() {
        let vcd = segment_vcd(&trace(), "m");
        // WS alternates load/compute; state changes = timestamps - final.
        let changes =
            vcd.lines().filter(|l| l.starts_with("b00 p") || l.starts_with("b01 p")).count();
        let segments = trace().segments().len();
        assert!(changes <= segments);
        assert!(changes >= 2);
    }

    #[test]
    fn segment_mode_never_expands_repeats() {
        let t = trace();
        let vcd = segment_vcd(&t, "m");
        let timestamps = vcd.lines().filter(|l| l.starts_with('#')).count() as u64;
        assert!(timestamps <= t.segments().len() as u64 + 1);
        assert!(timestamps < t.cycles());
    }

    #[test]
    fn phase_codes_are_two_bit() {
        assert_eq!(phase_code(Phase::Load), "b00");
        assert_eq!(phase_code(Phase::Drain), "b10");
        assert_eq!(phase_code(Phase::Compute), "b01");
        assert_eq!(binary(5, 4), "b0101");
    }
}
