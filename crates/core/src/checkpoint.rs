//! The sweep checkpoint: a payload schema over `codesign-sim`'s sealed
//! container (magic `b"CDSWEEP1"`, version 2) that lets a streaming
//! sweep resume after a crash. It holds everything the engine holds at a
//! completed-prefix boundary. The engine writes it through a
//! [`GenerationStore`](codesign_sim::GenerationStore) and resumes
//! through [`recover`](codesign_sim::recover), which refuses a torn,
//! corrupt, foreign or version-1 generation with a typed
//! [`CheckpointError`] and falls back to the previous one.
//!
//! ```text
//! fingerprint u64  FNV-1a of the sweep identity (network, space, options,
//!                  energy model, prune flag) — a resume against a
//!                  different sweep is refused
//! pos        u64   next unprocessed flat grid index (prefix [0, pos) done)
//! evaluated  u64 ─┐
//! skipped    u64  │ counters
//! failed     u64  │
//! pruned     u64  │
//! peak       u64 ─┘ frontier high-water mark
//! frontier   u32 count, then per point (insertion order):
//!            array u64, rf u64, buffer u64, cycles u64,
//!            energy f64-bits, utilization f64-bits, area f64-bits
//! failures   u32 count, then per failure:
//!            array u64, rf u64, buffer u64, reason (u32 len + UTF-8)
//! ```
//!
//! All integers are little-endian. Version-1 files (the same fields
//! without the container's length word) are refused as a wrong version.

use std::fmt;

use codesign_sim::{seal, unseal, Corrupt, Decoder, FramingError};

use crate::dse::{DesignParams, DesignPoint, PointFailure};

const MAGIC: &[u8; 8] = b"CDSWEEP1";
const VERSION: u32 = 2;
/// Serialized size of one frontier point (3 params + cycles + 3 floats).
const POINT_BYTES: usize = 7 * 8;
/// Minimum serialized size of one failure (params + empty reason).
const FAILURE_MIN_BYTES: usize = 3 * 8 + 4;

/// Engine state captured by (and restored from) one checkpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct CheckpointState {
    /// Next unprocessed flat grid index: the prefix `[0, pos)` is done.
    pub pos: u64,
    pub evaluated: u64,
    pub skipped: u64,
    pub failed: u64,
    pub pruned: u64,
    pub peak_frontier: u64,
    /// Live frontier members in insertion (grid) order.
    pub frontier: Vec<DesignPoint>,
    /// Retained failure diagnostics (capped by the sweep engine).
    pub failures: Vec<PointFailure>,
}

/// Why a checkpoint generation was refused on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The sealed container was refused: truncated, bad magic, wrong
    /// version, trailing bytes, checksum mismatch, or unreadable.
    Framing(FramingError),
    /// An intact checkpoint of a different sweep.
    ForeignSweep {
        /// Fingerprint stored in the checkpoint.
        found: u64,
        /// Fingerprint of the sweep being resumed.
        expected: u64,
    },
    /// Structurally invalid records inside an intact container.
    Corrupted(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Framing(e) => write!(f, "checkpoint: {e}"),
            Self::ForeignSweep { found, expected } => write!(
                f,
                "fingerprint mismatch (checkpoint {found:#x}, this sweep {expected:#x}): \
                 checkpoint belongs to a different sweep"
            ),
            Self::Corrupted(what) => write!(f, "checkpoint corrupted: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<FramingError> for CheckpointError {
    fn from(e: FramingError) -> Self {
        Self::Framing(e)
    }
}

impl From<Corrupt> for CheckpointError {
    fn from(Corrupt(what): Corrupt) -> Self {
        Self::Corrupted(what)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_params(out: &mut Vec<u8>, p: &DesignParams) {
    put_u64(out, p.array_size as u64);
    put_u64(out, p.rf_depth as u64);
    put_u64(out, p.global_buffer_bytes as u64);
}

pub(crate) fn encode(fingerprint: u64, s: &CheckpointState) -> Vec<u8> {
    let mut out = Vec::with_capacity(7 * 8 + 8 + s.frontier.len() * POINT_BYTES);
    put_u64(&mut out, fingerprint);
    put_u64(&mut out, s.pos);
    put_u64(&mut out, s.evaluated);
    put_u64(&mut out, s.skipped);
    put_u64(&mut out, s.failed);
    put_u64(&mut out, s.pruned);
    put_u64(&mut out, s.peak_frontier);
    put_u32(&mut out, s.frontier.len() as u32);
    for p in &s.frontier {
        put_params(&mut out, &p.params);
        put_u64(&mut out, p.cycles);
        put_u64(&mut out, p.energy.to_bits());
        put_u64(&mut out, p.utilization.to_bits());
        put_u64(&mut out, p.area.to_bits());
    }
    put_u32(&mut out, s.failures.len() as u32);
    for f in &s.failures {
        put_params(&mut out, &f.params);
        put_u32(&mut out, f.reason.len() as u32);
        out.extend_from_slice(f.reason.as_bytes());
    }
    seal(MAGIC, VERSION, &out)
}

fn params(d: &mut Decoder<'_>) -> Result<DesignParams, Corrupt> {
    Ok(DesignParams {
        array_size: d.usize("array size")?,
        rf_depth: d.usize("rf depth")?,
        global_buffer_bytes: d.usize("buffer bytes")?,
    })
}

pub(crate) fn decode(bytes: &[u8], fingerprint: u64) -> Result<CheckpointState, CheckpointError> {
    let mut d = unseal(MAGIC, VERSION, bytes)?;
    let found = d.u64()?;
    if found != fingerprint {
        return Err(CheckpointError::ForeignSweep { found, expected: fingerprint });
    }
    let mut s = CheckpointState {
        pos: d.u64()?,
        evaluated: d.u64()?,
        skipped: d.u64()?,
        failed: d.u64()?,
        pruned: d.u64()?,
        peak_frontier: d.u64()?,
        ..CheckpointState::default()
    };
    let n_front = d.u32()?;
    s.frontier.reserve_exact(d.count(n_front.into(), POINT_BYTES, "frontier point")?);
    for _ in 0..n_front {
        s.frontier.push(DesignPoint {
            params: params(&mut d)?,
            cycles: d.u64()?,
            energy: f64::from_bits(d.u64()?),
            utilization: f64::from_bits(d.u64()?),
            area: f64::from_bits(d.u64()?),
        });
    }
    // Checked like every count, but not reserved: a failure decodes to
    // more bytes than its smallest encoding, so pushing keeps the
    // allocation proportional to the failures actually present.
    let n_fail = d.u32()?;
    d.count(n_fail.into(), FAILURE_MIN_BYTES, "failure")?;
    for _ in 0..n_fail {
        let params = params(&mut d)?;
        let len = d.u32()? as usize;
        let reason = std::str::from_utf8(d.bytes(len)?)
            .map_err(|_| Corrupt("failure reason is not UTF-8".to_owned()))?;
        s.failures.push(PointFailure { params, reason: reason.to_owned() });
    }
    d.finish()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;

    use codesign_arch::EnergyModel;
    use codesign_sim::{
        fnv1a, recover, scan_generations, CancelToken, Candidate, GenerationStore, SimOptions,
        Simulator, SnapshotError,
    };

    use super::*;
    use crate::dse::SweepSpace;
    use crate::stream::{sweep_frontier_with, CheckpointConfig, FrontierConfig};

    fn state() -> CheckpointState {
        let params =
            |buf: usize| DesignParams { array_size: 16, rf_depth: 8, global_buffer_bytes: buf };
        CheckpointState {
            pos: 42,
            evaluated: 30,
            skipped: 5,
            failed: 2,
            pruned: 5,
            peak_frontier: 3,
            frontier: vec![
                DesignPoint {
                    params: params(64 * 1024),
                    cycles: 1000,
                    energy: 1.5,
                    utilization: 0.75,
                    area: 2048.0,
                },
                DesignPoint {
                    params: params(128 * 1024),
                    cycles: 900,
                    energy: 1.25,
                    utilization: 0.5,
                    area: 4096.0,
                },
            ],
            failures: vec![PointFailure {
                params: params(256),
                reason: "infeasible tiling: naïve working set".to_owned(),
            }],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = state();
        let bytes = encode(0xdead_beef, &s);
        assert_eq!(decode(&bytes, 0xdead_beef).unwrap(), s);
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let bytes = encode(1, &state());
        assert_eq!(decode(&bytes, 2), Err(CheckpointError::ForeignSweep { found: 1, expected: 2 }));
    }

    #[test]
    fn a_frontier_point_decodes_into_no_more_bytes_than_it_encodes() {
        // The count check bounds a reservation by the payload only if
        // each reserved element is no larger than its encoding.
        assert!(std::mem::size_of::<DesignPoint>() <= POINT_BYTES);
    }

    #[test]
    fn generation_recovery_skips_the_torn_newest() {
        let dir = std::env::temp_dir().join(format!(
            "codesign-ckpt-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("sweep.ck");
        let mut store = GenerationStore::open(&base);
        let mut s = state();
        store.write(&encode(9, &s)).unwrap();
        s.pos = 84;
        let newest = store.write(&encode(9, &s)).unwrap();
        // Tear the newest generation mid-write.
        let full = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (loaded, refused) = recover(&base, |bytes| decode(bytes, 9)).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.generation, Some(1));
        assert_eq!(loaded.value.pos, 42);
        assert!(
            matches!(
                refused[..],
                [Candidate { value: CheckpointError::Framing(FramingError::Truncated { .. }), .. }]
            ),
            "{:?}",
            refused
        );
        // And a fresh start clears both.
        store.clear().unwrap();
        assert!(recover(&base, |bytes| decode(bytes, 9)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Deterministic xorshift64 stream for the mutation test.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Container offsets: payload length word, then the payload.
    const LEN_WORD: usize = 12;
    const PAYLOAD: usize = 20;

    /// Recomputes the container checksum over bytes a test patched, so
    /// the patch reaches the checks after the checksum.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    }

    fn patched(bytes: &[u8], at: usize, word: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + word.len()].copy_from_slice(word);
        out
    }

    /// A real checkpoint, written by a checkpointing sweep whose grid
    /// mixes frontier points and an infeasible (failed) buffer level,
    /// and a real snapshot of the cache that sweep filled.
    fn real_inputs() -> (Vec<u8>, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!(
            "codesign-ckpt-mutation-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("sweep.ck");
        let sim = Simulator::new();
        let net =
            codesign_dnn::NetworkBuilder::new("mutation-net", codesign_dnn::Shape::new(64, 16, 16))
                .conv("c1", 64, 3, 1, 1)
                .finish()
                .unwrap();
        let space = SweepSpace {
            array_sizes: vec![8],
            rf_depths: vec![8],
            buffer_bytes: vec![256, 64 * 1024, 128 * 1024],
        };
        let config = FrontierConfig {
            checkpoint: Some(CheckpointConfig { base: base.clone(), every_points: 1 }),
            ..FrontierConfig::default()
        };
        let outcome = sweep_frontier_with(
            &sim,
            &net,
            &space,
            SimOptions::default(),
            &EnergyModel::default(),
            &config,
            &CancelToken::never(),
            |_| {},
        )
        .unwrap();
        assert!(outcome.counters.failed > 0 && !outcome.frontier.is_empty(), "{outcome:?}");
        let (_, newest) = scan_generations(&base).pop().unwrap();
        let checkpoint = std::fs::read(newest).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (sim.cache_snapshot().unwrap(), checkpoint)
    }

    /// The fixed-seed mutation test over the one container decoder:
    /// every truncation, a flipped byte at every offset, splices of the
    /// two files, and lying length and count words, each offered to both
    /// formats. Every case must be refused with a typed error and no
    /// panic. A maximal lying count must be refused by the count check,
    /// before anything is reserved for it; any count that passes the
    /// check reserves no more than the payload holds, since no reserved
    /// element is larger than its encoding (pinned by the size tests
    /// here and in `codesign-sim`'s snapshot module). Payload bytes
    /// flipped under a re-sealed checksum may decode, but must not
    /// panic.
    #[test]
    fn every_mutation_of_a_real_snapshot_and_checkpoint_is_refused_typed() {
        let (snapshot, checkpoint) = real_inputs();
        let fingerprint = u64::from_le_bytes(checkpoint[PAYLOAD..PAYLOAD + 8].try_into().unwrap());
        let sim = Simulator::new();
        assert!(sim.load_cache_snapshot(&snapshot).is_ok());
        assert!(decode(&checkpoint, fingerprint).is_ok());
        let fresh = Simulator::new();
        // Offers `bytes` to both decoders; returns their refusals (or
        // `None` where one accepted).
        let offer = |case: &str, bytes: &[u8]| {
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                (fresh.load_cache_snapshot(bytes).err(), decode(bytes, fingerprint).err())
            }));
            run.unwrap_or_else(|_| panic!("{case}: a decoder panicked"))
        };
        let refuse = |case: &str, bytes: &[u8]| {
            let (snap_err, ckpt_err) = offer(case, bytes);
            match snap_err {
                Some(SnapshotError::Framing(_) | SnapshotError::Corrupted(_)) => {}
                other => panic!("{case}: snapshot decoder gave {other:?}"),
            }
            ckpt_err.unwrap_or_else(|| panic!("{case}: checkpoint decoder accepted"))
        };
        let mut cases = 0usize;
        let mut rng = XorShift(0x5eed_c0de_d15e_a5e5);
        for (name, input) in [("snapshot", &snapshot), ("checkpoint", &checkpoint)] {
            for cut in 0..input.len() {
                refuse(&format!("{name} cut at {cut}"), &input[..cut]);
            }
            for at in 0..input.len() {
                let mut bad = input.clone();
                bad[at] ^= (rng.next() as u8) | 1;
                refuse(&format!("{name} byte {at} flipped"), &bad);
                // Re-sealed, a payload flip reaches the record checks.
                if (PAYLOAD..input.len() - 8).contains(&at) {
                    reseal(&mut bad);
                    offer(&format!("{name} byte {at} flipped and re-sealed"), &bad);
                }
            }
            let true_len = input.len() as u64 - 28;
            for lie in [0, true_len - 1, true_len + 1, u64::MAX] {
                let mut bad = patched(input, LEN_WORD, &lie.to_le_bytes());
                refuse(&format!("{name} payload_len {lie}"), &bad);
                reseal(&mut bad);
                refuse(&format!("{name} payload_len {lie} re-sealed"), &bad);
            }
            cases += 2 * input.len() + 8;
        }
        for (a, b) in [(&snapshot, &checkpoint), (&checkpoint, &snapshot)] {
            let cuts = (0..=a.len().min(b.len())).map(|cut| (cut, cut));
            let random = (0..500).map(|_| {
                (rng.next() as usize % (a.len() + 1), rng.next() as usize % (b.len() + 1))
            });
            for (i, j) in cuts.chain(random.collect::<Vec<_>>()) {
                let spliced = [&a[..i], &b[j..]].concat();
                // Both magics start "CDS", so a short head of `a` can
                // rebuild `b`, and a whole `a` with no tail is `a`.
                if spliced != *a && spliced != *b {
                    refuse(&format!("splice {i}/{j}"), &spliced);
                    cases += 1;
                }
            }
        }

        // Lying record counts under a valid checksum: the snapshot's two
        // u64 counts lead its payload; the checkpoint's u32 frontier
        // count follows seven u64 words, its failure count follows the
        // frontier.
        let count_at = |bytes: &[u8], at: usize, width: usize| {
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&bytes[at..at + width]);
            u64::from_le_bytes(word)
        };
        let n_front = count_at(&checkpoint, PAYLOAD + 56, 4);
        let words = [
            ("snapshot", &snapshot, PAYLOAD, 8),
            ("snapshot", &snapshot, PAYLOAD + 8, 8),
            ("checkpoint", &checkpoint, PAYLOAD + 56, 4),
            ("checkpoint", &checkpoint, PAYLOAD + 60 + n_front as usize * POINT_BYTES, 4),
        ];
        for (name, input, at, width) in words {
            let truth = count_at(input, at, width);
            assert!(truth > 0, "{name} count at {at} must be non-zero to lie about");
            let max = if width == 8 { u64::MAX } else { u64::from(u32::MAX) };
            for lie in [0, truth - 1, truth + 1, max] {
                let mut bad = patched(input, at, &lie.to_le_bytes()[..width]);
                reseal(&mut bad);
                let case = format!("{name} count at {at}: {lie} for {truth}");
                let (snap_err, ckpt_err) = offer(&case, &bad);
                let what = match (name, snap_err, ckpt_err) {
                    ("snapshot", Some(SnapshotError::Corrupted(what)), _)
                    | ("checkpoint", _, Some(CheckpointError::Corrupted(what))) => what,
                    (_, snap, ckpt) => panic!("{case}: refused as {snap:?} / {ckpt:?}"),
                };
                if lie == max {
                    assert!(what.contains("count"), "{case}: refused late, as {what}");
                }
                cases += 1;
            }
        }
        assert!(cases > 4 * snapshot.len(), "{cases} cases");
    }
}
