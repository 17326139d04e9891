//! Crash-safe on-disk checkpoints for resumable streaming sweeps.
//!
//! A checkpoint captures everything the bounded-memory sweep engine
//! holds at a completed-prefix boundary: the next unprocessed flat grid
//! index, the counters, the live frontier (insertion order), and the
//! retained failure diagnostics. Files are written through
//! `codesign-sim`'s generation machinery ([`write_generation`]:
//! atomic-rename publication, oldest generations pruned), so a crash can
//! at worst leave a torn *newest* generation — which recovery detects by
//! checksum and skips, falling back to the previous one.
//!
//! ## Format (all integers little-endian)
//!
//! ```text
//! magic      8 B   b"CDSWEEP1"
//! version    u32   1
//! fingerprint u64  FNV-1a of the sweep identity (network, space, options,
//!                  energy model, prune flag) — a resume against a
//!                  different sweep is refused
//! pos        u64   next unprocessed flat grid index (prefix [0, pos) done)
//! evaluated  u64 ─┐
//! skipped    u64  │ counters
//! failed     u64  │
//! pruned     u64  │
//! peak       u64 ─┘ frontier high-water mark
//! frontier   u32 count, then per point:
//!            array u64, rf u64, buffer u64, cycles u64,
//!            energy f64-bits, utilization f64-bits, area f64-bits
//! failures   u32 count, then per failure:
//!            array u64, rf u64, buffer u64, reason (u32 len + UTF-8)
//! checksum   u64   FNV-1a of every preceding byte
//! ```

use std::io;
use std::path::{Path, PathBuf};

use codesign_sim::{scan_generations, write_generation, GENERATIONS_KEPT};

use crate::dse::{DesignParams, DesignPoint, PointFailure};

const MAGIC: &[u8; 8] = b"CDSWEEP1";
const VERSION: u32 = 1;
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

/// FNV-1a over `bytes` — same algorithm (and test vectors) as the sim
/// crate's snapshot checksums, re-stated here because it is part of this
/// file format's definition, not an implementation detail to share.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: &DesignPoint) {
    put_u64(out, p.params.array_size as u64);
    put_u64(out, p.params.rf_depth as u64);
    put_u64(out, p.params.global_buffer_bytes as u64);
    put_u64(out, p.cycles);
    put_u64(out, p.energy.to_bits());
    put_u64(out, p.utilization.to_bits());
    put_u64(out, p.area.to_bits());
}

pub(crate) fn encode(fingerprint: u64, s: &CheckpointState) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(MAGIC.len() + 4 + 7 * 8 + 8 + s.frontier.len() * POINT_BYTES + 8);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, fingerprint);
    put_u64(&mut out, s.pos);
    put_u64(&mut out, s.evaluated);
    put_u64(&mut out, s.skipped);
    put_u64(&mut out, s.failed);
    put_u64(&mut out, s.pruned);
    put_u64(&mut out, s.peak_frontier);
    put_u32(&mut out, s.frontier.len() as u32);
    for p in &s.frontier {
        put_point(&mut out, p);
    }
    put_u32(&mut out, s.failures.len() as u32);
    for f in &s.failures {
        put_u64(&mut out, f.params.array_size as u64);
        put_u64(&mut out, f.params.rf_depth as u64);
        put_u64(&mut out, f.params.global_buffer_bytes as u64);
        put_u32(&mut out, f.reason.len() as u32);
        out.extend_from_slice(f.reason.as_bytes());
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

/// Bounds-checked byte reader for [`decode`].
struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.off.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(format!("truncated at byte {}", self.off));
        };
        let slice = &self.bytes[self.off..end];
        self.off = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| "u32 read".to_owned())?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| "u64 read".to_owned())?;
        Ok(u64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn params(&mut self) -> Result<DesignParams, String> {
        Ok(DesignParams {
            array_size: self.u64()? as usize,
            rf_depth: self.u64()? as usize,
            global_buffer_bytes: self.u64()? as usize,
        })
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.off
    }
}

pub(crate) fn decode(bytes: &[u8], fingerprint: u64) -> Result<CheckpointState, String> {
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 {
        return Err(format!("too short ({} bytes)", bytes.len()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored: [u8; 8] = tail.try_into().map_err(|_| "checksum read".to_owned())?;
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(format!("checksum mismatch (stored {stored:#x}, computed {computed:#x})"));
    }
    let mut c = Cursor { bytes: body, off: 0 };
    if c.take(MAGIC.len())? != MAGIC {
        return Err("bad magic".to_owned());
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let fp = c.u64()?;
    if fp != fingerprint {
        return Err(format!(
            "fingerprint mismatch (checkpoint {fp:#x}, this sweep {fingerprint:#x}): \
             checkpoint belongs to a different sweep"
        ));
    }
    let mut s = CheckpointState {
        pos: c.u64()?,
        evaluated: c.u64()?,
        skipped: c.u64()?,
        failed: c.u64()?,
        pruned: c.u64()?,
        peak_frontier: c.u64()?,
        ..CheckpointState::default()
    };
    let n_front = c.u32()? as usize;
    if n_front > c.remaining() / POINT_BYTES {
        return Err(format!("frontier count {n_front} exceeds payload"));
    }
    s.frontier.reserve_exact(n_front);
    for _ in 0..n_front {
        let params = c.params()?;
        s.frontier.push(DesignPoint {
            params,
            cycles: c.u64()?,
            energy: c.f64()?,
            utilization: c.f64()?,
            area: c.f64()?,
        });
    }
    let n_fail = c.u32()? as usize;
    if n_fail > c.remaining() / FAILURE_MIN_BYTES {
        return Err(format!("failure count {n_fail} exceeds payload"));
    }
    s.failures.reserve_exact(n_fail);
    for _ in 0..n_fail {
        let params = c.params()?;
        let len = c.u32()? as usize;
        let reason = std::str::from_utf8(c.take(len)?)
            .map_err(|_| "failure reason is not UTF-8".to_owned())?
            .to_owned();
        s.failures.push(PointFailure { params, reason });
    }
    if c.remaining() != 0 {
        return Err(format!("{} trailing bytes", c.remaining()));
    }
    Ok(s)
}

/// Writes one checkpoint generation (atomic publish, oldest pruned past
/// [`GENERATIONS_KEPT`]).
pub(crate) fn save(
    base: &Path,
    generation: u64,
    fingerprint: u64,
    state: &CheckpointState,
) -> io::Result<PathBuf> {
    write_generation(base, generation, &encode(fingerprint, state), GENERATIONS_KEPT)
}

/// Loads the newest decodable generation of `base` matching
/// `fingerprint`. Returns the loaded `(generation, state)` (or `None`
/// when no generation is usable) plus one human-readable reason per
/// generation that was skipped (torn, foreign, unreadable) — newest
/// first, mirroring the probe order.
pub(crate) fn load_latest(
    base: &Path,
    fingerprint: u64,
) -> (Option<(u64, CheckpointState)>, Vec<String>) {
    let mut skipped = Vec::new();
    for (generation, path) in scan_generations(base).into_iter().rev() {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                skipped.push(format!("{}: unreadable: {e}", path.display()));
                continue;
            }
        };
        match decode(&bytes, fingerprint) {
            Ok(state) => return (Some((generation, state)), skipped),
            Err(reason) => skipped.push(format!("{}: {reason}", path.display())),
        }
    }
    (None, skipped)
}

/// Removes every existing generation of `base` — a sweep starting fresh
/// with checkpointing must not leave stale generations a later
/// `--resume` could pick up.
pub(crate) fn clear_generations(base: &Path) -> io::Result<()> {
    for (_, path) in scan_generations(base) {
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = state();
        let bytes = encode(0xdead_beef, &s);
        assert_eq!(decode(&bytes, 0xdead_beef).unwrap(), s);
    }

    #[test]
    fn torn_bytes_are_refused_at_every_length() {
        let s = state();
        let bytes = encode(7, &s);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], 7).is_err(), "torn at {cut} accepted");
        }
    }

    #[test]
    fn corrupt_byte_is_refused_everywhere() {
        let s = state();
        let bytes = encode(7, &s);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad, 7).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let bytes = encode(1, &state());
        let err = decode(&bytes, 2).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
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
        let mut s = state();
        save(&base, 1, 9, &s).unwrap();
        s.pos = 84;
        let newest = save(&base, 2, 9, &s).unwrap();
        // Tear the newest generation mid-write.
        let full = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (loaded, skipped) = load_latest(&base, 9);
        let (generation, recovered) = loaded.unwrap();
        assert_eq!(generation, 1);
        assert_eq!(recovered.pos, 42);
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        // And a fresh start clears both.
        clear_generations(&base).unwrap();
        assert!(load_latest(&base, 9).0.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
