//! The cache snapshot: a payload schema over [`crate::fsio`]'s sealed
//! container (magic `b"CDSIMCS\0"`, version [`SNAPSHOT_VERSION`]) that
//! lets a [`SimCache`] outlive the process — `codesign serve` saves and
//! autosaves it, and `--cache-load` / `--cache-save` warm-start any run.
//!
//! ```text
//! n_compute u64 LE    compute-record count
//! n_plan    u64 LE    plan-record count
//! records   n_compute × 27 u64-LE words, then n_plan × 21 words
//! ```
//!
//! A compute record is the cycle model's key (work, dataflow, array
//! size, RF depth, OS options) and its [`ComputePerf`]. A plan record is
//! the tiling search's key — the work's 11 words, the element width and
//! the working-buffer bytes — and the raw plan it found: output rows,
//! output channels and input channels per tile, the loop order, the
//! input, weight and output DRAM bytes, and the working set. The traffic
//! model and the weight compression are not part of it: they are applied
//! to the plan after every lookup.
//!
//! Every field is a `u64` little-endian word: dimensions directly,
//! enums as documented tags, booleans as 0/1, and `f64` option fields
//! as their IEEE-754 bit patterns (the same bitwise identity the cache
//! keys hash by). Records are sorted by their encoded bytes, so the
//! same cache contents always serialize to the same bytes regardless of
//! shard iteration order.
//!
//! Loading checks the container, then each record count against the
//! bytes left, then each record's tags, and refuses with a typed
//! [`SnapshotError`] at the first violation. Any change to the key or
//! value layout (new fields, reordered fields, new enum variants) must
//! bump [`SNAPSHOT_VERSION`]; there is no migration path by design — a
//! refused snapshot is merely a cold start, never a wrong answer,
//! because loading only ever preloads entries the simulator would have
//! recomputed identically. Older files — version 1 (no length word in
//! the container) and version 2 (traffic byte counts keyed by traffic
//! model and compression instead of plans) — are refused as
//! [`FramingError::WrongVersion`].

use std::fmt;

use codesign_arch::{AccessCounts, Dataflow};

use crate::cache::{Bits, ComputeKey, OsOptsKey, PlanKey, SimCache};
use crate::dram::DramTraffic;
use crate::fsio::{seal, unseal, Corrupt, Decoder, FramingError};
use crate::perf::{ComputePerf, PhaseCycles};
use crate::tiling::{LoopOrder, Tiling, TilingPlan};
use crate::workload::{ConvWork, WorkKind};

/// Schema version written into (and demanded from) every snapshot.
/// Bump on any change to the record layout or the enum tag assignments.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Leading magic bytes identifying a codesign cache snapshot.
const MAGIC: &[u8; 8] = b"CDSIMCS\0";

/// Bytes per encoded [`ComputeKey`] + [`ComputePerf`] record.
const COMPUTE_BYTES: usize = 27 * 8;
/// Bytes per encoded [`PlanKey`] + [`TilingPlan`] record.
const PLAN_BYTES: usize = 21 * 8;

/// Why a snapshot was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The sealed container was refused: truncated, bad magic, wrong
    /// version, trailing bytes, checksum mismatch, or unreadable.
    Framing(FramingError),
    /// Structurally invalid records inside an intact container (bad enum
    /// tag, non-boolean flag, out-of-range dimension, a record count the
    /// payload cannot hold, trailing payload bytes).
    Corrupted(String),
    /// The simulator carries no cache to snapshot or warm (it was built
    /// with [`crate::Simulator::uncached`]).
    Uncached,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Framing(e) => write!(f, "snapshot: {e}"),
            Self::Corrupted(what) => write!(f, "snapshot corrupted: {what}"),
            Self::Uncached => write!(f, "simulator has no cache to snapshot or warm"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FramingError> for SnapshotError {
    fn from(e: FramingError) -> Self {
        Self::Framing(e)
    }
}

impl From<Corrupt> for SnapshotError {
    fn from(Corrupt(what): Corrupt) -> Self {
        Self::Corrupted(what)
    }
}

/// What a successful [`SimCache::load_snapshot`] brought in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Compute (cycle-model) entries preloaded.
    pub compute_entries: usize,
    /// Tiling-plan entries preloaded.
    pub plan_entries: usize,
    /// Size of the snapshot consumed, in bytes.
    pub bytes: usize,
}

impl SnapshotStats {
    /// Total entries preloaded.
    pub fn entries(&self) -> usize {
        self.compute_entries + self.plan_entries
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_work(out: &mut Vec<u8>, work: &ConvWork) {
    let kind = match work.kind {
        WorkKind::Dense => 0u64,
        WorkKind::Depthwise => 1,
        WorkKind::FullyConnected => 2,
    };
    push_u64(out, kind);
    for dim in [
        work.groups,
        work.in_channels,
        work.out_channels,
        work.kernel_h,
        work.kernel_w,
        work.stride,
        work.in_h,
        work.in_w,
        work.out_h,
        work.out_w,
    ] {
        push_u64(out, dim as u64);
    }
}

fn decode_work(d: &mut Decoder<'_>) -> Result<ConvWork, Corrupt> {
    let kind = match d.u64()? {
        0 => WorkKind::Dense,
        1 => WorkKind::Depthwise,
        2 => WorkKind::FullyConnected,
        v => return Err(Corrupt(format!("unknown work kind tag {v}"))),
    };
    Ok(ConvWork {
        kind,
        groups: d.usize("groups")?,
        in_channels: d.usize("in_channels")?,
        out_channels: d.usize("out_channels")?,
        kernel_h: d.usize("kernel_h")?,
        kernel_w: d.usize("kernel_w")?,
        stride: d.usize("stride")?,
        in_h: d.usize("in_h")?,
        in_w: d.usize("in_w")?,
        out_h: d.usize("out_h")?,
        out_w: d.usize("out_w")?,
    })
}

fn encode_compute_record(out: &mut Vec<u8>, key: &ComputeKey, perf: &ComputePerf) {
    encode_work(out, key.work.work());
    push_u64(out, matches!(key.dataflow, Dataflow::OutputStationary) as u64);
    push_u64(out, key.array_size as u64);
    push_u64(out, key.rf_depth as u64);
    push_u64(out, key.os.zero_fraction.0);
    push_u64(out, key.os.exploit_sparsity as u64);
    push_u64(out, key.os.preload_overlap as u64);
    push_u64(out, key.os.channel_packing as u64);
    push_u64(out, perf.phases.load);
    push_u64(out, perf.phases.compute);
    push_u64(out, perf.phases.drain);
    push_u64(out, perf.executed_macs);
    push_u64(out, perf.accesses.macs);
    push_u64(out, perf.accesses.register_file);
    push_u64(out, perf.accesses.inter_pe);
    push_u64(out, perf.accesses.global_buffer);
    push_u64(out, perf.accesses.dram);
}

/// A decoded compute record. Its key holds the bare work: fingerprints
/// are per process, taken as the entry is loaded.
type ComputeRecord = (ComputeKey<ConvWork>, ComputePerf);
/// A decoded plan record, keyed by the bare work like [`ComputeRecord`].
type PlanRecord = (PlanKey<ConvWork>, TilingPlan);

fn decode_compute_record(d: &mut Decoder<'_>) -> Result<ComputeRecord, Corrupt> {
    let work = decode_work(d)?;
    let dataflow =
        if d.flag("dataflow")? { Dataflow::OutputStationary } else { Dataflow::WeightStationary };
    let key = ComputeKey {
        work,
        dataflow,
        array_size: d.usize("array_size")?,
        rf_depth: d.usize("rf_depth")?,
        os: OsOptsKey {
            zero_fraction: Bits(d.u64()?),
            exploit_sparsity: d.flag("exploit_sparsity")?,
            preload_overlap: d.flag("preload_overlap")?,
            channel_packing: d.flag("channel_packing")?,
        },
    };
    let perf = ComputePerf {
        phases: PhaseCycles { load: d.u64()?, compute: d.u64()?, drain: d.u64()? },
        executed_macs: d.u64()?,
        accesses: AccessCounts {
            macs: d.u64()?,
            register_file: d.u64()?,
            inter_pe: d.u64()?,
            global_buffer: d.u64()?,
            dram: d.u64()?,
        },
    };
    Ok((key, perf))
}

fn encode_plan_record(out: &mut Vec<u8>, key: &PlanKey, plan: &TilingPlan) {
    encode_work(out, key.work.work());
    push_u64(out, key.bytes_per_element as u64);
    push_u64(out, key.working_buffer_bytes as u64);
    let t = &plan.tiling;
    push_u64(out, t.out_rows as u64);
    push_u64(out, t.out_channels as u64);
    push_u64(out, t.in_channels as u64);
    push_u64(out, matches!(t.order, LoopOrder::SpatialOuter) as u64);
    push_u64(out, plan.traffic.input);
    push_u64(out, plan.traffic.weights);
    push_u64(out, plan.traffic.output);
    push_u64(out, plan.working_set);
}

fn decode_plan_record(d: &mut Decoder<'_>) -> Result<PlanRecord, Corrupt> {
    let key = PlanKey {
        work: decode_work(d)?,
        bytes_per_element: d.usize("bytes_per_element")?,
        working_buffer_bytes: d.usize("working_buffer_bytes")?,
    };
    let tiling = Tiling {
        out_rows: d.usize("tile out_rows")?,
        out_channels: d.usize("tile out_channels")?,
        in_channels: d.usize("tile in_channels")?,
        order: if d.flag("loop order")? {
            LoopOrder::SpatialOuter
        } else {
            LoopOrder::WeightsOuter
        },
    };
    // Tile counts divide by these: a tile outside its loop's extent is
    // no plan the search could have found.
    let w = &key.work;
    for (what, tile, extent) in [
        ("out_rows", tiling.out_rows, w.out_h),
        ("out_channels", tiling.out_channels, w.out_channels),
        ("in_channels", tiling.in_channels, w.in_channels),
    ] {
        if tile == 0 || tile > extent {
            return Err(Corrupt(format!("tile {what} {tile} outside 1..={extent}")));
        }
    }
    let traffic = DramTraffic { input: d.u64()?, weights: d.u64()?, output: d.u64()? };
    Ok((key, TilingPlan { tiling, traffic, working_set: d.u64()? }))
}

impl SimCache {
    /// Serializes every resident entry into a self-validating snapshot.
    ///
    /// The output is deterministic for a given set of entries (records
    /// are sorted), so identical caches snapshot to identical bytes. The
    /// hit/miss counters are *not* serialized — they describe a process
    /// lifetime, not the memo contents.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut compute_records: Vec<Vec<u8>> = self
            .export_compute()
            .iter()
            .map(|(key, perf)| {
                let mut rec = Vec::with_capacity(COMPUTE_BYTES);
                encode_compute_record(&mut rec, key, perf);
                rec
            })
            .collect();
        let mut plan_records: Vec<Vec<u8>> = self
            .export_plans()
            .iter()
            .map(|(key, plan)| {
                let mut rec = Vec::with_capacity(PLAN_BYTES);
                encode_plan_record(&mut rec, key, plan);
                rec
            })
            .collect();
        compute_records.sort_unstable();
        plan_records.sort_unstable();

        let body = compute_records.len() * COMPUTE_BYTES + plan_records.len() * PLAN_BYTES;
        let mut payload = Vec::with_capacity(16 + body);
        push_u64(&mut payload, compute_records.len() as u64);
        push_u64(&mut payload, plan_records.len() as u64);
        for rec in compute_records.iter().chain(&plan_records) {
            payload.extend_from_slice(rec);
        }
        seal(MAGIC, SNAPSHOT_VERSION, &payload)
    }

    /// Preloads every entry from a snapshot into this cache (a union
    /// with whatever is already resident — by the cache's determinism
    /// contract, colliding keys carry identical values).
    ///
    /// Preloaded entries do not touch the hit/miss counters: a
    /// warm-started run reports pure hits, exactly as if an earlier run
    /// in the same process had populated the cache.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] and an untouched cache: validation
    /// (container, record counts, record tags) completes before the
    /// first entry is inserted.
    pub fn load_snapshot(&self, bytes: &[u8]) -> Result<SnapshotStats, SnapshotError> {
        let mut d = unseal(MAGIC, SNAPSHOT_VERSION, bytes)?;
        let (n_compute, n_plan) = (d.u64()?, d.u64()?);
        let n_compute = d.count(n_compute, COMPUTE_BYTES, "compute record")?;
        let n_plan = d.count(n_plan, PLAN_BYTES, "plan record")?;

        // Decode everything before inserting anything, so a corrupted
        // record never leaves a half-loaded cache.
        let mut compute_entries = Vec::with_capacity(n_compute);
        for _ in 0..n_compute {
            compute_entries.push(decode_compute_record(&mut d)?);
        }
        let mut plan_entries = Vec::with_capacity(n_plan);
        for _ in 0..n_plan {
            plan_entries.push(decode_plan_record(&mut d)?);
        }
        d.finish()?;

        for (key, perf) in &compute_entries {
            self.preload_compute(*key, *perf);
        }
        for (key, plan) in &plan_entries {
            self.preload_plan(*key, *plan);
        }
        Ok(SnapshotStats {
            compute_entries: compute_entries.len(),
            plan_entries: plan_entries.len(),
            bytes: bytes.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_round_trips() {
        let cache = SimCache::new();
        let snap = cache.to_snapshot();
        // Container header (20 bytes) + two record counts + checksum.
        assert_eq!(snap.len(), 20 + 16 + 8);
        let fresh = SimCache::new();
        let stats = fresh.load_snapshot(&snap).unwrap();
        assert_eq!(stats, SnapshotStats { compute_entries: 0, plan_entries: 0, bytes: snap.len() });
        assert_eq!(fresh.stats().entries, 0);
    }

    #[test]
    fn a_record_decodes_into_no_more_bytes_than_it_encodes() {
        // The count check bounds a reservation by the payload only if
        // each reserved element is no larger than its encoding.
        assert!(std::mem::size_of::<ComputeRecord>() <= COMPUTE_BYTES);
        assert!(std::mem::size_of::<PlanRecord>() <= PLAN_BYTES);
    }

    #[test]
    fn plan_tiles_outside_their_loops_are_refused() {
        // The event model divides by the tile sizes, so a plan record
        // whose tile is zero or wider than its loop is corruption, not a
        // plan the search could have found.
        let cfg = codesign_arch::AcceleratorConfig::paper_default();
        let work = ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: 8,
            out_channels: 16,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 18,
            in_w: 18,
            out_h: 16,
            out_w: 16,
        };
        let plan = crate::tiling::optimize_tiling(&work, &cfg).unwrap();
        let round_trip = |plan: TilingPlan| {
            let cache = SimCache::new();
            cache.preload_plan(PlanKey::new(&work, &cfg), plan);
            SimCache::new().load_snapshot(&cache.to_snapshot())
        };
        assert_eq!(round_trip(plan).map(|s| s.plan_entries), Ok(1));
        for bad in [
            Tiling { out_rows: 0, ..plan.tiling },
            Tiling { out_channels: 17, ..plan.tiling },
            Tiling { in_channels: 0, ..plan.tiling },
        ] {
            let err = round_trip(TilingPlan { tiling: bad, ..plan }).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupted(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let cache = SimCache::new();
        assert_eq!(cache.to_snapshot(), cache.to_snapshot());
    }

    #[test]
    fn bad_magic_is_refused() {
        let cache = SimCache::new();
        let mut snap = cache.to_snapshot();
        snap[0] ^= 0xff;
        assert_eq!(
            SimCache::new().load_snapshot(&snap),
            Err(SnapshotError::Framing(FramingError::BadMagic))
        );
        assert_eq!(
            SimCache::new().load_snapshot(b"nope"),
            Err(SnapshotError::Framing(FramingError::Truncated { expected: 8, actual: 4 }))
        );
    }

    #[test]
    fn wrong_version_reported_before_checksum() {
        let cache = SimCache::new();
        let mut snap = cache.to_snapshot();
        snap[8] = 99; // version field, LSB
        assert_eq!(
            SimCache::new().load_snapshot(&snap),
            Err(SnapshotError::Framing(FramingError::WrongVersion {
                found: 99,
                expected: SNAPSHOT_VERSION
            }))
        );
    }
}
