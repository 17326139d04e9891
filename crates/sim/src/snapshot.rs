//! The cache snapshot: a payload schema over [`crate::fsio`]'s sealed
//! container (magic `b"CDSIMCS\0"`, version [`SNAPSHOT_VERSION`]) that
//! lets a [`SimCache`] outlive the process — `codesign serve` saves and
//! autosaves it, and `--cache-load` / `--cache-save` warm-start any run.
//!
//! ```text
//! n_compute u64 LE    compute-record count
//! n_traffic u64 LE    traffic-record count
//! records   n_compute × 27 u64-LE words, then n_traffic × 19 words
//! ```
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
//! recomputed identically. Version-1 files (the same records without
//! the container's length word) are refused as
//! [`FramingError::WrongVersion`].

use std::fmt;

use codesign_arch::{AccessCounts, Dataflow};

use crate::cache::{Bits, ComputeKey, OsOptsKey, SimCache, TrafficKey};
use crate::engine::TrafficModel;
use crate::fsio::{seal, unseal, Corrupt, Decoder, FramingError};
use crate::perf::{ComputePerf, PhaseCycles};
use crate::workload::{ConvWork, WorkKind};

/// Schema version written into (and demanded from) every snapshot.
/// Bump on any change to the record layout or the enum tag assignments.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Leading magic bytes identifying a codesign cache snapshot.
const MAGIC: &[u8; 8] = b"CDSIMCS\0";

/// Bytes per encoded [`ComputeKey`] + [`ComputePerf`] record.
const COMPUTE_BYTES: usize = 27 * 8;
/// Bytes per encoded [`TrafficKey`] + byte-count record.
const TRAFFIC_BYTES: usize = 19 * 8;

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
    /// Traffic (tiling/closed-form) entries preloaded.
    pub traffic_entries: usize,
    /// Size of the snapshot consumed, in bytes.
    pub bytes: usize,
}

impl SnapshotStats {
    /// Total entries preloaded.
    pub fn entries(&self) -> usize {
        self.compute_entries + self.traffic_entries
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
    encode_work(out, &key.work);
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

fn decode_compute_record(d: &mut Decoder<'_>) -> Result<(ComputeKey, ComputePerf), Corrupt> {
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

fn encode_traffic_record(out: &mut Vec<u8>, key: &TrafficKey, bytes: u64) {
    encode_work(out, &key.work);
    push_u64(out, matches!(key.model, TrafficModel::TilingSearch) as u64);
    push_u64(out, key.bytes_per_element as u64);
    push_u64(out, key.working_buffer_bytes as u64);
    match key.compression {
        Some((data_bits, index_bits, zero_fraction)) => {
            push_u64(out, 1);
            push_u64(out, u64::from(data_bits));
            push_u64(out, u64::from(index_bits));
            push_u64(out, zero_fraction.0);
        }
        None => {
            push_u64(out, 0);
            push_u64(out, 0);
            push_u64(out, 0);
            push_u64(out, 0);
        }
    }
    push_u64(out, bytes);
}

/// A `u64` word holding a `u32` field.
fn word_u32(d: &mut Decoder<'_>, what: &str) -> Result<u32, Corrupt> {
    let v = d.u64()?;
    u32::try_from(v).map_err(|_| Corrupt(format!("{what} out of range: {v}")))
}

fn decode_traffic_record(d: &mut Decoder<'_>) -> Result<(TrafficKey, u64), Corrupt> {
    let work = decode_work(d)?;
    let model = if d.flag("traffic model")? {
        TrafficModel::TilingSearch
    } else {
        TrafficModel::ClosedForm
    };
    let bytes_per_element = d.usize("bytes_per_element")?;
    let working_buffer_bytes = d.usize("working_buffer_bytes")?;
    let present = d.flag("compression present")?;
    let data_bits = word_u32(d, "compression data_bits")?;
    let index_bits = word_u32(d, "compression index_bits")?;
    let zero_fraction = Bits(d.u64()?);
    let compression = present.then_some((data_bits, index_bits, zero_fraction));
    let bytes = d.u64()?;
    Ok((TrafficKey { work, model, bytes_per_element, working_buffer_bytes, compression }, bytes))
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
        let mut traffic_records: Vec<Vec<u8>> = self
            .export_traffic()
            .iter()
            .map(|(key, bytes)| {
                let mut rec = Vec::with_capacity(TRAFFIC_BYTES);
                encode_traffic_record(&mut rec, key, *bytes);
                rec
            })
            .collect();
        compute_records.sort_unstable();
        traffic_records.sort_unstable();

        let body = compute_records.len() * COMPUTE_BYTES + traffic_records.len() * TRAFFIC_BYTES;
        let mut payload = Vec::with_capacity(16 + body);
        push_u64(&mut payload, compute_records.len() as u64);
        push_u64(&mut payload, traffic_records.len() as u64);
        for rec in compute_records.iter().chain(&traffic_records) {
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
        let (n_compute, n_traffic) = (d.u64()?, d.u64()?);
        let n_compute = d.count(n_compute, COMPUTE_BYTES, "compute record")?;
        let n_traffic = d.count(n_traffic, TRAFFIC_BYTES, "traffic record")?;

        // Decode everything before inserting anything, so a corrupted
        // record never leaves a half-loaded cache.
        let mut compute_entries = Vec::with_capacity(n_compute);
        for _ in 0..n_compute {
            compute_entries.push(decode_compute_record(&mut d)?);
        }
        let mut traffic_entries = Vec::with_capacity(n_traffic);
        for _ in 0..n_traffic {
            traffic_entries.push(decode_traffic_record(&mut d)?);
        }
        d.finish()?;

        for (key, perf) in &compute_entries {
            self.preload_compute(*key, *perf);
        }
        for (key, traffic_bytes) in &traffic_entries {
            self.preload_traffic(*key, *traffic_bytes);
        }
        Ok(SnapshotStats {
            compute_entries: compute_entries.len(),
            traffic_entries: traffic_entries.len(),
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
        assert_eq!(
            stats,
            SnapshotStats { compute_entries: 0, traffic_entries: 0, bytes: snap.len() }
        );
        assert_eq!(fresh.stats().entries, 0);
    }

    #[test]
    fn a_record_decodes_into_no_more_bytes_than_it_encodes() {
        // The count check bounds a reservation by the payload only if
        // each reserved element is no larger than its encoding.
        assert!(std::mem::size_of::<(ComputeKey, ComputePerf)>() <= COMPUTE_BYTES);
        assert!(std::mem::size_of::<(TrafficKey, u64)>() <= TRAFFIC_BYTES);
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
