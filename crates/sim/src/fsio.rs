//! Crash-safe file output and generational snapshot persistence.
//!
//! Two layers of defense against torn and stale files:
//!
//! * [`atomic_write`] — every output file (cache snapshots, traces,
//!   metrics, bench reports) is written to a temporary sibling, fsynced,
//!   and renamed into place, so no path is ever observable half-written.
//!   A `kill -9` at any byte offset leaves either the old file or the
//!   new one, never a hybrid.
//! * generational snapshots — a long-running server autosaves its cache
//!   into rotating `<base>.gen-K` files ([`write_generation`]) and
//!   recovers at boot by scanning the generations newest-first
//!   ([`recover_cache`]), warm-starting from the newest snapshot that
//!   validates (magic, version, checksum, record structure). Torn or
//!   corrupt generations are reported and skipped — never trusted,
//!   never fatal while an older valid generation survives.
//!
//! Rename-based atomicity means our *own* writer cannot produce a torn
//! generation; the recovery scan defends against everything else:
//! non-atomic writers, filesystem corruption, truncation in transit,
//! and operators editing files by hand.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::Simulator;
use crate::snapshot::SnapshotStats;

/// Generations every rotating writer keeps on disk: the server's cache
/// autosave and the sweep checkpoint both pass it to
/// [`write_generation`].
pub const GENERATIONS_KEPT: usize = 3;

/// Distinguishes concurrent in-process writers of the same target path;
/// the pid in the temp name distinguishes concurrent processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: temp sibling → `fsync` →
/// `rename`. On any failure the temp file is removed and `path` is left
/// exactly as it was (either the previous contents or absent).
///
/// # Errors
///
/// Propagates the underlying I/O error (create, write, sync, or rename).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}-{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        // Flush file contents to stable storage *before* the rename
        // publishes the path: rename-then-crash must not expose a file
        // whose data never hit disk.
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Best-effort directory sync so the rename itself is durable.
        // Not all platforms allow opening a directory; the rename is
        // still atomic without it.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The path of generation `generation` for snapshot base `base`:
/// `<base>.gen-K`.
pub fn generation_path(base: &Path, generation: u64) -> PathBuf {
    let name = base.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    base.with_file_name(format!("{name}.gen-{generation}"))
}

/// Every `<base>.gen-K` file next to `base`, sorted by ascending
/// generation number. Files whose suffix is not a whole number are not
/// generations and are ignored. A missing directory scans as empty.
pub fn scan_generations(base: &Path) -> Vec<(u64, PathBuf)> {
    let dir = match base.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Some(file_name) = base.file_name() else {
        return Vec::new();
    };
    let prefix = format!("{}.gen-", file_name.to_string_lossy());
    let Ok(entries) = fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut generations: Vec<(u64, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let gen: u64 = name.strip_prefix(&prefix)?.parse().ok()?;
            Some((gen, entry.path()))
        })
        .collect();
    generations.sort_unstable_by_key(|(generation, _)| *generation);
    generations
}

/// Atomically writes snapshot `bytes` as generation `generation` of
/// `base`, then prunes the oldest generations so at most `keep` remain.
/// Returns the generation file's path.
///
/// # Errors
///
/// Propagates the [`atomic_write`] error; pruning failures are ignored
/// (a leftover old generation is harmless — it is older than the one
/// just written and will be pruned by a later rotation).
pub fn write_generation(
    base: &Path,
    generation: u64,
    bytes: &[u8],
    keep: usize,
) -> io::Result<PathBuf> {
    let path = generation_path(base, generation);
    atomic_write(&path, bytes)?;
    let generations = scan_generations(base);
    if generations.len() > keep {
        for (_, old) in &generations[..generations.len() - keep] {
            let _ = fs::remove_file(old);
        }
    }
    Ok(path)
}

/// One snapshot candidate the recovery scan refused, with the typed
/// reason it was not trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefusedSnapshot {
    /// The refused file.
    pub path: PathBuf,
    /// Why it was refused (checksum mismatch, truncation, bad magic,
    /// unreadable, ...).
    pub reason: String,
}

/// The snapshot the recovery scan warm-started from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedSnapshot {
    /// The file that validated and loaded.
    pub path: PathBuf,
    /// Its generation number (`None` when the plain base file loaded).
    pub generation: Option<u64>,
    /// What the load brought in.
    pub stats: SnapshotStats,
}

/// Outcome of a generation-scan recovery: at most one loaded snapshot
/// plus every newer candidate that had to be refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecovery {
    /// The newest candidate that validated, if any did.
    pub loaded: Option<LoadedSnapshot>,
    /// Candidates refused before (or instead of) the loaded one, newest
    /// first. Candidates older than the loaded snapshot are never read.
    pub refused: Vec<RefusedSnapshot>,
}

/// Warm-starts `sim` from the newest valid snapshot among `base`'s
/// generation files and `base` itself.
///
/// Candidates are tried newest-first: `<base>.gen-K` by descending `K`,
/// then the plain `base` file. The first candidate that validates
/// end-to-end (magic, version, length, checksum, record tags) is loaded
/// and the scan stops; every candidate refused on the way is recorded
/// with its reason. A refused snapshot is *never* partially loaded —
/// [`crate::cache::SimCache::load_snapshot`] validates everything before
/// inserting anything.
///
/// # Errors
///
/// `Err` only when there is nothing to recover at all: neither `base`
/// nor any generation file exists. Corrupt-but-present candidates are
/// reported in [`SnapshotRecovery::refused`], not as an `Err`, so one
/// torn autosave can never mask an older valid generation.
pub fn recover_cache(sim: &Simulator, base: &Path) -> io::Result<SnapshotRecovery> {
    let mut candidates: Vec<(Option<u64>, PathBuf)> = scan_generations(base)
        .into_iter()
        .rev()
        .map(|(generation, path)| (Some(generation), path))
        .collect();
    if base.exists() {
        candidates.push((None, base.to_path_buf()));
    }
    if candidates.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no snapshot or generation files at {}", base.display()),
        ));
    }

    let mut refused = Vec::new();
    for (generation, path) in candidates {
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                refused.push(RefusedSnapshot { path, reason: format!("unreadable: {e}") });
                continue;
            }
        };
        match sim.load_cache_snapshot(&bytes) {
            Ok(stats) => {
                return Ok(SnapshotRecovery {
                    loaded: Some(LoadedSnapshot { path, generation, stats }),
                    refused,
                })
            }
            Err(e) => refused.push(RefusedSnapshot { path, reason: e.to_string() }),
        }
    }
    Ok(SnapshotRecovery { loaded: None, refused })
}

#[cfg(test)]
mod tests {
    use super::*;

    use codesign_arch::{AcceleratorConfig, DataflowPolicy};
    use codesign_dnn::zoo;

    use crate::engine::SimOptions;

    /// A unique scratch directory per test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("codesign-fsio-{tag}-{}", std::process::id()));
            fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A snapshot with real cache entries (tiny-darknet on the paper
    /// default config).
    fn populated_snapshot() -> Vec<u8> {
        let sim = Simulator::new();
        let cfg = AcceleratorConfig::paper_default();
        sim.try_simulate_network(
            &zoo::tiny_darknet(),
            &cfg,
            DataflowPolicy::PerLayer,
            SimOptions::paper_default(),
        )
        .expect("tiny-darknet simulates");
        let snap = sim.cache_snapshot().expect("cached simulator snapshots");
        assert!(snap.len() > 64, "snapshot has entries");
        snap
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let scratch = Scratch::new("atomic");
        let path = scratch.path("out.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        // No temp litter left behind.
        let names: Vec<String> = fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["out.bin".to_owned()], "{names:?}");
    }

    #[test]
    fn atomic_write_failure_leaves_the_old_file() {
        let scratch = Scratch::new("atomic-fail");
        let path = scratch.path("keep.bin");
        atomic_write(&path, b"precious").unwrap();
        // Writing *into* a path whose parent is a regular file must fail
        // without touching anything.
        let bad = path.join("impossible");
        assert!(atomic_write(&bad, b"x").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"precious");
    }

    #[test]
    fn generation_paths_scan_sorted_and_ignore_strangers() {
        let scratch = Scratch::new("scan");
        let base = scratch.path("cache.snap");
        assert!(scan_generations(&base).is_empty(), "empty dir scans empty");
        for generation in [3u64, 1, 12] {
            atomic_write(&generation_path(&base, generation), b"g").unwrap();
        }
        // Non-generation siblings are ignored.
        atomic_write(&scratch.path("cache.snap.gen-x"), b"?").unwrap();
        atomic_write(&scratch.path("other.snap.gen-4"), b"?").unwrap();
        atomic_write(&base, b"base").unwrap();
        let gens: Vec<u64> = scan_generations(&base).into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, vec![1, 3, 12], "numeric sort, not lexicographic");
    }

    #[test]
    fn write_generation_rotates_keeping_the_newest() {
        let scratch = Scratch::new("rotate");
        let base = scratch.path("cache.snap");
        for generation in 1..=5u64 {
            write_generation(&base, generation, b"snapshot", 3).unwrap();
        }
        let gens: Vec<u64> = scan_generations(&base).into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, vec![3, 4, 5]);
    }

    #[test]
    fn recovery_prefers_the_newest_valid_generation() {
        let scratch = Scratch::new("recover-newest");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 1, &snap, 8).unwrap();
        write_generation(&base, 2, &snap, 8).unwrap();
        let rec = recover_cache(&Simulator::new(), &base).unwrap();
        let loaded = rec.loaded.expect("a valid generation loads");
        assert_eq!(loaded.generation, Some(2));
        assert!(loaded.stats.entries() > 0);
        assert!(rec.refused.is_empty());
    }

    #[test]
    fn torn_newest_generation_is_refused_and_older_one_loads() {
        let scratch = Scratch::new("recover-torn");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 1, &snap, 8).unwrap();
        // Generation 2 torn at every byte offset: whatever prefix a
        // crashed (non-atomic) writer left behind, recovery must refuse
        // it and warm-start from generation 1.
        for cut in [0, 1, 7, 8, 11, 12, snap.len() / 2, snap.len() - 1] {
            atomic_write(&generation_path(&base, 2), &snap[..cut]).unwrap();
            let sim = Simulator::new();
            let rec = recover_cache(&sim, &base).unwrap();
            let loaded = rec.loaded.expect("generation 1 still loads");
            assert_eq!(loaded.generation, Some(1), "cut={cut}");
            assert_eq!(rec.refused.len(), 1, "cut={cut}");
            assert!(rec.refused[0].path.ends_with("cache.snap.gen-2"));
        }
    }

    #[test]
    fn bit_flipped_generation_is_refused_by_checksum() {
        let scratch = Scratch::new("recover-flip");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 1, &snap, 8).unwrap();
        let mut flipped = snap.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        atomic_write(&generation_path(&base, 2), &flipped).unwrap();
        let rec = recover_cache(&Simulator::new(), &base).unwrap();
        assert_eq!(rec.loaded.expect("gen 1 loads").generation, Some(1));
        assert_eq!(rec.refused.len(), 1);
        assert!(rec.refused[0].reason.contains("checksum"), "{}", rec.refused[0].reason);
    }

    #[test]
    fn all_generations_torn_leaves_nothing_loaded() {
        let scratch = Scratch::new("recover-all-torn");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        atomic_write(&generation_path(&base, 1), &snap[..snap.len() / 3]).unwrap();
        atomic_write(&generation_path(&base, 2), b"").unwrap();
        let rec = recover_cache(&Simulator::new(), &base).unwrap();
        assert_eq!(rec.loaded, None);
        assert_eq!(rec.refused.len(), 2, "{:?}", rec.refused);
    }

    #[test]
    fn zero_length_generation_is_skipped() {
        let scratch = Scratch::new("recover-empty");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 4, &snap, 8).unwrap();
        atomic_write(&generation_path(&base, 5), b"").unwrap();
        let rec = recover_cache(&Simulator::new(), &base).unwrap();
        assert_eq!(rec.loaded.expect("gen 4 loads").generation, Some(4));
        assert_eq!(rec.refused.len(), 1);
    }

    #[test]
    fn base_file_is_the_fallback_candidate() {
        let scratch = Scratch::new("recover-base");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        atomic_write(&base, &snap).unwrap();
        atomic_write(&generation_path(&base, 9), &snap[..9]).unwrap();
        let rec = recover_cache(&Simulator::new(), &base).unwrap();
        let loaded = rec.loaded.expect("base file loads");
        assert_eq!(loaded.generation, None);
        assert_eq!(rec.refused.len(), 1);
    }

    #[test]
    fn nothing_to_recover_is_an_io_error() {
        let scratch = Scratch::new("recover-nothing");
        let base = scratch.path("absent.snap");
        let err = recover_cache(&Simulator::new(), &base).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn recovered_cache_answers_without_misses() {
        let scratch = Scratch::new("recover-warm");
        let base = scratch.path("cache.snap");
        write_generation(&base, 1, &populated_snapshot(), 8).unwrap();
        let sim = Simulator::new();
        recover_cache(&sim, &base).unwrap().loaded.expect("loads");
        let cfg = AcceleratorConfig::paper_default();
        sim.try_simulate_network(
            &zoo::tiny_darknet(),
            &cfg,
            DataflowPolicy::PerLayer,
            SimOptions::paper_default(),
        )
        .expect("simulates");
        let stats = sim.stats();
        assert_eq!(stats.misses, 0, "warm start answers purely from the snapshot: {stats}");
        assert!(stats.hits > 0);
    }
}
