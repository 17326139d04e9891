//! The one owner of the on-disk format, its integrity check and its
//! recovery policy. The cache snapshot (`snapshot.rs`) and the sweep
//! checkpoint (`codesign-core`) are payload schemas over it.
//!
//! * [`atomic_write`] publishes every output file by temp sibling →
//!   `fsync` → `rename`, so a `kill -9` at any byte offset leaves the old
//!   file or the new one, never a hybrid.
//! * [`seal`] frames a payload; [`unseal`] checks the frame in one fixed
//!   order — magic, version, length, checksum — refusing with a typed
//!   [`FramingError`], and hands the payload to the one [`Decoder`].
//!   Formats never migrate: a changed payload bumps the version, and
//!   older files are refused.
//!
//!   ```text
//!   magic        8 bytes   names the format: b"CDSIMCS\0", b"CDSWEEP1"
//!   version      u32 LE    the format's schema version
//!   payload_len  u64 LE    payload bytes that follow
//!   payload      the format's records
//!   checksum     u64 LE    FNV-1a over every preceding byte
//!   ```
//! * A [`GenerationStore`] writes rotating `<base>.gen-K` files, and
//!   [`recover`] loads the newest valid one. The server's autosave,
//!   `--cache-load` and the sweep checkpoint all go through these two.
//!   Our own writer cannot tear a generation; recovery defends against
//!   everything else: non-atomic writers, filesystem corruption,
//!   truncation in transit, and operators editing files by hand.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Generations a [`GenerationStore`] keeps on disk.
pub const GENERATIONS_KEPT: usize = 3;

/// Container bytes before the payload: magic, version, payload length.
const HEADER_BYTES: usize = 8 + 4 + 8;
/// Container bytes after the payload: the checksum.
const CHECKSUM_BYTES: usize = 8;

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

/// FNV-1a (64-bit): cheap, dependency-free, and plenty for detecting
/// storage corruption (an integrity check, not an authenticity one).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a sealed file was refused before its payload was read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingError {
    /// Shorter than its header, or than the payload length it declares.
    Truncated {
        /// Bytes the header (or the part of it present) requires.
        expected: usize,
        /// Bytes present.
        actual: usize,
    },
    /// Not the format's magic.
    BadMagic,
    /// Another schema version of the format; there is no migration.
    WrongVersion {
        /// Version in the file.
        found: u32,
        /// Version this binary reads and writes.
        expected: u32,
    },
    /// Longer than the payload length the header declares.
    TrailingBytes {
        /// Bytes the header accounts for.
        expected: usize,
        /// Bytes present.
        actual: usize,
    },
    /// The checksum does not match: corrupted in storage or transit.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file.
        computed: u64,
    },
    /// The file exists but could not be read ([`recover`] only).
    Unreadable(io::ErrorKind),
}

impl fmt::Display for FramingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { expected, actual } => {
                write!(f, "truncated: {actual} bytes where {expected} were expected")
            }
            Self::BadMagic => write!(f, "bad magic"),
            Self::WrongVersion { found, expected } => {
                write!(f, "schema version {found} is not the supported {expected}")
            }
            Self::TrailingBytes { expected, actual } => {
                write!(f, "{actual} bytes where the header accounts for {expected}")
            }
            Self::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            Self::Unreadable(kind) => write!(f, "unreadable: {kind}"),
        }
    }
}

impl std::error::Error for FramingError {}

/// Frames `payload` in the sealed container under `magic` and `version`.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + CHECKSUM_BYTES);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Checks a sealed container's magic, version, length and checksum, in
/// that order, and returns a [`Decoder`] over its payload.
///
/// # Errors
///
/// The first [`FramingError`] in that order.
pub fn unseal<'a>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
) -> Result<Decoder<'a>, FramingError> {
    let actual = bytes.len();
    let field = |range: Range<usize>| {
        let expected = range.end;
        bytes.get(range).ok_or(FramingError::Truncated { expected, actual })
    };
    if field(0..8)? != magic {
        return Err(FramingError::BadMagic);
    }
    let found = u32::from_le_bytes(array(field(8..12)?));
    if found != version {
        return Err(FramingError::WrongVersion { found, expected: version });
    }
    // A length no file could have saturates, and is refused as truncated.
    let expected = usize::try_from(u64::from_le_bytes(array(field(12..HEADER_BYTES)?)))
        .ok()
        .and_then(|len| len.checked_add(HEADER_BYTES + CHECKSUM_BYTES))
        .unwrap_or(usize::MAX);
    if actual < expected {
        return Err(FramingError::Truncated { expected, actual });
    }
    if actual > expected {
        return Err(FramingError::TrailingBytes { expected, actual });
    }
    let (sealed, checksum) = bytes.split_at(expected - CHECKSUM_BYTES);
    let (stored, computed) = (u64::from_le_bytes(array(checksum)), fnv1a(sealed));
    if stored != computed {
        return Err(FramingError::ChecksumMismatch { stored, computed });
    }
    Ok(Decoder { bytes: &sealed[HEADER_BYTES..], pos: 0 })
}

/// `bytes`, which callers slice to exactly `N` long, as an array.
fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

/// An intact container whose payload breaks its format's record rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrupt(pub String);

/// The one payload word reader: bounds-checked little-endian reads over
/// the payload of a container [`unseal`] accepted. Every read fails with
/// [`Corrupt`] when the payload ends first.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Corrupt> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| Corrupt(format!("record truncated at payload byte {}", self.pos)))?;
        self.pos += n;
        Ok(slice)
    }

    /// The next `u32` LE word.
    pub fn u32(&mut self) -> Result<u32, Corrupt> {
        Ok(u32::from_le_bytes(array(self.bytes(4)?)))
    }

    /// The next `u64` LE word.
    pub fn u64(&mut self) -> Result<u64, Corrupt> {
        Ok(u64::from_le_bytes(array(self.bytes(8)?)))
    }

    /// The next `u64` word as a size or dimension, refused when it does
    /// not fit a `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, Corrupt> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Corrupt(format!("{what} out of range: {v}")))
    }

    /// The next `u64` word as a flag, refused unless it is 0 or 1.
    pub fn flag(&mut self, what: &str) -> Result<bool, Corrupt> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Corrupt(format!("{what} flag is {v}, not 0/1"))),
        }
    }

    /// Checks a record count read from the payload: `count` records of at
    /// least `record_bytes` each must fit in the bytes left, so a lying
    /// count is refused before anything is reserved for it.
    pub fn count(&self, count: u64, record_bytes: usize, what: &str) -> Result<usize, Corrupt> {
        let left = self.bytes.len() - self.pos;
        usize::try_from(count)
            .ok()
            .filter(|&n| n <= left / record_bytes.max(1))
            .ok_or_else(|| Corrupt(format!("{what} count {count} exceeds the {left} bytes left")))
    }

    /// Ends the payload, refusing bytes left after the last record.
    pub fn finish(self) -> Result<(), Corrupt> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(Corrupt(format!("{n} trailing payload bytes"))),
        }
    }
}

/// The path of generation `generation` for base `base`: `<base>.gen-K`.
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

/// Atomically writes `bytes` as generation `generation` of `base`, then
/// prunes the lowest-numbered generations so at most
/// [`GENERATIONS_KEPT`] remain. Returns the generation file's path.
///
/// # Errors
///
/// The [`atomic_write`] error. Pruning failures are ignored: a leftover
/// old generation is pruned by a later rotation.
pub fn write_generation(base: &Path, generation: u64, bytes: &[u8]) -> io::Result<PathBuf> {
    let path = generation_path(base, generation);
    atomic_write(&path, bytes)?;
    let generations = scan_generations(base);
    for (_, old) in &generations[..generations.len().saturating_sub(GENERATIONS_KEPT)] {
        let _ = fs::remove_file(old);
    }
    Ok(path)
}

/// A writer of rotating `<base>.gen-K` files with the one numbering
/// rule: continue from the newest generation on disk plus one, so it
/// never overwrites a generation it might need, nor writes one the
/// rotation prunes at once.
#[derive(Debug)]
pub struct GenerationStore {
    base: PathBuf,
    next: u64,
}

impl GenerationStore {
    /// A store for `base`.
    pub fn open(base: impl Into<PathBuf>) -> Self {
        let base = base.into();
        let next = scan_generations(&base).last().map_or(1, |(generation, _)| generation + 1);
        Self { base, next }
    }

    /// Writes `bytes` as the next generation through [`write_generation`];
    /// a failed write is retried under the same number.
    ///
    /// # Errors
    ///
    /// The [`atomic_write`] error.
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = write_generation(&self.base, self.next, bytes)?;
        self.next += 1;
        Ok(path)
    }

    /// Deletes every generation, so a later [`recover`] finds none of
    /// them; numbering restarts at 1.
    ///
    /// # Errors
    ///
    /// The first removal that fails other than by the file being gone.
    pub fn clear(&mut self) -> io::Result<()> {
        for (_, path) in scan_generations(&self.base) {
            match fs::remove_file(&path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        self.next = 1;
        Ok(())
    }
}

/// A file [`recover`] tried, with what reading it produced: the loaded
/// value, or the typed reason it was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate<V> {
    /// The file.
    pub path: PathBuf,
    /// Its generation number (`None` for the plain base file).
    pub generation: Option<u64>,
    /// The loaded value or the refusal.
    pub value: V,
}

/// What [`recover`] found: the newest candidate that loaded, if any, and
/// every candidate refused before it, newest first (older candidates are
/// never read).
pub type Recovery<T, E> = (Option<Candidate<T>>, Vec<Candidate<E>>);

/// The one recovery loop: tries `base`'s generations by descending
/// number, then `base` itself, and stops at the first whose bytes `load`
/// accepts, recording every candidate refused on the way (an unreadable
/// one as [`FramingError::Unreadable`]). `load` must validate everything
/// before it changes any state, so a refused candidate is never
/// partially loaded.
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] when neither `base` nor any generation
/// exists. Present-but-invalid candidates are refused, not errors, so a
/// torn generation never masks an older valid one.
pub fn recover<T, E: From<FramingError>>(
    base: &Path,
    mut load: impl FnMut(&[u8]) -> Result<T, E>,
) -> io::Result<Recovery<T, E>> {
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
            format!("no file or generation files at {}", base.display()),
        ));
    }
    let mut refused = Vec::new();
    for (generation, path) in candidates {
        let loaded = fs::read(&path)
            .map_err(|e| E::from(FramingError::Unreadable(e.kind())))
            .and_then(|bytes| load(&bytes));
        match loaded {
            Ok(value) => return Ok((Some(Candidate { path, generation, value }), refused)),
            Err(value) => refused.push(Candidate { path, generation, value }),
        }
    }
    Ok((None, refused))
}

#[cfg(test)]
mod tests {
    use super::*;

    use codesign_arch::{AcceleratorConfig, DataflowPolicy};
    use codesign_dnn::zoo;

    use crate::engine::{SimOptions, Simulator};
    use crate::snapshot::{SnapshotError, SnapshotStats};

    /// Warm-starts `sim` through the one recovery loop, as `--cache-load`
    /// does.
    fn recover_into(
        sim: &Simulator,
        base: &Path,
    ) -> io::Result<Recovery<SnapshotStats, SnapshotError>> {
        recover(base, |bytes| sim.load_cache_snapshot(bytes))
    }

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
            write_generation(&base, generation, b"snapshot").unwrap();
        }
        let gens: Vec<u64> = scan_generations(&base).into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, vec![3, 4, 5]);
    }

    #[test]
    fn recovery_prefers_the_newest_valid_generation() {
        let scratch = Scratch::new("recover-newest");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 1, &snap).unwrap();
        write_generation(&base, 2, &snap).unwrap();
        let (loaded, refused) = recover_into(&Simulator::new(), &base).unwrap();
        let loaded = loaded.expect("a valid generation loads");
        assert_eq!(loaded.generation, Some(2));
        assert!(loaded.value.entries() > 0);
        assert!(refused.is_empty());
    }

    #[test]
    fn torn_newest_generation_is_refused_and_older_one_loads() {
        let scratch = Scratch::new("recover-torn");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 1, &snap).unwrap();
        // Generation 2 torn at every byte offset: whatever prefix a
        // crashed (non-atomic) writer left behind, recovery must refuse
        // it and warm-start from generation 1.
        for cut in [0, 1, 7, 8, 11, 12, snap.len() / 2, snap.len() - 1] {
            atomic_write(&generation_path(&base, 2), &snap[..cut]).unwrap();
            let sim = Simulator::new();
            let (loaded, refused) = recover_into(&sim, &base).unwrap();
            let loaded = loaded.expect("generation 1 still loads");
            assert_eq!(loaded.generation, Some(1), "cut={cut}");
            assert_eq!(refused.len(), 1, "cut={cut}");
            assert!(refused[0].path.ends_with("cache.snap.gen-2"));
        }
    }

    #[test]
    fn bit_flipped_generation_is_refused_by_checksum() {
        let scratch = Scratch::new("recover-flip");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 1, &snap).unwrap();
        let mut flipped = snap.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        atomic_write(&generation_path(&base, 2), &flipped).unwrap();
        let (loaded, refused) = recover_into(&Simulator::new(), &base).unwrap();
        assert_eq!(loaded.expect("gen 1 loads").generation, Some(1));
        assert_eq!(refused.len(), 1);
        assert!(
            matches!(
                refused[0].value,
                SnapshotError::Framing(FramingError::ChecksumMismatch { .. })
            ),
            "{:?}",
            refused[0].value
        );
    }

    #[test]
    fn all_generations_torn_leaves_nothing_loaded() {
        let scratch = Scratch::new("recover-all-torn");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        atomic_write(&generation_path(&base, 1), &snap[..snap.len() / 3]).unwrap();
        atomic_write(&generation_path(&base, 2), b"").unwrap();
        let (loaded, refused) = recover_into(&Simulator::new(), &base).unwrap();
        assert_eq!(loaded, None);
        assert_eq!(refused.len(), 2, "{:?}", refused);
    }

    #[test]
    fn zero_length_generation_is_skipped() {
        let scratch = Scratch::new("recover-empty");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        write_generation(&base, 4, &snap).unwrap();
        atomic_write(&generation_path(&base, 5), b"").unwrap();
        let (loaded, refused) = recover_into(&Simulator::new(), &base).unwrap();
        assert_eq!(loaded.expect("gen 4 loads").generation, Some(4));
        assert_eq!(refused.len(), 1);
    }

    #[test]
    fn base_file_is_the_fallback_candidate() {
        let scratch = Scratch::new("recover-base");
        let base = scratch.path("cache.snap");
        let snap = populated_snapshot();
        atomic_write(&base, &snap).unwrap();
        atomic_write(&generation_path(&base, 9), &snap[..9]).unwrap();
        let (loaded, refused) = recover_into(&Simulator::new(), &base).unwrap();
        let loaded = loaded.expect("base file loads");
        assert_eq!(loaded.generation, None);
        assert_eq!(refused.len(), 1);
    }

    #[test]
    fn nothing_to_recover_is_an_io_error() {
        let scratch = Scratch::new("recover-nothing");
        let base = scratch.path("absent.snap");
        let err = recover_into(&Simulator::new(), &base).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn recovered_cache_answers_without_misses() {
        let scratch = Scratch::new("recover-warm");
        let base = scratch.path("cache.snap");
        write_generation(&base, 1, &populated_snapshot()).unwrap();
        let sim = Simulator::new();
        recover_into(&sim, &base).unwrap().0.expect("loads");
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

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // FNV-1a 64-bit test vectors from the reference implementation.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn sealed_payload_round_trips_and_is_checked_magic_version_length_checksum() {
        const MAGIC: &[u8; 8] = b"TESTFMT\0";
        let sealed = seal(MAGIC, 7, b"payload");
        assert_eq!(sealed.len(), HEADER_BYTES + 7 + CHECKSUM_BYTES);
        let mut payload = unseal(MAGIC, 7, &sealed).unwrap();
        assert_eq!(payload.bytes(7), Ok(&b"payload"[..]));
        assert_eq!(payload.finish(), Ok(()));
        assert_eq!(fnv1a(&sealed[..sealed.len() - 8]).to_le_bytes(), sealed[sealed.len() - 8..]);

        // Damage every field at once, then repair them in check order:
        // each refusal names the first damaged field still present.
        let mut bad = sealed.clone();
        bad[0] ^= 1; // magic
        bad[8] ^= 1; // version
        bad[12] ^= 1; // payload length
        bad[HEADER_BYTES] ^= 1; // payload, so only the checksum notices
        assert_eq!(unseal(MAGIC, 7, &bad).err(), Some(FramingError::BadMagic));
        bad[0] ^= 1;
        assert_eq!(
            unseal(MAGIC, 7, &bad).err(),
            Some(FramingError::WrongVersion { found: 6, expected: 7 })
        );
        bad[8] ^= 1;
        assert_eq!(
            unseal(MAGIC, 7, &bad).err(),
            Some(FramingError::TrailingBytes { expected: sealed.len() - 1, actual: sealed.len() })
        );
        bad[12] ^= 1;
        assert!(matches!(unseal(MAGIC, 7, &bad), Err(FramingError::ChecksumMismatch { .. })));

        // Short files are truncated at the first field they cut.
        for (len, expected) in [(0, 8), (7, 8), (8, 12), (11, 12), (12, 20), (19, 20), (20, 35)] {
            assert_eq!(
                unseal(MAGIC, 7, &sealed[..len]).err(),
                Some(FramingError::Truncated { expected, actual: len }),
                "len={len}"
            );
        }
        // A length no file could have is refused, not overflowed.
        let mut lying = sealed.clone();
        lying[12..HEADER_BYTES].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            unseal(MAGIC, 7, &lying).err(),
            Some(FramingError::Truncated { expected: usize::MAX, actual: sealed.len() })
        );
    }

    #[test]
    fn decoder_refuses_counts_the_bytes_left_cannot_hold() {
        let payload = [0u8; 24];
        let mut d = Decoder { bytes: &payload, pos: 0 };
        assert_eq!(d.u64(), Ok(0));
        assert_eq!(d.count(2, 8, "word"), Ok(2));
        for lie in [3, u64::from(u32::MAX), u64::MAX] {
            assert!(d.count(lie, 8, "word").is_err(), "count {lie} accepted");
        }
        assert!(d.bytes(17).is_err());
        assert_eq!(d.bytes(16).map(<[u8]>::len), Ok(16));
        assert!(d.u32().is_err());
        assert_eq!(d.finish(), Ok(()));
        assert!(Decoder { bytes: &[0], pos: 0 }.finish().is_err(), "trailing bytes are refused");
    }

    #[test]
    fn a_store_numbers_from_the_newest_generation_on_disk() {
        let scratch = Scratch::new("store");
        let base = scratch.path("sweep.ck");
        let mut fresh = GenerationStore::open(&base);
        assert!(fresh.write(b"a").unwrap().ends_with("sweep.ck.gen-1"));
        // Another writer's generations, numbered past anything this one
        // has written: a new store continues after them, so its own
        // writes are never the ones the rotation prunes.
        for generation in 4..=6 {
            write_generation(&base, generation, b"other").unwrap();
        }
        let mut store = GenerationStore::open(&base);
        for _ in 0..3 {
            store.write(b"mine").unwrap();
        }
        let gens: Vec<u64> = scan_generations(&base).into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, vec![7, 8, 9]);
        store.clear().unwrap();
        assert!(scan_generations(&base).is_empty());
        assert!(store.write(b"again").unwrap().ends_with("sweep.ck.gen-1"));
    }

    #[test]
    fn unreadable_candidate_is_refused_and_the_next_one_loads() {
        let scratch = Scratch::new("recover-unreadable");
        let base = scratch.path("cache.snap");
        write_generation(&base, 1, &populated_snapshot()).unwrap();
        // A directory where generation 2 should be: present, unreadable.
        fs::create_dir_all(generation_path(&base, 2)).unwrap();
        let (loaded, refused) = recover_into(&Simulator::new(), &base).unwrap();
        assert_eq!(loaded.expect("gen 1 loads").generation, Some(1));
        assert!(
            matches!(
                refused[..],
                [Candidate { value: SnapshotError::Framing(FramingError::Unreadable(_)), .. }]
            ),
            "{:?}",
            refused
        );
    }
}
