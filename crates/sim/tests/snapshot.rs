//! Snapshot persistence properties: save→load round trips are lossless
//! and deterministic, warm-started runs are bit-identical to warm
//! in-memory runs, damaged and version-1 snapshots are refused with
//! typed errors, and concurrent clients sharing one cache do strictly
//! less simulation work than the same clients running serially cold.

use codesign_arch::{AcceleratorConfig, DataflowPolicy};
use codesign_dnn::{zoo, Network, NetworkBuilder, Shape};
use codesign_sim::{
    fnv1a, recover, seal, write_generation, Candidate, FramingError, SimOptions, Simulator,
    SnapshotError, SNAPSHOT_VERSION,
};
use proptest::prelude::*;

/// The sealed container's parts: magic, version, payload.
struct Sealed {
    magic: [u8; 8],
    version: u32,
    payload: Vec<u8>,
}

/// Splits a snapshot into its container parts, so corruption tests can
/// patch one and re-seal it through the container's own sealer with a
/// *valid* checksum (exercising the checks after the checksum, not just
/// the checksum).
fn unpack(snap: &[u8]) -> Sealed {
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&snap[..8]);
    let mut version = [0u8; 4];
    version.copy_from_slice(&snap[8..12]);
    Sealed {
        magic,
        version: u32::from_le_bytes(version),
        payload: snap[20..snap.len() - 8].to_vec(),
    }
}

fn reseal(parts: &Sealed) -> Vec<u8> {
    seal(&parts.magic, parts.version, &parts.payload)
}

fn paper_cfg() -> AcceleratorConfig {
    AcceleratorConfig::paper_default()
}

/// A populated cache to corrupt: one hybrid SqueezeNet run.
fn sample_snapshot() -> Vec<u8> {
    let sim = Simulator::new();
    sim.try_simulate_network(
        &zoo::squeezenet_v1_1(),
        &paper_cfg(),
        DataflowPolicy::PerLayer,
        SimOptions::paper_default(),
    )
    .unwrap();
    sim.cache_snapshot().expect("cached simulator snapshots")
}

fn small_network() -> impl Strategy<Value = Network> {
    (
        1usize..=8,                                    // input channels
        prop_oneof![Just(8usize), Just(12), Just(16)], // input H=W
        1usize..=16,                                   // conv out channels
        prop_oneof![Just(1usize), Just(3)],            // kernel
        0usize..=1,                                    // include a depthwise stage?
        1usize..=10,                                   // fc classes
    )
        .prop_map(|(c, hw, out_c, k, dw, classes)| {
            let mut b = NetworkBuilder::new("prop-net", Shape::new(c, hw, hw));
            b.conv("c1", out_c, k, 1, k / 2);
            if dw == 1 {
                b.depthwise_conv("dw", 3, 1, 1);
            }
            b.max_pool("pool", 2, 2)
                .global_avg_pool("gap")
                .fully_connected("fc", classes)
                .finish()
                .expect("generated shapes are valid")
        })
}

fn small_config() -> impl Strategy<Value = AcceleratorConfig> {
    (
        prop_oneof![Just(8usize), Just(16)],
        prop_oneof![Just(8usize), Just(16)],
        prop_oneof![Just(64usize), Just(128), Just(256)],
    )
        .prop_map(|(array, rf, kib)| {
            AcceleratorConfig::builder()
                .array_size(array)
                .rf_depth(rf)
                .global_buffer_bytes(kib * 1024)
                .build()
                .expect("sweep-grid configs are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// save → load → re-save is byte-identical, and a warm-started
    /// simulator reproduces the cold run bit-for-bit with zero misses —
    /// exactly like a warm in-memory run.
    #[test]
    fn snapshot_round_trip(net in small_network(), cfg in small_config()) {
        let opts = SimOptions::paper_default();
        let cold = Simulator::new();
        let baseline = match cold.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts) {
            Ok(perf) => perf,
            // Degenerate shape for this config: nothing to snapshot.
            Err(_) => return Ok(()),
        };
        let snap = cold.cache_snapshot().expect("cached simulator snapshots");
        prop_assert_eq!(&snap, &cold.cache_snapshot().expect("snapshot"), "snapshots are deterministic");

        // A warm in-memory re-run on the cold simulator: the reference
        // the snapshot-warmed run must match in both results and stats.
        let warm_in_memory = cold.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)
            .expect("re-run succeeds");
        prop_assert_eq!(&warm_in_memory, &baseline);

        let warmed = Simulator::new();
        let stats = warmed.load_cache_snapshot(&snap).expect("round trip loads");
        prop_assert_eq!(stats.entries(), cold.stats().entries, "every entry survives the trip");
        prop_assert_eq!(stats.bytes, snap.len());
        prop_assert_eq!(
            warmed.cache_snapshot().expect("snapshot"),
            snap,
            "load → save reproduces the same bytes"
        );

        let from_disk = warmed.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)
            .expect("warm run succeeds");
        prop_assert_eq!(&from_disk, &baseline, "snapshot-warmed == cold == warm in-memory");
        let ws = warmed.stats();
        prop_assert_eq!(ws.misses, 0, "a warm-started run answers everything from cache: {}", ws);
        prop_assert!(ws.hits > 0, "{}", ws);
    }
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    let mut snap = sample_snapshot();
    assert!(snap.len() > 64, "sample snapshot holds records");
    snap[40] ^= 0x01;
    let fresh = Simulator::new();
    match fresh.load_cache_snapshot(&snap) {
        Err(SnapshotError::Framing(FramingError::ChecksumMismatch { stored, computed })) => {
            assert_ne!(stored, computed)
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_eq!(fresh.stats().entries, 0, "a refused snapshot loads nothing");
}

#[test]
fn truncated_snapshot_is_rejected() {
    let snap = sample_snapshot();
    let fresh = Simulator::new();
    for keep in [snap.len() - 3, 30, 20, 5] {
        match fresh.load_cache_snapshot(&snap[..keep]) {
            Err(SnapshotError::Framing(FramingError::Truncated { expected, actual })) => {
                assert_eq!(actual, keep);
                assert!(expected > actual, "{expected} > {actual}");
            }
            other => panic!("expected Truncated at {keep} bytes, got {other:?}"),
        }
    }
    assert_eq!(fresh.stats().entries, 0);
}

#[test]
fn wrong_version_is_rejected_by_name() {
    let mut parts = unpack(&sample_snapshot());
    parts.version = SNAPSHOT_VERSION + 1;
    // Even with a re-sealed (valid) checksum the version gate fires
    // first, so the error names the schema mismatch, not corruption.
    match Simulator::new().load_cache_snapshot(&reseal(&parts)) {
        Err(SnapshotError::Framing(FramingError::WrongVersion { found, expected })) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("expected WrongVersion, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_garbage_are_rejected() {
    let mut parts = unpack(&sample_snapshot());
    parts.magic[2] ^= 0xff;
    assert!(matches!(
        Simulator::new().load_cache_snapshot(&reseal(&parts)),
        Err(SnapshotError::Framing(FramingError::BadMagic))
    ));
    assert!(matches!(
        Simulator::new().load_cache_snapshot(b"definitely not a snapshot"),
        Err(SnapshotError::Framing(FramingError::BadMagic))
    ));
}

#[test]
fn corrupt_record_tag_is_rejected_even_with_valid_checksum() {
    let mut parts = unpack(&sample_snapshot());
    // The payload opens with the two record counts; the first word of
    // the first compute record after them is the work-kind tag.
    parts.payload[16..24].copy_from_slice(&99u64.to_le_bytes());
    match Simulator::new().load_cache_snapshot(&reseal(&parts)) {
        Err(SnapshotError::Corrupted(what)) => assert!(what.contains("kind"), "{what}"),
        other => panic!("expected Corrupted, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut snap = sample_snapshot();
    snap.push(0);
    assert!(matches!(
        Simulator::new().load_cache_snapshot(&snap),
        Err(SnapshotError::Framing(FramingError::TrailingBytes { .. }))
    ));
}

#[test]
fn a_version_1_snapshot_is_refused_not_migrated() {
    let dir = std::env::temp_dir().join(format!("codesign-snapshot-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("cache.snap");
    let snap = sample_snapshot();
    // The version-1 layout: the same records, no container length word.
    let parts = unpack(&snap);
    let mut v1 = parts.magic.to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&parts.payload);
    v1.extend_from_slice(&fnv1a(&v1).to_le_bytes());
    let refusal =
        SnapshotError::Framing(FramingError::WrongVersion { found: 1, expected: SNAPSHOT_VERSION });
    assert_eq!(Simulator::new().load_cache_snapshot(&v1), Err(refusal.clone()));
    // Recovery refuses it by name and falls back to the older valid
    // generation.
    write_generation(&base, 1, &snap).expect("gen 1 writes");
    write_generation(&base, 2, &v1).expect("gen 2 writes");
    let sim = Simulator::new();
    let (loaded, refused) =
        recover(&base, |bytes| sim.load_cache_snapshot(bytes)).expect("candidates");
    assert_eq!(loaded.expect("gen 1 loads").generation, Some(1));
    assert_eq!(
        refused,
        vec![Candidate {
            path: codesign_sim::generation_path(&base, 2),
            generation: Some(2),
            value: refusal
        }]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncached_simulator_refuses_snapshots() {
    let uncached = Simulator::uncached();
    assert_eq!(uncached.cache_snapshot(), Err(SnapshotError::Uncached));
    assert_eq!(uncached.load_cache_snapshot(&sample_snapshot()), Err(SnapshotError::Uncached));
}

/// N=4 clients sweeping overlapping config slices through one shared
/// cache must do strictly fewer simulations (cache misses) than the same
/// four client workloads run serially, each from a cold cache — the
/// serve-mode payoff the tentpole exists for.
#[test]
fn concurrent_overlapping_clients_miss_less_than_serial_cold_runs() {
    let opts = SimOptions::paper_default();
    let net = zoo::squeezenet_v1_1();
    let grid: Vec<AcceleratorConfig> =
        [(8, 8, 64), (16, 16, 128), (16, 8, 64), (32, 16, 256), (8, 16, 128), (16, 16, 64)]
            .iter()
            .map(|&(array, rf, kib)| {
                AcceleratorConfig::builder()
                    .array_size(array)
                    .rf_depth(rf)
                    .global_buffer_bytes(kib * 1024)
                    .build()
                    .expect("grid configs are valid")
            })
            .collect();
    let clients = 4usize;
    // Client i sweeps configs {i, i+1, i+2}: adjacent clients overlap in
    // two of their three configs.
    let slice = |i: usize| [&grid[i], &grid[i + 1], &grid[i + 2]];

    let mut serial_misses = 0u64;
    for i in 0..clients {
        let cold = Simulator::new();
        for cfg in slice(i) {
            cold.try_simulate_network(&net, cfg, DataflowPolicy::PerLayer, opts).unwrap();
        }
        serial_misses += cold.stats().misses;
    }

    let shared = Simulator::new();
    std::thread::scope(|scope| {
        for i in 0..clients {
            let worker = shared.fork_counter();
            let net = &net;
            let configs = slice(i);
            scope.spawn(move || {
                for cfg in configs {
                    worker.try_simulate_network(net, cfg, DataflowPolicy::PerLayer, opts).unwrap();
                }
            });
        }
    });
    let concurrent = shared.stats();
    assert!(
        concurrent.misses < serial_misses,
        "shared cache must dedup overlapping work: {} concurrent misses vs {serial_misses} serial",
        concurrent.misses
    );
    assert!(concurrent.hits > 0, "{concurrent}");
}
