//! Property-based tests of the observability layer: global counters must
//! aggregate independently of recording order (and thread), every track
//! a random program records must satisfy the span-nesting invariants,
//! and attaching a tracer must never change simulation results.

use codesign::arch::{Dataflow, DataflowPolicy};
use codesign::dnn::{Network, NetworkBuilder, Shape};
use codesign::sim::{SimOptions, Simulator};
use codesign::trace::{Category, Tracer};
use proptest::prelude::*;

/// Small deterministic generator so one `u64` seed expands into an
/// arbitrary-length op sequence (the vendored proptest has no collection
/// strategies).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state
}

const KEYS: [&str; 5] = ["sim.macs", "sim.dram.bytes", "sim.layer_sims", "alpha", "beta"];

fn counter_ops(seed: u64, n: usize) -> Vec<(&'static str, u64)> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let key = KEYS[(lcg(&mut s) % KEYS.len() as u64) as usize];
            (key, lcg(&mut s) % 1_000_000)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counter_aggregation_is_order_independent(seed in any::<u64>(), n in 1usize..=64) {
        let ops = counter_ops(seed, n);
        let forward = Tracer::enabled();
        for (k, v) in &ops {
            forward.add_counter(k, *v);
        }
        let reversed = Tracer::enabled();
        for (k, v) in ops.iter().rev() {
            reversed.add_counter(k, *v);
        }
        let threaded = Tracer::enabled();
        std::thread::scope(|scope| {
            for chunk in ops.chunks(ops.len().div_ceil(4)) {
                let t = threaded.clone();
                scope.spawn(move || {
                    for (k, v) in chunk {
                        t.add_counter(k, *v);
                    }
                });
            }
        });
        let want = forward.snapshot().counters;
        prop_assert_eq!(&want, &reversed.snapshot().counters);
        prop_assert_eq!(&want, &threaded.snapshot().counters);
    }

    #[test]
    fn random_track_programs_nest_well_formed(seed in any::<u64>(), n in 1usize..=100) {
        let tracer = Tracer::enabled();
        let mut s = seed;
        {
            let mut track = tracer.track("prop");
            for _ in 0..n {
                match lcg(&mut s) % 4 {
                    0 => track.open("o", Category::Network),
                    1 => track.leaf("l", Category::Layer, lcg(&mut s) % 1000, &[("macs", 1)]),
                    2 => track.advance(lcg(&mut s) % 100),
                    _ => track.close(),
                }
            }
            // Dropping the track must close whatever is still open.
        }
        for track in &tracer.snapshot().tracks {
            let checked = track.check_nesting();
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn tracing_never_changes_simulation_results(
        channels in 2usize..=4,
        extent in 12usize..=32,
        blocks in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let net = random_network(channels, extent, blocks, seed);
        for policy in [
            DataflowPolicy::PerLayer,
            DataflowPolicy::Fixed(Dataflow::WeightStationary),
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
        ] {
            let cfg = codesign::arch::AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            let plain = Simulator::uncached().try_simulate_network(&net, &cfg, policy, opts).unwrap();
            let traced = Simulator::uncached()
                .with_tracer(Tracer::enabled())
                .try_simulate_network(&net, &cfg, policy, opts).unwrap();
            // Bit-for-bit: `NetworkPerf` equality covers every per-layer
            // cycle count, f64 utilization, and access tally.
            prop_assert_eq!(&plain, &traced, "policy {:?} on {}", policy, net.name());
        }
    }
}

/// A random small network mixing the layer types the tracer instruments
/// (PE-array convolutions and SIMD-path pooling).
fn random_network(channels: usize, extent: usize, blocks: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("trace-prop", Shape::new(channels, extent, extent));
    let mut s = seed;
    let mut width = 8 + (lcg(&mut s) % 8) as usize;
    b.conv("stem", width, 3, 1, 1);
    for i in 0..blocks {
        match lcg(&mut s) % 4 {
            0 => {
                b.pointwise_conv(&format!("pw{i}"), width * 2);
                width *= 2;
            }
            1 => {
                b.depthwise_conv(&format!("dw{i}"), 3, 1, 1);
            }
            2 => {
                b.conv(&format!("conv{i}"), width, 3, 1, 1);
            }
            _ => {
                b.max_pool(&format!("pool{i}"), 2, 2);
            }
        }
    }
    b.finish().expect("generated networks are well-formed")
}
