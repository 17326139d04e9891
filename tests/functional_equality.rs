//! Whole-zoo functional bit-equality: every table network, executed by
//! the tiled-GEMM stack, must reproduce the naive reference operators
//! **bit-for-bit**, layer by layer. This is the tier-1 promotion of the
//! `codesign verify-functional` contract: the reference loop nest is the
//! executable spec, and the GEMM path is an exact refinement of it.
//!
//! Release builds cover all six table networks; debug builds — where one
//! naive reference pass alone takes minutes — keep the two lightest so
//! plain `cargo test` still runs the GEMM path end to end.

use codesign::dnn::{zoo, Network};
use codesign::tensor::{
    run_network_reference, run_network_with, NetworkActivations, Tensor, WeightStore,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The zoo slice under test: all six table networks in release, the two
/// lightest in debug.
fn networks() -> Vec<Network> {
    let mut nets = zoo::table_networks();
    if cfg!(debug_assertions) {
        nets.sort_by_key(Network::total_macs);
        nets.truncate(2);
    }
    nets
}

/// Seeded case matching `codesign verify-functional`: weight range 8 at
/// 40% sparsity, 8-bit-ish input.
fn case(net: &Network) -> (Tensor, WeightStore) {
    let mut rng = StdRng::seed_from_u64(2018);
    let weights = WeightStore::random(net, 8, 0.4, &mut rng);
    let image = Tensor::random(net.input(), 64, &mut rng);
    (image, weights)
}

/// Asserts per-layer bit-equality and names the first divergent layer.
fn assert_layers_identical(
    net: &Network,
    what: &str,
    want: &NetworkActivations,
    got: &NetworkActivations,
) {
    for (name, tensor) in want.iter() {
        match got.get(name) {
            Some(other) if other == tensor => {}
            Some(_) => panic!("{}: {what} diverges from the reference at `{name}`", net.name()),
            None => panic!("{}: {what} produced no activation for `{name}`", net.name()),
        }
    }
}

#[test]
fn gemm_executor_matches_reference_on_zoo() {
    for net in networks() {
        let (image, weights) = case(&net);
        let reference = run_network_reference(&net, &image, &weights).unwrap();
        // `0` is one worker per core, as `codesign verify-functional` runs it.
        for jobs in [1, 0, 2, 3, 8] {
            let gemm = run_network_with(&net, &image, &weights, jobs).unwrap();
            assert_layers_identical(
                &net,
                &format!("GEMM executor at jobs {jobs}"),
                &reference,
                &gemm,
            );
        }
    }
}

#[test]
fn weight_store_seeding_is_deterministic_and_jobs_invariant() {
    let net = zoo::squeezenet_v1_1();

    // Same seed + sparsity: byte-identical stores, independent of any
    // worker-pool configuration (generation is inherently serial).
    let mut a_rng = StdRng::seed_from_u64(2018);
    let mut b_rng = StdRng::seed_from_u64(2018);
    let a = WeightStore::random(&net, 8, 0.4, &mut a_rng);
    let b = WeightStore::random(&net, 8, 0.4, &mut b_rng);
    assert_eq!(a.len(), b.len());
    for layer in net.layers() {
        match (a.get(&layer.name), b.get(&layer.name)) {
            (Some(fa), Some(fb)) => assert_eq!(fa, fb, "weights diverge at `{}`", layer.name),
            (None, None) => {}
            _ => panic!("stores disagree on which layers carry weights: `{}`", layer.name),
        }
    }
    // A different seed must actually change the weights (the seed is live).
    let mut c_rng = StdRng::seed_from_u64(2019);
    let c = WeightStore::random(&net, 8, 0.4, &mut c_rng);
    assert!(
        net.layers().iter().any(|l| a.get(&l.name) != c.get(&l.name)),
        "reseeding produced byte-identical weights"
    );

    // And execution over those weights is --jobs invariant bit-for-bit.
    let mut rng = StdRng::seed_from_u64(2018);
    let weights = WeightStore::random(&net, 8, 0.4, &mut rng);
    let image = Tensor::random(net.input(), 64, &mut rng);
    let serial = run_network_with(&net, &image, &weights, 1).unwrap();
    for jobs in [2, 4, 8] {
        let parallel = run_network_with(&net, &image, &weights, jobs).unwrap();
        assert_layers_identical(&net, "parallel GEMM executor", &serial, &parallel);
    }
}
