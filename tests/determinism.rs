//! The tentpole contract of the parallel + memoized simulation engine:
//! worker-thread count and cache state change wall-time only, never
//! results. A parallel sweep through a caching [`Simulator`] must be
//! bit-identical — same points, same order, same f64 bits — to a serial
//! sweep that recomputes everything.

use codesign::arch::EnergyModel;
use codesign::core::{sweep_full_with, DesignPoint, SweepOutcome, SweepSpace};
use codesign::dnn::zoo;
use codesign::sim::{SimOptions, Simulator};
use codesign::trace::Tracer;

fn assert_bit_identical(serial: &[DesignPoint], parallel: &[DesignPoint]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.params, p.params, "grid order must be deterministic");
        assert_eq!(s.cycles, p.cycles, "{}", s.params);
        // Bit-for-bit float equality, not approximate: the cache memoizes a
        // deterministic function, so even the f64 payloads must match.
        assert_eq!(s.energy.to_bits(), p.energy.to_bits(), "{}", s.params);
        assert_eq!(s.utilization.to_bits(), p.utilization.to_bits(), "{}", s.params);
        assert_eq!(s.area.to_bits(), p.area.to_bits(), "{}", s.params);
    }
}

#[test]
fn parallel_cached_sweep_is_bit_identical_to_serial_uncached() {
    let space = SweepSpace::paper_default();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();
    for net in [zoo::squeezenet_v1_1(), zoo::squeezenext()] {
        let serial =
            sweep_full_with(&Simulator::uncached(), &net, &space, opts, &energy, 1).unwrap().points;
        let sim = Simulator::new();
        let parallel = sweep_full_with(&sim, &net, &space, opts, &energy, 8).unwrap().points;
        assert_bit_identical(&serial, &parallel);
        assert_eq!(serial.len(), space.len(), "paper grid is fully valid");
        // Traffic entries are shared across every sweep point with the
        // same buffer size (and across both dataflows), so the parallel
        // sweep hits heavily even with per-network dedup absorbing the
        // fire-module repeats.
        assert!(sim.stats().hits > 0, "{}", sim.stats());
    }
}

#[test]
fn tracing_on_preserves_determinism() {
    // The observability layer must be a pure observer: sweeping with an
    // enabled tracer — serial or parallel — reproduces the untraced
    // results bit-for-bit, and everything the trace derives from spans
    // is independent of the worker schedule.
    let space = SweepSpace::paper_default();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();
    let net = zoo::squeezenet_v1_1();
    let untraced =
        sweep_full_with(&Simulator::uncached(), &net, &space, opts, &energy, 1).unwrap().points;

    let serial_tracer = Tracer::enabled();
    let serial = sweep_full_with(
        &Simulator::new().with_tracer(serial_tracer.clone()),
        &net,
        &space,
        opts,
        &energy,
        1,
    )
    .unwrap()
    .points;
    let parallel_tracer = Tracer::enabled();
    let parallel = sweep_full_with(
        &Simulator::new().with_tracer(parallel_tracer.clone()),
        &net,
        &space,
        opts,
        &energy,
        8,
    )
    .unwrap()
    .points;
    assert_bit_identical(&untraced, &serial);
    assert_bit_identical(&untraced, &parallel);

    // Span-derived trace data (tracks are canonically ordered in the
    // snapshot) must not depend on the thread count...
    let serial_data = serial_tracer.snapshot();
    let parallel_data = parallel_tracer.snapshot();
    assert!(serial_data.span_count() > 0);
    assert_eq!(serial_data.tracks, parallel_data.tracks);

    // ...and neither must any global counter except the cache hit/miss
    // pair, which is documented as schedule-dependent (racing workers may
    // both miss the same key).
    let non_cache = |data: &codesign::trace::TraceData| {
        data.counters
            .iter()
            .filter(|(name, _)| !name.starts_with("sim.cache."))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(non_cache(&serial_data), non_cache(&parallel_data));
}

#[test]
fn repeated_cached_sweeps_are_stable() {
    // A second sweep over a warm cache, in the same engine or in a fresh
    // one warm-started from its snapshot, must re-simulate nothing and
    // reproduce the cold run exactly. The workload is `codesign serve`'s
    // warm-start case: the paper grid over the table zoo.
    let space = SweepSpace::paper_default();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();
    let nets = zoo::table_networks();
    let sweep_zoo = |sim: &Simulator| -> Vec<SweepOutcome> {
        nets.iter()
            .map(|net| sweep_full_with(sim, net, &space, opts, &energy, 4).unwrap())
            .collect()
    };
    let assert_same = |cold: &[SweepOutcome], warm: &[SweepOutcome]| {
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter().zip(warm) {
            assert_bit_identical(&c.points, &w.points);
        }
    };

    let sim = Simulator::new();
    let cold = sweep_zoo(&sim);
    assert_eq!(cold.iter().map(|o| o.points.len()).sum::<usize>(), 162, "6 networks x 27 points");
    assert!(cold.iter().all(|o| o.failures.is_empty()), "the paper grid evaluates cleanly");
    let misses_after_cold = sim.stats().misses;
    assert_same(&cold, &sweep_zoo(&sim));
    assert_eq!(sim.stats().misses, misses_after_cold, "warm sweep must not re-simulate");

    let restored = Simulator::new();
    restored.load_cache_snapshot(&sim.cache_snapshot().unwrap()).unwrap();
    assert_same(&cold, &sweep_zoo(&restored));
    let stats = restored.stats();
    assert!(stats.hits > 0, "{stats}");
    assert_eq!(stats.misses, 0, "a snapshot warm start must not re-simulate: {stats}");
}
