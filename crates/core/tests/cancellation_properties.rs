//! Property-based cancellation-determinism tests: for *any* sweep
//! space, chunk size, worker count, prune setting, and cancel point, the
//! frontier events streamed before a deadline fires are bit-identical to
//! a prefix of the uncancelled run's event stream — and the uncancelled
//! stream itself is independent of `--jobs`. This is the guarantee the
//! server's `"code":"deadline"` error message asserts to clients.

use codesign_arch::EnergyModel;
use codesign_core::{
    best_by_energy_delay, pareto_designs, sweep_frontier_with, sweep_full_with, FrontierConfig,
    FrontierEvent, SweepError, SweepSpace,
};
use codesign_dnn::zoo;
use codesign_sim::{CancelToken, SimOptions, Simulator};
use proptest::prelude::*;

/// Non-empty subset of `all`, drawn by bitmask.
fn subset<const N: usize>(all: [usize; N]) -> impl Strategy<Value = Vec<usize>> {
    (1usize..(1 << N)).prop_map(move |mask| {
        all.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, v)| *v).collect()
    })
}

/// An arbitrary small sweep space. The 256-byte buffer level is
/// deliberately infeasible for every array size, so generated spaces
/// mix evaluated, skipped and failed points.
fn arb_space() -> impl Strategy<Value = SweepSpace> {
    (subset([8, 16, 32]), subset([8, 16]), subset([256, 64 * 1024, 128 * 1024])).prop_map(
        |(array_sizes, rf_depths, buffer_bytes)| SweepSpace {
            array_sizes,
            rf_depths,
            buffer_bytes,
        },
    )
}

fn describe_frontier(event: &FrontierEvent<'_>) -> String {
    match event {
        FrontierEvent::Entered { index, point } => format!("{index}:enter:{point:?}"),
        FrontierEvent::Failure { index, failure } => format!("{index}:fail:{failure}"),
        FrontierEvent::Pruned { from, until } => format!("{from}..{until}:pruned"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pre_expired_deadline_cancels_before_any_event(
        space in arb_space(),
        chunk in 1usize..=5,
        jobs in 1usize..=4,
    ) {
        // A zero-budget deadline (the server's `deadline_ms:0`) is the
        // degenerate cancel point: the empty prefix, no events at all.
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let mut fired = 0usize;
        let result = sweep_frontier_with(
            &Simulator::new(),
            &zoo::tiny_darknet(),
            &space,
            SimOptions::default(),
            &EnergyModel::default(),
            &FrontierConfig { jobs, chunk, ..FrontierConfig::default() },
            &token,
            |_| fired += 1,
        );
        prop_assert_eq!(result, Err(SweepError::Cancelled));
        prop_assert_eq!(fired, 0, "events escaped an already-expired deadline");
    }

    /// The streaming frontier pipeline is a drop-in for the batch sweep:
    /// for *any* space, chunk size, worker count, and prune setting, the
    /// final frontier (and best-EDP pick) are bit-identical to
    /// `pareto_designs` + `best_by_energy_delay` over the fully
    /// materialized sweep, the event stream is jobs-invariant, and the
    /// disposition counters partition the grid.
    #[test]
    fn streamed_frontier_matches_batch_pareto_bit_for_bit(
        space in arb_space(),
        chunk in 1usize..=5,
        jobs in 1usize..=4,
        prune in any::<bool>(),
    ) {
        check_frontier_matches_batch(&space, chunk, jobs, prune)?;
    }

    /// Cancelling a streaming frontier sweep at any point leaves a
    /// delivered event stream that is a bit-identical prefix of the
    /// uncancelled run's stream (possibly the whole stream, when only
    /// eventless work remained past the cancel point).
    #[test]
    fn cancelled_frontier_stream_is_a_prefix(
        space in arb_space(),
        chunk in 1usize..=5,
        jobs in 1usize..=4,
        prune in any::<bool>(),
        cancel_after in 1usize..=12,
    ) {
        check_cancelled_frontier_prefix(&space, chunk, jobs, prune, cancel_after)?;
    }
}

/// Body of `streamed_frontier_matches_batch_pareto_bit_for_bit`, kept as
/// a plain function so the property entry in `proptest!` stays small.
fn check_frontier_matches_batch(
    space: &SweepSpace,
    chunk: usize,
    jobs: usize,
    prune: bool,
) -> Result<(), TestCaseError> {
    let net = zoo::tiny_darknet();
    let opts = SimOptions::default();
    let em = EnergyModel::default();
    let tag = format!("space={}pts chunk={chunk} jobs={jobs} prune={prune}", space.len());

    let batch = sweep_full_with(&Simulator::new(), &net, space, opts, &em, 0)
        .map_err(|e| TestCaseError::fail(format!("batch sweep failed: {e}")))?;
    let expected = pareto_designs(&batch.points);

    let run = |jobs: usize| {
        let mut events = Vec::new();
        let config = FrontierConfig { jobs, chunk, prune, ..FrontierConfig::default() };
        let outcome = sweep_frontier_with(
            &Simulator::new(),
            &net,
            space,
            opts,
            &em,
            &config,
            &CancelToken::never(),
            |e| events.push(describe_frontier(&e)),
        );
        (outcome, events)
    };
    let (outcome, events) = run(jobs);
    let outcome =
        outcome.map_err(|e| TestCaseError::fail(format!("frontier sweep failed: {e}")))?;

    prop_assert_eq!(&outcome.frontier, &expected, "frontier diverged ({})", &tag);
    prop_assert_eq!(
        outcome.best.as_ref(),
        best_by_energy_delay(&expected),
        "best-EDP diverged ({})",
        &tag
    );
    let c = outcome.counters;
    prop_assert_eq!(c.total as usize, space.len(), "{}", &tag);
    prop_assert_eq!(
        c.evaluated + c.skipped + c.failed + c.pruned,
        c.total,
        "counters must partition the grid ({})",
        &tag
    );
    prop_assert!(c.peak_frontier as usize >= outcome.frontier.len(), "{}", &tag);
    if !prune {
        prop_assert_eq!(c.pruned, 0, "{}", &tag);
        prop_assert_eq!(c.evaluated as usize, batch.points.len(), "{}", &tag);
        prop_assert_eq!(c.failed as usize, batch.failures.len(), "{}", &tag);
        prop_assert_eq!(&outcome.failures, &batch.failures, "{}", &tag);
    }

    // Worker count changes wall-time, never the event stream.
    let (serial_outcome, serial_events) = run(1);
    let serial_outcome =
        serial_outcome.map_err(|e| TestCaseError::fail(format!("serial failed: {e}")))?;
    prop_assert_eq!(&serial_events, &events, "stream not jobs-invariant ({})", &tag);
    prop_assert_eq!(&serial_outcome.frontier, &outcome.frontier, "{}", &tag);
    Ok(())
}

/// Body of `cancelled_frontier_stream_is_a_prefix`, hoisted like above.
fn check_cancelled_frontier_prefix(
    space: &SweepSpace,
    chunk: usize,
    jobs: usize,
    prune: bool,
    cancel_after: usize,
) -> Result<(), TestCaseError> {
    let net = zoo::tiny_darknet();
    let opts = SimOptions::default();
    let em = EnergyModel::default();
    let config = FrontierConfig { jobs, chunk, prune, ..FrontierConfig::default() };
    let tag = format!(
        "space={}pts chunk={chunk} jobs={jobs} prune={prune} cancel_after={cancel_after}",
        space.len()
    );

    let mut full = Vec::new();
    sweep_frontier_with(
        &Simulator::new(),
        &net,
        space,
        opts,
        &em,
        &config,
        &CancelToken::never(),
        |e| full.push(describe_frontier(&e)),
    )
    .map_err(|e| TestCaseError::fail(format!("reference sweep failed: {e}")))?;

    let token = CancelToken::never();
    let mut delivered = Vec::new();
    let result =
        sweep_frontier_with(&Simulator::new(), &net, space, opts, &em, &config, &token, |e| {
            delivered.push(describe_frontier(&e));
            if delivered.len() >= cancel_after {
                token.cancel();
            }
        });
    prop_assert!(delivered.len() <= full.len(), "over-delivered ({})", &tag);
    prop_assert_eq!(&delivered[..], &full[..delivered.len()], "not a prefix ({})", &tag);
    match result {
        // Completed before the cancel point ever fired.
        Ok(_) => prop_assert_eq!(delivered.len(), full.len(), "{}", &tag),
        // Cancelled: possibly after every event was already delivered,
        // when only eventless segments remained.
        Err(e) => prop_assert_eq!(e, SweepError::Cancelled, "{}", &tag),
    }
    Ok(())
}
