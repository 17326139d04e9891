//! The machine-readable report summary (`BENCH_report.json`).
//!
//! One schema-versioned JSON document holding only simulator output:
//! the simulated cycles of each generated experiment, the counts of the
//! streaming-DSE space ([`DseBench`]), and the per-network headline
//! numbers (hybrid/WS/OS cycles, speedups, energy, utilization). Every
//! field regenerates exactly at any `--jobs`, so the committed
//! `results/BENCH_report.json` is checked byte for byte like the golden
//! CSVs. Wall-clock measurement belongs to `perfbench`.

use codesign_core::compare_all;
use codesign_dnn::zoo;
use codesign_trace::json::{number, quote};

use crate::dse_bench::DseBench;
use crate::experiments::{Context, Generated};

/// Schema identifier written into every report. Bump the suffix when the
/// document shape changes incompatibly. `/2` added the `contended` cache
/// counter and the `sweep_bench` section; `/3` added per-experiment
/// `sim_cycles`; `/4`, `/5` and `/6` added the `serve_bench`,
/// `functional_bench` and `dse_bench` sections. `/7` holds simulator
/// output only: it dropped every wall time and `jobs` field, the
/// schedule-dependent cache counters, and the sweep, serve and
/// functional benches, and keeps `dse_bench` as counts.
pub const BENCH_REPORT_SCHEMA: &str = "codesign-bench-report/7";

/// Headline numbers for one network on the paper-default hardware point.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkHeadline {
    /// Network name.
    pub name: String,
    /// Inference cycles on the hybrid (Squeezelerator) architecture.
    pub hybrid_cycles: u64,
    /// Inference cycles on the fixed-WS reference.
    pub ws_cycles: u64,
    /// Inference cycles on the fixed-OS reference.
    pub os_cycles: u64,
    /// Hybrid speedup over the fixed-OS reference.
    pub speedup_vs_os: f64,
    /// Hybrid speedup over the fixed-WS reference.
    pub speedup_vs_ws: f64,
    /// Hybrid energy reduction vs the fixed-OS reference (fraction).
    pub energy_reduction_vs_os: f64,
    /// Hybrid energy reduction vs the fixed-WS reference (fraction).
    pub energy_reduction_vs_ws: f64,
    /// Hybrid energy in MAC-normalized units.
    pub energy: f64,
    /// Average PE utilization of the hybrid run.
    pub utilization: f64,
    /// Hybrid inference time in milliseconds at the configured clock.
    pub time_ms: f64,
}

/// The full report document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Name and simulated cycles of each generated experiment, in
    /// generation order.
    pub experiments: Vec<(&'static str, u64)>,
    /// Counts of the pruned streaming sweep over [`DseBench::space`].
    pub dse_bench: DseBench,
    /// Per-network headlines for the paper's table networks.
    pub networks: Vec<NetworkHeadline>,
}

impl BenchReport {
    /// Assembles a report from `generated`: re-derives the per-network
    /// headlines through `ctx.sim` (with a warm cache these evaluations
    /// are answered almost entirely from memo entries) and runs the
    /// streaming-DSE space on `ctx.jobs` workers.
    pub fn collect(ctx: &Context, generated: &[Generated]) -> Self {
        let rows = compare_all(&ctx.sim, &zoo::table_networks(), &ctx.cfg, ctx.opts, ctx.energy, 1)
            .expect("the table networks simulate on the report hardware");
        let networks = rows
            .iter()
            .map(|c| {
                let hybrid_cycles = c.hybrid.total_cycles();
                NetworkHeadline {
                    name: c.network.clone(),
                    hybrid_cycles,
                    ws_cycles: c.ws.total_cycles(),
                    os_cycles: c.os.total_cycles(),
                    speedup_vs_os: c.speedup_vs_os(),
                    speedup_vs_ws: c.speedup_vs_ws(),
                    energy_reduction_vs_os: c.energy_reduction_vs_os(),
                    energy_reduction_vs_ws: c.energy_reduction_vs_ws(),
                    energy: c.hybrid.total_energy(c.energy_model()),
                    utilization: c.hybrid.average_utilization(ctx.cfg.pe_count()),
                    time_ms: ctx.cfg.cycles_to_ms(hybrid_cycles),
                }
            })
            .collect();
        Self {
            experiments: generated.iter().map(|g| (g.name, g.sim_cycles)).collect(),
            dse_bench: DseBench::run(ctx.jobs),
            networks,
        }
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let experiments: Vec<String> = self
            .experiments
            .iter()
            .map(|(name, sim_cycles)| {
                format!("    {{\"name\":{},\"sim_cycles\":{sim_cycles}}}", quote(name))
            })
            .collect();
        let networks: Vec<String> = self
            .networks
            .iter()
            .map(|n| {
                format!(
                    "    {{\"name\":{},\"hybrid_cycles\":{},\"ws_cycles\":{},\"os_cycles\":{},\
                     \"speedup_vs_os\":{},\"speedup_vs_ws\":{},\
                     \"energy_reduction_vs_os\":{},\"energy_reduction_vs_ws\":{},\
                     \"energy\":{},\"utilization\":{},\"time_ms\":{}}}",
                    quote(&n.name),
                    n.hybrid_cycles,
                    n.ws_cycles,
                    n.os_cycles,
                    number(n.speedup_vs_os),
                    number(n.speedup_vs_ws),
                    number(n.energy_reduction_vs_os),
                    number(n.energy_reduction_vs_ws),
                    number(n.energy),
                    number(n.utilization),
                    number(n.time_ms),
                )
            })
            .collect();
        let db = &self.dse_bench;
        let dse_bench = format!(
            "{{\"points\":{},\"evaluated\":{},\"pruned\":{},\"skipped\":{},\"failed\":{},\
             \"frontier\":{},\"peak_frontier\":{}}}",
            db.points,
            db.evaluated,
            db.pruned,
            db.skipped,
            db.failed,
            db.frontier,
            db.peak_frontier,
        );
        format!(
            "{{\n  \"schema\": {},\n  \"experiments\": [\n{}\n  ],\n  \"dse_bench\": {},\n  \
             \"networks\": [\n{}\n  ]\n}}\n",
            quote(BENCH_REPORT_SCHEMA),
            experiments.join(",\n"),
            dse_bench,
            networks.join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_produces_sane_headlines() {
        let ctx = Context::paper_default();
        let report = BenchReport::collect(&ctx, &[]);
        assert_eq!(report.networks.len(), zoo::table_networks().len());
        for n in &report.networks {
            assert!(n.hybrid_cycles > 0, "{}", n.name);
            assert!(n.speedup_vs_os >= 1.0 && n.speedup_vs_ws >= 1.0, "{}", n.name);
            assert!(n.time_ms > 0.0 && n.utilization > 0.0, "{}", n.name);
        }
        assert!(ctx.sim.stats().lookups() > 0, "headlines route through ctx.sim");
        let db = &report.dse_bench;
        assert_eq!(db.evaluated + db.pruned + db.skipped + db.failed, db.points);
        assert!(db.peak_frontier >= db.frontier as u64);
    }

    #[test]
    fn json_is_exactly_the_simulator_output() {
        let report = BenchReport {
            experiments: vec![("t\"1", 42)],
            dse_bench: DseBench {
                points: 4,
                evaluated: 2,
                pruned: 1,
                skipped: 1,
                failed: 0,
                frontier: 1,
                peak_frontier: 2,
            },
            networks: Vec::new(),
        };
        assert_eq!(
            report.to_json(),
            "{\n  \"schema\": \"codesign-bench-report/7\",\n  \"experiments\": [\n    \
             {\"name\":\"t\\\"1\",\"sim_cycles\":42}\n  ],\n  \"dse_bench\": \
             {\"points\":4,\"evaluated\":2,\"pruned\":1,\"skipped\":1,\"failed\":0,\
             \"frontier\":1,\"peak_frontier\":2},\n  \"networks\": [\n\n  ]\n}\n"
        );
    }
}
