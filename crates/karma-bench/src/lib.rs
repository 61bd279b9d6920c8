//! Benchmark harness for the KARMA reproduction: one module per paper
//! artifact, each producing the same rows/series the paper reports.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig5`] | Fig. 5 — single-GPU throughput vs batch, 6 models × 6 methods |
//! | [`fig6`] | Fig. 6 — per-layer backward stall profile, ResNet-200 |
//! | [`fig7`] | Fig. 7 — best blocking for ResNet-50 + stall reductions |
//! | [`fig8`] | Fig. 8 — parity scaling, Megatron-LM & Turing-NLG |
//! | `table1` (binary) | Table I — capability matrix |
//! | [`table4`] | Table IV — Megatron-LM configurations |
//! | [`table5`] | Table V — cost/performance |
//! | [`ablation`] | DESIGN.md X1/X2 — strategy and solver ablations |
//!
//! Binaries under `src/bin/` print the tables; criterion benches under
//! `benches/` time the underlying planning/simulation kernels.
//!
//! Beyond the paper artifacts, [`report`] defines the `BENCH_*.json`
//! schema written by the perf-trajectory binaries (`planner_bench` for
//! the search, `exec_bench` for the plan→runtime execution path,
//! `serve_bench` for plan serving) and [`compare`] implements the CI
//! regression gate (`bench_compare`) over those files; its module docs
//! are the one description of the gate rules.
//!
//! **Workspace position:** the top of the dependency order — depends on
//! both the analysis-side crates and (for `exec_bench`) the execution
//! stack, and is depended on by nothing.

pub mod ablation;
pub mod compare;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod report;
pub mod table4;
pub mod table5;

/// Pretty separator for the harness binaries.
pub fn rule(title: &str) {
    println!("\n=== {title} ===");
}
