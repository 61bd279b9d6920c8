//! The `BENCH_*.json` report schema shared by the perf-trajectory
//! binaries (`planner_bench`, `exec_bench`, `serve_bench`) and the CI
//! regression gate (`bench_compare`).
//!
//! A report records one column per `(model, mode)` entry. All columns of
//! a model are **measured in the same run on the same machine**, and its
//! `baseline` column is the denominator the others are normalized
//! against. How the gate treats each column is described once, in
//! [`crate::compare`].

use serde::{Deserialize, Serialize};

/// One timed configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Workload name.
    pub model: String,
    /// Column name: `"baseline"` (the model's denominator) or any mode
    /// the bench records; [`crate::compare`] gates every one alike.
    pub mode: String,
    /// Median wall time (ms).
    pub wall_ms: f64,
    /// Worker threads the mode ran with.
    pub threads: usize,
    /// Whether evaluation memoization was on (planner benches).
    pub memoize: bool,
    /// Blocks in the produced plan — a determinism canary: the same
    /// config must reproduce the same blocking on any machine.
    pub blocks: usize,
    /// Executed near-memory peak (bytes) of this mode's run — `0` when
    /// the mode does not execute on the tensor stack (planner benches).
    /// Byte counts are machine-independent, so the gate compares them
    /// directly (no ratio normalization needed).
    pub peak_bytes: usize,
    /// Per-tier executed far-memory peaks (bytes, fastest tier first) of
    /// this mode's run — empty when the mode does not execute, or runs
    /// the single-pool executor where the whole-pool `peak_bytes` says
    /// everything. Like `peak_bytes`, gated directly across machines.
    pub peak_tier_bytes: Vec<usize>,
}

/// Per-model speedup headline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpeedup {
    /// Workload name.
    pub model: String,
    /// baseline wall time / optimized wall time.
    pub speedup: f64,
}

/// A full `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// `"smoke"` (CI-sized) or `"default"` (full trajectory anchor).
    pub config: String,
    /// Hardware threads of the recording host.
    pub host_threads: usize,
    /// All timed entries.
    pub entries: Vec<BenchEntry>,
    /// Per-model headlines.
    pub speedup: Vec<ModelSpeedup>,
}

impl BenchReport {
    /// The entry for `(model, mode)`, if present.
    pub fn entry(&self, model: &str, mode: &str) -> Option<&BenchEntry> {
        self.entries
            .iter()
            .find(|e| e.model == model && e.mode == mode)
    }

    /// Model names in first-appearance order.
    pub fn models(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.model.as_str()) {
                out.push(&e.model);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            config: "smoke".into(),
            host_threads: 4,
            entries: vec![
                BenchEntry {
                    model: "m".into(),
                    mode: "baseline".into(),
                    wall_ms: 10.0,
                    threads: 1,
                    memoize: false,
                    blocks: 5,
                    peak_bytes: 1024,
                    peak_tier_bytes: vec![],
                },
                BenchEntry {
                    model: "m".into(),
                    mode: "optimized".into(),
                    wall_ms: 4.0,
                    threads: 4,
                    memoize: true,
                    blocks: 5,
                    peak_bytes: 768,
                    peak_tier_bytes: vec![512, 256],
                },
            ],
            speedup: vec![ModelSpeedup {
                model: "m".into(),
                speedup: 2.5,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn lookup_helpers() {
        let r = report();
        assert_eq!(r.models(), vec!["m"]);
        assert_eq!(r.entry("m", "baseline").unwrap().wall_ms, 10.0);
        assert!(r.entry("m", "nope").is_none());
    }
}
