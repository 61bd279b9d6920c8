//! The CI bench-regression gate (`check-bench`): compares a freshly
//! generated [`BenchReport`] against the committed baseline.
//!
//! This is the one description of the gate rules; the report schema,
//! the `bench_compare` binary, CI and the README point here.
//!
//! A report records one column per `(model, mode)` entry. The committed
//! report and the fresh one generally come from different machines, so
//! absolute wall times are never compared across them. No rule names a
//! mode except `baseline`, the per-model denominator: a column a bench
//! adds is gated as soon as the committed report records it. Every
//! committed column must pass:
//!
//! * **presence** — the fresh report records the same `(model, mode)`;
//! * **block-count canary** — `blocks` is unchanged: the same search
//!   config must reproduce the same blocking on any host;
//! * **ratio gate** (every column except `baseline`) — `wall_ms` divided
//!   by the model's `baseline` wall may not grow by more than
//!   `max_slowdown` (default [`DEFAULT_MAX_SLOWDOWN`]). Machine speed
//!   cancels in the ratio, since both walls come from the same run, and
//!   a host with more cores only makes a parallel column faster;
//! * **peak gates** — `peak_bytes` and each `peak_tier_bytes` entry may
//!   not grow by more than [`DEFAULT_MAX_PEAK_GROWTH`]. Byte counts of a
//!   deterministic plan compare directly across machines. A `0` on
//!   either side means the column does not execute (planner benches, an
//!   unused tier) and skips that gate; a changed tier count fails.
//!
//! On top of the per-column rules, each [`HEADLINES`] row requires the
//! fresh report's `faster` wall to beat its `slower` wall, for every
//! committed model whose fresh report records both. Both walls come from
//! the same run, so they compare directly: no normalization, no
//! tolerance.
//!
//! Reports whose `config` differs (smoke vs default) are refused
//! outright, as is a non-finite or negative `max_slowdown`. Models and
//! columns only the fresh report records are not gated until a committed
//! baseline carries them.

use crate::report::BenchReport;

/// Default slowdown tolerance: fail beyond a 25% ratio regression.
pub const DEFAULT_MAX_SLOWDOWN: f64 = 0.25;

/// Executed-peak-bytes tolerance: fail beyond 10% growth. The headroom
/// only absorbs legitimate small plan shifts (a real residency
/// regression — e.g. boundary eviction silently dropped — blows well
/// past it).
pub const DEFAULT_MAX_PEAK_GROWTH: f64 = 0.10;

/// The headline comparisons, `(faster, slower, what slower is)`:
///
/// * sharding the global batch across workers must beat running it
///   sequentially on one device, which pays real extra offload work;
/// * the asynchronous swap engine must beat the synchronous one on the
///   transfer-bound workload, where the only difference is whether the
///   priced wire time blocks compute.
pub const HEADLINES: &[(&str, &str, &str)] = &[
    (
        "distributed",
        "reference",
        "the sequential global-batch reference",
    ),
    ("overlap", "optimized", "the synchronous optimized engine"),
];

/// The column every other column's wall time is normalized against.
const BASELINE: &str = "baseline";

/// Outcome of one gate evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateOutcome {
    /// Human-readable per-model observations.
    pub notes: Vec<String>,
    /// Violations; non-empty fails the gate.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// True when no violation was recorded.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn record(&mut self, ok: bool, note: String, failure: String) {
        if ok {
            self.notes.push(note);
        } else {
            self.failures.push(failure);
        }
    }

    /// The peak gate on one byte count of column `col`.
    fn gate_peak(&mut self, col: &str, what: &str, old: usize, new: usize) {
        if old == 0 || new == 0 {
            return;
        }
        let limit = old as f64 * (1.0 + DEFAULT_MAX_PEAK_GROWTH);
        self.record(
            new as f64 <= limit,
            format!("{col}: {what} {new} vs committed {old} — ok"),
            format!(
                "{col}: {what} regressed from {old} to {new} (limit {limit:.0}, tolerance {:.0}%)",
                DEFAULT_MAX_PEAK_GROWTH * 100.0
            ),
        );
    }
}

/// Compare `fresh` against `baseline` under the rules in the
/// [module docs](self), tolerating up to `max_slowdown` (e.g. `0.25` =
/// 25%) growth of each column's wall-time ratio to `baseline`.
pub fn compare_reports(
    baseline: &BenchReport,
    fresh: &BenchReport,
    max_slowdown: f64,
) -> GateOutcome {
    let mut out = GateOutcome::default();
    if !(max_slowdown.is_finite() && max_slowdown >= 0.0) {
        out.failures.push(format!(
            "--max-slowdown must be a finite, non-negative fraction, got {max_slowdown}"
        ));
        return out;
    }
    if baseline.config != fresh.config {
        out.failures.push(format!(
            "config mismatch: baseline is '{}', fresh is '{}' — regenerate the committed \
             baseline with the same mode",
            baseline.config, fresh.config
        ));
        return out;
    }
    for model in baseline.models() {
        let base_wall = |r: &BenchReport| r.entry(model, BASELINE).map(|e| e.wall_ms.max(1e-9));
        let (b_base, f_base) = (base_wall(baseline), base_wall(fresh));
        if b_base.is_none() {
            out.notes.push(format!(
                "{model}: no committed {BASELINE} column, ratio gates skipped"
            ));
        }
        for b in baseline.entries.iter().filter(|e| e.model == model) {
            let mode = b.mode.as_str();
            let Some(f) = fresh.entry(model, mode) else {
                out.failures.push(format!(
                    "{model}: {mode} column missing from the fresh report"
                ));
                continue;
            };
            let col = format!("{model}/{mode}");
            if b.blocks != f.blocks {
                out.failures.push(format!(
                    "{col}: plan drifted from {} to {} blocks under an unchanged config — the \
                     search is no longer deterministic",
                    b.blocks, f.blocks
                ));
            }
            if let (false, Some(bb), Some(fb)) = (mode == BASELINE, b_base, f_base) {
                let (r_old, r_new) = (b.wall_ms / bb, f.wall_ms / fb);
                let limit = r_old * (1.0 + max_slowdown);
                out.record(
                    r_new <= limit,
                    format!(
                        "{col}: ratio {r_new:.3} vs committed {r_old:.3} (limit {limit:.3}) — ok"
                    ),
                    format!(
                        "{model}: {mode}/{BASELINE} wall-time ratio regressed from {r_old:.3} to \
                         {r_new:.3} (limit {limit:.3}, tolerance {:.0}%)",
                        max_slowdown * 100.0
                    ),
                );
            }
            out.gate_peak(&col, "executed peak bytes", b.peak_bytes, f.peak_bytes);
            if b.peak_tier_bytes.is_empty() {
                continue;
            }
            if b.peak_tier_bytes.len() != f.peak_tier_bytes.len() {
                out.failures.push(format!(
                    "{col}: tier stack drifted from {} to {} tiers under an unchanged config",
                    b.peak_tier_bytes.len(),
                    f.peak_tier_bytes.len()
                ));
                continue;
            }
            for (t, (&bp, &fp)) in b.peak_tier_bytes.iter().zip(&f.peak_tier_bytes).enumerate() {
                out.gate_peak(&col, &format!("tier {t} peak"), bp, fp);
            }
        }
        for &(faster, slower, what) in HEADLINES {
            let (Some(a), Some(s)) = (fresh.entry(model, faster), fresh.entry(model, slower))
            else {
                continue;
            };
            out.record(
                a.wall_ms < s.wall_ms,
                format!(
                    "{model}: {faster} {:.3} ms/step beats {what} {:.3} ms/step ({:.2}x) — ok",
                    a.wall_ms,
                    s.wall_ms,
                    s.wall_ms / a.wall_ms.max(1e-9)
                ),
                format!(
                    "{model}: {faster} ({:.3} ms/step) no longer beats {what} ({:.3} ms/step)",
                    a.wall_ms, s.wall_ms
                ),
            );
        }
    }
    for model in fresh.models() {
        if !baseline.models().contains(&model) {
            out.notes
                .push(format!("{model}: new workload, no committed baseline yet"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchEntry, ModelSpeedup};

    fn entry(model: &str, mode: &str, wall_ms: f64, threads: usize, blocks: usize) -> BenchEntry {
        BenchEntry {
            model: model.into(),
            mode: mode.into(),
            wall_ms,
            threads,
            memoize: mode == "optimized",
            blocks,
            peak_bytes: 0,
            peak_tier_bytes: vec![],
        }
    }

    fn report(config: &str, pairs: &[(&str, f64, f64, usize)]) -> BenchReport {
        BenchReport {
            config: config.into(),
            host_threads: 4,
            entries: pairs
                .iter()
                .flat_map(|&(m, base, opt, blocks)| {
                    vec![
                        entry(m, "baseline", base, 1, blocks),
                        entry(m, "optimized", opt, 4, blocks),
                    ]
                })
                .collect(),
            speedup: pairs
                .iter()
                .map(|&(m, base, opt, _)| ModelSpeedup {
                    model: m.into(),
                    speedup: base / opt,
                })
                .collect(),
        }
    }

    fn with_distributed(mut r: BenchReport, m: &str, wall_ms: f64, blocks: usize) -> BenchReport {
        r.entries.push(entry(m, "distributed", wall_ms, 1, blocks));
        r
    }

    #[test]
    fn distributed_column_gates_like_optimized() {
        let base = || report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let old = with_distributed(base(), "resnet", 200.0, 7);
        // 5% drift: within tolerance.
        let ok = with_distributed(base(), "resnet", 210.0, 7);
        assert!(compare_reports(&old, &ok, DEFAULT_MAX_SLOWDOWN).passed());
        // 50% ratio regression of the distributed step: fails.
        let bad = with_distributed(base(), "resnet", 300.0, 7);
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("distributed/baseline"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn dropped_distributed_column_fails() {
        let old = with_distributed(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "resnet",
            200.0,
            7,
        );
        let new = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let out = compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(out.failures[0].contains("distributed column missing"));
    }

    #[test]
    fn baseline_without_distributed_column_skips_the_gate() {
        // Old baselines predate the column: a fresh report carrying it is
        // noted as uncovered, not failed.
        let old = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let new = with_distributed(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "resnet",
            500.0,
            7,
        );
        assert!(compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN).passed());
    }

    #[test]
    fn distributed_blocks_drift_fails() {
        let old = with_distributed(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "resnet",
            200.0,
            7,
        );
        let new = with_distributed(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "resnet",
            200.0,
            9,
        );
        let out = compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(out.failures[0].contains("deterministic"));
    }

    fn with_elastic(mut r: BenchReport, m: &str, wall_ms: f64, blocks: usize) -> BenchReport {
        r.entries.push(entry(m, "elastic", wall_ms, 1, blocks));
        r
    }

    #[test]
    fn elastic_column_gates_like_the_other_executed_modes() {
        let base = || report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let old = with_elastic(base(), "resnet", 250.0, 7);
        // Within tolerance: passes.
        let ok = with_elastic(base(), "resnet", 260.0, 7);
        assert!(compare_reports(&old, &ok, DEFAULT_MAX_SLOWDOWN).passed());
        // A churn cycle that got 60% slower relative to baseline: fails.
        let bad = with_elastic(base(), "resnet", 400.0, 7);
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("elastic/baseline"),
            "{:?}",
            out.failures
        );
        // Dropping the column entirely also fails.
        let out = compare_reports(&old, &base(), DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(out.failures[0].contains("elastic column missing"));
    }

    fn with_peak(mut r: BenchReport, mode: &str, peak: usize) -> BenchReport {
        for e in &mut r.entries {
            if e.mode == mode {
                e.peak_bytes = peak;
            }
        }
        r
    }

    #[test]
    fn peak_bytes_regression_beyond_ten_percent_fails() {
        let old = with_peak(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "optimized",
            1000,
        );
        let ok = with_peak(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "optimized",
            1099,
        );
        assert!(compare_reports(&old, &ok, DEFAULT_MAX_SLOWDOWN).passed());
        let bad = with_peak(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "optimized",
            1200,
        );
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("executed peak bytes regressed"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn peak_bytes_gate_skips_unrecorded_columns() {
        // A zero on either side means the mode never executes (planner
        // benches): no gate, and shrinking peaks always pass.
        let old = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let new = with_peak(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "optimized",
            999_999,
        );
        assert!(compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN).passed());
        let old = with_peak(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "optimized",
            1000,
        );
        let smaller = with_peak(
            report("smoke", &[("resnet", 100.0, 40.0, 7)]),
            "optimized",
            500,
        );
        assert!(compare_reports(&old, &smaller, DEFAULT_MAX_SLOWDOWN).passed());
    }

    fn with_tiered(mut r: BenchReport, m: &str, tiers: Vec<usize>) -> BenchReport {
        let mut e = entry(m, "tiered", 50.0, 1, 7);
        e.peak_bytes = tiers.iter().sum();
        e.peak_tier_bytes = tiers;
        r.entries.push(e);
        r
    }

    #[test]
    fn per_tier_peak_regression_beyond_ten_percent_fails() {
        let base = || report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let old = with_tiered(base(), "resnet", vec![1000, 4000]);
        // 5% growth in the fast tier: within tolerance.
        let ok = with_tiered(base(), "resnet", vec![1050, 3950]);
        let out = compare_reports(&old, &ok, DEFAULT_MAX_SLOWDOWN);
        assert!(out.passed(), "{:?}", out.failures);
        // 20% growth in the fast tier regresses even though the
        // whole-stack peak is unchanged.
        let bad = with_tiered(base(), "resnet", vec![1200, 3800]);
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("tier 0 peak regressed"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn tier_count_drift_fails() {
        let base = || report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let old = with_tiered(base(), "resnet", vec![1000, 4000]);
        let new = with_tiered(base(), "resnet", vec![1000, 2000, 2000]);
        let out = compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("tier stack drifted"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn tiered_column_wall_time_gates_like_distributed() {
        let base = || report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let old = with_tiered(base(), "resnet", vec![1000, 4000]);
        let mut bad = with_tiered(base(), "resnet", vec![1000, 4000]);
        bad.entries.last_mut().unwrap().wall_ms = 90.0; // 80% ratio regression
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("tiered/baseline wall-time ratio")),
            "{:?}",
            out.failures
        );
        // Dropping the column also fails.
        let out = compare_reports(&old, &base(), DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(out.failures[0].contains("tiered column missing"));
    }

    fn with_reference(mut r: BenchReport, m: &str, wall_ms: f64, blocks: usize) -> BenchReport {
        r.entries.push(entry(m, "reference", wall_ms, 1, blocks));
        r
    }

    #[test]
    fn distributed_must_beat_the_sequential_reference() {
        let base = || {
            with_distributed(
                report("smoke", &[("conv", 100.0, 40.0, 7)]),
                "conv",
                60.0,
                7,
            )
        };
        let old = with_reference(base(), "conv", 90.0, 9);
        // Fresh run keeps the win: passes, with a note recording the margin.
        let ok = with_reference(base(), "conv", 90.0, 9);
        let out = compare_reports(&old, &ok, DEFAULT_MAX_SLOWDOWN);
        assert!(out.passed(), "{:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("beats the sequential")));
        // Fresh run loses the win — even inside the ratio tolerance,
        // the headline comparison has no tolerance.
        let mut bad = with_reference(base(), "conv", 90.0, 9);
        for e in &mut bad.entries {
            if e.mode == "distributed" {
                e.wall_ms = 95.0;
            }
        }
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("no longer beats the sequential")),
            "{:?}",
            out.failures
        );
        // Dropping the reference column entirely also fails.
        let out = compare_reports(&old, &base(), DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("reference column missing")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn reference_column_wall_time_gates_like_distributed() {
        let base = || {
            with_distributed(
                report("smoke", &[("conv", 100.0, 40.0, 7)]),
                "conv",
                60.0,
                7,
            )
        };
        let old = with_reference(base(), "conv", 90.0, 9);
        // The reference getting 80% faster relative to baseline would
        // shrink the committed margin silently: the ratio gate is
        // two-sided only for slowdowns, so speedups pass — but a
        // slowdown of the reference is NOT a regression of our code, it
        // still must pass the ratio gate upward within tolerance.
        let mut slower = with_reference(base(), "conv", 100.0, 9);
        slower.entries.last_mut().unwrap().wall_ms = 100.0; // +11%: within 25%
        let out = compare_reports(&old, &slower, DEFAULT_MAX_SLOWDOWN);
        assert!(out.passed(), "{:?}", out.failures);
    }

    fn with_overlap(mut r: BenchReport, m: &str, wall_ms: f64, blocks: usize) -> BenchReport {
        r.entries.push(entry(m, "overlap", wall_ms, 1, blocks));
        r
    }

    #[test]
    fn overlap_must_beat_the_synchronous_optimized_column() {
        let base = || report("smoke", &[("conv", 100.0, 40.0, 7)]);
        let old = with_overlap(base(), "conv", 25.0, 7);
        // Fresh run keeps the win: passes, with a note recording the margin.
        let ok = with_overlap(base(), "conv", 30.0, 7);
        let out = compare_reports(&old, &ok, DEFAULT_MAX_SLOWDOWN);
        assert!(out.passed(), "{:?}", out.failures);
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("beats the synchronous optimized")),
            "{:?}",
            out.notes
        );
        // Fresh run loses the win — the headline comparison has no
        // tolerance, even when the ratio gate would still pass.
        let bad = with_overlap(base(), "conv", 41.0, 7);
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("no longer beats the synchronous optimized")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn overlap_column_gates_like_the_other_executed_modes() {
        let base = || report("smoke", &[("conv", 100.0, 40.0, 7)]);
        let old = with_overlap(base(), "conv", 20.0, 7);
        // Within ratio tolerance: passes.
        let ok = with_overlap(base(), "conv", 22.0, 7);
        assert!(compare_reports(&old, &ok, DEFAULT_MAX_SLOWDOWN).passed());
        // A 75% ratio regression of the overlap step: fails (still under
        // the optimized wall, so only the ratio gate trips).
        let bad = with_overlap(base(), "conv", 35.0, 7);
        let out = compare_reports(&old, &bad, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("overlap/baseline wall-time ratio")),
            "{:?}",
            out.failures
        );
        // Dropping the column entirely also fails.
        let out = compare_reports(&old, &base(), DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("overlap column missing")),
            "{:?}",
            out.failures
        );
        // A blocks drift in the overlap column trips the determinism
        // canary.
        let drifted = with_overlap(base(), "conv", 20.0, 9);
        let out = compare_reports(&old, &drifted, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(
            out.failures.iter().any(|f| f.contains("deterministic")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn identical_reports_pass() {
        let r = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let out = compare_reports(&r, &r, DEFAULT_MAX_SLOWDOWN);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn synthetic_30_percent_ratio_regression_fails() {
        let old = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        // Same baseline cost, optimized 30% slower in ratio terms.
        let new = report("smoke", &[("resnet", 100.0, 52.0, 7)]);
        let out = compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(out.failures[0].contains("regressed"), "{:?}", out.failures);
    }

    #[test]
    fn ten_percent_regression_is_within_tolerance() {
        let old = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let new = report("smoke", &[("resnet", 100.0, 44.0, 7)]);
        assert!(compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN).passed());
    }

    #[test]
    fn machine_speed_is_normalized_away() {
        // The CI runner is 3x slower across the board: absolute times grow,
        // the ratio does not, the gate passes.
        let old = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let new = report("smoke", &[("resnet", 300.0, 120.0, 7)]);
        assert!(compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN).passed());
    }

    #[test]
    fn blocks_drift_fails_the_determinism_canary() {
        let old = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let new = report("smoke", &[("resnet", 100.0, 40.0, 9)]);
        let out = compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(out.failures[0].contains("deterministic"));
    }

    #[test]
    fn missing_model_fails_new_model_notes() {
        let old = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let new = report("smoke", &[("vgg", 80.0, 30.0, 5)]);
        let out = compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed(), "dropped coverage must fail");
        assert!(out.notes.iter().any(|n| n.contains("new workload")));
    }

    #[test]
    fn config_mismatch_is_refused() {
        let old = report("default", &[("resnet", 100.0, 40.0, 7)]);
        let new = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        let out = compare_reports(&old, &new, DEFAULT_MAX_SLOWDOWN);
        assert!(!out.passed());
        assert!(out.failures[0].contains("config mismatch"));
    }

    #[test]
    fn non_finite_or_negative_tolerance_is_refused() {
        let r = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let out = compare_reports(&r, &r, bad);
            assert!(!out.passed(), "tolerance {bad} must be refused");
            assert!(
                out.failures[0].contains("--max-slowdown"),
                "{:?}",
                out.failures
            );
        }
    }

    #[test]
    fn unlisted_columns_are_gated_by_every_rule() {
        // A mode no rule names still gets presence, blocks, ratio and
        // peak gates once the committed report records it.
        let with_foo = |wall_ms: f64, blocks: usize, peak: usize| {
            let mut r = report("smoke", &[("resnet", 100.0, 40.0, 7)]);
            let mut e = entry("resnet", "foo", wall_ms, 1, blocks);
            e.peak_bytes = peak;
            r.entries.push(e);
            r
        };
        let old = with_foo(60.0, 7, 1000);
        let out = compare_reports(&old, &with_foo(60.0, 7, 1000), DEFAULT_MAX_SLOWDOWN);
        assert!(out.passed(), "{:?}", out.failures);
        for (fresh, rule) in [
            (
                report("smoke", &[("resnet", 100.0, 40.0, 7)]),
                "foo column missing",
            ),
            (with_foo(60.0, 8, 1000), "no longer deterministic"),
            (
                with_foo(90.0, 7, 1000),
                "foo/baseline wall-time ratio regressed",
            ),
            (with_foo(60.0, 7, 1200), "executed peak bytes regressed"),
        ] {
            let out = compare_reports(&old, &fresh, DEFAULT_MAX_SLOWDOWN);
            assert!(
                out.failures.iter().any(|f| f.contains(rule)),
                "{rule}: {:?}",
                out.failures
            );
        }
    }
}
