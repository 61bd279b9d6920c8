//! The capacity-based schedule builder — paper Sec. III-E.2 / Algorithm 1.
//!
//! This module turns block costs plus strategy knobs into an execution
//! [`Plan`]. With the default knobs it produces KARMA's capacity-based
//! schedule (Fig. 2 (b)/(c)):
//!
//! * **forward**: swap out a block's activations eagerly after its forward
//!   pass, but *stop swapping* once the remaining suffix of blocks fits in
//!   memory — those stay resident through the fwd→bwd turnaround. The last
//!   block is always in that suffix, and KARMA never recomputes it either
//!   ([`pinned_at_turnaround`]);
//! * **backward**: resident blocks process immediately; swapped blocks are
//!   *prefetched* as early as capacity allows (each swap-in is tied to the
//!   backward op whose completion frees enough memory); blocks flipped to
//!   recompute re-execute their forward instead of swapping, filling stalls;
//! * the same knobs also express the baselines' strategies (eager swap-all
//!   à la vDNN, no-prefetch à la ooc_cuDNN, per-layer sync), which is how
//!   `karma-baselines` reuses this builder.

use serde::{Deserialize, Serialize};

use crate::cost::BlockCosts;
use crate::plan::{OpKind, Plan};

/// When swapped-out blocks are fetched back during the backward phase.
///
/// A swapped block's swap-in carries its *boundary* activation along with
/// the interior, and block `b + 1`'s backward (or recompute) restarts
/// from that boundary — so the latest realizable fetch point for block
/// `b` is backward step `b + 1`, one step before its own backward (the
/// prefetch deadline rule; the last block, whose boundary is the logits
/// and never travels, fetches at its own step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetchPolicy {
    /// KARMA: issue each swap-in as soon as device capacity allows
    /// (capacity-based, Fig. 2 (b)).
    CapacityBased,
    /// vDNN-style: keep one backward step of transfer/compute overlap —
    /// swap-in of block `b` launches one step ahead of its deadline
    /// (Fig. 2 (a)).
    OneAhead,
    /// ooc_cuDNN-style: no prefetch margin; every swap-in launches at its
    /// deadline, so the consumer stalls for the full transfer.
    None,
}

/// Strategy knobs for [`build_training_plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityPlanOptions {
    /// Per-block recompute decisions (optimization problem 2 output).
    /// Recomputed blocks are never swapped; their forward activations are
    /// dropped and re-materialized during backward.
    pub recompute: Vec<bool>,
    /// Force the first resident block. `None` = derive from capacity
    /// (KARMA; [`capacity_resident_from`], which always keeps the last
    /// block). `Some(n_blocks)` = nothing resident (eager swap-everything,
    /// the Fig. 2 (a) baseline shape).
    pub resident_from: Option<usize>,
    /// Prefetch policy for the backward phase.
    pub prefetch: PrefetchPolicy,
    /// Synchronize compute with each block's swap-out (ooc_cuDNN-style
    /// per-layer synchronization; KARMA overlaps instead).
    pub sync_swap_out: bool,
}

impl CapacityPlanOptions {
    /// KARMA without recompute interleaving (Fig. 2 (b)).
    pub fn karma(n_blocks: usize) -> Self {
        CapacityPlanOptions {
            recompute: vec![false; n_blocks],
            resident_from: None,
            prefetch: PrefetchPolicy::CapacityBased,
            sync_swap_out: false,
        }
    }

    /// KARMA with the given recompute set (Fig. 2 (c)).
    pub fn karma_with_recompute(recompute: Vec<bool>) -> Self {
        CapacityPlanOptions {
            recompute,
            resident_from: None,
            prefetch: PrefetchPolicy::CapacityBased,
            sync_swap_out: false,
        }
    }
}

/// A built plan plus the planner's bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityPlan {
    /// The executable plan.
    pub plan: Plan,
    /// First block kept resident through the turnaround (`n_blocks` when
    /// nothing is resident).
    pub resident_from: usize,
    /// The recompute decisions the plan embodies.
    pub recompute: Vec<bool>,
}

/// The fwd→bwd turnaround rule: is block `b` the last of `n` blocks, the
/// one KARMA's plans neither swap nor recompute?
///
/// Taking the last block off the device between its forward and its
/// backward brackets only the loss. A swap would send its interiors out
/// after its forward and fetch them back before its backward; a
/// recompute would drop them after its forward and re-forward them right
/// after the loss. The peak is reached at the end of that forward,
/// before anything is dropped, so either round trip costs time and frees
/// no byte of it. [`capacity_resident_from`] therefore always keeps the
/// last block, and every producer of recompute flags in [`crate::opt`]
/// leaves its flag clear. Only forced options still move it: a forced
/// [`CapacityPlanOptions::resident_from`] swaps it, and a caller's own
/// `recompute[n - 1]` recomputes it.
pub fn pinned_at_turnaround(b: usize, n: usize) -> bool {
    b + 1 == n
}

/// Derive the first resident block for the capacity-based strategy: keep
/// the longest suffix of blocks whose activations (a recomputed block's
/// boundary checkpoint only) fit in the budget (capacity minus the largest
/// transient and one prefetch buffer).
///
/// The last block is resident whatever the budget says: this is the swap
/// half of the turnaround rule ([`pinned_at_turnaround`]), whose recompute
/// half keeps the last block's recompute flag clear. The result is
/// therefore at most `n_blocks - 1`.
pub fn capacity_resident_from(costs: &BlockCosts, recompute: &[bool]) -> usize {
    let n = costs.n_blocks();
    let reserve =
        costs.max_transient() as i64 + costs.act_bytes.iter().copied().max().unwrap_or(0) as i64;
    let budget = costs.act_capacity - reserve;
    let mut acc: i64 = 0;
    let mut resident_from = n;
    for b in (0..n).rev() {
        // Recomputed blocks store only their boundary checkpoint.
        acc += if recompute[b] {
            costs.boundary_bytes[b]
        } else {
            costs.act_bytes[b]
        } as i64;
        if acc > budget && !pinned_at_turnaround(b, n) {
            break;
        }
        resident_from = b;
    }
    resident_from
}

/// Build a one-iteration training plan (forward + backward) for `costs`
/// under `opts`. See the module docs for the schedule family this spans.
pub fn build_training_plan(costs: &BlockCosts, opts: &CapacityPlanOptions) -> CapacityPlan {
    let n = costs.n_blocks();
    assert_eq!(opts.recompute.len(), n, "one recompute flag per block");
    assert!(n > 0, "empty model");

    // In-core shortcut: nothing swaps, nothing recomputes.
    if costs.fits_in_core() && opts.resident_from.is_none() {
        let mut plan = Plan::new(n);
        let mut prev = None;
        for b in 0..n {
            let deps = prev.map(|x| vec![x]).unwrap_or_default();
            prev = Some(plan.push(OpKind::Forward, b, deps));
        }
        for b in (0..n).rev() {
            prev = Some(plan.push(OpKind::Backward, b, vec![prev.unwrap()]));
        }
        return CapacityPlan {
            plan,
            resident_from: 0,
            recompute: vec![false; n],
        };
    }

    let resident_from = opts
        .resident_from
        .unwrap_or_else(|| capacity_resident_from(costs, &opts.recompute))
        .min(n);

    let mut plan = Plan::new(n);
    let mut fwd_idx = vec![usize::MAX; n];
    let mut sout_idx = vec![usize::MAX; n];
    let mut sin_idx = vec![usize::MAX; n];
    let mut bwd_idx = vec![usize::MAX; n];

    // Plan-time free-byte bookkeeping, carried through both phases. Bytes
    // are credited back only at ops that become *dependencies* of the next
    // acquirer, so the schedule can never rely on memory that might still
    // be occupied at run time ("wait until buffers clear", Sec. III-E.1).
    let mut free: i64 = costs.act_capacity - costs.max_transient() as i64;
    // Completed swap-outs whose bytes haven't been credited yet.
    let mut pending_souts: std::collections::VecDeque<(usize, i64)> =
        std::collections::VecDeque::new();

    // ---- Forward phase ----
    let mut prev_compute = None;
    for b in 0..n {
        let mut deps: Vec<usize> = prev_compute.into_iter().collect();
        // Per-layer sync (ooc_cuDNN): wait for the previous swap-out too.
        if opts.sync_swap_out {
            if let Some(pb) = b.checked_sub(1) {
                if sout_idx[pb] != usize::MAX {
                    deps.push(sout_idx[pb]);
                }
            }
        }
        // Throttle: if this block's activations don't fit, the forward must
        // wait on old swap-outs to drain (their completion frees memory).
        let needed = if opts.recompute[b] {
            costs.boundary_bytes[b] as i64 // checkpoint only
        } else {
            costs.act_bytes[b] as i64
        };
        while free < needed {
            match pending_souts.pop_front() {
                Some((idx, bytes)) => {
                    deps.push(idx);
                    free += bytes;
                }
                None => break, // nothing left to drain; engine records peak
            }
        }
        fwd_idx[b] = plan.push(OpKind::Forward, b, deps);
        free -= needed;
        prev_compute = Some(fwd_idx[b]);
        let swapped = b < resident_from && !opts.recompute[b];
        if swapped {
            sout_idx[b] = plan.push(OpKind::SwapOut, b, vec![fwd_idx[b]]);
            pending_souts.push_back((sout_idx[b], costs.act_bytes[b] as i64));
        }
    }

    // ---- Backward phase ----
    // Swapped blocks in the order the backward phase will need them.
    let swapped: Vec<usize> = (0..resident_from)
        .rev()
        .filter(|&b| !opts.recompute[b])
        .collect();
    let mut next_prefetch = 0usize;
    let mut last_backward: Option<usize> = None;

    let emit_sin = |plan: &mut Plan,
                    b: usize,
                    extra_dep: Option<usize>,
                    free: &mut i64,
                    pending_souts: &mut std::collections::VecDeque<(usize, i64)>,
                    sin_idx: &mut Vec<usize>,
                    sout_idx: &[usize]| {
        let mut deps = vec![sout_idx[b]];
        if let Some(d) = extra_dep {
            deps.push(d);
        }
        // Collect drained swap-outs first (cheaper than waiting on compute).
        while *free < costs.act_bytes[b] as i64 {
            match pending_souts.pop_front() {
                Some((idx, bytes)) => {
                    deps.push(idx);
                    *free += bytes;
                }
                None => break,
            }
        }
        sin_idx[b] = plan.push(OpKind::SwapIn, b, deps);
        *free -= costs.act_bytes[b] as i64;
    };

    for j in (0..n).rev() {
        // Capacity-based prefetch: issue every swap-in that currently fits
        // (counting bytes recoverable from drained swap-outs).
        if opts.prefetch == PrefetchPolicy::CapacityBased {
            while next_prefetch < swapped.len() {
                let b = swapped[next_prefetch];
                if sin_idx[b] != usize::MAX {
                    next_prefetch += 1; // already forced at its deadline
                    continue;
                }
                let recoverable: i64 = pending_souts.iter().map(|p| p.1).sum();
                if (costs.act_bytes[b] as i64) <= free + recoverable {
                    emit_sin(
                        &mut plan,
                        b,
                        last_backward,
                        &mut free,
                        &mut pending_souts,
                        &mut sin_idx,
                        &sout_idx,
                    );
                    next_prefetch += 1;
                } else {
                    break;
                }
            }
        }
        // One-ahead prefetch (vDNN): launch each swap-in one backward
        // step ahead of its deadline, overlapping one step of compute.
        if opts.prefetch == PrefetchPolicy::OneAhead {
            while next_prefetch < swapped.len() {
                let b = swapped[next_prefetch];
                if sin_idx[b] != usize::MAX {
                    next_prefetch += 1; // already forced at its deadline
                    continue;
                }
                if b + 2 > j {
                    // The one-ahead window for this block sat at or past
                    // the turnaround (the highest swapped blocks): leave
                    // it to the deadline forcing below, and keep walking
                    // so lower blocks still get their lookahead step.
                    next_prefetch += 1;
                    continue;
                }
                if b + 2 == j {
                    emit_sin(
                        &mut plan,
                        b,
                        last_backward,
                        &mut free,
                        &mut pending_souts,
                        &mut sin_idx,
                        &sout_idx,
                    );
                    next_prefetch += 1;
                }
                break;
            }
        }
        // Own-step forcing (every policy): block j's backward is about to
        // run and its own interiors are still out — fetch them now. At
        // the turnaround this is the classic self-fetch of the last
        // block; below it, it completes a fetch the capacity rule
        // deferred (see the split-boundary deferral just after).
        let deadline_swapped = |b: usize| b < resident_from && !opts.recompute[b];
        if deadline_swapped(j) && sin_idx[j] == usize::MAX {
            emit_sin(
                &mut plan,
                j,
                last_backward,
                &mut free,
                &mut pending_souts,
                &mut sin_idx,
                &sout_idx,
            );
        }
        // Boundary-deadline forcing: block j's compute is about to read
        // block j-1's boundary, which rides Sin(j-1) — issue it now if no
        // prefetch got there first. Under the capacity rule there is one
        // escape hatch: when the fetch does not fit now but *will* fit
        // after this step's backward frees its activations, defer it to
        // block j-1's own step. The lowering then splits the boundary
        // onto its own small transfer at this step (the consumer's
        // deadline), shaving the two-adjacent-block working-set floor
        // that forcing the full fetch here would impose.
        if j >= 1 && deadline_swapped(j - 1) && sin_idx[j - 1] == usize::MAX {
            let need = costs.act_bytes[j - 1] as i64;
            let recoverable: i64 = pending_souts.iter().map(|p| p.1).sum();
            let fits_now = need <= free + recoverable;
            let fits_next = need <= free + costs.act_bytes[j] as i64 + recoverable;
            if opts.prefetch != PrefetchPolicy::CapacityBased || fits_now || !fits_next {
                emit_sin(
                    &mut plan,
                    j - 1,
                    last_backward,
                    &mut free,
                    &mut pending_souts,
                    &mut sin_idx,
                    &sout_idx,
                );
            }
        }

        // Availability of block j's activations.
        let is_swapped = j < resident_from && !opts.recompute[j];
        let mut deps: Vec<usize> = Vec::new();
        if let Some(lb) = last_backward {
            deps.push(lb);
        } else {
            deps.push(fwd_idx[n - 1]); // turnaround: after the last forward
        }
        // Block j's compute restarts from block j-1's boundary: if that
        // boundary travelled (j-1 swapped), wait for the carrying Sin.
        let lower_sin = j
            .checked_sub(1)
            .filter(|&b| deadline_swapped(b) && sin_idx[b] != usize::MAX)
            .map(|b| sin_idx[b]);
        if opts.recompute[j] {
            // Recompute interleave: re-forward j (overlaps any in-flight
            // swap-ins on the copy lane), then run its backward. The
            // interior activations re-materialize; the boundary checkpoint
            // has been resident since the forward phase.
            let interior = costs.act_bytes[j].saturating_sub(costs.boundary_bytes[j]) as i64;
            let mut r_deps = deps.clone();
            r_deps.extend(lower_sin);
            while free < interior {
                match pending_souts.pop_front() {
                    Some((idx, bytes)) => {
                        r_deps.push(idx);
                        free += bytes;
                    }
                    None => break,
                }
            }
            let r = plan.push(OpKind::Recompute, j, r_deps);
            free -= interior;
            deps = vec![r];
        } else {
            if is_swapped {
                assert_ne!(sin_idx[j], usize::MAX, "deadline forcing fetched block {j}");
                deps.push(sin_idx[j]);
            }
            deps.extend(lower_sin);
        }
        bwd_idx[j] = plan.push(OpKind::Backward, j, deps);
        last_backward = Some(bwd_idx[j]);
        free += costs.act_bytes[j] as i64;
    }

    debug_assert!(plan.validate().is_ok());
    CapacityPlan {
        plan,
        resident_from,
        recompute: opts.recompute.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{simulate_plan, LowerOptions};

    /// n blocks, 1 s fwd / 1 s bwd, `act` bytes each, swap takes `swap_s`
    /// seconds per block, capacity holds `resident` blocks (+reserves).
    fn costs(n: usize, act: u64, swap_s: f64, capacity_blocks: f64) -> BlockCosts {
        BlockCosts {
            forward: vec![1.0; n],
            backward: vec![1.0; n],
            act_bytes: vec![act; n],
            swap_bytes: vec![act; n],
            boundary_bytes: vec![0; n],
            transient_bytes: vec![0; n],
            state_bytes: vec![0; n],
            grad_bytes: vec![act / 2; n],
            params: vec![1; n],
            swap_bw: act as f64 / swap_s,
            act_capacity: (capacity_blocks * act as f64) as i64,
            batch: 1,
        }
    }

    #[test]
    fn in_core_models_get_pure_compute_plans() {
        let c = costs(4, 100, 2.0, 100.0);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(4));
        assert_eq!(cp.plan.count(OpKind::SwapOut), 0);
        assert_eq!(cp.plan.count(OpKind::SwapIn), 0);
        assert_eq!(cp.resident_from, 0);
        let (_t, m) = simulate_plan(&cp.plan, &c, &LowerOptions::default());
        assert!((m.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_strategy_keeps_a_suffix_resident() {
        // Capacity = 4 blocks; reserve = 1 transient(0) + 1 prefetch buffer
        // -> 3 blocks resident out of 6.
        let c = costs(6, 100, 2.0, 4.0);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(6));
        assert_eq!(cp.resident_from, 3);
        // Blocks 0..3 swap out; 3..6 never do.
        assert_eq!(cp.plan.count(OpKind::SwapOut), 3);
        for b in 0..3 {
            assert!(cp.plan.find(OpKind::SwapOut, b).is_some());
            assert!(cp.plan.find(OpKind::SwapIn, b).is_some());
        }
        for b in 3..6 {
            assert!(cp.plan.find(OpKind::SwapOut, b).is_none());
        }
    }

    #[test]
    fn the_last_block_never_swaps_unless_forced() {
        // Down to a capacity below one block plus the prefetch reserve,
        // where the budget alone would evict every block: the last block
        // stays resident in KARMA's plans, with or without recompute, and
        // only the forced swap-everything shape still moves it.
        let n = 6;
        let last = n - 1;
        for cap_blocks in [0.5, 1.5, 2.0, 3.0, 4.0] {
            let c = costs(n, 100, 2.0, cap_blocks);
            let mut rc = vec![false; n];
            rc[1] = true;
            for opts in [
                CapacityPlanOptions::karma(n),
                CapacityPlanOptions::karma_with_recompute(rc),
            ] {
                let cp = build_training_plan(&c, &opts);
                assert!(cp.resident_from <= last, "cap {cap_blocks}");
                assert_eq!(
                    cp.plan.find(OpKind::SwapOut, last),
                    None,
                    "cap {cap_blocks}"
                );
                assert_eq!(cp.plan.find(OpKind::SwapIn, last), None, "cap {cap_blocks}");
            }
            let forced = CapacityPlanOptions {
                resident_from: Some(n),
                ..CapacityPlanOptions::karma(n)
            };
            let cp = build_training_plan(&c, &forced);
            assert!(
                cp.plan.find(OpKind::SwapOut, last).is_some(),
                "cap {cap_blocks}"
            );
            assert!(
                cp.plan.find(OpKind::SwapIn, last).is_some(),
                "cap {cap_blocks}"
            );
        }
    }

    #[test]
    fn eager_swap_all_reproduces_fig2a_turnaround_stall() {
        // vDNN-style: everything swapped including the last block; the
        // backward of the last block must wait for its own swap-in.
        let c = costs(6, 100, 2.0, 4.0);
        let eager = CapacityPlanOptions {
            recompute: vec![false; 6],
            resident_from: Some(6),
            prefetch: PrefetchPolicy::OneAhead,
            sync_swap_out: false,
        };
        let cp = build_training_plan(&c, &eager);
        assert_eq!(cp.plan.count(OpKind::SwapOut), 6);
        assert_eq!(cp.plan.count(OpKind::SwapIn), 6);
        let (_te, me) = simulate_plan(&cp.plan, &c, &LowerOptions::default());

        let karma = build_training_plan(&c, &CapacityPlanOptions::karma(6));
        let (_tk, mk) = simulate_plan(&karma.plan, &c, &LowerOptions::default());
        assert!(
            mk.makespan < me.makespan,
            "KARMA {} should beat eager {}",
            mk.makespan,
            me.makespan
        );
        assert!(mk.occupancy > me.occupancy);
    }

    #[test]
    fn no_prefetch_is_worst() {
        let c = costs(6, 100, 2.0, 4.0);
        let no_pf = CapacityPlanOptions {
            recompute: vec![false; 6],
            resident_from: Some(6),
            prefetch: PrefetchPolicy::None,
            sync_swap_out: true,
        };
        let cp_no = build_training_plan(&c, &no_pf);
        let (_t, m_no) = simulate_plan(&cp_no.plan, &c, &LowerOptions::default());
        let one = CapacityPlanOptions {
            recompute: vec![false; 6],
            resident_from: Some(6),
            prefetch: PrefetchPolicy::OneAhead,
            sync_swap_out: false,
        };
        let cp_one = build_training_plan(&c, &one);
        let (_t, m_one) = simulate_plan(&cp_one.plan, &c, &LowerOptions::default());
        assert!(m_no.makespan > m_one.makespan);
    }

    #[test]
    fn recompute_interleave_beats_pure_swapping_when_transfer_bound() {
        // Swap of one block takes 2 s vs 1 s compute: transfer-bound, so
        // flipping alternate far blocks to recompute should shorten the
        // backward phase (Fig. 2 (c) vs (b)).
        let c = costs(8, 100, 2.0, 3.0);
        let plain = build_training_plan(&c, &CapacityPlanOptions::karma(8));
        let (_t, m_plain) = simulate_plan(&plain.plan, &c, &LowerOptions::default());

        let mut rc = vec![false; 8];
        // Recompute blocks below the resident line, alternating.
        for b in (0..plain.resident_from).step_by(2) {
            rc[b] = true;
        }
        let with_rc = build_training_plan(&c, &CapacityPlanOptions::karma_with_recompute(rc));
        let (_t, m_rc) = simulate_plan(&with_rc.plan, &c, &LowerOptions::default());
        assert!(
            m_rc.makespan < m_plain.makespan,
            "recompute {} !< plain {}",
            m_rc.makespan,
            m_plain.makespan
        );
    }

    #[test]
    fn plans_respect_capacity_in_simulation() {
        for cap_blocks in [2.5, 3.0, 4.0, 6.0] {
            let c = costs(8, 100, 1.5, cap_blocks);
            let cp = build_training_plan(&c, &CapacityPlanOptions::karma(8));
            let (_t, m) = simulate_plan(&cp.plan, &c, &LowerOptions::default());
            assert!(
                m.capacity_ok,
                "cap {cap_blocks}: peak {} vs capacity {}",
                m.peak_act_bytes, c.act_capacity
            );
        }
    }

    #[test]
    fn every_backward_has_its_data() {
        let c = costs(7, 100, 2.0, 3.5);
        let mut rc = vec![false; 7];
        rc[1] = true;
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma_with_recompute(rc));
        cp.plan.validate().unwrap();
        for b in 0..7 {
            assert!(cp.plan.find(OpKind::Backward, b).is_some());
            let swapped = b < cp.resident_from && !cp.recompute[b];
            if swapped {
                let sin = cp.plan.find(OpKind::SwapIn, b).unwrap();
                let bwd = cp.plan.find(OpKind::Backward, b).unwrap();
                assert!(cp.plan.ops[bwd].after.contains(&sin));
            }
            if cp.recompute[b] {
                assert!(cp.plan.find(OpKind::SwapOut, b).is_none());
                assert!(cp.plan.find(OpKind::Recompute, b).is_some());
            }
        }
    }

    #[test]
    fn notation_of_small_plan_is_paperlike() {
        let c = costs(3, 100, 2.0, 1.5);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(3));
        let s = cp.plan.notation();
        assert!(s.starts_with("F1"));
        assert!(s.contains("->"));
        assert!(s.contains("B3"));
    }
}
