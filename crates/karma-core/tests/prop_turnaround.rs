//! Property tests for the turnaround rule
//! (`karma_core::capacity::pinned_at_turnaround`): whichever producer set
//! the recompute flags, KARMA's plans neither swap nor recompute the last
//! block.

use karma_core::capacity::{build_training_plan, CapacityPlanOptions};
use karma_core::cost::BlockCosts;
use karma_core::opt::{knapsack_recompute, refine_recompute};
use karma_core::plan::{OpKind, Plan};
use karma_core::{Karma, KarmaOptions};
use karma_graph::{GraphBuilder, MemoryParams, Shape};
use karma_hw::{GpuSpec, LinkSpec, NodeSpec};
use proptest::prelude::*;

/// `n` blocks whose per-block figures cycle through the drawn vectors;
/// `boundary_pct` sets each boundary as a share of its activations, and the
/// capacity is `cap_pct` percent of the total activations.
fn random_costs(
    n: usize,
    fwd: &[f64],
    act: &[u64],
    boundary_pct: &[u64],
    swap_bw: f64,
    cap_pct: u64,
) -> BlockCosts {
    let act_bytes: Vec<u64> = (0..n).map(|b| act[b % act.len()]).collect();
    let total: u64 = act_bytes.iter().sum();
    BlockCosts {
        forward: (0..n).map(|b| fwd[b % fwd.len()]).collect(),
        backward: (0..n).map(|b| 2.0 * fwd[b % fwd.len()]).collect(),
        swap_bytes: act_bytes.clone(),
        boundary_bytes: (0..n)
            .map(|b| act_bytes[b] * boundary_pct[b % boundary_pct.len()] / 100)
            .collect(),
        transient_bytes: act_bytes.iter().map(|a| a / 16).collect(),
        state_bytes: vec![0; n],
        grad_bytes: act_bytes.iter().map(|a| a / 2).collect(),
        params: vec![1; n],
        swap_bw,
        act_capacity: (total * cap_pct / 100) as i64,
        act_bytes,
        batch: 1,
    }
}

/// The last block of `plan` neither leaves nor re-forwards.
fn last_block_stays(plan: &Plan) -> Result<(), TestCaseError> {
    let last = plan.n_blocks - 1;
    prop_assert_eq!(plan.find(OpKind::Recompute, last), None, "R({})", last);
    prop_assert_eq!(plan.find(OpKind::SwapOut, last), None, "Sout({})", last);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn no_recompute_producer_flags_the_last_block(
        n in 1usize..9,
        fwd in prop::collection::vec(0.05f64..4.0, 1..9),
        act in prop::collection::vec(64u64..4096, 1..9),
        boundary_pct in prop::collection::vec(0u64..60, 1..9),
        swap_bw in 10.0f64..4000.0,
        cap_pct in 20u64..140,
    ) {
        let costs = random_costs(n, &fwd, &act, &boundary_pct, swap_bw, cap_pct);
        let knap = knapsack_recompute(&costs);
        prop_assert!(!knap[n - 1], "knapsack flags the last block: {:?}", knap);
        let refined = refine_recompute(&costs);
        prop_assert!(!refined[n - 1], "refinement flags the last block: {:?}", refined);
        for opts in [
            CapacityPlanOptions::karma(n),
            CapacityPlanOptions::karma_with_recompute(refined),
            CapacityPlanOptions::karma_with_recompute(knap),
        ] {
            last_block_stays(&build_training_plan(&costs, &opts).plan)?;
        }
    }

    #[test]
    fn karma_plans_keep_the_last_block(
        layers in 3usize..10,
        channels in prop::collection::vec(2usize..12, 1..10),
        frac_pct in 25u64..90,
        link_mbps in 20u64..2000,
        seed in 0u64..1000,
    ) {
        let mut b = GraphBuilder::new("chain", Shape::chw(4, 12, 12));
        for i in 0..layers {
            b.conv(channels[i % channels.len()], 3, 1, 1);
        }
        let g = b.build();
        let mem = MemoryParams::exact();
        let need = g.peak_footprint(4, &mem) as f64;
        let node = NodeSpec::toy(
            GpuSpec::toy((need * frac_pct as f64 / 100.0) as u64, 5.0e9),
            LinkSpec::toy(link_mbps as f64 * 1e6),
        );
        if let Ok(kp) = Karma::new(node, mem).plan(&g, 4, &KarmaOptions::fast(seed)) {
            let last = kp.costs.n_blocks() - 1;
            prop_assert!(!kp.capacity_plan.recompute[last]);
            last_block_stays(&kp.capacity_plan.plan)?;
        }
    }
}

/// The `n > 160` branch of `refine_recompute` skips the sweeps; with every
/// block cheaper to recompute than to swap it still keeps the last one.
#[test]
fn fine_partitions_keep_the_last_block_too() {
    let n = 170;
    let costs = random_costs(n, &[0.01, 0.02], &[512, 1024, 768], &[10, 30], 1.0e3, 60);
    assert!((0..n).all(|b| costs.forward[b] < costs.swap_time(b)));
    let refined = refine_recompute(&costs);
    assert!(!refined[n - 1]);
    assert!(
        refined[..n - 1].iter().any(|&r| r),
        "the heuristic recomputes"
    );
    last_block_stays(
        &build_training_plan(&costs, &CapacityPlanOptions::karma_with_recompute(refined)).plan,
    )
    .unwrap();
}

/// The turnaround half of `refine_recompute`'s candidate rule,
/// deterministically. On this swap-bound chain the last block's forward
/// is free, so re-forwarding it costs no compute, and the capacity
/// bookkeeping counts a recomputed block's checkpoint only: the simulator
/// prices `R(n−1)` as no slower, here even faster. A sweep that starts
/// from it, or flips it on, never finds a flip back that strictly
/// improves the makespan. Only the rule itself keeps the flag clear.
#[test]
fn a_free_last_forward_still_never_recomputes() {
    use karma_core::lower::{simulate_plan, LowerOptions};
    let (n, act) = (4, 100u64);
    let forward = vec![0.01, 0.01, 0.01, 0.0];
    let costs = BlockCosts {
        backward: forward.iter().map(|f| 2.0 * f + 0.1).collect(),
        forward,
        act_bytes: vec![act; n],
        swap_bytes: vec![act; n],
        boundary_bytes: vec![act / 10; n],
        transient_bytes: vec![0; n],
        state_bytes: vec![0; n],
        grad_bytes: vec![act / 2; n],
        params: vec![1; n],
        // One second per block on the link: swapping is far dearer than
        // re-forwarding.
        swap_bw: act as f64,
        act_capacity: (2.5 * act as f64) as i64,
        batch: 1,
    };
    let makespan = |rc: Vec<bool>| {
        let cp = build_training_plan(&costs, &CapacityPlanOptions::karma_with_recompute(rc));
        let (_, m) = simulate_plan(&cp.plan, &costs, &LowerOptions::default());
        assert!(m.capacity_ok);
        m.makespan
    };
    // The premise: dropping `R(n−1)` never strictly helps.
    let mut rest = vec![false, true, true, false];
    let kept = makespan(rest.clone());
    rest[n - 1] = true;
    assert!(makespan(rest) <= kept, "R({}) costs time here", n - 1);
    let refined = refine_recompute(&costs);
    assert!(
        !refined[n - 1],
        "refinement flags the last block: {refined:?}"
    );
    assert!(
        refined.iter().any(|&r| r),
        "the chain recomputes: {refined:?}"
    );
}
