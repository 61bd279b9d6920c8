//! Property tests for the plan→runtime lowering: any plan that passes
//! `Plan::validate` either lowers to a runnable executor schedule or
//! returns the typed rejection error — never panics.

use karma_core::bridge::{lower_to_runtime, BoundaryPolicy, LoweredPolicy, RuntimeSchedule};
use karma_core::capacity::{build_training_plan, CapacityPlanOptions, PrefetchPolicy};
use karma_core::cost::BlockCosts;
use karma_core::plan::{OpKind, Plan};
use proptest::prelude::*;

/// Decode a fuzz vector into a structurally valid plan: ops are appended
/// with dependencies drawn only from earlier indices, so `Plan::push`
/// never rejects, and `Plan::validate` can only fail on duplicate
/// forwards (which we keep, to exercise the `Invalid` path too).
fn decode_plan(n_blocks: usize, genes: &[(u8, u8, u8)]) -> Plan {
    let mut p = Plan::new(n_blocks);
    for &(kind, block, dep) in genes {
        let kind = match kind % 7 {
            0 => OpKind::Forward,
            1 => OpKind::Backward,
            2 => OpKind::Recompute,
            3 => OpKind::SwapIn,
            4 => OpKind::SwapOut,
            5 => OpKind::AllReduce,
            _ => OpKind::HostUpdate,
        };
        let block = block as usize % n_blocks;
        let deps = if p.ops.is_empty() {
            vec![]
        } else {
            vec![dep as usize % p.ops.len()]
        };
        p.push(kind, block, deps);
    }
    p
}

fn toy_costs(n: usize, act: u64, swap_s: f64, capacity_blocks: f64) -> BlockCosts {
    BlockCosts {
        forward: vec![1.0; n],
        backward: vec![1.0; n],
        act_bytes: vec![act; n],
        swap_bytes: vec![act; n],
        boundary_bytes: vec![act / 8; n],
        transient_bytes: vec![act / 16; n],
        state_bytes: vec![0; n],
        grad_bytes: vec![act / 2; n],
        params: vec![1; n],
        swap_bw: act as f64 / swap_s,
        act_capacity: (capacity_blocks * act as f64) as i64,
        batch: 1,
    }
}

/// A successful lowering is internally consistent: counts match the
/// plan, and the boundary contract holds. Only swap blocks below the last
/// two evict their boundary, each departs and returns once, never before
/// the consumer's forward read it and never after the consumer's backward
/// needs it back. A returning boundary either rides its block's swap-in
/// or, when that swap-in waits for the block's own backward step, is
/// split off to return one step earlier, at the consumer's step.
fn check_lowered(plan: &Plan, s: &RuntimeSchedule) -> Result<(), TestCaseError> {
    let n_blocks = plan.n_blocks;
    prop_assert_eq!(s.n_blocks(), n_blocks);
    prop_assert_eq!(s.swap_blocks(), plan.count(OpKind::SwapOut));
    prop_assert_eq!(s.recompute_blocks(), plan.count(OpKind::Recompute));
    prop_assert_eq!(s.eviction_order().len(), s.swap_blocks());
    let evicting: Vec<usize> = (0..n_blocks)
        .filter(|&b| s.boundary[b] == BoundaryPolicy::Evict)
        .collect();
    for &b in &evicting {
        prop_assert_eq!(s.policies[b], LoweredPolicy::Swap, "block {}", b);
        prop_assert!(
            b + 2 < n_blocks,
            "the logits or the last block's input left"
        );
    }
    prop_assert_eq!(s.boundary_evict_blocks(), evicting.len());
    let mut out_seen = vec![0usize; n_blocks];
    let mut in_seen = vec![0usize; n_blocks];
    for (j, list) in s.boundary_evict_after.iter().enumerate() {
        for &e in list {
            prop_assert!(j > e, "boundary of {} out before F({})", e, e + 1);
            out_seen[e] += 1;
        }
    }
    for (j, list) in s.boundary_fetch_before.iter().enumerate() {
        for &p in list {
            prop_assert!(j > p, "boundary of {} back after B({})", p, p + 1);
            let rides = s.prefetch_before[j].contains(&p);
            let split = j == p + 1 && s.prefetch_before[p].contains(&p);
            prop_assert!(
                rides || split,
                "boundary of {} neither rides its swap-in nor splits off one step before it",
                p
            );
            in_seen[p] += 1;
        }
    }
    for b in 0..n_blocks {
        let want = usize::from(evicting.contains(&b));
        prop_assert_eq!(out_seen[b], want, "block {} departures", b);
        prop_assert_eq!(in_seen[b], want, "block {} returns", b);
    }
    Ok(())
}

/// The split branch of [`check_lowered`], deterministically: block 0's
/// swap-in waits for its own backward step, so its boundary returns on
/// its own transfer at the consumer's step 1.
#[test]
fn own_step_fetch_lowers_to_a_split_return() {
    let mut p = Plan::new(3);
    let f0 = p.push(OpKind::Forward, 0, vec![]);
    let so = p.push(OpKind::SwapOut, 0, vec![f0]);
    let f1 = p.push(OpKind::Forward, 1, vec![f0]);
    let f2 = p.push(OpKind::Forward, 2, vec![f1]);
    let b2 = p.push(OpKind::Backward, 2, vec![f2]);
    let b1 = p.push(OpKind::Backward, 1, vec![b2]);
    let si = p.push(OpKind::SwapIn, 0, vec![so, b1]);
    p.push(OpKind::Backward, 0, vec![b1, si]);
    let s = lower_to_runtime(&p).unwrap();
    assert_eq!(s.boundary_fetch_before[1], vec![0]);
    assert!(!s.prefetch_before[1].contains(&0), "split, not riding");
    check_lowered(&p, &s).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Arbitrary op soups never panic the lowering: every outcome is a
    /// schedule or a typed error. (Proptest surfaces panics as failures.)
    #[test]
    fn lowering_never_panics_on_arbitrary_plans(
        n_blocks in 1usize..6,
        kinds in prop::collection::vec(0u8..7, 0..28),
        blocks in prop::collection::vec(0u8..8, 0..28),
        deps in prop::collection::vec(0u8..64, 0..28),
    ) {
        // The shim has no tuple strategies; zip three streams instead
        // (zip truncates to the shortest, which only varies the op count).
        let genes: Vec<(u8, u8, u8)> = kinds
            .iter()
            .zip(&blocks)
            .zip(&deps)
            .map(|((&k, &b), &d)| (k, b, d))
            .collect();
        let plan = decode_plan(n_blocks, &genes);
        let lowered = lower_to_runtime(&plan);
        if plan.validate().is_err() {
            // Structural invalidity must come back as the Invalid variant.
            prop_assert!(matches!(
                lowered,
                Err(karma_core::bridge::RuntimeLowerError::Invalid(_))
            ));
        } else if let Ok(s) = &lowered {
            check_lowered(&plan, s)?;
        }
    }

    /// Everything the capacity-based schedule builder emits is
    /// executor-realizable: the bridge must accept it, with policies
    /// matching the builder's bookkeeping.
    #[test]
    fn builder_plans_always_lower(
        n in 1usize..10,
        act in 64u64..4096,
        swap_s in 0.2f64..4.0,
        capacity_blocks in 1.2f64..12.0,
        rc_mask in 0u32..256,
        prefetch_ix in 0u8..3,
        sync_bit in 0u8..2,
        eager_bit in 0u8..2,
    ) {
        let costs = toy_costs(n, act, swap_s, capacity_blocks);
        let recompute: Vec<bool> = (0..n).map(|b| rc_mask >> (b % 32) & 1 == 1).collect();
        let opts = CapacityPlanOptions {
            recompute,
            resident_from: if eager_bit == 1 { Some(n) } else { None },
            prefetch: [
                PrefetchPolicy::CapacityBased,
                PrefetchPolicy::OneAhead,
                PrefetchPolicy::None,
            ][prefetch_ix as usize],
            sync_swap_out: sync_bit == 1,
        };
        let cp = build_training_plan(&costs, &opts);
        let sched = lower_to_runtime(&cp.plan);
        prop_assert!(sched.is_ok(), "builder plan rejected: {:?}", sched.err());
        let sched = sched.unwrap();
        check_lowered(&cp.plan, &sched)?;
        for b in 0..n {
            let expect = if cp.recompute[b] {
                LoweredPolicy::Recompute
            } else if b < cp.resident_from {
                LoweredPolicy::Swap
            } else {
                LoweredPolicy::Resident
            };
            prop_assert_eq!(sched.policies[b], expect, "block {}", b);
            // The builder meets the fetch deadline for every swapped
            // block, so every swapped boundary below the last two departs.
            let expect_boundary = if expect == LoweredPolicy::Swap && b + 2 < n {
                BoundaryPolicy::Evict
            } else {
                BoundaryPolicy::Resident
            };
            prop_assert_eq!(sched.boundary[b], expect_boundary, "block {} boundary", b);
        }
    }
}
