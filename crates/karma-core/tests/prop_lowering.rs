//! Property tests for the plan→runtime lowering: any plan that passes
//! `Plan::validate` either lowers to a runnable transfer program or
//! returns the typed rejection error — never panics; and placing a
//! program's fetches never raises its peak nor moves a fetch past the
//! turnaround or after the step the lowering named.

use karma_core::bridge::{lower_to_runtime, LoweredPolicy};
use karma_core::capacity::{build_training_plan, CapacityPlanOptions, PrefetchPolicy};
use karma_core::cost::BlockCosts;
use karma_core::plan::{OpKind, Plan};
use karma_core::program::{block_ranges, Op, Transfer, TransferProgram};
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

/// The program's transfers out (`out`) or in, in issue order.
fn transfers(p: &TransferProgram, out: bool) -> Vec<&Transfer> {
    p.ops
        .iter()
        .filter_map(|op| match op {
            Op::Out(t) if out => Some(t),
            Op::In(t) if !out => Some(t),
            _ => None,
        })
        .collect()
}

/// A successful lowering is internally consistent: counts match the
/// plan, the ops follow the step's one order, and the boundary contract
/// holds. The ops are every forward front to back, each followed by the
/// transfers out issued after it, the loss, then per backward step back
/// to front its fetches, its wait, its recompute and its backward. Only
/// swap blocks below the last two move their boundary; each departs and
/// returns once, never before the consumer's forward read it (departure
/// step `>= b + 1`) and due back by the consumer's backward (deadline
/// `b + 1`). A returning boundary either rides its block's swap-in or,
/// when that swap-in waits for the block's own backward step, is split
/// off to return alone at the consumer's step.
fn check_lowered(plan: &Plan, s: &TransferProgram) -> Result<(), TestCaseError> {
    let n_blocks = plan.n_blocks;
    prop_assert_eq!(s.policies.len(), n_blocks);
    prop_assert_eq!(s.swap_blocks(), plan.count(OpKind::SwapOut));
    prop_assert_eq!(s.recompute_blocks(), plan.count(OpKind::Recompute));
    // The step order, each transfer named by the step it sits at.
    let mut step = 0;
    let mut turned = false;
    let mut want_fwd = 0;
    let mut want_bwd = n_blocks;
    for op in &s.ops {
        match op {
            Op::Forward(b) => {
                prop_assert!(!turned && *b == want_fwd, "F({}) out of order", b);
                (step, want_fwd) = (*b, b + 1);
            }
            Op::Out(t) => prop_assert!(!turned && t.step == step, "{:?} after F({})", t, step),
            Op::Loss => {
                prop_assert!(
                    !turned && want_fwd == n_blocks,
                    "loss before the last forward"
                );
                turned = true;
            }
            Op::In(t) => prop_assert!(turned && t.step + 1 == want_bwd, "{:?} misplaced", t),
            Op::Await(b) => {
                prop_assert!(turned && b + 1 == want_bwd, "wait for {} out of order", b);
                want_bwd = *b;
            }
            Op::Recompute(b) => {
                prop_assert_eq!(s.policies[*b], LoweredPolicy::Recompute);
                prop_assert_eq!(*b, want_bwd, "R({}) away from its wait", b);
            }
            Op::Backward(b) => prop_assert_eq!(*b, want_bwd, "B({}) away from its wait", b),
        }
    }
    prop_assert!(turned && want_bwd == 0, "the step does not end at B(0)");
    // One interior swap-out and one interior fetch per swap block.
    for out in [true, false] {
        let mut moved: Vec<usize> = transfers(s, out)
            .iter()
            .filter(|t| t.interior)
            .map(|t| t.block)
            .collect();
        moved.sort_unstable();
        let swapping: Vec<usize> = (0..n_blocks)
            .filter(|&b| s.policies[b] == LoweredPolicy::Swap)
            .collect();
        prop_assert_eq!(moved, swapping);
    }
    // The boundary contract.
    let mut out_seen = vec![0usize; n_blocks];
    let mut in_seen = vec![0usize; n_blocks];
    for t in transfers(s, true).into_iter().filter(|t| t.boundary) {
        let b = t.block;
        prop_assert_eq!(s.policies[b], LoweredPolicy::Swap, "block {}", b);
        prop_assert!(
            b + 2 < n_blocks,
            "the logits or the last block's input left"
        );
        prop_assert!(t.step > b, "boundary of {} out before F({})", b, b + 1);
        out_seen[b] += 1;
    }
    let fetches = transfers(s, false);
    for t in fetches.iter().filter(|t| t.boundary) {
        let b = t.block;
        prop_assert!(
            b + 2 < n_blocks,
            "the logits or the last block's input returned"
        );
        prop_assert_eq!(
            t.deadline,
            Some(b + 1),
            "boundary of {} due after B({})",
            b,
            b + 1
        );
        prop_assert!(t.step > b, "boundary of {} back after B({})", b, b + 1);
        let own_step = fetches
            .iter()
            .any(|f| f.block == b && f.interior && f.step == b);
        prop_assert!(
            t.interior || (t.step == b + 1 && own_step),
            "boundary of {} neither rides its swap-in nor splits off one step before it",
            b
        );
        in_seen[b] += 1;
    }
    for b in 0..n_blocks {
        let want = usize::from(s.policies[b] == LoweredPolicy::Swap && b + 2 < n_blocks);
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
    let fetches: Vec<_> = transfers(&s, false)
        .iter()
        .map(|t| (t.block, t.step, t.interior, t.boundary))
        .collect();
    assert_eq!(
        fetches,
        [(0, 1, false, true), (0, 0, true, false)],
        "split, not riding"
    );
    check_lowered(&p, &s).unwrap();
}

/// Draw the options of a capacity-builder plan over `n` blocks.
fn builder_options(
    n: usize,
    rc_mask: u32,
    prefetch_ix: u8,
    sync_bit: u8,
    eager_bit: u8,
) -> CapacityPlanOptions {
    CapacityPlanOptions {
        recompute: (0..n).map(|b| rc_mask >> (b % 32) & 1 == 1).collect(),
        resident_from: if eager_bit == 1 { Some(n) } else { None },
        prefetch: [
            PrefetchPolicy::CapacityBased,
            PrefetchPolicy::OneAhead,
            PrefetchPolicy::None,
        ][prefetch_ix as usize],
        sync_swap_out: sync_bit == 1,
    }
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
        let opts = builder_options(n, rc_mask, prefetch_ix, sync_bit, eager_bit);
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
        }
    }

    /// Placement over random builder plans, random block widths and
    /// random key bytes: the placed peak equals the unplaced one, the
    /// forward half never changes, and every fetch issues between the
    /// turnaround and the step the lowering named for its keys, never
    /// after the step that reads them.
    #[test]
    fn placement_keeps_the_peak_and_moves_fetches_only_earlier(
        n in 1usize..9,
        act in 64u64..4096,
        swap_s in 0.2f64..4.0,
        capacity_blocks in 1.2f64..12.0,
        rc_mask in 0u32..512,
        prefetch_ix in 0u8..3,
        widths in prop::collection::vec(1usize..5, 1..9),
        key_bytes in prop::collection::vec(0usize..5000, 1..40),
    ) {
        let costs = toy_costs(n, act, swap_s, capacity_blocks);
        // Bit 8 of the mask swaps eagerly.
        let opts = builder_options(n, rc_mask, prefetch_ix, 0, (rc_mask >> 8) as u8);
        let unplaced = lower_to_runtime(&build_training_plan(&costs, &opts).plan).unwrap();
        // Block `b` spans `widths[b]` layers (cycled); keys cycle through
        // the drawn sizes.
        let mut bounds = vec![0];
        for b in 1..n {
            bounds.push(bounds[b - 1] + widths[(b - 1) % widths.len()]);
        }
        let n_layers = bounds[n - 1] + widths[(n - 1) % widths.len()];
        let ranges = block_ranges(&bounds, n_layers);
        let key_bytes: Vec<usize> = (0..=n_layers).map(|k| key_bytes[k % key_bytes.len()]).collect();
        let mut placed = unplaced.clone();
        placed.place_fetches(&ranges, &key_bytes);
        prop_assert_eq!(placed.peak(&ranges, &key_bytes), unplaced.peak(&ranges, &key_bytes));
        let loss = unplaced.ops.iter().position(|op| *op == Op::Loss).unwrap();
        prop_assert_eq!(&placed.ops[..=loss], &unplaced.ops[..=loss]);
        // The step the lowering named for each part of a block's fetch.
        let named = |b: usize, boundary: bool| {
            transfers(&unplaced, false)
                .iter()
                .find(|t| t.block == b && if boundary { t.boundary } else { t.interior })
                .map(|t| t.step)
                .unwrap()
        };
        let mut moved = Vec::new();
        for t in transfers(&placed, false) {
            for (part, boundary) in [(t.interior, false), (t.boundary, true)] {
                if part {
                    let latest = named(t.block, boundary);
                    prop_assert!((latest..n).contains(&t.step), "{:?} outside {}..{}", t, latest, n);
                    moved.push((t.block, boundary));
                }
            }
            prop_assert!(t.deadline.unwrap() <= t.step, "{:?} issues after it is read", t);
        }
        // Every part is fetched once, as before placement.
        let mut want: Vec<(usize, bool)> = transfers(&unplaced, false)
            .iter()
            .flat_map(|t| [(t.block, false, t.interior), (t.block, true, t.boundary)])
            .filter(|&(_, _, part)| part)
            .map(|(b, boundary, _)| (b, boundary))
            .collect();
        want.sort_unstable();
        moved.sort_unstable();
        prop_assert_eq!(moved, want);
    }
}
