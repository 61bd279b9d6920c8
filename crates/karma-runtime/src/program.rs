//! Hand-built transfer programs for the executor's tests, and the
//! tests that pin how the executor and its replays interpret a program.
//!
//! The programs here are ones no plan lowers to (the lowering never
//! evicts the last block's input, for one): each test states its
//! transfers, and [`hand_built`] lays them into the step's op order.

use karma_core::program::{Op, Transfer, TransferProgram};

use crate::exec::BlockPolicy;

/// A transfer to far memory of `block`'s interiors and/or boundary,
/// issued after forward step `step`, on tier 0.
pub(crate) fn out(block: usize, step: usize, interior: bool, boundary: bool) -> Transfer {
    Transfer {
        block,
        step,
        interior,
        boundary,
        deadline: None,
        tier: 0,
    }
}

/// A fetch of `block`'s interiors and/or boundary, issued before backward
/// step `step`, due at its block's step or, carrying the boundary, at the
/// consumer's (`block + 1`), on tier 0.
pub(crate) fn fetch(block: usize, step: usize, interior: bool, boundary: bool) -> Transfer {
    Transfer {
        deadline: Some(block + usize::from(boundary)),
        ..out(block, step, interior, boundary)
    }
}

/// An executor over `boundaries` running `policies` and `transfers`: each
/// transfer out issues right after its step's forward, each fetch right
/// before its step's compute, in the order given. Built through the
/// constructor the lowering uses, with an unbounded budget.
pub(crate) fn hand_built(
    boundaries: Vec<usize>,
    policies: Vec<BlockPolicy>,
    n_layers: usize,
    transfers: &[Transfer],
) -> crate::OocExecutor {
    let n = policies.len();
    let at = |step: usize, outs: bool| {
        let due = move |t: &&Transfer| t.step == step && t.deadline.is_none() == outs;
        transfers.iter().filter(due).cloned()
    };
    let mut ops = Vec::new();
    for b in 0..n {
        ops.push(Op::Forward(b));
        ops.extend(at(b, true).map(Op::Out));
    }
    ops.push(Op::Loss);
    for b in (0..n).rev() {
        ops.extend(at(b, false).map(Op::In));
        ops.push(Op::Await(b));
        if policies[b] == BlockPolicy::Recompute {
            ops.push(Op::Recompute(b));
        }
        ops.push(Op::Backward(b));
    }
    let program = TransferProgram {
        ops,
        policies,
        dist: None,
    };
    crate::OocExecutor::from_program(boundaries, program, usize::MAX / 2, n_layers)
}

/// The transfers of the hardest hand-built program of the executor's
/// unit suite over blocks `[0, 3, 6]`: both swap blocks evict their
/// boundary, each departing one step after its interiors as a transfer of
/// its own, and both returns ride their block's swap-in. Block 1
/// (`n - 2`) evicting its boundary is what the lowering never emits.
pub(crate) fn boundary_evicting_transfers() -> Vec<Transfer> {
    vec![
        out(0, 0, true, false),
        out(0, 1, false, true),
        out(1, 1, true, false),
        out(1, 2, false, true),
        fetch(1, 2, true, true),
        fetch(0, 1, true, true),
    ]
}

/// [`boundary_evicting_transfers`] with the blocks routed to two tiers.
pub(crate) fn two_tier_boundary_evicting_executor(n_layers: usize) -> crate::OocExecutor {
    use crate::store::TierSpec;
    hand_built(
        vec![0, 3, 6],
        vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
        n_layers,
        &boundary_evicting_transfers(),
    )
    .with_tiers(
        vec![TierSpec::host(usize::MAX), TierSpec::nvme(usize::MAX)],
        vec![0, 1, 0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use karma_core::program::ExecEvent;

    #[test]
    fn the_stored_program_is_never_placed_in_place() {
        // Every step places a copy of the program: two steps in a row
        // issue the same transfers, each as the replay predicts, and the
        // stored program keeps its scheduled steps. The executor is
        // `swap-conv`'s: the conv stack planned at 65% of its peak.
        use crate::bridge::{plan_net, ResidencyReplay};
        use karma_core::opt::OptConfig;
        use karma_graph::MemoryParams;
        use karma_hw::{GpuSpec, LinkSpec, NodeSpec};
        use karma_tensor::{conv_stack, SyntheticDataset, Tensor};
        let graph = karma_zoo::micro::conv_stack_graph(6, 4);
        let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
        let gpu = GpuSpec::toy((need * 0.65) as u64, 5.0e9);
        let mut cfg = OptConfig::fast(17);
        cfg.max_cut_candidates = 5;
        let node = NodeSpec::toy(gpu, LinkSpec::toy(4.0e9));
        let planned = plan_net(&graph, 16, &node, &cfg).unwrap();
        let net = conv_stack(6, 4, 11);
        let (x, y) = SyntheticDataset::classification(32, 1, 16, 4, 21).batch(0, 16);
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let (swap_conv, _) = planned.lower(&net, &x).unwrap();
        for lanes in [0, 2] {
            let exec = swap_conv.clone().with_io_lanes(lanes);
            let stored = exec.program().ops.clone();
            let mut placed = exec.program().clone();
            placed.place_fetches(exec.ranges(), &key_bytes);
            assert_ne!(placed.ops, stored, "placement moves a fetch");
            let replay = ResidencyReplay::of(&exec, &key_bytes).unwrap();
            let (_, _, _, first) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
            let (_, _, _, second) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
            assert_eq!(first, replay.samples, "{lanes} lanes");
            assert_eq!(second, replay.samples, "{lanes} lanes");
            assert_eq!(exec.program().ops, stored, "{lanes} lanes");
        }
    }

    #[test]
    fn boundary_evicting_two_tier_schedule_lowers_to_the_exact_op_list() {
        let exec = two_tier_boundary_evicting_executor(8);
        // Each transfer by the event and keys its block flags derive,
        // checked here against the block's range.
        let t = |event, block, tier, step, keys, boundary, deadline| {
            let interior = matches!(event, ExecEvent::SwapOut | ExecEvent::SwapIn);
            let t = Transfer {
                block,
                step,
                interior,
                boundary,
                deadline,
                tier,
            };
            assert_eq!(t.event(), event, "{t:?}");
            assert_eq!(t.keys(exec.ranges()[block]), keys, "{t:?}");
            t
        };
        use ExecEvent::{BoundaryOut, SwapIn, SwapOut};
        let want = vec![
            Op::Forward(0),
            Op::Out(t(SwapOut, 0, 0, 0, 1..3, false, None)),
            Op::Forward(1),
            Op::Out(t(BoundaryOut, 0, 0, 1, 3..4, true, None)),
            Op::Out(t(SwapOut, 1, 1, 1, 4..6, false, None)),
            Op::Forward(2),
            Op::Out(t(BoundaryOut, 1, 1, 2, 6..7, true, None)),
            Op::Loss,
            Op::In(t(SwapIn, 1, 1, 2, 4..7, true, Some(2))),
            Op::Await(2),
            Op::Backward(2),
            Op::In(t(SwapIn, 0, 0, 1, 1..4, true, Some(1))),
            Op::Await(1),
            Op::Backward(1),
            Op::Await(0),
            Op::Backward(0),
        ];
        assert_eq!(exec.program().ops, want);
    }
}
