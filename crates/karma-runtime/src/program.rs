//! The transfer program: an executor's schedule lowered once into a flat,
//! step-ordered op list.
//!
//! A KARMA step is one op order (paper Fig. 1/Fig. 3): forward, swap-out,
//! swap-in at its deadline, recompute, backward. [`crate::OocExecutor`]
//! interprets this list, and the plan→runtime bridge folds the same list
//! into its residency and swap-timing predictions, so the three agree by
//! construction. Whether a boundary rides its block's transfer or moves
//! on its own, when each fetch is due, and which tier and I/O lane each
//! transfer uses, is decided here and nowhere else.

use std::ops::Range;

use crate::exec::{BlockPolicy, ExecEvent, OocExecutor};

/// One far-memory transfer: a run of one block's near-memory keys moving
/// as a single job on the block's tier ([`Transfer::tier`]) and I/O lane
/// ([`Transfer::lane`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Transfer {
    /// What moves: [`ExecEvent::SwapOut`]/[`ExecEvent::BoundaryOut`] or
    /// [`ExecEvent::SwapIn`]/[`ExecEvent::BoundaryIn`].
    pub event: ExecEvent,
    /// The block whose keys move.
    pub block: usize,
    /// The far tier the keys park in: the executor's routing of `block`
    /// ([`OocExecutor::tier_of`]).
    pub tier: usize,
    /// The forward (out) or backward (in) step that issues the transfer.
    pub step: usize,
    /// The keys moved: the block's interiors, its boundary, or both
    /// (a boundary key directly follows the block's interiors).
    pub keys: Range<usize>,
    /// Whether the block's boundary is among the keys.
    pub boundary: bool,
    /// The backward step whose compute reads the keys of a fetch; `None`
    /// for a swap-out, which is due when the step retires.
    pub deadline: Option<usize>,
}

impl Transfer {
    /// The I/O lane the transfer runs on among `lanes`: `block % lanes`,
    /// so a block's swap-out and swap-in share a FIFO lane and the
    /// swap-out lands first. Lane 0 when transfers run inline
    /// (`lanes = 0`).
    pub(crate) fn lane(&self, lanes: usize) -> usize {
        self.block % lanes.max(1)
    }
}

/// One op of a training step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// Block `b`'s forward pass; a recompute block drops its interiors
    /// right after it.
    Forward(usize),
    /// A transfer to far memory, issued after its step's forward.
    Out(Transfer),
    /// The loss over the logits, which are released.
    Loss,
    /// A transfer back to near memory, issued before its step's compute.
    In(Transfer),
    /// Backward step `b` computes next: every fetch due at it (deadline
    /// `>= b`, since steps run back to front) must have landed.
    Await(usize),
    /// Block `b` re-forwards its interiors from its input boundary.
    Recompute(usize),
    /// Block `b`'s backward pass, releasing its input and interiors.
    Backward(usize),
}

/// An executor's step as a flat op list, plus the block geometry the
/// interpreters need to price [`Op::Forward`], [`Op::Recompute`] and
/// [`Op::Backward`].
#[derive(Debug, Clone)]
pub(crate) struct TransferProgram {
    pub ops: Vec<Op>,
    ranges: Vec<(usize, usize)>,
    recompute: Vec<bool>,
}

impl TransferProgram {
    /// Lower `exec`'s schedule lists and block policies.
    pub(crate) fn new(exec: &OocExecutor) -> Self {
        let n = exec.n_blocks();
        let ranges: Vec<(usize, usize)> = (0..n).map(|b| exec.block_range(b)).collect();
        let recompute: Vec<bool> = exec
            .policies()
            .iter()
            .map(|p| *p == BlockPolicy::Recompute)
            .collect();
        let transfer = |block: usize, step, interior: bool, boundary: bool, deadline| {
            let event = match (deadline, interior) {
                (None, true) => ExecEvent::SwapOut,
                (None, false) => ExecEvent::BoundaryOut,
                (Some(_), true) => ExecEvent::SwapIn,
                (Some(_), false) => ExecEvent::BoundaryIn,
            };
            let (s, e) = ranges[block];
            let first = if interior { s + 1 } else { e };
            let last = if boundary { e + 1 } else { e };
            Transfer {
                event,
                block,
                tier: exec.tier_of()[block],
                step,
                keys: first..last,
                boundary,
                deadline,
            }
        };
        let mut ops = Vec::new();
        for b in 0..n {
            ops.push(Op::Forward(b));
            let out = step_transfers(&exec.evict_after()[b], &exec.boundary_out_after()[b]);
            for (block, interior, boundary) in out {
                ops.push(Op::Out(transfer(block, b, interior, boundary, None)));
            }
        }
        ops.push(Op::Loss);
        for b in (0..n).rev() {
            let fetches = step_transfers(&exec.prefetch_before()[b], &exec.boundary_in_before()[b]);
            for (block, interior, boundary) in fetches {
                // Interiors are read by step `block`'s compute, a boundary
                // by step `block + 1`'s (processed earlier), which then
                // bounds the whole group.
                let due = Some(block + usize::from(boundary));
                ops.push(Op::In(transfer(block, b, interior, boundary, due)));
            }
            ops.push(Op::Await(b));
            if recompute[b] {
                ops.push(Op::Recompute(b));
            }
            ops.push(Op::Backward(b));
        }
        TransferProgram {
            ops,
            ranges,
            recompute,
        }
    }

    /// Block `b`'s layers `[start, end)`: its interior keys are
    /// `start + 1..end`, its boundary key is `end`.
    pub(crate) fn range(&self, b: usize) -> (usize, usize) {
        self.ranges[b]
    }

    /// Does block `b` recompute (dropping its interiors after forward)?
    pub(crate) fn recomputes(&self, b: usize) -> bool {
        self.recompute[b]
    }
}

/// One step's transfers in issue order, as `(block, interior, boundary)`.
/// A boundary scheduled at the same step as its block's interiors rides
/// that transfer; the others move alone and go first — a deferred
/// departure drains before this step's swap-outs, and a split return is
/// this step's hardest deadline.
fn step_transfers(interiors: &[usize], bounds: &[usize]) -> Vec<(usize, bool, bool)> {
    let rides = |b: &usize| interiors.contains(b) && bounds.contains(b);
    let alone = bounds
        .iter()
        .filter(|b| !rides(b))
        .map(|&b| (b, false, true));
    let groups = interiors.iter().map(|&b| (b, true, rides(&b)));
    alone.chain(groups).collect()
}

/// The hardest hand-built schedule of the executor's unit suite, for the
/// tests of every interpreter of its program: both swap blocks evict
/// their boundary, each departing one step after its interiors as a
/// transfer of its own, both returns ride their block's swap-in, and the
/// blocks route to two tiers. Over an 8-layer net.
#[cfg(test)]
pub(crate) fn two_tier_boundary_evicting_executor() -> OocExecutor {
    use crate::store::TierSpec;
    OocExecutor::new(
        vec![0, 3, 6],
        vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
        usize::MAX / 2,
        8,
    )
    .with_schedule(
        vec![vec![0], vec![1], vec![]],
        vec![vec![], vec![0], vec![1]],
    )
    .with_boundary_schedule(
        vec![true, true, false],
        vec![vec![], vec![0], vec![1]],
        vec![vec![], vec![0], vec![1]],
    )
    .with_tiers(
        vec![TierSpec::host(usize::MAX), TierSpec::nvme(usize::MAX)],
        vec![0, 1, 0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_evicting_two_tier_schedule_lowers_to_the_exact_op_list() {
        let exec = two_tier_boundary_evicting_executor();
        let t = |event, block, tier, step, keys, boundary, deadline| Transfer {
            event,
            block,
            tier,
            step,
            keys,
            boundary,
            deadline,
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
        assert_eq!(TransferProgram::new(&exec).ops, want);
    }
}
