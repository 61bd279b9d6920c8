//! The transfer program: an executor's schedule lowered once into a flat,
//! step-ordered op list.
//!
//! A KARMA step is one op order (paper Fig. 1/Fig. 3): forward, swap-out,
//! swap-in, recompute, backward. [`crate::OocExecutor`] interprets this
//! list, and the plan→runtime bridge folds the same list into its
//! residency and swap-timing predictions, so the three agree by
//! construction. Whether a boundary rides its block's transfer or moves
//! on its own, when each fetch is due, and which tier and I/O lane each
//! transfer uses, is decided here and nowhere else.
//!
//! The schedule names each fetch's *latest* issue step.
//! [`TransferProgram::place_fetches`] then issues each one at the
//! earliest backward step whose replayed residency, plus the fetch, stays
//! within the step's existing peak: KARMA's capacity-based prefetch
//! (paper Sec. III-E), decided from the bytes the executor charges.

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
    /// The forward (out) or backward (in) step that issues the transfer:
    /// for a fetch, the schedule's latest step until
    /// [`TransferProgram::place_fetches`] moves it earlier.
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

    /// Split a fetch carrying its block's boundary into the interior
    /// swap-in, due at the block's own backward step, and the boundary
    /// return, due one step earlier.
    fn split(self) -> (Transfer, Transfer) {
        let boundary_key = self.keys.end - 1;
        let interior = Transfer {
            event: ExecEvent::SwapIn,
            keys: self.keys.start..boundary_key,
            boundary: false,
            deadline: Some(self.block),
            ..self.clone()
        };
        let boundary = Transfer {
            event: ExecEvent::BoundaryIn,
            keys: boundary_key..self.keys.end,
            ..self
        };
        (interior, boundary)
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
    /// A transfer back to near memory, issued before its step's compute:
    /// the schedule's latest step, or an earlier one once placed.
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

    /// The residency fold's one step: the near-memory bytes `op` moves
    /// from level `cur`, priced by `key_bytes` (see
    /// [`crate::bridge::ResidencyReplay::of`]). Returns the op's
    /// high-water mark and the level after it. A recompute block's
    /// interiors exist only inside its forward, so its high-water mark
    /// sees them and the level after does not; an op that frees bytes
    /// peaks at the level it leaves.
    pub(crate) fn near_step(&self, op: &Op, cur: usize, key_bytes: &[usize]) -> (usize, usize) {
        let bytes = |keys: Range<usize>| -> usize { key_bytes[keys].iter().sum() };
        match op {
            Op::Forward(b) => {
                let (s, e) = self.range(*b);
                let high = cur + bytes(s + 1..e + 1);
                let dropped = if self.recomputes(*b) {
                    bytes(s + 1..e)
                } else {
                    0
                };
                (high, high - dropped)
            }
            Op::Out(t) => {
                let after = cur - bytes(t.keys.clone());
                (after, after)
            }
            // The executor releases the logits before the backward.
            Op::Loss => {
                let (_, n_layers) = self.range(self.ranges.len() - 1);
                let after = cur - key_bytes[n_layers];
                (after, after)
            }
            Op::In(t) => {
                let after = cur + bytes(t.keys.clone());
                (after, after)
            }
            Op::Await(_) => (cur, cur),
            Op::Recompute(b) => {
                let (s, e) = self.range(*b);
                let after = cur + bytes(s + 1..e);
                (after, after)
            }
            // Backward releases the interior plus the block's input
            // boundary (its top boundary went with the block above).
            Op::Backward(b) => {
                let (s, e) = self.range(*b);
                let after = cur - bytes(s..e);
                (after, after)
            }
        }
    }

    /// Issue each fetch at the earliest backward step the replayed peak
    /// allows. Walking the [`Op::In`] ops in program order, each moves to
    /// the highest step between its scheduled one and `n - 1` (right
    /// after [`Op::Loss`]) at which the residency fold ([`Self::near_step`]
    /// over `key_bytes`) stays within the unplaced program's peak; a
    /// moved fetch issues after the fetches already at its new step. A
    /// fetch carrying its block's boundary splits only when its interior
    /// moves bytes and can go earlier alone: the interior moves, and the
    /// boundary is then placed on its own. Tiers and lanes never change,
    /// and every key is still due at the step that reads it (a split-off
    /// interior at its block's own step, like any lone interior). The
    /// peak never rises. A program with no fetch comes back unchanged
    /// without allocating.
    pub(crate) fn place_fetches(&mut self, key_bytes: &[usize]) {
        let Some(loss) = self.ops.iter().position(|op| *op == Op::Loss) else {
            return;
        };
        if !self.ops[loss..].iter().any(|op| matches!(op, Op::In(_))) {
            return;
        }
        let n = self.ranges.len();
        let bytes = |t: &Transfer| -> usize { key_bytes[t.keys.clone()].iter().sum() };
        // The unplaced fold: its peak, and each backward step's high-water
        // mark. Moving a fetch of `x` bytes from step `s` to `t > s`
        // raises exactly steps `s + 1..=t` by `x`: step `s` ends at the
        // same level, and every earlier step is untouched.
        let (mut cur, mut peak) = (key_bytes[0], key_bytes[0]);
        let mut high = vec![0usize; n];
        for op in &self.ops {
            let (h, after) = self.near_step(op, cur, key_bytes);
            (cur, peak) = (after, peak.max(h));
            let step = match op {
                Op::In(t) => t.step,
                Op::Await(b) | Op::Recompute(b) | Op::Backward(b) => *b,
                _ => continue,
            };
            high[step] = high[step].max(h);
        }
        let latest_fit = |high: &[usize], from: usize, x: usize| -> usize {
            (from + 1..n)
                .take_while(|&t| high[t] + x <= peak)
                .last()
                .unwrap_or(from)
        };
        let mut placed: Vec<Vec<Transfer>> = vec![Vec::new(); n];
        let mut issue = |high: &mut [usize], t: Transfer, at: usize| {
            let x = bytes(&t);
            for h in &mut high[t.step + 1..=at] {
                *h += x;
            }
            placed[at].push(Transfer { step: at, ..t });
        };
        let fetches = self.ops.iter().filter_map(|op| match op {
            Op::In(t) => Some(t.clone()),
            _ => None,
        });
        for t in fetches.collect::<Vec<_>>() {
            let at = latest_fit(&high, t.step, bytes(&t));
            if t.event == ExecEvent::SwapIn && t.boundary {
                let (interior, boundary) = t.clone().split();
                let x = bytes(&interior);
                let interior_at = latest_fit(&high, t.step, x);
                if x > 0 && interior_at > at {
                    issue(&mut high, interior, interior_at);
                    let boundary_at = latest_fit(&high, t.step, bytes(&boundary));
                    issue(&mut high, boundary, boundary_at);
                    continue;
                }
            }
            issue(&mut high, t, at);
        }
        // Rebuild the backward half: each step's placed fetches right
        // before its `Await`.
        let backward = self.ops.split_off(loss + 1);
        for op in backward {
            match op {
                Op::In(_) => {}
                Op::Await(b) => {
                    self.ops
                        .extend(std::mem::take(&mut placed[b]).into_iter().map(Op::In));
                    self.ops.push(op);
                }
                _ => self.ops.push(op),
            }
        }
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

    /// `swap-conv`'s lowered executor: a 14-layer conv stack cut at
    /// `[0, 2, 5, 6, 9]`, the four lower blocks swapping with every boundary
    /// below the turnaround riding its block's transfers, and fetches at the
    /// capacity builder's steps. Priced by [`swap_conv_key_bytes`].
    fn swap_conv_executor() -> OocExecutor {
        use BlockPolicy::{Resident, Swap};
        OocExecutor::new(
            vec![0, 2, 5, 6, 9],
            vec![Swap, Swap, Swap, Swap, Resident],
            usize::MAX / 2,
            14,
        )
        .with_schedule(
            vec![vec![0], vec![1], vec![2], vec![3], vec![]],
            vec![vec![0], vec![], vec![1], vec![3, 2], vec![]],
        )
        .with_boundary_schedule(
            vec![true, true, true, false, false],
            vec![vec![], vec![0], vec![1], vec![2], vec![]],
            vec![vec![], vec![0], vec![1], vec![2], vec![]],
        )
    }

    /// `swap-conv`'s key sizes: a 16384 B input batch, 65536 B activations
    /// and 256 B of logits.
    fn swap_conv_key_bytes() -> Vec<usize> {
        let mut key_bytes = vec![65536; 15];
        (key_bytes[0], key_bytes[14]) = (16384, 256);
        key_bytes
    }

    /// The near-memory fold's peak over `program`.
    fn peak(program: &TransferProgram, key_bytes: &[usize]) -> usize {
        let (mut cur, mut peak) = (key_bytes[0], key_bytes[0]);
        for op in &program.ops {
            let (high, after) = program.near_step(op, cur, key_bytes);
            (cur, peak) = (after, peak.max(high));
        }
        peak
    }

    /// Each fetch as `(event, block, issue step, deadline)`, in issue order.
    fn fetches(program: &TransferProgram) -> Vec<(ExecEvent, usize, usize, Option<usize>)> {
        let fetch = |op: &Op| match op {
            Op::In(t) => Some((t.event, t.block, t.step, t.deadline)),
            _ => None,
        };
        program.ops.iter().filter_map(fetch).collect()
    }

    #[test]
    fn swap_conv_fetches_issue_at_the_earliest_step_the_peak_allows() {
        let key_bytes = swap_conv_key_bytes();
        let unplaced = TransferProgram::new(&swap_conv_executor());
        let mut placed = unplaced.clone();
        placed.place_fetches(&key_bytes);
        use ExecEvent::{BoundaryIn, SwapIn};
        // Scheduled: blocks 3 and 2 at step 3, block 1 (with its
        // boundary) at 2, block 0's boundary at 1 and its interior at 0.
        assert_eq!(
            fetches(&unplaced),
            vec![
                (SwapIn, 3, 3, Some(3)),
                (SwapIn, 2, 3, Some(3)),
                (SwapIn, 1, 2, Some(2)),
                (BoundaryIn, 0, 1, Some(1)),
                (SwapIn, 0, 0, Some(0)),
            ]
        );
        // Nothing fits beside the turnaround's 344064 B; block 1's
        // interior fits under step 3 only without its boundary, which
        // stays at 2, where block 0 joins it.
        assert_eq!(
            fetches(&placed),
            vec![
                (SwapIn, 3, 3, Some(3)),
                (SwapIn, 2, 3, Some(3)),
                (SwapIn, 1, 3, Some(1)),
                (BoundaryIn, 1, 2, Some(2)),
                (BoundaryIn, 0, 2, Some(1)),
                (SwapIn, 0, 2, Some(0)),
            ]
        );
        assert_eq!(peak(&unplaced, &key_bytes), 344320);
        assert_eq!(peak(&placed, &key_bytes), 344320);
    }

    #[test]
    fn a_program_without_fetches_comes_back_unchanged() {
        use BlockPolicy::{Recompute, Resident};
        let exec = OocExecutor::new(vec![0, 2, 5], vec![Recompute, Recompute, Resident], 1, 8);
        let mut program = TransferProgram::new(&exec);
        let capacity = program.ops.capacity();
        let before = program.ops.clone();
        program.place_fetches(&[1; 9]);
        assert_eq!(program.ops, before);
        assert_eq!(program.ops.capacity(), capacity, "the op list was rebuilt");
    }

    #[test]
    fn fetches_move_only_between_the_turnaround_and_their_scheduled_step() {
        // With room to spare (1 B activations beside 1 MiB of logits)
        // every fetch goes to the turnaround; none ever moves past it, or
        // after the step its keys were scheduled at.
        let mut roomy = vec![1; 15];
        roomy[14] = 1 << 20;
        for key_bytes in [swap_conv_key_bytes(), roomy] {
            let unplaced = TransferProgram::new(&swap_conv_executor());
            let mut placed = unplaced.clone();
            placed.place_fetches(&key_bytes);
            let loss = placed.ops.iter().position(|op| *op == Op::Loss).unwrap();
            assert_eq!(placed.ops[..=loss], unplaced.ops[..=loss]);
            let scheduled: Vec<&Transfer> = unplaced.ops[loss..]
                .iter()
                .filter_map(|op| match op {
                    Op::In(t) => Some(t),
                    _ => None,
                })
                .collect();
            for op in &placed.ops[loss..] {
                let Op::In(t) = op else { continue };
                let latest = scheduled
                    .iter()
                    .find(|s| s.keys.start <= t.keys.start && t.keys.end <= s.keys.end)
                    .map(|s| s.step)
                    .unwrap();
                assert!((latest..5).contains(&t.step), "{t:?}");
                assert!(t.deadline.unwrap() <= t.step, "{t:?}");
                if key_bytes[1] == 1 {
                    assert_eq!(t.step, 4, "{t:?}");
                }
            }
            assert_eq!(peak(&placed, &key_bytes), peak(&unplaced, &key_bytes));
        }
    }

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
