//! The transfer program: a lowered training step as a flat, step-ordered
//! op list — what [`crate::bridge::lower_to_runtime`] returns and the
//! out-of-core executor (`karma-runtime`) interprets.
//!
//! A KARMA step is one op order (paper Fig. 1/Fig. 3): forward, swap-out,
//! swap-in, recompute, backward. The lowering emits that order once per
//! plan; the executor interprets a copy of it every step, and its
//! residency and swap-timing replays fold copies of the same program, so
//! the three agree by construction. Whether a boundary rides its block's
//! transfer or moves on its own, and when each fetch is due, is decided by
//! the lowering and nowhere else.
//!
//! Ops are block-level. A [`Transfer`] names its block, its issuing step,
//! whether it carries the block's interiors, its boundary or both, its
//! deadline and its far tier; the near-memory keys it moves follow from
//! the block's layer range `(start, end)` ([`Transfer::keys`]). The
//! residency fold ([`TransferProgram::near_step`]) prices ops by per-key
//! bytes over those ranges, so the planner and the executor can share it.
//!
//! The lowering names each fetch's *latest* issue step.
//! [`TransferProgram::place_fetches`] then issues each one at the earliest
//! backward step whose replayed residency, plus the fetch, stays within
//! the step's existing peak: KARMA's capacity-based prefetch (paper
//! Sec. III-E), decided from the bytes the executor charges.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::bridge::{DistSchedule, LoweredPolicy};

/// Block-level event kinds of an executed step — the executed analogues
/// of the plan IR's compute/transfer ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecEvent {
    /// A block's forward pass completed (interiors already dropped for
    /// recompute-policy blocks).
    Forward,
    /// A block's interior activations moved to far memory.
    SwapOut,
    /// A block's interior activations returned to near memory.
    SwapIn,
    /// A block re-forwarded its interior from the boundary checkpoint.
    Recompute,
    /// A block's backward pass completed (its activations are released).
    Backward,
    /// The deferred boundary tail of a block's swap-out drained: the
    /// boundary activation left near memory once the consumer's forward
    /// had read it. (When the swap-out itself is scheduled at or after
    /// the consumer's forward, the boundary rides the
    /// [`ExecEvent::SwapOut`] and no separate event is emitted.)
    BoundaryOut,
    /// A block's boundary activation returned to near memory apart from
    /// its interior swap-in.
    BoundaryIn,
}

/// One far-memory transfer: a run of one block's near-memory keys moving
/// as a single job on the block's far tier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// The block whose keys move.
    pub block: usize,
    /// The forward (out) or backward (in) step that issues the transfer:
    /// for a fetch, the lowering's latest step until
    /// [`TransferProgram::place_fetches`] moves it earlier.
    pub step: usize,
    /// Whether the block's interior activations move.
    pub interior: bool,
    /// Whether the block's boundary activation moves (a boundary key
    /// directly follows the block's interiors).
    pub boundary: bool,
    /// The backward step whose compute reads the keys of a fetch: the
    /// block's own step for interiors alone, the consumer's step
    /// (`block + 1`) once the boundary is among the keys. `None` for a
    /// swap-out, which is due when the step retires.
    pub deadline: Option<usize>,
    /// The far tier the keys park in: 0 until the executor routes the
    /// block elsewhere.
    pub tier: usize,
}

impl Transfer {
    /// A transfer to far memory of `block`'s interiors and/or boundary,
    /// issued after forward step `step`.
    pub(crate) fn out(block: usize, step: usize, interior: bool, boundary: bool) -> Self {
        Transfer {
            block,
            step,
            interior,
            boundary,
            deadline: None,
            tier: 0,
        }
    }

    /// A fetch of `block`'s interiors and/or boundary, issued before
    /// backward step `step` and due at the step that reads its keys.
    pub(crate) fn fetch(block: usize, step: usize, interior: bool, boundary: bool) -> Self {
        Transfer {
            deadline: Some(block + usize::from(boundary)),
            ..Transfer::out(block, step, interior, boundary)
        }
    }

    /// What moves: [`ExecEvent::SwapOut`]/[`ExecEvent::BoundaryOut`] for a
    /// transfer out, [`ExecEvent::SwapIn`]/[`ExecEvent::BoundaryIn`] for a
    /// fetch; the boundary-only kinds when no interior rides along.
    pub fn event(&self) -> ExecEvent {
        match (self.deadline.is_some(), self.interior) {
            (false, true) => ExecEvent::SwapOut,
            (false, false) => ExecEvent::BoundaryOut,
            (true, true) => ExecEvent::SwapIn,
            (true, false) => ExecEvent::BoundaryIn,
        }
    }

    /// The near-memory keys moved, given the block's layers
    /// `[start, end)`: its interiors are keys `start + 1..end`, its
    /// boundary is key `end`.
    pub fn keys(&self, (start, end): (usize, usize)) -> Range<usize> {
        let first = if self.interior { start + 1 } else { end };
        let last = if self.boundary { end + 1 } else { end };
        first..last
    }

    /// Split a fetch carrying its block's boundary into the interior
    /// swap-in, due at the block's own backward step, and the boundary
    /// return, due one step earlier.
    fn split(self) -> (Transfer, Transfer) {
        let interior = Transfer {
            boundary: false,
            deadline: Some(self.block),
            ..self.clone()
        };
        let boundary = Transfer {
            interior: false,
            ..self
        };
        (interior, boundary)
    }
}

/// One op of a training step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Block `b`'s forward pass; a recompute block drops its interiors
    /// right after it.
    Forward(usize),
    /// A transfer to far memory, issued after its step's forward.
    Out(Transfer),
    /// The loss over the logits, which are released.
    Loss,
    /// A transfer back to near memory, issued before its step's compute:
    /// the lowering's latest step, or an earlier one once placed.
    In(Transfer),
    /// Backward step `b` computes next: every fetch due at it (deadline
    /// `>= b`, since steps run back to front) must have landed.
    Await(usize),
    /// Block `b` re-forwards its interiors from its input boundary.
    Recompute(usize),
    /// Block `b`'s backward pass, releasing its input and interiors.
    Backward(usize),
}

/// A lowered step: its ops in issue order, one activation policy per
/// block, and the phased gradient exchange a distributed plan carries
/// alongside (which the out-of-core executor does not run).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferProgram {
    /// The step's ops in issue order.
    pub ops: Vec<Op>,
    /// One policy per block.
    pub policies: Vec<LoweredPolicy>,
    /// The phased gradient exchange, when the plan is distributed
    /// (`None` for single-GPU plans with no `AR` / `U` ops).
    pub dist: Option<DistSchedule>,
}

impl TransferProgram {
    /// The just-in-time program over `policies`: each swap block evicts
    /// its interiors right after its own forward and fetches them right
    /// before its own backward, and every boundary stays in near memory.
    pub fn just_in_time(policies: Vec<LoweredPolicy>) -> Self {
        let n = policies.len();
        let swaps = |b: usize| policies[b] == LoweredPolicy::Swap;
        let mut ops = Vec::with_capacity(4 * n + 1);
        for b in 0..n {
            ops.push(Op::Forward(b));
            if swaps(b) {
                ops.push(Op::Out(Transfer::out(b, b, true, false)));
            }
        }
        ops.push(Op::Loss);
        for b in (0..n).rev() {
            if swaps(b) {
                ops.push(Op::In(Transfer::fetch(b, b, true, false)));
            }
            push_compute(&mut ops, &policies, b);
        }
        TransferProgram {
            ops,
            policies,
            dist: None,
        }
    }

    /// Blocks with the swap policy (also the expected swap-out and swap-in
    /// op counts of an execution).
    pub fn swap_blocks(&self) -> usize {
        self.count(LoweredPolicy::Swap)
    }

    /// Blocks with the recompute policy (the expected recompute op count).
    pub fn recompute_blocks(&self) -> usize {
        self.count(LoweredPolicy::Recompute)
    }

    fn count(&self, policy: LoweredPolicy) -> usize {
        self.policies.iter().filter(|p| **p == policy).count()
    }

    fn recomputes(&self, b: usize) -> bool {
        self.policies[b] == LoweredPolicy::Recompute
    }

    /// The residency fold's one step: the near-memory bytes `op` moves
    /// from level `cur`, priced by `key_bytes` over the blocks' layer
    /// `ranges` (block `b`'s layers `[start, end)`; `key_bytes[k]` sizes
    /// key `k`: the input for `k = 0`, layer `k - 1`'s output otherwise).
    /// Returns the op's high-water mark and the level after it. A
    /// recompute block's interiors exist only inside its forward, so its
    /// high-water mark sees them and the level after does not; an op that
    /// frees bytes peaks at the level it leaves.
    pub fn near_step(
        &self,
        op: &Op,
        cur: usize,
        ranges: &[(usize, usize)],
        key_bytes: &[usize],
    ) -> (usize, usize) {
        let bytes = |keys: Range<usize>| -> usize { key_bytes[keys].iter().sum() };
        match op {
            Op::Forward(b) => {
                let (s, e) = ranges[*b];
                let high = cur + bytes(s + 1..e + 1);
                let dropped = if self.recomputes(*b) {
                    bytes(s + 1..e)
                } else {
                    0
                };
                (high, high - dropped)
            }
            Op::Out(t) => {
                let after = cur - bytes(t.keys(ranges[t.block]));
                (after, after)
            }
            // The executor releases the logits before the backward.
            Op::Loss => {
                let (_, n_layers) = ranges[ranges.len() - 1];
                let after = cur - key_bytes[n_layers];
                (after, after)
            }
            Op::In(t) => {
                let after = cur + bytes(t.keys(ranges[t.block]));
                (after, after)
            }
            Op::Await(_) => (cur, cur),
            Op::Recompute(b) => {
                let (s, e) = ranges[*b];
                let after = cur + bytes(s + 1..e);
                (after, after)
            }
            // Backward releases the interior plus the block's input
            // boundary (its top boundary went with the block above).
            Op::Backward(b) => {
                let (s, e) = ranges[*b];
                let after = cur - bytes(s..e);
                (after, after)
            }
        }
    }

    /// The near-memory high-water mark of the program as it stands: the
    /// fold of [`Self::near_step`] from the input batch.
    pub fn peak(&self, ranges: &[(usize, usize)], key_bytes: &[usize]) -> usize {
        let (mut cur, mut peak) = (key_bytes[0], key_bytes[0]);
        for op in &self.ops {
            let (high, after) = self.near_step(op, cur, ranges, key_bytes);
            (cur, peak) = (after, peak.max(high));
        }
        peak
    }

    /// Issue each fetch at the earliest backward step the replayed peak
    /// allows. Walking the [`Op::In`] ops in program order, each moves to
    /// the highest step between its scheduled one and `n - 1` (right
    /// after [`Op::Loss`]) at which the residency fold ([`Self::near_step`]
    /// over `key_bytes` and `ranges`) stays within the unplaced program's
    /// peak; a moved fetch issues after the fetches already at its new
    /// step. A fetch carrying its block's boundary splits only when its
    /// interior moves bytes and can go earlier alone: the interior moves,
    /// and the boundary is then placed on its own. Tiers and lanes never
    /// change, and every key is still due at the step that reads it (a
    /// split-off interior at its block's own step, like any lone
    /// interior). The peak never rises. A program with no fetch comes back
    /// unchanged without allocating.
    pub fn place_fetches(&mut self, ranges: &[(usize, usize)], key_bytes: &[usize]) {
        let Some(loss) = self.ops.iter().position(|op| *op == Op::Loss) else {
            return;
        };
        if !self.ops[loss..].iter().any(|op| matches!(op, Op::In(_))) {
            return;
        }
        let n = ranges.len();
        let bytes = |t: &Transfer| -> usize { key_bytes[t.keys(ranges[t.block])].iter().sum() };
        // The unplaced fold: its peak, and each backward step's high-water
        // mark. Moving a fetch of `x` bytes from step `s` to `t > s`
        // raises exactly steps `s + 1..=t` by `x`: step `s` ends at the
        // same level, and every earlier step is untouched.
        let (mut cur, mut peak) = (key_bytes[0], key_bytes[0]);
        let mut high = vec![0usize; n];
        for op in &self.ops {
            let (h, after) = self.near_step(op, cur, ranges, key_bytes);
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
            if t.interior && t.boundary {
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

/// Every block's layers `[start, end)` over a net of `n_layers` layers cut
/// at `boundaries` (the start layer of each block): the ranges a
/// program's keys are derived from ([`Transfer::keys`]).
pub fn block_ranges(boundaries: &[usize], n_layers: usize) -> Vec<(usize, usize)> {
    let ends = boundaries.iter().skip(1).copied().chain([n_layers]);
    boundaries.iter().copied().zip(ends).collect()
}

/// Backward step `b`'s compute: wait for the fetches due at it, re-forward
/// a recompute block, run the backward.
pub(crate) fn push_compute(ops: &mut Vec<Op>, policies: &[LoweredPolicy], b: usize) {
    ops.push(Op::Await(b));
    if policies[b] == LoweredPolicy::Recompute {
        ops.push(Op::Recompute(b));
    }
    ops.push(Op::Backward(b));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::lower_to_runtime;
    use crate::plan::{OpKind, Plan};
    use ExecEvent::{BoundaryIn, SwapIn};

    /// `swap-conv`'s plan: five blocks, the four lower ones swapping, fetched
    /// at the capacity builder's steps (blocks 3 and 2 before B(3), block 1
    /// before B(2), block 0 before its own backward).
    fn swap_conv_plan() -> Plan {
        use OpKind::{Backward, Forward, SwapIn, SwapOut};
        let mut p = Plan::new(5);
        for (kind, block) in [
            (Forward, 0),
            (SwapOut, 0),
            (Forward, 1),
            (SwapOut, 1),
            (Forward, 2),
            (SwapOut, 2),
            (Forward, 3),
            (SwapOut, 3),
            (Forward, 4),
            (Backward, 4),
            (SwapIn, 3),
            (SwapIn, 2),
            (Backward, 3),
            (SwapIn, 1),
            (Backward, 2),
            (Backward, 1),
            (SwapIn, 0),
            (Backward, 0),
        ] {
            p.push(kind, block, vec![]);
        }
        p
    }

    /// `swap-conv`'s 14-layer conv stack cut at `[0, 2, 5, 6, 9]`.
    const SWAP_CONV_RANGES: [(usize, usize); 5] = [(0, 2), (2, 5), (5, 6), (6, 9), (9, 14)];

    /// `swap-conv`'s key sizes: a 16384 B input batch, 65536 B activations
    /// and 256 B of logits.
    fn swap_conv_key_bytes() -> Vec<usize> {
        let mut key_bytes = vec![65536; 15];
        (key_bytes[0], key_bytes[14]) = (16384, 256);
        key_bytes
    }

    /// Each fetch as `(event, block, issue step, deadline)`, in issue order.
    fn fetches(program: &TransferProgram) -> Vec<(ExecEvent, usize, usize, Option<usize>)> {
        let fetch = |op: &Op| match op {
            Op::In(t) => Some((t.event(), t.block, t.step, t.deadline)),
            _ => None,
        };
        program.ops.iter().filter_map(fetch).collect()
    }

    #[test]
    fn swap_conv_plan_lowers_to_the_exact_op_list() {
        // Every boundary below the turnaround leaves: blocks 0 and 1
        // depart alone one step after their interiors and block 2 too;
        // blocks 1 and 2 return theirs riding the swap-in, block 0 its own
        // apart at step 1. Block 3's boundary is the last block's input
        // and stays.
        let program = lower_to_runtime(&swap_conv_plan()).unwrap();
        let out = |block, step, interior, boundary| {
            Op::Out(Transfer::out(block, step, interior, boundary))
        };
        let fetch = |block, step, interior, boundary| {
            Op::In(Transfer::fetch(block, step, interior, boundary))
        };
        let want = vec![
            Op::Forward(0),
            out(0, 0, true, false),
            Op::Forward(1),
            out(0, 1, false, true),
            out(1, 1, true, false),
            Op::Forward(2),
            out(1, 2, false, true),
            out(2, 2, true, false),
            Op::Forward(3),
            out(2, 3, false, true),
            out(3, 3, true, false),
            Op::Forward(4),
            Op::Loss,
            Op::Await(4),
            Op::Backward(4),
            fetch(3, 3, true, false),
            fetch(2, 3, true, true),
            Op::Await(3),
            Op::Backward(3),
            fetch(1, 2, true, true),
            Op::Await(2),
            Op::Backward(2),
            fetch(0, 1, false, true),
            Op::Await(1),
            Op::Backward(1),
            fetch(0, 0, true, false),
            Op::Await(0),
            Op::Backward(0),
        ];
        assert_eq!(program.ops, want);
        assert_eq!(
            program.policies,
            [
                LoweredPolicy::Swap,
                LoweredPolicy::Swap,
                LoweredPolicy::Swap,
                LoweredPolicy::Swap,
                LoweredPolicy::Resident
            ]
        );
        assert_eq!(program.dist, None);
        // Riding and lone transfers move the keys of their block's range.
        let Op::In(riding) = &want[19] else {
            unreachable!()
        };
        assert_eq!(riding.keys(SWAP_CONV_RANGES[1]), 3..6);
        let Op::Out(lone) = &want[3] else {
            unreachable!()
        };
        assert_eq!(lone.keys(SWAP_CONV_RANGES[0]), 2..3);
    }

    #[test]
    fn swap_conv_fetches_issue_at_the_earliest_step_the_peak_allows() {
        let key_bytes = swap_conv_key_bytes();
        let unplaced = lower_to_runtime(&swap_conv_plan()).unwrap();
        let mut placed = unplaced.clone();
        placed.place_fetches(&SWAP_CONV_RANGES, &key_bytes);
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
        assert_eq!(unplaced.peak(&SWAP_CONV_RANGES, &key_bytes), 344320);
        assert_eq!(placed.peak(&SWAP_CONV_RANGES, &key_bytes), 344320);
    }

    #[test]
    fn a_program_without_fetches_comes_back_unchanged() {
        use LoweredPolicy::{Recompute, Resident};
        let mut program = TransferProgram::just_in_time(vec![Recompute, Recompute, Resident]);
        let capacity = program.ops.capacity();
        let before = program.ops.clone();
        program.place_fetches(&[(0, 2), (2, 5), (5, 8)], &[1; 9]);
        assert_eq!(program.ops, before);
        assert_eq!(program.ops.capacity(), capacity, "the op list was rebuilt");
    }

    #[test]
    fn the_just_in_time_program_moves_interiors_at_their_own_steps() {
        use LoweredPolicy::{Recompute, Resident, Swap};
        let program = TransferProgram::just_in_time(vec![Swap, Recompute, Resident]);
        let want = vec![
            Op::Forward(0),
            Op::Out(Transfer::out(0, 0, true, false)),
            Op::Forward(1),
            Op::Forward(2),
            Op::Loss,
            Op::Await(2),
            Op::Backward(2),
            Op::Await(1),
            Op::Recompute(1),
            Op::Backward(1),
            Op::In(Transfer::fetch(0, 0, true, false)),
            Op::Await(0),
            Op::Backward(0),
        ];
        assert_eq!(program.ops, want);
    }

    #[test]
    fn fetches_move_only_between_the_turnaround_and_their_scheduled_step() {
        // With room to spare (1 B activations beside 1 MiB of logits)
        // every fetch goes to the turnaround; none ever moves past it, or
        // after the step its keys were scheduled at.
        let mut roomy = vec![1; 15];
        roomy[14] = 1 << 20;
        for key_bytes in [swap_conv_key_bytes(), roomy] {
            let unplaced = lower_to_runtime(&swap_conv_plan()).unwrap();
            let mut placed = unplaced.clone();
            placed.place_fetches(&SWAP_CONV_RANGES, &key_bytes);
            let loss = placed.ops.iter().position(|op| *op == Op::Loss).unwrap();
            assert_eq!(placed.ops[..=loss], unplaced.ops[..=loss]);
            let keys = |t: &Transfer| t.keys(SWAP_CONV_RANGES[t.block]);
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
                    .find(|s| keys(s).start <= keys(t).start && keys(t).end <= keys(s).end)
                    .map(|s| s.step)
                    .unwrap();
                assert!((latest..5).contains(&t.step), "{t:?}");
                assert!(t.deadline.unwrap() <= t.step, "{t:?}");
                if key_bytes[1] == 1 {
                    assert_eq!(t.step, 4, "{t:?}");
                }
            }
            assert_eq!(
                placed.peak(&SWAP_CONV_RANGES, &key_bytes),
                unplaced.peak(&SWAP_CONV_RANGES, &key_bytes)
            );
        }
    }
}
