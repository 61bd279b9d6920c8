//! The transfer program: a lowered schedule as a flat, step-ordered op
//! list, and the one form of the schedule an [`crate::OocExecutor`]
//! holds.
//!
//! A KARMA step is one op order (paper Fig. 1/Fig. 3): forward, swap-out,
//! swap-in, recompute, backward. [`TransferProgram::lower`] builds that
//! order once, when the executor is built, from a `karma_core`
//! [`RuntimeSchedule`]: the schedule `lower_to_runtime` extracted from a
//! plan, or the just-in-time default of [`crate::OocExecutor::new`].
//! The executor interprets a copy of the program every step, and the
//! plan→runtime bridge folds copies of the same program into its
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

use karma_core::bridge::RuntimeSchedule;

use crate::exec::{BlockPolicy, ExecEvent};

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
    /// ([`crate::OocExecutor::tier_of`], set by [`TransferProgram::route`]).
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

/// A lowered step as a flat op list, plus the block geometry and
/// policies the interpreters need to price [`Op::Forward`],
/// [`Op::Recompute`] and [`Op::Backward`].
#[derive(Debug, Clone)]
pub(crate) struct TransferProgram {
    pub ops: Vec<Op>,
    ranges: Vec<(usize, usize)>,
    policies: Vec<BlockPolicy>,
}

impl TransferProgram {
    /// Lower `sched` over block `ranges` (block `b`'s layers
    /// `[start, end)`), every transfer on tier 0 until
    /// [`TransferProgram::route`]. The schedule is taken as checked:
    /// `lower_to_runtime` rejects what the executor cannot run with a
    /// typed error.
    pub(crate) fn lower(sched: &RuntimeSchedule, ranges: Vec<(usize, usize)>) -> Self {
        let n = ranges.len();
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
                tier: 0,
                step,
                keys: first..last,
                boundary,
                deadline,
            }
        };
        let mut ops = Vec::new();
        for b in 0..n {
            ops.push(Op::Forward(b));
            let out = step_transfers(&sched.evict_after[b], &sched.boundary_evict_after[b]);
            for (block, interior, boundary) in out {
                ops.push(Op::Out(transfer(block, b, interior, boundary, None)));
            }
        }
        ops.push(Op::Loss);
        for b in (0..n).rev() {
            let fetches =
                step_transfers(&sched.prefetch_before[b], &sched.boundary_fetch_before[b]);
            for (block, interior, boundary) in fetches {
                // Interiors are read by step `block`'s compute, a boundary
                // by step `block + 1`'s (processed earlier), which then
                // bounds the whole group.
                let due = Some(block + usize::from(boundary));
                ops.push(Op::In(transfer(block, b, interior, boundary, due)));
            }
            ops.push(Op::Await(b));
            if sched.policies[b] == BlockPolicy::Recompute {
                ops.push(Op::Recompute(b));
            }
            ops.push(Op::Backward(b));
        }
        TransferProgram {
            ops,
            ranges,
            policies: sched.policies.clone(),
        }
    }

    /// Route every transfer through its block's tier, `tier_of[block]`.
    pub(crate) fn route(&mut self, tier_of: &[usize]) {
        for op in &mut self.ops {
            if let Op::Out(t) | Op::In(t) = op {
                t.tier = tier_of[t.block];
            }
        }
    }

    /// One policy per block.
    pub(crate) fn policies(&self) -> &[BlockPolicy] {
        &self.policies
    }

    /// Block `b`'s layers `[start, end)`: its interior keys are
    /// `start + 1..end`, its boundary key is `end`.
    pub(crate) fn range(&self, b: usize) -> (usize, usize) {
        self.ranges[b]
    }

    /// Does block `b` recompute (dropping its interiors after forward)?
    pub(crate) fn recomputes(&self, b: usize) -> bool {
        self.policies[b] == BlockPolicy::Recompute
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

/// An executor over `boundaries` running `policies` under a schedule
/// written by hand, for schedules no plan lowers to: interiors leave
/// after forward step `j` for the blocks in `evict[j]` and return by
/// backward step `j` for those in `fetch[j]`; boundaries likewise with
/// `b_out` and `b_in`. Built through the constructor the lowering uses,
/// with an unbounded budget.
#[cfg(test)]
pub(crate) fn hand_scheduled(
    boundaries: Vec<usize>,
    policies: Vec<BlockPolicy>,
    n_layers: usize,
    evict: Vec<Vec<usize>>,
    fetch: Vec<Vec<usize>>,
    b_out: Vec<Vec<usize>>,
    b_in: Vec<Vec<usize>>,
) -> crate::OocExecutor {
    use karma_core::bridge::BoundaryPolicy;
    let sched = RuntimeSchedule {
        boundary: (0..boundaries.len())
            .map(|b| {
                if b_out.iter().flatten().any(|&e| e == b) {
                    BoundaryPolicy::Evict
                } else {
                    BoundaryPolicy::Resident
                }
            })
            .collect(),
        policies,
        evict_after: evict,
        prefetch_before: fetch,
        boundary_evict_after: b_out,
        boundary_fetch_before: b_in,
        dist: None,
    };
    crate::OocExecutor::from_schedule(boundaries, &sched, usize::MAX / 2, n_layers)
}

/// The hardest hand-built schedule of the executor's unit suite, for the
/// tests of every interpreter of its program: both swap blocks evict
/// their boundary, each departing one step after its interiors as a
/// transfer of its own, both returns ride their block's swap-in, and the
/// blocks route to two tiers. Block 1 (`n - 2`) evicting its boundary is
/// what the lowering never emits.
#[cfg(test)]
pub(crate) fn two_tier_boundary_evicting_executor(n_layers: usize) -> crate::OocExecutor {
    use crate::store::TierSpec;
    hand_scheduled(
        vec![0, 3, 6],
        vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
        n_layers,
        vec![vec![0], vec![1], vec![]],
        vec![vec![], vec![0], vec![1]],
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
    use crate::OocExecutor;

    /// `swap-conv`'s plan: five blocks, the four lower ones swapping, fetched
    /// at the capacity builder's steps (blocks 3 and 2 before B(3), block 1
    /// before B(2), block 0 before its own backward). It lowers over a
    /// 14-layer conv stack cut at `[0, 2, 5, 6, 9]` with every boundary below
    /// the turnaround evicted: blocks 1 and 2 return theirs riding the
    /// swap-in, block 0 its own apart at step 1.
    fn swap_conv_plan() -> karma_core::plan::Plan {
        use karma_core::plan::{OpKind, Plan};
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

    /// `swap-conv`'s lowered executor: [`swap_conv_plan`] over its 14-layer
    /// conv stack. Priced by [`swap_conv_key_bytes`].
    fn swap_conv_executor() -> OocExecutor {
        crate::bridge::lower_plan(&swap_conv_plan(), &[0, 2, 5, 6, 9], usize::MAX / 2, 14).unwrap()
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
        let unplaced = swap_conv_executor().program().clone();
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
    fn the_stored_program_is_never_placed_in_place() {
        // Every step places a copy of the program: two steps in a row
        // issue the same transfers, each as the replay predicts, and the
        // stored program keeps its scheduled steps.
        use crate::bridge::ResidencyReplay;
        use karma_tensor::{conv_stack, SyntheticDataset, Tensor};
        let net = conv_stack(6, 4, 11);
        let (x, y) = SyntheticDataset::classification(32, 1, 16, 4, 21).batch(0, 16);
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        assert_eq!(key_bytes, swap_conv_key_bytes());
        for lanes in [0, 2] {
            let exec = swap_conv_executor().with_io_lanes(lanes);
            let stored = exec.program().ops.clone();
            let mut placed = exec.program().clone();
            placed.place_fetches(&key_bytes);
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
    fn a_program_without_fetches_comes_back_unchanged() {
        use BlockPolicy::{Recompute, Resident};
        let exec = OocExecutor::new(vec![0, 2, 5], vec![Recompute, Recompute, Resident], 1, 8);
        let mut program = exec.program().clone();
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
            let unplaced = swap_conv_executor().program().clone();
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
        let exec = two_tier_boundary_evicting_executor(8);
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
        assert_eq!(exec.program().ops, want);
    }
}
