//! Lowering execution plans toward the runtime executor (plan half).
//!
//! [`lower_to_runtime`] analyses a validated [`Plan`] and emits the
//! [`TransferProgram`] the out-of-core executor runs: one activation
//! policy per block (resident / swap / recompute) and the step's ops in
//! issue order — forwards with the swap-outs the plan attaches to them
//! (which blocks evict after which forward), the loss, then per backward
//! step the fetches due before it (each at its latest issue step), its
//! recompute and its backward. Swapped blocks' boundary activations depart
//! and return on the same transfers or on their own, under the prefetch
//! deadline rule: a boundary is back before the block above begins
//! backward. Distributed plans (paper Sec. III-G) are accepted too: their
//! `AR` / `U` ops are analysed into a [`DistSchedule`] — the per-group
//! phased gradient exchange (group membership, launch order, and how much
//! of the remaining backward/swap work each exchange overlaps) that rides
//! alongside the program. Plans whose op sequence the runtime cannot
//! realize — forwards out of block order, a swap-in that would arrive
//! after the backward that needs it, an exchange launched before its
//! gradients exist — are rejected with a typed [`RuntimeLowerError`],
//! never a panic.
//!
//! The result is deliberately free of runtime types: the program names
//! blocks and steps, never tensors, and `karma-runtime`'s `bridge` module
//! runs it on a real `OocExecutor` over block boundaries and a byte budget
//! (and a [`DistSchedule`] as the grouped exchange its `dp` module
//! executes). Keeping the analysis here means the planner side can verify
//! executability, pack tiers ([`assign_tiers`]) and fold residency
//! ([`TransferProgram::near_step`]) on the very program the executor runs
//! — and tests can fuzz it — without linking the tensor stack.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::plan::{OpKind, Plan};
use crate::program::{push_compute, Op, Transfer, TransferProgram};

/// Per-block activation policy derived from a plan's op sequence. The
/// runtime executes it as is: `karma_runtime::BlockPolicy` is this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoweredPolicy {
    /// No swap or recompute ops: activations stay resident.
    Resident,
    /// The block has a `Sout`/`Sin` pair: interior activations move to far
    /// memory after the forward and return before the backward.
    Swap,
    /// The block has a `R` op: interior activations are dropped after the
    /// forward and re-materialized from the boundary checkpoint.
    Recompute,
}

/// Where a block's swapped payload parks — the tier half of a lowering,
/// packed by [`assign_tiers`]. Tier indices order the far-memory stack fastest-first
/// (tier 0 = host DRAM, tier 1 = simulated NVMe, …), mirroring the
/// ZeRO-Infinity offload hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierPolicy {
    /// The block's activations never leave the device (resident and
    /// recompute blocks).
    Device,
    /// The block's swap traffic (interiors plus, when evicted, its
    /// boundary) parks in far-memory tier `t`.
    Far(usize),
}

/// Why a plan cannot be realized by the out-of-core executor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeLowerError {
    /// `Plan::validate` failed (dangling deps, duplicate forwards, …).
    Invalid(String),
    /// An `AR` op's launch order breaks backward-completion order: lead
    /// blocks must strictly descend in issue order, because a group can
    /// only enter the exchange once its gradients exist.
    ExchangeOutOfOrder {
        /// Lead block of the offending `AR`.
        block: usize,
    },
    /// The exchange groups do not cover every block: the first `AR`'s
    /// lead must be the last block, so the derived contiguous groups
    /// partition the whole model (every gradient is exchanged).
    ExchangeCoverageGap {
        /// First block left out of any group.
        block: usize,
    },
    /// An `AR` op launches before the backward of its group's
    /// last-finishing member (the gate) — its gradients would not exist.
    ExchangeBeforeBackward {
        /// Lead block of the offending `AR`.
        block: usize,
    },
    /// A `U` op on a block with no `AR` op: host updates consume the
    /// exchanged (averaged) gradients, so they ride an exchange group.
    UpdateWithoutExchange {
        /// The block.
        block: usize,
    },
    /// A `U` op issued before its block's `AR` completed.
    UpdateBeforeExchange {
        /// The block.
        block: usize,
    },
    /// More than one op of this kind on one block.
    DuplicateOp {
        /// The duplicated op kind.
        op: OpKind,
        /// Its block.
        block: usize,
    },
    /// A block has no forward op.
    MissingForward {
        /// The block.
        block: usize,
    },
    /// Forwards are not issued in ascending block order (the executor runs
    /// blocks front to back).
    ForwardOutOfOrder {
        /// First block whose forward breaks the order.
        block: usize,
    },
    /// A block has no backward op.
    MissingBackward {
        /// The block.
        block: usize,
    },
    /// Backwards are not issued in descending block order.
    BackwardOutOfOrder {
        /// First block whose backward breaks the order.
        block: usize,
    },
    /// A block both swaps and recomputes.
    SwapRecomputeConflict {
        /// The block.
        block: usize,
    },
    /// `Sout` issued before the block's forward produced the data.
    SwapOutBeforeForward {
        /// The block.
        block: usize,
    },
    /// `Sout` issued after the backward phase began (the executor evicts
    /// only during the forward sweep).
    SwapOutInBackwardPhase {
        /// The block.
        block: usize,
    },
    /// `Sout` with no matching `Sin`: the backward would find no data.
    SwapOutNotFetched {
        /// The block.
        block: usize,
    },
    /// `Sin` with no matching `Sout`: nothing was ever moved out.
    SwapInWithoutSwapOut {
        /// The block.
        block: usize,
    },
    /// `Sin` issued before its `Sout`.
    SwapInBeforeSwapOut {
        /// The block.
        block: usize,
    },
    /// `Sin` issued while the forward sweep is still running (the executor
    /// prefetches only between backward steps).
    SwapInDuringForward {
        /// The block.
        block: usize,
    },
    /// `Sin` issued after the backward that needs the data.
    SwapInAfterBackward {
        /// The block.
        block: usize,
    },
    /// `Sin` issued between a block's recompute and its backward — the
    /// executor fetches before it re-forwards, so that order is
    /// unrealizable.
    SwapInSplitsRecompute {
        /// The swapped block whose fetch lands in the gap.
        block: usize,
    },
    /// `R` issued while the forward sweep is still running.
    RecomputeDuringForward {
        /// The block.
        block: usize,
    },
    /// The first compute op after a block's `R` is not its own backward
    /// (the executor re-forwards immediately before the backward).
    RecomputeNotAdjacent {
        /// The block.
        block: usize,
    },
    /// A tier assignment was requested over an empty tier stack while the
    /// plan swaps blocks: the swapped payload would have nowhere to park.
    TierStackEmpty,
    /// No tier can park `block`'s payload for its whole out-of-device
    /// interval without some tier exceeding its capacity — the plan's
    /// swap set is infeasible on this tier stack.
    TierCapacityExceeded {
        /// The first block that fits in no tier.
        block: usize,
        /// The block's parked payload (interiors plus evicted boundary).
        bytes: usize,
    },
}

impl fmt::Display for RuntimeLowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use RuntimeLowerError::*;
        match self {
            Invalid(msg) => write!(f, "structurally invalid plan: {msg}"),
            ExchangeOutOfOrder { block } => write!(
                f,
                "exchange of block {block} breaks backward-completion launch order"
            ),
            ExchangeCoverageGap { block } => {
                write!(f, "block {block} belongs to no exchange group")
            }
            ExchangeBeforeBackward { block } => write!(
                f,
                "exchange led by block {block} launches before its gate backward"
            ),
            UpdateWithoutExchange { block } => {
                write!(f, "host update of block {block} has no exchange to ride")
            }
            UpdateBeforeExchange { block } => {
                write!(f, "host update of block {block} precedes its exchange")
            }
            DuplicateOp { op, block } => {
                write!(f, "block {block} has more than one {} op", op.mnemonic())
            }
            MissingForward { block } => write!(f, "block {block} has no forward op"),
            ForwardOutOfOrder { block } => {
                write!(f, "forward of block {block} breaks ascending block order")
            }
            MissingBackward { block } => write!(f, "block {block} has no backward op"),
            BackwardOutOfOrder { block } => {
                write!(f, "backward of block {block} breaks descending block order")
            }
            SwapRecomputeConflict { block } => {
                write!(f, "block {block} both swaps and recomputes")
            }
            SwapOutBeforeForward { block } => {
                write!(f, "swap-out of block {block} precedes its forward")
            }
            SwapOutInBackwardPhase { block } => {
                write!(f, "swap-out of block {block} lands in the backward phase")
            }
            SwapOutNotFetched { block } => {
                write!(f, "block {block} swaps out but never back in")
            }
            SwapInWithoutSwapOut { block } => {
                write!(f, "swap-in of block {block} has no matching swap-out")
            }
            SwapInBeforeSwapOut { block } => {
                write!(f, "swap-in of block {block} precedes its swap-out")
            }
            SwapInDuringForward { block } => {
                write!(f, "swap-in of block {block} lands in the forward phase")
            }
            SwapInAfterBackward { block } => {
                write!(f, "swap-in of block {block} arrives after its backward")
            }
            SwapInSplitsRecompute { block } => write!(
                f,
                "swap-in of block {block} lands between a recompute and its backward"
            ),
            RecomputeDuringForward { block } => {
                write!(f, "recompute of block {block} lands in the forward phase")
            }
            RecomputeNotAdjacent { block } => write!(
                f,
                "recompute of block {block} is not adjacent to its backward"
            ),
            TierStackEmpty => {
                write!(
                    f,
                    "plan swaps blocks but the far-memory tier stack is empty"
                )
            }
            TierCapacityExceeded { block, bytes } => write!(
                f,
                "no far-memory tier can park block {block}'s {bytes} B for its out-of-device \
                 interval"
            ),
        }
    }
}

impl std::error::Error for RuntimeLowerError {}

/// One phased-exchange group derived from a plan's `AR` / `U` ops: a
/// contiguous run of blocks whose gradients are all-reduced in one
/// message (the plan-level mirror of `karma_net::PhasedExchange`'s
/// `ExchangeGroup`, without byte sizes — the plan IR carries none).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistGroup {
    /// The block carrying the group's `AR` (and `U`) ops — its highest
    /// member, the first to finish backward.
    pub lead: usize,
    /// Member blocks in backward-completion order (contiguous,
    /// descending, `lead` first).
    pub blocks: Vec<usize>,
    /// The group's last-finishing member (its lowest block): the exchange
    /// launches right after this block's backward.
    pub gate: usize,
    /// Whether a CPU-side weight update (`U`) follows the exchange.
    pub has_update: bool,
}

impl DistGroup {
    /// Backward steps still pending when the exchange launches — the
    /// compute/swap window the paper overlaps communication with
    /// (Sec. III-G stage 4): blocks `gate-1 .. 0` have not run backward
    /// yet when this group's `AR` is issued.
    pub fn overlap_backwards(&self) -> usize {
        self.gate
    }
}

/// The distributed half of a lowered plan: the phased gradient exchange
/// as a list of groups in launch order. Groups partition the blocks, so
/// one training step ships exactly one message per group per worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistSchedule {
    /// Exchange groups in launch order (backward-completion order: the
    /// group holding the last block first).
    pub groups: Vec<DistGroup>,
}

impl DistSchedule {
    /// Number of exchange groups (= messages per worker per step).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Index of the group that exchanges `block`'s gradients.
    pub fn group_of(&self, block: usize) -> Option<usize> {
        self.groups.iter().position(|g| g.blocks.contains(&block))
    }

    /// Exchange messages one training step produces across `workers`
    /// replicas.
    pub fn messages_per_step(&self, workers: usize) -> usize {
        self.groups.len() * workers
    }

    /// Member blocks per group, in launch order — the shape
    /// `karma-runtime`'s grouped exchange consumes.
    pub fn group_blocks(&self) -> Vec<Vec<usize>> {
        self.groups.iter().map(|g| g.blocks.clone()).collect()
    }
}

/// Per-block op indices gathered in one scan.
struct OpIndex {
    fwd: Vec<Option<usize>>,
    bwd: Vec<Option<usize>>,
    sout: Vec<Option<usize>>,
    sin: Vec<Option<usize>>,
    rec: Vec<Option<usize>>,
    ar: Vec<Option<usize>>,
    upd: Vec<Option<usize>>,
}

impl OpIndex {
    fn scan(plan: &Plan) -> Result<Self, RuntimeLowerError> {
        let n = plan.n_blocks;
        let mut ix = OpIndex {
            fwd: vec![None; n],
            bwd: vec![None; n],
            sout: vec![None; n],
            sin: vec![None; n],
            rec: vec![None; n],
            ar: vec![None; n],
            upd: vec![None; n],
        };
        for (i, op) in plan.ops.iter().enumerate() {
            let slot = match op.kind {
                OpKind::Forward => &mut ix.fwd,
                OpKind::Backward => &mut ix.bwd,
                OpKind::SwapOut => &mut ix.sout,
                OpKind::SwapIn => &mut ix.sin,
                OpKind::Recompute => &mut ix.rec,
                OpKind::AllReduce => &mut ix.ar,
                OpKind::HostUpdate => &mut ix.upd,
            };
            if slot[op.block].replace(i).is_some() {
                return Err(RuntimeLowerError::DuplicateOp {
                    op: op.kind,
                    block: op.block,
                });
            }
        }
        Ok(ix)
    }
}

/// Derive the phased-exchange schedule from a plan's `AR` / `U` ops.
///
/// Group membership is recovered from the launch order: `AR` leads must
/// strictly descend (backward-completion order), and each group covers
/// the contiguous block range from its lead down to just above the next
/// group's lead (the last group reaches block 0) — exactly how the
/// distributed pipeline emits them (one `AR` per merged-gradient group,
/// on the group's first-finishing block, gated on its last-finishing
/// member's backward).
fn analyse_dist(ix: &OpIndex, n: usize) -> Result<DistSchedule, RuntimeLowerError> {
    // AR ops in issue (= launch) order.
    let mut ars: Vec<(usize, usize)> = (0..n).filter_map(|b| ix.ar[b].map(|i| (i, b))).collect();
    ars.sort_unstable();
    if let Some(b) = (0..n).find(|&b| ix.upd[b].is_some() && ix.ar[b].is_none()) {
        return Err(RuntimeLowerError::UpdateWithoutExchange { block: b });
    }
    for w in ars.windows(2) {
        if w[1].1 >= w[0].1 {
            return Err(RuntimeLowerError::ExchangeOutOfOrder { block: w[1].1 });
        }
    }
    if ars.first().map(|&(_, lead)| lead) != Some(n - 1) {
        // Blocks above the first lead would never be exchanged.
        return Err(RuntimeLowerError::ExchangeCoverageGap { block: n - 1 });
    }
    let mut groups = Vec::with_capacity(ars.len());
    for (gi, &(ar_ix, lead)) in ars.iter().enumerate() {
        let gate = ars.get(gi + 1).map_or(0, |&(_, next_lead)| next_lead + 1);
        // The gate (lowest member) finishes backward last; launching
        // after it means launching after every member's gradients exist.
        if ar_ix < ix.bwd[gate].expect("backwards checked for every block") {
            return Err(RuntimeLowerError::ExchangeBeforeBackward { block: lead });
        }
        let has_update = match ix.upd[lead] {
            Some(u_ix) if u_ix < ar_ix => {
                return Err(RuntimeLowerError::UpdateBeforeExchange { block: lead })
            }
            Some(_) => true,
            None => false,
        };
        groups.push(DistGroup {
            lead,
            blocks: (gate..=lead).rev().collect(),
            gate,
            has_update,
        });
    }
    Ok(DistSchedule { groups })
}

/// Lower `plan` into the [`TransferProgram`] the out-of-core executor
/// runs, or explain why it cannot realize the plan. Distributed plans
/// are accepted: their `AR` / `U` ops become the program's
/// [`DistSchedule`]. Never panics on a plan that passes
/// [`Plan::validate`]; structurally invalid plans are returned as
/// [`RuntimeLowerError::Invalid`].
///
/// ```
/// use karma_core::bridge::lower_to_runtime;
/// use karma_core::plan::{OpKind, Plan};
///
/// // Two blocks; each block's gradients exchanged as their own group as
/// // soon as its backward finishes, block 1's exchange overlapping
/// // block 0's backward (paper Sec. III-G stage 4).
/// let mut p = Plan::new(2);
/// let f0 = p.push(OpKind::Forward, 0, vec![]);
/// let f1 = p.push(OpKind::Forward, 1, vec![f0]);
/// let b1 = p.push(OpKind::Backward, 1, vec![f1]);
/// let ar1 = p.push(OpKind::AllReduce, 1, vec![b1]);
/// let b0 = p.push(OpKind::Backward, 0, vec![b1]);
/// let ar0 = p.push(OpKind::AllReduce, 0, vec![b0]);
/// p.push(OpKind::HostUpdate, 1, vec![ar1]);
/// p.push(OpKind::HostUpdate, 0, vec![ar0]);
///
/// let program = lower_to_runtime(&p).unwrap();
/// let dist = program.dist.expect("plan has AR/U ops");
/// assert_eq!(dist.n_groups(), 2);
/// assert_eq!(dist.groups[0].blocks, vec![1]); // launch order: last block first
/// assert_eq!(dist.groups[1].blocks, vec![0]);
/// assert_eq!(dist.groups[0].overlap_backwards(), 1); // overlaps B(0)
/// assert!(dist.groups.iter().all(|g| g.has_update));
/// ```
pub fn lower_to_runtime(plan: &Plan) -> Result<TransferProgram, RuntimeLowerError> {
    plan.validate().map_err(RuntimeLowerError::Invalid)?;
    let n = plan.n_blocks;
    if n == 0 {
        return Err(RuntimeLowerError::Invalid("plan covers zero blocks".into()));
    }
    let ix = OpIndex::scan(plan)?;

    // Compute-order skeleton: forwards front to back, backwards back to
    // front — the only traversal the block-structured executor performs.
    for b in 0..n {
        if ix.fwd[b].is_none() {
            return Err(RuntimeLowerError::MissingForward { block: b });
        }
        if ix.bwd[b].is_none() {
            return Err(RuntimeLowerError::MissingBackward { block: b });
        }
        if b > 0 && ix.fwd[b].unwrap() < ix.fwd[b - 1].unwrap() {
            return Err(RuntimeLowerError::ForwardOutOfOrder { block: b });
        }
        if b > 0 && ix.bwd[b].unwrap() > ix.bwd[b - 1].unwrap() {
            return Err(RuntimeLowerError::BackwardOutOfOrder { block: b });
        }
    }
    let last_fwd = ix.fwd[n - 1].unwrap();
    // First op of the backward phase: the earliest Sin / R / B.
    let first_bwd_phase = (0..n)
        .flat_map(|b| [ix.bwd[b], ix.sin[b], ix.rec[b]])
        .flatten()
        .min()
        .unwrap();

    // Per-block policy classification and shape checks.
    let mut policies = Vec::with_capacity(n);
    for b in 0..n {
        let policy = match (ix.sout[b], ix.sin[b], ix.rec[b]) {
            (None, None, None) => LoweredPolicy::Resident,
            (_, _, Some(r)) => {
                if ix.sout[b].is_some() || ix.sin[b].is_some() {
                    return Err(RuntimeLowerError::SwapRecomputeConflict { block: b });
                }
                if r <= last_fwd {
                    return Err(RuntimeLowerError::RecomputeDuringForward { block: b });
                }
                LoweredPolicy::Recompute
            }
            (Some(so), Some(si), None) => {
                if so < ix.fwd[b].unwrap() {
                    return Err(RuntimeLowerError::SwapOutBeforeForward { block: b });
                }
                // Before the phase checks: a Sin ahead of its Sout is
                // also ahead of the backward phase the Sout then lands in.
                if si < so {
                    return Err(RuntimeLowerError::SwapInBeforeSwapOut { block: b });
                }
                if so >= first_bwd_phase {
                    return Err(RuntimeLowerError::SwapOutInBackwardPhase { block: b });
                }
                if si <= last_fwd {
                    return Err(RuntimeLowerError::SwapInDuringForward { block: b });
                }
                if si > ix.bwd[b].unwrap() {
                    return Err(RuntimeLowerError::SwapInAfterBackward { block: b });
                }
                LoweredPolicy::Swap
            }
            (Some(_), None, None) => return Err(RuntimeLowerError::SwapOutNotFetched { block: b }),
            (None, Some(_), None) => {
                return Err(RuntimeLowerError::SwapInWithoutSwapOut { block: b })
            }
        };
        policies.push(policy);
    }

    // Recompute adjacency: the first compute op after R(b) must be B(b).
    let mut compute_ops: Vec<(usize, usize, bool)> = Vec::new(); // (index, block, is_backward)
    for b in 0..n {
        compute_ops.push((ix.bwd[b].unwrap(), b, true));
        if let Some(r) = ix.rec[b] {
            compute_ops.push((r, b, false));
        }
    }
    compute_ops.sort_unstable();
    for b in 0..n {
        if let Some(r) = ix.rec[b] {
            let next = compute_ops.iter().find(|&&(i, _, _)| i > r);
            match next {
                Some(&(_, nb, true)) if nb == b => {}
                _ => return Err(RuntimeLowerError::RecomputeNotAdjacent { block: b }),
            }
        }
    }

    // Emit the program. A swapped block's Sout/Sin move the *full*
    // activation payload — the cost model credits `act_bytes`, boundary
    // included — so every swap block below the last two carries its
    // boundary. The last block's boundary is the logits. Block `n - 2`'s
    // is the last block's input: its departure (at or after step `n - 1`)
    // and its return (at or before step `n - 1`) fall on the same
    // turnaround step, bracketing only the loss, so the trip would move
    // bytes without lowering the peak reached at F(n-1)'s end.
    let departs = |b: usize| policies[b] == LoweredPolicy::Swap && b + 2 < n;
    let issued = |slots: &[Option<usize>]| {
        let mut ops: Vec<(usize, usize)> =
            (0..n).filter_map(|b| slots[b].map(|i| (i, b))).collect();
        ops.sort_unstable();
        ops.into_iter().peekable()
    };
    let mut ops = Vec::with_capacity(plan.ops.len() + 2 * n + 1);

    // Forward half: each Sout issues after the latest forward before it.
    // A boundary cannot leave before the consumer's forward has read it
    // (block `b + 1` reads it as its input): it rides its block's Sout
    // issued at step `b + 1` or later, and otherwise departs alone right
    // after F(b + 1), ahead of that step's swap-outs.
    let mut souts = issued(&ix.sout);
    for j in 0..n {
        ops.push(Op::Forward(j));
        if j > 0 && departs(j - 1) && ix.sout[j - 1] < ix.fwd[j] {
            ops.push(Op::Out(Transfer::out(j - 1, j, false, true)));
        }
        while let Some((_, b)) = souts.next_if(|&(i, _)| j + 1 == n || Some(i) < ix.fwd[j + 1]) {
            ops.push(Op::Out(Transfer::out(b, j, true, departs(b) && j > b)));
        }
    }
    ops.push(Op::Loss);

    // Backward half: each Sin issues before the backward step owning the
    // next compute op. A boundary rides its block's Sin when that Sin
    // lands at or before backward step `b + 1` — the step whose
    // recompute/backward restarts from the boundary. When the Sin lands
    // *below* the consumer (the block fetches at its own step), the
    // boundary returns alone at step `b + 1` instead, ahead of that
    // step's fetches and recompute: it is the step's hardest deadline.
    let mut sins = issued(&ix.sin);
    for j in (0..n).rev() {
        if j > 0 && departs(j - 1) && ix.sin[j - 1] > ix.bwd[j] {
            ops.push(Op::In(Transfer::fetch(j - 1, j, false, true)));
        }
        let first_compute = ix.rec[j].or(ix.bwd[j]);
        while let Some((_, b)) = sins.next_if(|&(i, _)| Some(i) < first_compute) {
            ops.push(Op::In(Transfer::fetch(b, j, true, departs(b) && j > b)));
        }
        if let Some(&(i, b)) = sins.peek() {
            if Some(i) < ix.bwd[j] {
                // The step's recompute already ran; the executor cannot
                // fetch between a re-forward and its backward.
                return Err(RuntimeLowerError::SwapInSplitsRecompute { block: b });
            }
        }
        push_compute(&mut ops, &policies, j);
    }

    // Distributed half: AR/U ops become the phased-exchange schedule.
    let has_dist = (0..n).any(|b| ix.ar[b].is_some() || ix.upd[b].is_some());
    let dist = if has_dist {
        Some(analyse_dist(&ix, n)?)
    } else {
        None
    };

    Ok(TransferProgram {
        ops,
        policies,
        dist,
    })
}

/// Pack a lowered program's swap blocks onto a finite tier stack by
/// greedy first-fit over the blocks' *parked intervals*.
///
/// Block `b`'s interiors leave the device with its swap-out and return
/// with its fetch; its boundary (when it leaves) departs and returns on
/// its own steps, which the program's `Out` / `In` ops name — riding the
/// interiors' transfers or apart from them. Within that window the
/// payload occupies its tier, so two blocks whose windows overlap compete
/// for capacity while blocks parked at disjoint times share it. The
/// packer walks blocks front to back and gives each the fastest tier whose
/// capacity holds the tier's occupancy timeline everywhere; a block that
/// fits nowhere makes the plan infeasible on this stack
/// ([`RuntimeLowerError::TierCapacityExceeded`]). Fetches are read at the
/// steps the lowering names (their latest), so the packing holds wherever
/// placement issues them.
///
/// `tier_caps` are byte capacities fastest-first (`usize::MAX` =
/// unbounded); `interior_bytes[b]` / `boundary_bytes[b]` are block `b`'s
/// interior payload and boundary activation sizes.
pub fn assign_tiers(
    program: &TransferProgram,
    tier_caps: &[usize],
    interior_bytes: &[usize],
    boundary_bytes: &[usize],
) -> Result<Vec<TierPolicy>, RuntimeLowerError> {
    let n = program.policies.len();
    assert_eq!(interior_bytes.len(), n, "one interior byte count per block");
    assert_eq!(boundary_bytes.len(), n, "one boundary byte count per block");
    let mut tier = vec![TierPolicy::Device; n];
    if program.swap_blocks() == 0 {
        return Ok(tier);
    }
    if tier_caps.is_empty() {
        return Err(RuntimeLowerError::TierStackEmpty);
    }
    // Timeline slots: forward step j -> slot j, backward step j -> slot
    // n + (n-1-j) (backwards run back to front). A payload departing
    // after forward step e and fetched before backward step f is parked
    // through slots [e, n + (n-1-f)): departures land at the end of their
    // forward slot (additions only, so the slot's high-water mark is its
    // final value) and fetches at the start of their backward slot.
    let slots = 2 * n;
    // Per block: the departure step of its [interiors, boundary], its
    // parked timeline and its parked payload.
    let mut departed = vec![[0usize; 2]; n];
    let mut add = vec![vec![0usize; slots]; n];
    let mut payload = vec![0usize; n];
    for op in &program.ops {
        match op {
            Op::Out(t) => {
                for (part, moves) in [(0, t.interior), (1, t.boundary)] {
                    if moves {
                        departed[t.block][part] = t.step;
                    }
                }
            }
            Op::In(t) => {
                let ret = n + (n - 1 - t.step);
                let parts = [
                    (0, t.interior, interior_bytes),
                    (1, t.boundary, boundary_bytes),
                ];
                for (part, moves, bytes) in parts {
                    if moves {
                        for s in &mut add[t.block][departed[t.block][part]..ret] {
                            *s += bytes[t.block];
                        }
                        payload[t.block] += bytes[t.block];
                    }
                }
            }
            _ => {}
        }
    }
    let mut usage = vec![vec![0usize; slots]; tier_caps.len()];
    for b in 0..n {
        if program.policies[b] != LoweredPolicy::Swap {
            continue;
        }
        let fits =
            |u: &[usize], cap: usize| u.iter().zip(&add[b]).all(|(&used, &a)| used + a <= cap);
        match (0..tier_caps.len()).find(|&t| fits(&usage[t], tier_caps[t])) {
            Some(t) => {
                for (u, a) in usage[t].iter_mut().zip(&add[b]) {
                    *u += a;
                }
                tier[b] = TierPolicy::Far(t);
            }
            None => {
                return Err(RuntimeLowerError::TierCapacityExceeded {
                    block: b,
                    bytes: payload[b],
                })
            }
        }
    }
    Ok(tier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{build_training_plan, CapacityPlanOptions, PrefetchPolicy};
    use crate::cost::BlockCosts;
    use crate::program::ExecEvent;

    /// The program's transfers as `(event, block, issue step)`: its
    /// swap-outs (`out`) or its fetches, in issue order.
    fn transfers(p: &TransferProgram, out: bool) -> Vec<(ExecEvent, usize, usize)> {
        let pick = |op: &Op| match op {
            Op::Out(t) if out => Some(t.clone()),
            Op::In(t) if !out => Some(t.clone()),
            _ => None,
        };
        let moved = p.ops.iter().filter_map(pick);
        moved.map(|t| (t.event(), t.block, t.step)).collect()
    }

    /// Blocks whose boundary leaves the device, front to back.
    fn boundary_blocks(p: &TransferProgram) -> Vec<usize> {
        let departs = |op: &Op| match op {
            Op::Out(t) if t.boundary => Some(t.block),
            _ => None,
        };
        let mut blocks: Vec<usize> = p.ops.iter().filter_map(departs).collect();
        blocks.sort_unstable();
        blocks
    }

    fn costs(n: usize, act: u64, swap_s: f64, capacity_blocks: f64) -> BlockCosts {
        BlockCosts {
            forward: vec![1.0; n],
            backward: vec![1.0; n],
            act_bytes: vec![act; n],
            swap_bytes: vec![act; n],
            boundary_bytes: vec![act / 10; n],
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
    fn karma_plan_lowers_with_matching_policies() {
        let c = costs(6, 100, 2.0, 4.0);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(6));
        let s = lower_to_runtime(&cp.plan).unwrap();
        assert_eq!(s.policies.len(), 6);
        for b in 0..6 {
            let expect = if b < cp.resident_from {
                LoweredPolicy::Swap
            } else {
                LoweredPolicy::Resident
            };
            assert_eq!(s.policies[b], expect, "block {b}");
        }
        assert_eq!(s.swap_blocks(), cp.plan.count(OpKind::SwapOut));
        assert_eq!(s.swap_blocks(), cp.plan.count(OpKind::SwapIn));
        // Forward-phase evictions come front to back.
        let order: Vec<usize> = transfers(&s, true)
            .into_iter()
            .filter(|&(e, _, _)| e == ExecEvent::SwapOut)
            .map(|(_, b, _)| b)
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        // Every swapped block below the last two evicts its boundary;
        // resident blocks keep theirs.
        let evicting = boundary_blocks(&s);
        for b in 0..6 {
            let expect = s.policies[b] == LoweredPolicy::Swap && b + 2 < 6;
            assert_eq!(evicting.contains(&b), expect, "block {b} boundary");
        }
        assert_eq!(evicting.len(), s.swap_blocks());
    }

    #[test]
    fn boundary_schedule_respects_the_deadline_rule() {
        // Eager swap-everything: the last block swaps too, but its
        // boundary (the logits) stays, and so does its input (block 3's
        // boundary, whose trip would bracket only the loss); every other
        // boundary departs only after the consumer's forward and returns
        // at or before the consumer's backward step.
        let c = costs(5, 100, 1.0, 2.5);
        let opts = CapacityPlanOptions {
            recompute: vec![false; 5],
            resident_from: Some(5),
            prefetch: PrefetchPolicy::None,
            sync_swap_out: false,
        };
        let cp = build_training_plan(&c, &opts);
        let s = lower_to_runtime(&cp.plan).unwrap();
        // The logits (block 4's boundary) and the last block's input
        // (block 3's) stay.
        assert_eq!(boundary_blocks(&s), [0, 1, 2]);
        for op in &s.ops {
            match op {
                Op::Out(t) if t.boundary => {
                    let e = t.block;
                    assert!(
                        t.step > e,
                        "boundary of {e} left before F({}) read it",
                        e + 1
                    );
                }
                Op::In(t) if t.boundary => {
                    let p = t.block;
                    assert!(t.step > p, "boundary of {p} back after B({})", p + 1);
                    assert_eq!(t.deadline, Some(p + 1));
                    // The boundary rides the block's swap-in, or returns on
                    // its own split transfer at the consumer's step.
                    assert!(t.interior || t.step == p + 1);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn own_step_fetch_splits_the_boundary_return() {
        // Sin(0) at block 0's own backward step: riding it would hand the
        // boundary back after B(1) consumed it, so the lowering splits the
        // boundary onto its own transfer at the consumer's step instead.
        // (Block 2 is last, so block 0's boundary is not its exempt input.)
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
        assert_eq!(s.policies[0], LoweredPolicy::Swap);
        assert_eq!(boundary_blocks(&s), [0]);
        // The interior fetch stays put; the boundary returns alone at the
        // consumer's step: split, not riding.
        assert_eq!(
            transfers(&s, false),
            [(ExecEvent::BoundaryIn, 0, 1), (ExecEvent::SwapIn, 0, 0)]
        );
    }

    #[test]
    fn own_step_fetch_splits_the_boundary_return_under_a_recompute_consumer() {
        // Block 1 recomputes — its re-forward restarts from block 0's
        // boundary, and the split return at step 1 precedes it (the
        // executor fetches split boundaries before the step's recompute).
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so = p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        let r1 = p.push(OpKind::Recompute, 1, vec![b2]);
        let b1 = p.push(OpKind::Backward, 1, vec![r1]);
        let si = p.push(OpKind::SwapIn, 0, vec![so, b1]);
        p.push(OpKind::Backward, 0, vec![b1, si]);
        let s = lower_to_runtime(&p).unwrap();
        assert_eq!(s.policies[1], LoweredPolicy::Recompute);
        assert_eq!(boundary_blocks(&s), [0]);
        assert_eq!(
            transfers(&s, false),
            [(ExecEvent::BoundaryIn, 0, 1), (ExecEvent::SwapIn, 0, 0)]
        );
        // The split return precedes the consumer's recompute.
        let at = |want: &Op| s.ops.iter().position(|op| op == want).unwrap();
        let split = s
            .ops
            .iter()
            .position(|op| matches!(op, Op::In(t) if !t.interior));
        assert!(split.unwrap() < at(&Op::Recompute(1)));
    }

    #[test]
    fn last_block_swap_keeps_its_boundary_and_jit_fetch() {
        // A single swapped block that is also the last: its boundary (the
        // logits) is exempt, so fetching at its own step stays legal.
        let mut p = Plan::new(1);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so = p.push(OpKind::SwapOut, 0, vec![f0]);
        let si = p.push(OpKind::SwapIn, 0, vec![so]);
        p.push(OpKind::Backward, 0, vec![f0, si]);
        let s = lower_to_runtime(&p).unwrap();
        assert!(boundary_blocks(&s).is_empty());
    }

    #[test]
    fn recompute_plan_lowers_with_recompute_policy() {
        let c = costs(6, 100, 2.0, 3.0);
        let mut rc = vec![false; 6];
        rc[0] = true;
        rc[2] = true;
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma_with_recompute(rc));
        let s = lower_to_runtime(&cp.plan).unwrap();
        assert_eq!(s.policies[0], LoweredPolicy::Recompute);
        assert_eq!(s.policies[2], LoweredPolicy::Recompute);
        assert_eq!(s.recompute_blocks(), cp.plan.count(OpKind::Recompute));
    }

    #[test]
    fn every_capacity_plan_variant_lowers() {
        let c = costs(7, 100, 1.5, 3.5);
        for prefetch in [
            PrefetchPolicy::CapacityBased,
            PrefetchPolicy::OneAhead,
            PrefetchPolicy::None,
        ] {
            for sync in [false, true] {
                for resident_from in [None, Some(7), Some(0)] {
                    let opts = CapacityPlanOptions {
                        recompute: vec![false; 7],
                        resident_from,
                        prefetch,
                        sync_swap_out: sync,
                    };
                    let cp = build_training_plan(&c, &opts);
                    lower_to_runtime(&cp.plan).unwrap_or_else(|e| {
                        panic!("{prefetch:?}/sync={sync}/rf={resident_from:?}: {e}")
                    });
                }
            }
        }
    }

    #[test]
    fn in_core_plan_is_all_resident() {
        let c = costs(4, 100, 2.0, 100.0);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(4));
        let s = lower_to_runtime(&cp.plan).unwrap();
        assert!(s.policies.iter().all(|p| *p == LoweredPolicy::Resident));
        assert!(transfers(&s, true).is_empty());
    }

    /// 3 blocks, grouped {2,1} + {0}: the shape `karma-dist`'s pipeline
    /// emits (one AR per merged group on its lead, gated on the last
    /// member's backward, one U per AR).
    fn dist_plan(with_updates: bool) -> Plan {
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        let b1 = p.push(OpKind::Backward, 1, vec![b2]);
        let ar2 = p.push(OpKind::AllReduce, 2, vec![b1]); // group {2,1}, gate 1
        let b0 = p.push(OpKind::Backward, 0, vec![b1]);
        let ar0 = p.push(OpKind::AllReduce, 0, vec![b0]); // group {0}
        if with_updates {
            let u2 = p.push(OpKind::HostUpdate, 2, vec![ar2]);
            p.push(OpKind::HostUpdate, 0, vec![ar0, u2]);
        }
        p
    }

    #[test]
    fn distributed_ops_are_analysed_into_groups() {
        let s = lower_to_runtime(&dist_plan(true)).unwrap();
        assert!(s.dist.is_some());
        let d = s.dist.unwrap();
        assert_eq!(d.n_groups(), 2);
        assert_eq!(d.groups[0].blocks, vec![2, 1]);
        assert_eq!((d.groups[0].lead, d.groups[0].gate), (2, 1));
        assert_eq!(d.groups[0].overlap_backwards(), 1);
        assert_eq!(d.groups[1].blocks, vec![0]);
        assert_eq!(d.groups[1].overlap_backwards(), 0);
        assert!(d.groups.iter().all(|g| g.has_update));
        assert_eq!(d.group_of(1), Some(0));
        assert_eq!(d.group_of(0), Some(1));
        assert_eq!(d.messages_per_step(4), 8);
        assert_eq!(d.group_blocks(), vec![vec![2, 1], vec![0]]);
    }

    #[test]
    fn updates_are_optional_in_the_exchange() {
        let d = lower_to_runtime(&dist_plan(false)).unwrap().dist.unwrap();
        assert!(d.groups.iter().all(|g| !g.has_update));
    }

    #[test]
    fn single_gpu_plans_have_no_dist_schedule() {
        let c = costs(4, 100, 2.0, 100.0);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(4));
        assert!(lower_to_runtime(&cp.plan).unwrap().dist.is_none());
    }

    #[test]
    fn exchange_before_gate_backward_is_rejected() {
        // AR(2) for group {2,1} issued after B(2) but before B(1): the
        // gate's gradients do not exist yet.
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        p.push(OpKind::AllReduce, 2, vec![b2]);
        let b1 = p.push(OpKind::Backward, 1, vec![b2]);
        let b0 = p.push(OpKind::Backward, 0, vec![b1]);
        p.push(OpKind::AllReduce, 0, vec![b0]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::ExchangeBeforeBackward { block: 2 })
        );
    }

    #[test]
    fn exchange_launch_order_must_follow_backward_completion() {
        let mut p = Plan::new(2);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let b1 = p.push(OpKind::Backward, 1, vec![f1]);
        let b0 = p.push(OpKind::Backward, 0, vec![b1]);
        p.push(OpKind::AllReduce, 0, vec![b0]);
        p.push(OpKind::AllReduce, 1, vec![b1]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::ExchangeOutOfOrder { block: 1 })
        );
    }

    #[test]
    fn uncovered_blocks_are_rejected() {
        // Only block 0 exchanges: block 1's gradients would never move.
        let mut p = Plan::new(2);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let b1 = p.push(OpKind::Backward, 1, vec![f1]);
        let b0 = p.push(OpKind::Backward, 0, vec![b1]);
        p.push(OpKind::AllReduce, 0, vec![b0]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::ExchangeCoverageGap { block: 1 })
        );
    }

    #[test]
    fn update_without_exchange_is_rejected() {
        let mut p = Plan::new(1);
        let f = p.push(OpKind::Forward, 0, vec![]);
        let b = p.push(OpKind::Backward, 0, vec![f]);
        p.push(OpKind::HostUpdate, 0, vec![b]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::UpdateWithoutExchange { block: 0 })
        );
    }

    #[test]
    fn update_before_exchange_is_rejected() {
        let mut p = Plan::new(1);
        let f = p.push(OpKind::Forward, 0, vec![]);
        let b = p.push(OpKind::Backward, 0, vec![f]);
        p.push(OpKind::HostUpdate, 0, vec![b]);
        p.push(OpKind::AllReduce, 0, vec![b]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::UpdateBeforeExchange { block: 0 })
        );
    }

    #[test]
    fn out_of_order_backwards_are_rejected() {
        let mut p = Plan::new(2);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let b0 = p.push(OpKind::Backward, 0, vec![f1]);
        p.push(OpKind::Backward, 1, vec![b0]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::BackwardOutOfOrder { block: 1 })
        );
    }

    #[test]
    fn swap_in_after_backward_is_rejected() {
        let mut p = Plan::new(2);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so = p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let b1 = p.push(OpKind::Backward, 1, vec![f1]);
        let b0 = p.push(OpKind::Backward, 0, vec![b1]);
        p.push(OpKind::SwapIn, 0, vec![so, b0]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::SwapInAfterBackward { block: 0 })
        );
    }

    #[test]
    fn orphan_swap_ops_are_rejected() {
        let mut p = Plan::new(2);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let b1 = p.push(OpKind::Backward, 1, vec![f1]);
        p.push(OpKind::Backward, 0, vec![b1]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::SwapOutNotFetched { block: 0 })
        );
    }

    #[test]
    fn swap_plus_recompute_on_one_block_is_rejected() {
        let mut p = Plan::new(2);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so = p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let b1 = p.push(OpKind::Backward, 1, vec![f1]);
        let si = p.push(OpKind::SwapIn, 0, vec![so, b1]);
        let r0 = p.push(OpKind::Recompute, 0, vec![b1]);
        p.push(OpKind::Backward, 0, vec![si, r0]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::SwapRecomputeConflict { block: 0 })
        );
    }

    #[test]
    fn non_adjacent_recompute_is_rejected() {
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        // R(0) issued before B(2): two backwards intervene.
        let r0 = p.push(OpKind::Recompute, 0, vec![f2]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        let b1 = p.push(OpKind::Backward, 1, vec![b2]);
        p.push(OpKind::Backward, 0, vec![b1, r0]);
        assert_eq!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::RecomputeNotAdjacent { block: 0 })
        );
    }

    #[test]
    fn each_malformed_op_order_names_its_error() {
        use OpKind::{Backward as B, Forward as F, Recompute as R, SwapIn as Si, SwapOut as So};
        use RuntimeLowerError::*;
        // Ops in issue order; the lowering reads positions, not deps.
        let plan = |n: usize, ops: &[(OpKind, usize)]| {
            let mut p = Plan::new(n);
            for &(kind, block) in ops {
                p.push(kind, block, vec![]);
            }
            p
        };
        let cases = [
            (
                plan(2, &[(F, 0), (F, 1), (B, 1), (Si, 0), (B, 0)]),
                SwapInWithoutSwapOut { block: 0 },
            ),
            (
                plan(2, &[(So, 0), (F, 0), (F, 1), (B, 1), (Si, 0), (B, 0)]),
                SwapOutBeforeForward { block: 0 },
            ),
            (
                plan(2, &[(F, 0), (F, 1), (B, 1), (So, 0), (Si, 0), (B, 0)]),
                SwapOutInBackwardPhase { block: 0 },
            ),
            (
                plan(2, &[(F, 0), (So, 0), (Si, 0), (F, 1), (B, 1), (B, 0)]),
                SwapInDuringForward { block: 0 },
            ),
            (
                plan(2, &[(F, 0), (F, 1), (B, 1), (Si, 0), (So, 0), (B, 0)]),
                SwapInBeforeSwapOut { block: 0 },
            ),
            (
                plan(2, &[(F, 0), (R, 0), (F, 1), (B, 1), (B, 0)]),
                RecomputeDuringForward { block: 0 },
            ),
            (
                plan(1, &[(F, 0), (B, 0), (B, 0)]),
                DuplicateOp { op: B, block: 0 },
            ),
            (
                plan(2, &[(F, 0), (F, 1), (B, 1)]),
                MissingBackward { block: 0 },
            ),
            (
                plan(2, &[(F, 1), (F, 0), (B, 1), (B, 0)]),
                ForwardOutOfOrder { block: 1 },
            ),
        ];
        for (p, want) in cases {
            assert_eq!(lower_to_runtime(&p), Err(want), "{}", p.notation());
        }
    }

    #[test]
    fn invalid_plan_reports_invalid_not_panic() {
        let mut p = Plan::new(2);
        p.push(OpKind::Forward, 0, vec![]);
        p.push(OpKind::Forward, 0, vec![]); // duplicate forward
        assert!(matches!(
            lower_to_runtime(&p),
            Err(RuntimeLowerError::Invalid(_))
        ));
    }

    #[test]
    fn lowering_defaults_swap_blocks_to_the_fastest_tier() {
        // On the default stack, one unbounded far tier, every swap block
        // parks in tier 0 and nothing else leaves the device.
        let c = costs(6, 100, 2.0, 4.0);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(6));
        let s = lower_to_runtime(&cp.plan).unwrap();
        assert!(s.swap_blocks() > 0);
        let tiers = assign_tiers(&s, &[usize::MAX], &[90; 6], &[10; 6]).unwrap();
        for (b, tier) in tiers.iter().enumerate() {
            let expect = if s.policies[b] == LoweredPolicy::Swap {
                TierPolicy::Far(0)
            } else {
                TierPolicy::Device
            };
            assert_eq!(*tier, expect, "block {b}");
        }
    }

    /// Eager swap-everything over 5 equal blocks: each block's interiors
    /// park from its forward to its backward, so the windows nest and
    /// every pair overlaps somewhere.
    fn eager_swap_schedule() -> TransferProgram {
        let c = costs(5, 100, 1.0, 2.5);
        let opts = CapacityPlanOptions {
            recompute: vec![false; 5],
            resident_from: Some(5),
            prefetch: PrefetchPolicy::None,
            sync_swap_out: false,
        };
        let cp = build_training_plan(&c, &opts);
        lower_to_runtime(&cp.plan).unwrap()
    }

    #[test]
    fn assign_tiers_first_fits_and_spills_to_slower_tiers() {
        let s = eager_swap_schedule();
        let interior = vec![90usize; 5];
        let boundary = vec![10usize; 5];
        // Unbounded fast tier: every swap block stays in tier 0, with or
        // without a slower tier behind it.
        let all_fast = assign_tiers(&s, &[usize::MAX], &interior, &boundary).unwrap();
        assert!(all_fast
            .iter()
            .all(|t| matches!(t, TierPolicy::Far(0) | TierPolicy::Device)));
        assert_eq!(
            assign_tiers(&s, &[usize::MAX, usize::MAX], &interior, &boundary).unwrap(),
            all_fast
        );
        // Fast tier holds ~2 parked blocks; the rest spill to the slow tier.
        let packed = assign_tiers(&s, &[220, usize::MAX], &interior, &boundary).unwrap();
        let fast = packed.iter().filter(|t| **t == TierPolicy::Far(0)).count();
        let slow = packed.iter().filter(|t| **t == TierPolicy::Far(1)).count();
        assert!(fast >= 1, "fast tier is used first");
        assert!(slow >= 1, "overflow spills to the slow tier");
        assert_eq!(fast + slow, 5, "every swap block parks somewhere");
    }

    #[test]
    fn assign_tiers_rejects_infeasible_stacks_with_the_first_stuck_block() {
        // Under the eager schedule all five blocks are parked
        // concurrently around the loss, so three single-block tiers
        // cannot hold them: blocks 0..3 claim one tier each (interiors
        // plus boundary) and block 3 is the first that fits nowhere, with
        // its interiors alone (its boundary is the last block's input,
        // which stays).
        let s = eager_swap_schedule();
        let interior = vec![90usize; 5];
        let boundary = vec![10usize; 5];
        assert_eq!(
            assign_tiers(&s, &[100, 100, 100], &interior, &boundary),
            Err(RuntimeLowerError::TierCapacityExceeded {
                block: 3,
                bytes: 90
            })
        );
    }

    #[test]
    fn assign_tiers_rejects_an_empty_stack_only_when_swaps_exist() {
        let s = eager_swap_schedule();
        let err = assign_tiers(&s, &[], &[90; 5], &[10; 5]);
        assert_eq!(err, Err(RuntimeLowerError::TierStackEmpty));
        // An all-resident plan needs no tiers at all.
        let c = costs(4, 100, 2.0, 100.0);
        let cp = build_training_plan(&c, &CapacityPlanOptions::karma(4));
        let s = lower_to_runtime(&cp.plan).unwrap();
        let tiers = assign_tiers(&s, &[], &[0; 4], &[0; 4]).unwrap();
        assert!(tiers.iter().all(|t| *t == TierPolicy::Device));
    }

    #[test]
    fn errors_display_without_panicking() {
        let errs = [
            RuntimeLowerError::Invalid("x".into()),
            RuntimeLowerError::MissingForward { block: 0 },
            RuntimeLowerError::SwapInSplitsRecompute { block: 3 },
            RuntimeLowerError::ExchangeOutOfOrder { block: 1 },
            RuntimeLowerError::ExchangeCoverageGap { block: 2 },
            RuntimeLowerError::ExchangeBeforeBackward { block: 0 },
            RuntimeLowerError::UpdateWithoutExchange { block: 4 },
            RuntimeLowerError::UpdateBeforeExchange { block: 5 },
            RuntimeLowerError::TierStackEmpty,
            RuntimeLowerError::TierCapacityExceeded {
                block: 3,
                bytes: 4096,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
