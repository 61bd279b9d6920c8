//! Lowering execution plans toward the runtime executor (plan half).
//!
//! [`lower_to_runtime`] analyses a validated [`Plan`] and extracts the
//! executor-shaped description of it: one activation policy per block
//! (resident / swap / recompute), the eviction order of the forward phase
//! (which blocks swap out after which forward), the prefetch schedule
//! of the backward phase (which blocks swap in before which backward),
//! and the boundary-residency contract (which blocks' boundary
//! activations depart with their swap and when they must be back —
//! before the block above begins backward, the prefetch deadline rule).
//! Distributed plans (paper Sec. III-G) are accepted too: their `AR` /
//! `U` ops are analysed into a [`DistSchedule`] — the per-group phased
//! gradient exchange (group membership, launch order, and how much of the
//! remaining backward/swap work each exchange overlaps) that rides
//! alongside the per-worker [`RuntimeSchedule`]. Plans whose op sequence
//! the runtime cannot realize — forwards out of block order, a swap-in
//! that would arrive after the backward that needs it, an exchange
//! launched before its gradients exist — are rejected with a typed
//! [`RuntimeLowerError`], never a panic.
//!
//! The result is deliberately free of runtime types: `karma-runtime`'s
//! `bridge` module turns a [`RuntimeSchedule`] plus block boundaries and a
//! byte budget into a real `OocExecutor` (and a [`DistSchedule`] into the
//! grouped exchange its `dp` module executes). Keeping the analysis here
//! means the planner side can verify executability (and tests can fuzz
//! it) without linking the tensor stack.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::plan::{OpKind, Plan};

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

/// Per-block residency of the block's *boundary* activation (its final
/// output — the next block's input). The cost model prices a swapped
/// block's `Sout`/`Sin` at the full `act_bytes`, boundary included, so a
/// swapped block's boundary leaves the device with the block; the
/// recompute checkpoint and the logits must stay, and so does the last
/// block's input (whose trip would bracket only the loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundaryPolicy {
    /// The boundary stays in near memory through the iteration: resident
    /// blocks, recompute blocks (it is the checkpoint they re-forward
    /// from, paper Table I), the last block (its boundary is the logits,
    /// consumed by the loss right after the forward sweep) and block
    /// `n - 2` (its boundary is the last block's input, and would leave
    /// and return on the same turnaround step).
    Resident,
    /// The boundary departs with the block's swap-out — physically once
    /// the consumer's forward has read it — and returns with the block's
    /// swap-in, which must land before the consumer's backward.
    Evict,
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

/// The executor-shaped description of a plan: everything `karma-runtime`
/// needs to configure an `OocExecutor`, and nothing tied to tensor types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeSchedule {
    /// One policy per block.
    pub policies: Vec<LoweredPolicy>,
    /// `evict_after[j]` — blocks whose interiors swap out right after block
    /// `j`'s forward, in plan issue order.
    pub evict_after: Vec<Vec<usize>>,
    /// `prefetch_before[j]` — blocks whose interiors swap back in right
    /// before backward step `j` is processed, in plan issue order.
    pub prefetch_before: Vec<Vec<usize>>,
    /// One boundary-residency policy per block: every swap-policy block
    /// below the last two evicts its boundary (the cost model prices its
    /// departure), everything else keeps it resident.
    pub boundary: Vec<BoundaryPolicy>,
    /// `boundary_evict_after[j]` — blocks whose boundary activation
    /// departs right after block `j`'s forward: `max(evict step, b + 1)`,
    /// since the transfer cannot drain before block `b + 1`'s forward has
    /// read the boundary. When the step equals the block's interior
    /// eviction step the boundary rides that swap-out; otherwise it is
    /// the deferred tail of a swap-out launched earlier.
    pub boundary_evict_after: Vec<Vec<usize>>,
    /// `boundary_fetch_before[j]` — blocks whose boundary returns right
    /// before backward step `j`, riding the block's swap-in. The lowering
    /// guarantees `j >= b + 1`: the boundary is back before the block
    /// above begins backward (the prefetch deadline rule).
    pub boundary_fetch_before: Vec<Vec<usize>>,
    /// The phased gradient exchange, when the plan is distributed
    /// (`None` for single-GPU plans with no `AR` / `U` ops).
    pub dist: Option<DistSchedule>,
}

impl RuntimeSchedule {
    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.policies.len()
    }

    /// Blocks with the swap policy (also the expected swap-out and swap-in
    /// op counts of an execution).
    pub fn swap_blocks(&self) -> usize {
        self.policies
            .iter()
            .filter(|p| **p == LoweredPolicy::Swap)
            .count()
    }

    /// Blocks with the recompute policy (the expected recompute op count).
    pub fn recompute_blocks(&self) -> usize {
        self.policies
            .iter()
            .filter(|p| **p == LoweredPolicy::Recompute)
            .count()
    }

    /// Forward-phase eviction order (flattened `evict_after`).
    pub fn eviction_order(&self) -> Vec<usize> {
        self.evict_after.iter().flatten().copied().collect()
    }

    /// Blocks whose boundary activation leaves the device (the bytes the
    /// pre-boundary-eviction executor silently kept resident).
    pub fn boundary_evict_blocks(&self) -> usize {
        self.boundary
            .iter()
            .filter(|p| **p == BoundaryPolicy::Evict)
            .count()
    }

    /// True when the plan carried distributed (`AR` / `U`) ops.
    pub fn is_distributed(&self) -> bool {
        self.dist.is_some()
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

/// Analyse `plan` into a [`RuntimeSchedule`], or explain why the
/// out-of-core executor cannot realize it. Distributed plans are
/// accepted: their `AR` / `U` ops become the schedule's
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
/// let sched = lower_to_runtime(&p).unwrap();
/// let dist = sched.dist.expect("plan has AR/U ops");
/// assert_eq!(dist.n_groups(), 2);
/// assert_eq!(dist.groups[0].blocks, vec![1]); // launch order: last block first
/// assert_eq!(dist.groups[1].blocks, vec![0]);
/// assert_eq!(dist.groups[0].overlap_backwards(), 1); // overlaps B(0)
/// assert!(dist.groups.iter().all(|g| g.has_update));
/// ```
pub fn lower_to_runtime(plan: &Plan) -> Result<RuntimeSchedule, RuntimeLowerError> {
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

    // Eviction order: attach each Sout to the latest forward issued
    // before it.
    let mut evict_after = vec![Vec::new(); n];
    let mut evict_step = vec![usize::MAX; n];
    let mut souts: Vec<(usize, usize)> =
        (0..n).filter_map(|b| ix.sout[b].map(|i| (i, b))).collect();
    souts.sort_unstable();
    for (i, b) in souts {
        let j = (0..n)
            .rev()
            .find(|&j| ix.fwd[j].unwrap() < i)
            .expect("Sout checked to follow its own forward");
        evict_after[j].push(b);
        evict_step[b] = j;
    }

    // Prefetch schedule: attach each Sin to the backward step owning the
    // next compute op.
    let mut prefetch_before = vec![Vec::new(); n];
    let mut fetch_step = vec![usize::MAX; n];
    let mut sins: Vec<(usize, usize)> = (0..n).filter_map(|b| ix.sin[b].map(|i| (i, b))).collect();
    sins.sort_unstable();
    for (i, b) in sins {
        let &(_, j, is_bwd) = compute_ops
            .iter()
            .find(|&&(ci, _, _)| ci > i)
            .expect("Sin checked to precede its own backward");
        if is_bwd && ix.rec[j].is_some() {
            // The step's recompute already ran; the executor cannot fetch
            // between a re-forward and its backward.
            return Err(RuntimeLowerError::SwapInSplitsRecompute { block: b });
        }
        prefetch_before[j].push(b);
        fetch_step[b] = j;
    }

    // Boundary residency: a swapped block's Sout/Sin move the *full*
    // activation payload — the cost model credits `act_bytes`, boundary
    // included — so every swap block below the last two evicts its
    // boundary. The last block's boundary is the logits. Block `n - 2`'s
    // is the last block's input: its departure (at or after step `n - 1`)
    // and its return (at or before step `n - 1`) fall on the same
    // turnaround step, bracketing only the loss, so the trip would move
    // bytes without lowering the peak reached at F(n-1)'s end.
    // Departure cannot precede the consumer's forward (block `b + 1`
    // reads the boundary as its input). The return rides the block's Sin
    // when that Sin lands at or before backward step `b + 1` — the step
    // whose recompute/backward restarts from the boundary. When the Sin
    // lands *below* the consumer (the block fetches at its own step),
    // the boundary returns on its own separate transfer at step `b + 1`
    // instead: the executor processes split boundary returns before that
    // step's recompute/backward, so the deadline still holds.
    let mut boundary = vec![BoundaryPolicy::Resident; n];
    let mut boundary_evict_after = vec![Vec::new(); n];
    let mut boundary_fetch_before = vec![Vec::new(); n];
    for b in 0..n {
        if policies[b] != LoweredPolicy::Swap || b + 2 >= n {
            continue;
        }
        boundary[b] = BoundaryPolicy::Evict;
        boundary_evict_after[evict_step[b].max(b + 1)].push(b);
        boundary_fetch_before[fetch_step[b].max(b + 1)].push(b);
    }

    // Distributed half: AR/U ops become the phased-exchange schedule.
    let has_dist = (0..n).any(|b| ix.ar[b].is_some() || ix.upd[b].is_some());
    let dist = if has_dist {
        Some(analyse_dist(&ix, n)?)
    } else {
        None
    };

    Ok(RuntimeSchedule {
        policies,
        evict_after,
        prefetch_before,
        boundary,
        boundary_evict_after,
        boundary_fetch_before,
        dist,
    })
}

/// Pack a lowered schedule's swap blocks onto a finite tier stack by
/// greedy first-fit over the blocks' *parked intervals*.
///
/// Block `b`'s interiors leave the device after its eviction step and
/// return at its fetch step; its boundary (when evicted) departs at its
/// own — possibly later — departure step and returns with the same fetch.
/// Within that window the payload occupies its tier, so two blocks whose
/// windows overlap compete for capacity while blocks parked at disjoint
/// times share it. The packer walks blocks front to back and gives each
/// the fastest tier whose capacity holds the tier's occupancy timeline
/// everywhere; a block that fits nowhere makes the plan infeasible on
/// this stack ([`RuntimeLowerError::TierCapacityExceeded`]).
///
/// `tier_caps` are byte capacities fastest-first (`usize::MAX` =
/// unbounded); `interior_bytes[b]` / `boundary_bytes[b]` are block `b`'s
/// interior payload and boundary activation sizes.
pub fn assign_tiers(
    sched: &RuntimeSchedule,
    tier_caps: &[usize],
    interior_bytes: &[usize],
    boundary_bytes: &[usize],
) -> Result<Vec<TierPolicy>, RuntimeLowerError> {
    let n = sched.n_blocks();
    assert_eq!(interior_bytes.len(), n, "one interior byte count per block");
    assert_eq!(boundary_bytes.len(), n, "one boundary byte count per block");
    let mut tier = vec![TierPolicy::Device; n];
    if sched.swap_blocks() == 0 {
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
    let step_of = |lists: &[Vec<usize>], b: usize| lists.iter().position(|l| l.contains(&b));
    let mut usage = vec![vec![0usize; slots]; tier_caps.len()];
    for b in 0..n {
        if sched.policies[b] != LoweredPolicy::Swap {
            continue;
        }
        let e = step_of(&sched.evict_after, b).expect("swap block has an eviction step");
        let f = step_of(&sched.prefetch_before, b).expect("swap block has a fetch step");
        let ret = n + (n - 1 - f);
        let mut add = vec![0usize; slots];
        for s in add.iter_mut().take(ret).skip(e) {
            *s += interior_bytes[b];
        }
        if sched.boundary[b] == BoundaryPolicy::Evict {
            let be = step_of(&sched.boundary_evict_after, b)
                .expect("evicted boundary has a departure step");
            // The boundary's own return step: the interior's fetch step
            // when it rides the Sin, the consumer's step (earlier in
            // time) when the return is split off.
            let bf = step_of(&sched.boundary_fetch_before, b)
                .expect("evicted boundary has a return step");
            let bret = n + (n - 1 - bf);
            for s in add.iter_mut().take(bret).skip(be) {
                *s += boundary_bytes[b];
            }
        }
        let fits = |u: &[usize], cap: usize| u.iter().zip(&add).all(|(&used, &a)| used + a <= cap);
        match (0..tier_caps.len()).find(|&t| fits(&usage[t], tier_caps[t])) {
            Some(t) => {
                for (u, a) in usage[t].iter_mut().zip(&add) {
                    *u += a;
                }
                tier[b] = TierPolicy::Far(t);
            }
            None => {
                let boundary = if sched.boundary[b] == BoundaryPolicy::Evict {
                    boundary_bytes[b]
                } else {
                    0
                };
                return Err(RuntimeLowerError::TierCapacityExceeded {
                    block: b,
                    bytes: interior_bytes[b] + boundary,
                });
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
        assert_eq!(s.n_blocks(), 6);
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
        let order = s.eviction_order();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        // Every swapped block below the last two evicts its boundary;
        // resident blocks keep theirs.
        for b in 0..6 {
            let expect = if s.policies[b] == LoweredPolicy::Swap && b + 2 < 6 {
                BoundaryPolicy::Evict
            } else {
                BoundaryPolicy::Resident
            };
            assert_eq!(s.boundary[b], expect, "block {b} boundary");
        }
        assert_eq!(s.boundary_evict_blocks(), s.swap_blocks());
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
        assert_eq!(s.boundary[4], BoundaryPolicy::Resident, "logits stay");
        assert_eq!(
            s.boundary[3],
            BoundaryPolicy::Resident,
            "the last block's input stays"
        );
        assert_eq!(s.boundary_evict_blocks(), 3);
        for (j, list) in s.boundary_evict_after.iter().enumerate() {
            for &e in list {
                assert!(j > e, "boundary of {e} left before F({}) read it", e + 1);
            }
        }
        for (j, list) in s.boundary_fetch_before.iter().enumerate() {
            for &p in list {
                assert!(j > p, "boundary of {p} back after B({})", p + 1);
                // The boundary rides the block's swap-in, or returns on
                // its own split transfer at the consumer's step.
                assert!(s.prefetch_before[j].contains(&p) || j == p + 1);
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
        assert_eq!(s.boundary[0], BoundaryPolicy::Evict);
        assert_eq!(s.prefetch_before[0], vec![0], "interior fetch stays put");
        assert_eq!(
            s.boundary_fetch_before[1],
            vec![0],
            "boundary returns at the consumer's step"
        );
        assert!(!s.prefetch_before[1].contains(&0), "split, not riding");
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
        assert_eq!(s.boundary[0], BoundaryPolicy::Evict);
        assert_eq!(s.prefetch_before[0], vec![0]);
        assert_eq!(s.boundary_fetch_before[1], vec![0]);
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
        assert_eq!(s.boundary, vec![BoundaryPolicy::Resident]);
        assert_eq!(s.boundary_evict_blocks(), 0);
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
        assert!(s.eviction_order().is_empty());
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
        assert!(s.is_distributed());
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
        assert!(!lower_to_runtime(&cp.plan).unwrap().is_distributed());
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
    fn eager_swap_schedule() -> RuntimeSchedule {
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
