//! The plan→runtime bridge: execute what the planner planned.
//!
//! [`plan_net`] is the one executable planning pipeline (paper Fig. 1,
//! steps 1–5): profile a `ModelGraph`, search its blocking, refine
//! recompute and build the capacity-based plan, with boundaries mapped
//! onto the executable net; [`NetPlan::lower`] then sizes the
//! near-memory budget from the plan's own residency replay and lowers it.
//!
//! [`lower_plan`] turns a validated `karma-core` [`Plan`] into a configured
//! [`OocExecutor`]: `karma_core::bridge::lower_to_runtime` emits the
//! transfer program — the per-block [`crate::BlockPolicy`], the plan's
//! exact eviction order, each fetch at its latest issue step and the
//! boundary departures and returns, as one step-ordered op list — and the
//! executor holds that program and interprets it every step. Plans the
//! executor cannot realize come back as a typed [`BridgeError`], never a
//! panic; nothing re-checks the program after `lower_to_runtime`.
//!
//! Distributed plans lower too: [`lower_dist_plan`] additionally turns
//! the plan's `AR`/`U` ops (analysed into a
//! [`karma_core::bridge::DistSchedule`]) into the
//! [`crate::dp::ExchangeSchedule`] that [`crate::dp::train`] executes
//! with real worker threads and a grouped, overlap-friendly gradient
//! exchange.
//!
//! [`ResidencyReplay::of`] replays a lowered executor's transfer program
//! against real per-activation byte sizes and predicts its near- and
//! far-memory trajectory sample by sample, on whatever tiers and I/O
//! lanes it runs ([`expected_residency`] is that replay of a plan's
//! [`lower_plan`] executor); [`expected_exchange`] does the same for
//! the distributed half, predicting message count and bytes-per-group
//! exactly. Together with the op counts in [`crate::OocStats`] this
//! closes the loop the paper's Sec. IV claims: the schedule the planner
//! searched over is the schedule the runtime runs, with matching
//! swap/recompute operations, residency, and exchange traffic.
//!
//! ```
//! use karma_core::plan::{OpKind, Plan};
//! use karma_runtime::bridge::lower_plan;
//! use karma_tensor::{small_cnn, SyntheticDataset};
//!
//! // A hand-written 3-block plan: swap block 0 out during the forward
//! // sweep, prefetch it back during the backward sweep.
//! let mut p = Plan::new(3);
//! let f0 = p.push(OpKind::Forward, 0, vec![]);
//! let so = p.push(OpKind::SwapOut, 0, vec![f0]);
//! let f1 = p.push(OpKind::Forward, 1, vec![f0]);
//! let f2 = p.push(OpKind::Forward, 2, vec![f1]);
//! let b2 = p.push(OpKind::Backward, 2, vec![f2]);
//! let si = p.push(OpKind::SwapIn, 0, vec![so, b2]);
//! let b1 = p.push(OpKind::Backward, 1, vec![b2]);
//! p.push(OpKind::Backward, 0, vec![b1, si]);
//!
//! let mut net = small_cnn(4, 11);
//! let exec = lower_plan(&p, &[0, 3, 6], usize::MAX / 2, net.len()).unwrap();
//! let data = SyntheticDataset::classification(32, 1, 16, 4, 7);
//! let (x, y) = data.batch(0, 16);
//! let (_loss, stats) = exec.train_step(&mut net, &x, &y, 0.05);
//! assert_eq!(stats.swap_out_ops, p.count(OpKind::SwapOut));
//! assert_eq!(stats.swap_in_ops, p.count(OpKind::SwapIn));
//! ```

use karma_core::bridge::{assign_tiers, lower_to_runtime, RuntimeLowerError, TierPolicy};
use karma_core::capacity::{build_training_plan, CapacityPlanOptions};
use karma_core::cost::{BlockCosts, LayerCostTable};
use karma_core::occupancy::OccupancyModel;
use karma_core::opt::{optimize_blocking, refine_recompute, OptConfig};
use karma_core::plan::{OpKind, Plan};
use karma_core::program::{Op, Transfer, TransferProgram};
use karma_graph::{MemoryParams, ModelGraph};
use karma_hw::NodeSpec;
use karma_sim::ModelProfile;
use karma_tensor::{Sequential, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::dp::ExchangeSchedule;
use crate::exec::{ExecEvent, OocExecutor, ResidencySample};
use crate::store::TierSpec;

/// Why a plan could not be bridged onto the executor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BridgeError {
    /// The plan itself is unrealizable (see [`RuntimeLowerError`]).
    Lower(RuntimeLowerError),
    /// The plan and the boundary vector disagree on the block count.
    BlockCountMismatch {
        /// Blocks the plan covers.
        plan_blocks: usize,
        /// Blocks the boundaries describe.
        boundary_blocks: usize,
    },
    /// Boundaries are not a valid partition (must start at 0, strictly
    /// increase, and stay below the layer count).
    InvalidBoundaries(String),
    /// A planner boundary in graph-layer space would open a block holding
    /// only the input layer, which has no executable analogue.
    LeadingInputBlock,
    /// A byte-priced replay or lowering needs one byte size per
    /// near-memory key (input + every layer output).
    KeyBytesLength {
        /// `n_layers + 1`.
        expected: usize,
        /// What was passed.
        got: usize,
    },
    /// `expected_exchange` needs one gradient byte size per block.
    GradBytesLength {
        /// The plan's block count.
        expected: usize,
        /// What was passed.
        got: usize,
    },
    /// [`expected_swap_timing`]'s routing vector is malformed: wrong
    /// length or a tier index beyond the stack.
    TierRouting(String),
}

impl From<RuntimeLowerError> for BridgeError {
    fn from(e: RuntimeLowerError) -> Self {
        BridgeError::Lower(e)
    }
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::Lower(e) => write!(f, "unrealizable plan: {e}"),
            BridgeError::BlockCountMismatch {
                plan_blocks,
                boundary_blocks,
            } => write!(
                f,
                "plan covers {plan_blocks} blocks but boundaries describe {boundary_blocks}"
            ),
            BridgeError::InvalidBoundaries(msg) => write!(f, "invalid boundaries: {msg}"),
            BridgeError::LeadingInputBlock => {
                write!(f, "boundary at graph layer 1 isolates the input layer")
            }
            BridgeError::KeyBytesLength { expected, got } => {
                write!(f, "need {expected} per-key byte sizes, got {got}")
            }
            BridgeError::GradBytesLength { expected, got } => {
                write!(f, "need {expected} per-block gradient sizes, got {got}")
            }
            BridgeError::TierRouting(msg) => write!(f, "bad tier routing: {msg}"),
        }
    }
}

impl std::error::Error for BridgeError {}

/// A capacity-based plan searched for an executable net: what
/// [`plan_net`] returns and [`NetPlan::lower`] executes.
#[derive(Debug, Clone)]
pub struct NetPlan {
    /// The `karma_with_recompute` plan (single-device ops only; append
    /// `AR`/`U` ops to a copy for a distributed run).
    pub plan: Plan,
    /// The block costs the plan was built and priced on.
    pub costs: BlockCosts,
    /// Start layer of each block in net-layer space.
    pub bounds: Vec<usize>,
}

/// Profile `graph` at `batch` on `node` under [`MemoryParams::exact`],
/// search its blocking with `cfg`, refine recompute and build the
/// `karma_with_recompute` capacity plan — paper Fig. 1 steps 1–5 — with
/// the boundaries mapped onto the net `graph` mirrors. Cuts at graph
/// layer 1 would isolate the input layer, which has no executable
/// analogue, so the search never considers them whatever
/// `cfg.min_cut_layer` says.
///
/// ```
/// use karma_core::opt::OptConfig;
/// use karma_core::plan::OpKind;
/// use karma_graph::MemoryParams;
/// use karma_hw::{GpuSpec, LinkSpec, NodeSpec};
/// use karma_runtime::bridge::plan_net;
/// use karma_tensor::{conv_stack, SyntheticDataset};
/// use karma_zoo::micro::conv_stack_graph;
///
/// // Plan for a device holding 65% of the model's peak footprint. The
/// // graph mirrors the executable net, so the planner's bytes are the
/// // executor's bytes.
/// let graph = conv_stack_graph(6, 4);
/// let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
/// let gpu = GpuSpec::toy((need * 0.65) as u64, 5.0e9);
/// let node = NodeSpec::toy(gpu, LinkSpec::toy(4.0e9));
/// let planned = plan_net(&graph, 16, &node, &OptConfig::fast(17))?;
///
/// // Lower at the plan's replayed peak and run a real training step.
/// let mut net = conv_stack(6, 4, 11);
/// let (x, y) = SyntheticDataset::classification(32, 1, 16, 4, 7).batch(0, 16);
/// let (exec, replay) = planned.lower(&net, &x)?;
/// let (_loss, stats) = exec.train_step(&mut net, &x, &y, 0.05);
/// assert_eq!(stats.swap_in_ops, planned.plan.count(OpKind::SwapIn));
/// assert_eq!(stats.recompute_ops, planned.plan.count(OpKind::Recompute));
/// assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
/// # Ok::<(), karma_runtime::bridge::BridgeError>(())
/// ```
pub fn plan_net(
    graph: &ModelGraph,
    batch: usize,
    node: &NodeSpec,
    cfg: &OptConfig,
) -> Result<NetPlan, BridgeError> {
    let profile = ModelProfile::collect(graph, batch, &node.gpu, &MemoryParams::exact());
    let table = LayerCostTable::from_profile(&profile, node);
    let mut cfg = cfg.clone();
    cfg.min_cut_layer = cfg.min_cut_layer.max(2);
    let cuts = optimize_blocking(&table, &cfg);
    let bounds = graph_boundaries_to_net(&cuts)?;
    let costs = table.block_costs(&cuts);
    let rc = refine_recompute(&costs);
    let plan = build_training_plan(&costs, &CapacityPlanOptions::karma_with_recompute(rc)).plan;
    Ok(NetPlan {
        plan,
        costs,
        bounds,
    })
}

impl NetPlan {
    /// Replay the plan on `net`'s activations of `x` and lower it onto an
    /// executor whose near-memory budget is the replay's peak — the
    /// tightest budget the schedule runs in, so an executed step peaks at
    /// exactly `replay.peak_bytes`. A net the boundaries do not fit comes
    /// back as a typed [`BridgeError`].
    pub fn lower(
        &self,
        net: &Sequential,
        x: &Tensor,
    ) -> Result<(OocExecutor, ResidencyReplay), BridgeError> {
        let key_bytes: Vec<usize> = net.forward_all(x).iter().map(Tensor::bytes).collect();
        let replay = expected_residency(&self.plan, &self.bounds, &key_bytes, net.len())?;
        let exec = lower_plan(&self.plan, &self.bounds, replay.peak_bytes, net.len())?;
        Ok((exec, replay))
    }
}

fn check_boundaries(plan: &Plan, boundaries: &[usize], n_layers: usize) -> Result<(), BridgeError> {
    if boundaries.len() != plan.n_blocks {
        return Err(BridgeError::BlockCountMismatch {
            plan_blocks: plan.n_blocks,
            boundary_blocks: boundaries.len(),
        });
    }
    if boundaries.first() != Some(&0) {
        return Err(BridgeError::InvalidBoundaries(
            "first boundary must be 0".into(),
        ));
    }
    if !boundaries.windows(2).all(|w| w[0] < w[1]) {
        return Err(BridgeError::InvalidBoundaries(
            "boundaries must strictly increase".into(),
        ));
    }
    if *boundaries.last().unwrap() >= n_layers {
        return Err(BridgeError::InvalidBoundaries(format!(
            "last boundary {} is beyond the {n_layers}-layer net",
            boundaries.last().unwrap()
        )));
    }
    Ok(())
}

/// Lower `plan` into a runnable executor over `boundaries` (start layer of
/// each block, net-layer space) with a near-memory byte `budget`. The
/// executor reproduces the plan's per-block policies and eviction order
/// exactly. The plan's prefetch step is each fetch's latest issue step:
/// the executor issues it at the earliest backward step its replayed
/// residency allows ([`ResidencyReplay::of`] predicts where).
/// Distributed plans are accepted — their `AR`/`U` ops describe the
/// *exchange*, which the executor does not run; use [`lower_dist_plan`]
/// to also recover the exchange grouping for [`crate::dp::train`].
///
/// ```
/// use karma_core::bridge::lower_to_runtime;
/// use karma_core::plan::{OpKind, Plan};
/// use karma_core::program::Op;
/// use karma_runtime::bridge::{lower_plan, ResidencyReplay};
/// use karma_runtime::{BlockPolicy, ExecEvent};
///
/// // Three blocks, block 0 swapped out during the forward sweep and
/// // fetched after B(2) — before block 1's backward, which restarts
/// // from block 0's (evicted) boundary activation.
/// let mut p = Plan::new(3);
/// let f0 = p.push(OpKind::Forward, 0, vec![]);
/// let so = p.push(OpKind::SwapOut, 0, vec![f0]);
/// let f1 = p.push(OpKind::Forward, 1, vec![f0]);
/// let f2 = p.push(OpKind::Forward, 2, vec![f1]);
/// let b2 = p.push(OpKind::Backward, 2, vec![f2]);
/// let si = p.push(OpKind::SwapIn, 0, vec![so, b2]);
/// let b1 = p.push(OpKind::Backward, 1, vec![b2]);
/// p.push(OpKind::Backward, 0, vec![b1, si]);
///
/// // The program the executor runs: block 0 evicts after F(0) and is
/// // fetched by B(1). Its boundary leaves once F(1) has read it and
/// // returns riding its swap-in. (Block 1's boundary is the last block's
/// // input and would leave and return at the turnaround: it stays.)
/// let program = lower_to_runtime(&p).unwrap();
/// let moves: Vec<_> = program
///     .ops
///     .iter()
///     .filter_map(|op| match op {
///         Op::Out(t) | Op::In(t) => Some((t.event(), t.block, t.step)),
///         _ => None,
///     })
///     .collect();
/// use ExecEvent::{Backward, BoundaryOut, Forward, SwapIn, SwapOut};
/// assert_eq!(moves, [(SwapOut, 0, 0), (BoundaryOut, 0, 1), (SwapIn, 0, 1)]);
///
/// let exec = lower_plan(&p, &[0, 3, 6], usize::MAX / 2, 8).unwrap();
/// use BlockPolicy::{Resident, Swap};
/// assert_eq!(exec.policies(), &[Swap, Resident, Resident]);
/// // The same program, as the executor's replay samples it: the
/// // interiors leave after F(0), the boundary after F(1), and both
/// // return before B(1) as one transfer.
/// let replay = ResidencyReplay::of(&exec, &[16; 9]).unwrap();
/// let events: Vec<_> = replay.samples.iter().map(|s| (s.event, s.block)).collect();
/// assert_eq!(
///     events,
///     [
///         (Forward, 0),
///         (SwapOut, 0),
///         (Forward, 1),
///         (BoundaryOut, 0),
///         (Forward, 2),
///         (Backward, 2),
///         (SwapIn, 0),
///         (Backward, 1),
///         (Backward, 0),
///     ]
/// );
/// ```
pub fn lower_plan(
    plan: &Plan,
    boundaries: &[usize],
    budget: usize,
    n_layers: usize,
) -> Result<OocExecutor, BridgeError> {
    build_executor(lower_to_runtime(plan)?, plan, boundaries, budget, n_layers)
}

/// [`lower_plan`] with a far-memory tier stack: pack each swapped block's
/// out-of-device interval into the fastest tier with room
/// ([`karma_core::bridge::assign_tiers`]), then route the executor's
/// transfers accordingly ([`OocExecutor::with_tiers`]). `key_bytes[k]`
/// prices near-memory key `k` exactly as in [`ResidencyReplay::of`] —
/// interval packing and the residency replay see the same bytes, so a
/// stack that lowers here cannot overflow a tier at run time. Stacks with
/// no room for some block come back as
/// [`RuntimeLowerError::TierCapacityExceeded`] wrapped in
/// [`BridgeError::Lower`].
pub fn lower_plan_tiered(
    plan: &Plan,
    boundaries: &[usize],
    budget: usize,
    n_layers: usize,
    key_bytes: &[usize],
    tiers: &[TierSpec],
) -> Result<OocExecutor, BridgeError> {
    if tiers.is_empty() {
        return Err(BridgeError::Lower(RuntimeLowerError::TierStackEmpty));
    }
    let exec = lower_priced(plan, boundaries, budget, n_layers, key_bytes)?;
    let (interior_bytes, boundary_bytes): (Vec<usize>, Vec<usize>) = exec
        .ranges()
        .iter()
        .map(|&(s, e)| (key_bytes[s + 1..e].iter().sum::<usize>(), key_bytes[e]))
        .unzip();
    let caps: Vec<usize> = tiers.iter().map(|t| t.capacity).collect();
    let routed = assign_tiers(exec.program(), &caps, &interior_bytes, &boundary_bytes)?;
    let tier_of: Vec<usize> = routed
        .iter()
        .map(|p| match p {
            TierPolicy::Far(t) => *t,
            TierPolicy::Device => 0,
        })
        .collect();
    Ok(exec.with_tiers(tiers.to_vec(), tier_of))
}

/// Lower `plan` onto an executor over `boundaries` and check that
/// `key_bytes` sizes its near-memory keys: the shared front of the
/// plan-level entry points that price bytes.
fn lower_priced(
    plan: &Plan,
    boundaries: &[usize],
    budget: usize,
    n_layers: usize,
    key_bytes: &[usize],
) -> Result<OocExecutor, BridgeError> {
    let exec = lower_plan(plan, boundaries, budget, n_layers)?;
    check_key_bytes(key_bytes, n_layers)?;
    Ok(exec)
}

/// Check that `key_bytes` sizes every near-memory key of an
/// `n_layers`-layer net (the input and each layer's output), so every
/// entry point that prices bytes answers a malformed vector with the same
/// typed error.
fn check_key_bytes(key_bytes: &[usize], n_layers: usize) -> Result<(), BridgeError> {
    if key_bytes.len() != n_layers + 1 {
        return Err(BridgeError::KeyBytesLength {
            expected: n_layers + 1,
            got: key_bytes.len(),
        });
    }
    Ok(())
}

/// Check [`expected_swap_timing`]'s tier routing: one in-range tier per
/// block.
fn check_routing(plan: &Plan, tier_of: &[usize], n_tiers: usize) -> Result<(), BridgeError> {
    if tier_of.len() != plan.n_blocks {
        return Err(BridgeError::TierRouting(format!(
            "need one tier per block: {} blocks, {} routes",
            plan.n_blocks,
            tier_of.len()
        )));
    }
    if let Some(t) = tier_of.iter().find(|&&t| t >= n_tiers) {
        return Err(BridgeError::TierRouting(format!(
            "block routed to missing tier {t} of a {n_tiers}-tier stack"
        )));
    }
    Ok(())
}

/// Run a lowered program on an executor over `boundaries`.
fn build_executor(
    program: TransferProgram,
    plan: &Plan,
    boundaries: &[usize],
    budget: usize,
    n_layers: usize,
) -> Result<OocExecutor, BridgeError> {
    check_boundaries(plan, boundaries, n_layers)?;
    Ok(OocExecutor::from_program(
        boundaries.to_vec(),
        program,
        budget,
        n_layers,
    ))
}

/// Lower a (possibly distributed) `plan` into the executor *and* the
/// gradient-exchange schedule its `AR`/`U` ops prescribe. Single-GPU
/// plans (no `AR`/`U`) get the un-merged per-block exchange
/// ([`crate::dp::ExchangeSchedule::per_block`]) — so the pair
/// is directly runnable by [`crate::dp::train`] either way.
pub fn lower_dist_plan(
    plan: &Plan,
    boundaries: &[usize],
    budget: usize,
    n_layers: usize,
) -> Result<(OocExecutor, ExchangeSchedule), BridgeError> {
    let mut program = lower_to_runtime(plan)?;
    let xchg = match program.dist.take() {
        Some(d) => ExchangeSchedule::new(d.group_blocks(), plan.n_blocks),
        None => ExchangeSchedule::per_block(plan.n_blocks),
    };
    let exec = build_executor(program, plan, boundaries, budget, n_layers)?;
    Ok((exec, xchg))
}

/// Per-block gradient payload sizes of `net` over `boundaries` — what
/// each block contributes to an exchange message. Derived from the
/// parameter shapes (one gradient tensor per parameter, identical
/// shape), so no training step is needed; [`expected_exchange`] and the
/// MG-WFBP grouping both consume this.
pub fn block_grad_bytes(net: &Sequential, boundaries: &[usize]) -> Vec<u64> {
    let layer_bytes: Vec<u64> = net
        .layers
        .iter()
        .map(|l| l.params().iter().map(|t| Tensor::bytes(t)).sum::<usize>() as u64)
        .collect();
    (0..boundaries.len())
        .map(|b| {
            let s = boundaries[b];
            let e = boundaries.get(b + 1).copied().unwrap_or(net.len());
            layer_bytes[s..e].iter().sum()
        })
        .collect()
}

/// The predicted gradient-exchange traffic of a distributed execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExchangeReplay {
    /// Member blocks per message, in launch order.
    pub groups: Vec<Vec<usize>>,
    /// Payload bytes of one worker's message per group, in launch order —
    /// what `DataParallelReport::group_bytes` will record.
    pub per_group_bytes: Vec<u64>,
    /// Messages one step produces across all workers.
    pub messages_per_step: usize,
    /// Messages the whole run produces (`messages_per_step × steps`) —
    /// what `DataParallelReport::exchange_messages` will record.
    pub messages: usize,
    /// Gradient payload one step ships across all workers.
    pub bytes_per_step: u64,
    /// Payload the whole run ships — what
    /// `DataParallelReport::exchanged_bytes` will record.
    pub total_bytes: u64,
}

/// Replay `plan`'s exchange ops over real per-block gradient sizes
/// (`grad_bytes[b]` = bytes of block `b`'s parameter gradients) and
/// predict exactly the message count and payload a `workers`-replica,
/// `steps`-step [`crate::dp::train`] run will ship — the distributed
/// analogue of [`expected_residency`]. Plans without `AR`/`U` ops replay
/// the per-block protocol, mirroring [`lower_dist_plan`].
pub fn expected_exchange(
    plan: &Plan,
    grad_bytes: &[u64],
    workers: usize,
    steps: usize,
) -> Result<ExchangeReplay, BridgeError> {
    let program = lower_to_runtime(plan)?;
    if grad_bytes.len() != plan.n_blocks {
        return Err(BridgeError::GradBytesLength {
            expected: plan.n_blocks,
            got: grad_bytes.len(),
        });
    }
    let groups: Vec<Vec<usize>> = match program.dist {
        Some(d) => d.group_blocks(),
        None => (0..plan.n_blocks).rev().map(|b| vec![b]).collect(),
    };
    let per_group_bytes: Vec<u64> = groups
        .iter()
        .map(|g| g.iter().map(|&b| grad_bytes[b]).sum())
        .collect();
    let bytes_per_step: u64 = per_group_bytes.iter().sum::<u64>() * workers as u64;
    Ok(ExchangeReplay {
        messages_per_step: groups.len() * workers,
        messages: groups.len() * workers * steps,
        bytes_per_step,
        total_bytes: bytes_per_step * steps as u64,
        groups,
        per_group_bytes,
    })
}

/// The predicted wall-clock timing of a distributed execution's gradient
/// exchange — [`expected_exchange`]'s traffic replay extended with
/// per-group α–β instants, all measured in seconds from the start of the
/// backward phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExchangeTiming {
    /// Member blocks per message, launch order (as [`ExchangeReplay`]).
    pub groups: Vec<Vec<usize>>,
    /// Payload bytes of one worker's message per group — byte-for-byte
    /// the [`ExchangeReplay::per_group_bytes`] of the same plan (both are
    /// computed by the same replay).
    pub per_group_bytes: Vec<u64>,
    /// Modeled instant each group ships: its gate block's backward
    /// finish under the Eq. 8 occupancy model (turnaround stalls and
    /// prefetch gating priced in).
    pub ship: Vec<f64>,
    /// Modeled instant each group's all-reduce completes:
    /// `ready[g] = max(ship[g], ready[g-1]) + α + β·bytes[g]` — groups
    /// serialize on one exchange lane but overlap the remaining backward.
    pub ready: Vec<f64>,
    /// The modeled backward-phase wall time (Eq. 8).
    pub backward: f64,
    /// When the whole exchange completes: `ready` of the last group. The
    /// modeled step extends the backward by `total - backward` — the
    /// exchange tail the phased overlap could not hide.
    pub total: f64,
}

impl ExchangeTiming {
    /// The modeled overlap window of group `g`: the `[ship, ready)`
    /// interval its aggregation runs in, concurrent with the backward
    /// work scheduled after its gate.
    pub fn window(&self, g: usize) -> (f64, f64) {
        (self.ship[g], self.ready[g])
    }

    /// Exchange time not hidden by the backward phase.
    pub fn exposed(&self) -> f64 {
        (self.total - self.backward).max(0.0)
    }
}

/// The Eq. 8 occupancy walk of `plan` over `costs`, with residency
/// classes read off the plan's own ops: a block is recomputed if it has a
/// Recompute op, swapped if it has a SwapOut; `resident_from` is the first
/// block with neither (non-resident blocks sit below the residency
/// boundary by construction).
fn occupancy<'a>(plan: &Plan, costs: &'a BlockCosts) -> OccupancyModel<'a> {
    let n = plan.n_blocks;
    let recompute: Vec<bool> = (0..n)
        .map(|b| plan.find(OpKind::Recompute, b).is_some())
        .collect();
    let resident_from = (0..n)
        .filter(|&b| recompute[b] || plan.find(OpKind::SwapOut, b).is_some())
        .map(|b| b + 1)
        .max()
        .unwrap_or(0);
    OccupancyModel::new(costs, resident_from, recompute)
}

/// Model the wall-clock exchange timing of `plan` over the cost model
/// that produced it: per-group ship instants from the Eq. 8 occupancy
/// walk's backward finish times (`karma_core::occupancy::OccupancyModel`)
/// and ready instants from an α–β transfer model (`alpha` seconds latency
/// per message, `beta` seconds per payload byte — take them from
/// `karma_net::AllReduceModel::algo_bandwidth` or measure them). The
/// plan's own `SwapOut`/`Recompute` ops decide each block's residency
/// class, so the timing replay prices exactly the schedule that lowers.
///
/// Traffic and timing stay coupled by construction: `per_group_bytes`
/// here **equals** [`expected_exchange`]'s replay of the same plan
/// exactly (the same code path computes both).
pub fn expected_exchange_timing(
    plan: &Plan,
    costs: &BlockCosts,
    grad_bytes: &[u64],
    alpha: f64,
    beta: f64,
) -> Result<ExchangeTiming, BridgeError> {
    let replay = expected_exchange(plan, grad_bytes, 1, 1)?;
    if costs.n_blocks() != plan.n_blocks {
        return Err(BridgeError::BlockCountMismatch {
            plan_blocks: plan.n_blocks,
            boundary_blocks: costs.n_blocks(),
        });
    }
    let model = occupancy(plan, costs);
    let finish = model.backward_finish_times();
    let backward = model.backward_time();

    let ship: Vec<f64> = replay
        .groups
        .iter()
        .map(|blocks| finish[*blocks.last().expect("groups are non-empty")])
        .collect();
    let mut ready = Vec::with_capacity(ship.len());
    let mut lane = 0.0f64;
    for (s, bytes) in ship.iter().zip(&replay.per_group_bytes) {
        lane = lane.max(*s) + alpha + beta * *bytes as f64;
        ready.push(lane);
    }
    let total = ready.last().copied().unwrap_or(0.0);
    Ok(ExchangeTiming {
        groups: replay.groups,
        per_group_bytes: replay.per_group_bytes,
        ship,
        ready,
        backward,
        total,
    })
}

/// One modeled far-memory transfer of a plan's swap schedule — an entry
/// of [`SwapTiming::transfers`], all instants in seconds from the start
/// of the step's forward phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapTransfer {
    /// What moves: [`ExecEvent::SwapOut`]/[`ExecEvent::BoundaryOut`]
    /// during the forward sweep, [`ExecEvent::SwapIn`]/
    /// [`ExecEvent::BoundaryIn`] during the backward sweep.
    pub event: ExecEvent,
    /// The block whose bytes move.
    pub block: usize,
    /// The forward (out) or backward (in) step that issues the transfer:
    /// a fetch's placed step, which is never later than its scheduled one.
    pub step: usize,
    /// The far tier the bytes move to/from (`tier_of[block]`).
    pub tier: usize,
    /// The I/O lane the transfer runs on (`block % lanes`, the engine's
    /// rule; 0 when transfers run inline).
    pub lane: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Modeled instant the transfer is submitted to its lane: its step's
    /// instant on the compute timeline, delayed by every stall charged
    /// before it.
    pub issue: f64,
    /// Modeled instant the transfer completes:
    /// `max(lane free, issue) + α + β·passes·bytes + link` — transfers
    /// serialize per lane but overlap compute.
    pub ready: f64,
    /// Modeled instant compute reads the bytes: the deadline step's
    /// compute start for fetches (`p` for interiors, `p + 1` for a riding
    /// boundary, per the engine's deadline rules), the end of the
    /// backward phase for swap-outs (drained when the step retires) —
    /// delayed, like `issue`, by every stall charged before it.
    pub due: f64,
    /// Transfer time compute cannot hide. On a lane, the transfers due
    /// at one wait point are waited one after another in issue order, so
    /// each pays only what is left after the earlier ones landed:
    /// `max(0, ready - due - stall of the earlier ones)`, and the wait
    /// point's stalls sum to its latest transfer's lateness. An inline
    /// transfer (0 lanes) is waited at its issue point and pays its whole
    /// service time here.
    pub stall: f64,
}

/// The predicted wall-clock swap timing of a lowered execution — the
/// far-memory sibling of [`ExchangeTiming`], produced by
/// [`expected_swap_timing`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapTiming {
    /// Every modeled transfer, in the engine's issue order.
    pub transfers: Vec<SwapTransfer>,
    /// I/O lanes modeled. 0 models the inline backend: every transfer
    /// runs on the compute thread and is waited where it is issued, so
    /// `stall_s == busy_s` and `hidden_s == 0`; with lanes, a transfer
    /// is waited at its deadline.
    pub lanes: usize,
    /// Total transfer service time (`Σ` per-transfer `α + β·passes·bytes
    /// + link`) — what [`crate::OocStats::swap_wait_s`] +
    /// [`crate::OocStats::swap_hidden_s`] measure at run time.
    pub busy_s: f64,
    /// Transfer time compute waits for (`Σ stall`) — the modeled
    /// [`crate::OocStats::swap_wait_s`].
    pub stall_s: f64,
    /// Transfer time hidden behind compute (`busy_s - stall_s`, clipped
    /// per transfer) — the modeled [`crate::OocStats::swap_hidden_s`].
    pub hidden_s: f64,
}

/// Model the wall-clock swap timing of `plan` lowered onto a swap engine
/// with `lanes` I/O lanes: a fold over the same transfer program the
/// executor interprets, its fetches placed from `key_bytes` as the
/// engine places them. Issue instants come from each transfer's step on
/// the cost model's compute timeline (forward prefix sums, Eq. 8
/// [`karma_core::occupancy::OccupancyModel`] backward finish times),
/// ready instants from an α–β-per-lane transfer model (`alpha` seconds
/// latency per transfer, `beta` seconds per byte *per copy pass*, plus
/// each tier's [`TierSpec::link_ns_per_kib`] occupancy), and due instants
/// from the program's deadlines — interiors by their block's backward, a
/// boundary one step earlier. A stall delays compute, so it shifts every
/// later issue and due instant by the same amount. `lanes = 0` models
/// inline transfers: every one is fully exposed (`stall = busy`), which
/// is exactly what [`crate::OocStats::swap_wait_s`] measures there.
#[allow(clippy::too_many_arguments)]
pub fn expected_swap_timing(
    plan: &Plan,
    costs: &BlockCosts,
    boundaries: &[usize],
    key_bytes: &[usize],
    n_layers: usize,
    tier_of: &[usize],
    tiers: &[TierSpec],
    lanes: usize,
    alpha: f64,
    beta: f64,
) -> Result<SwapTiming, BridgeError> {
    if tiers.is_empty() {
        return Err(BridgeError::Lower(RuntimeLowerError::TierStackEmpty));
    }
    check_routing(plan, tier_of, tiers.len())?;
    if costs.n_blocks() != plan.n_blocks {
        return Err(BridgeError::BlockCountMismatch {
            plan_blocks: plan.n_blocks,
            boundary_blocks: costs.n_blocks(),
        });
    }
    // The executor is never run: only its transfer program is read.
    let exec = lower_priced(plan, boundaries, usize::MAX, n_layers, key_bytes)?
        .with_tiers(tiers.to_vec(), tier_of.to_vec());
    let mut program = exec.program().clone();
    program.place_fetches(exec.ranges(), key_bytes);
    let n = plan.n_blocks;

    // Compute timeline. Forward step b retires at the forward prefix sum;
    // backward step b starts when step b+1 finishes under the Eq. 8
    // occupancy walk (the turnaround starts the backward clock at the end
    // of the forward phase).
    let finish = occupancy(plan, costs).backward_finish_times();
    let fwd_finish: Vec<f64> = costs
        .forward
        .iter()
        .scan(0.0, |acc, f| {
            *acc += f;
            Some(*acc)
        })
        .collect();
    let fwd_total = fwd_finish.last().copied().unwrap_or(0.0);
    // Backward step s starts at finish[s + 1] (step n-1 at the turnaround).
    let bwd_start = |s: usize| -> f64 { fwd_total + if s + 1 < n { finish[s + 1] } else { 0.0 } };
    let bwd_end = fwd_total + finish.first().copied().unwrap_or(0.0);

    let mut lane_free = vec![0.0f64; lanes.max(1)];
    let mut transfers: Vec<SwapTransfer> = Vec::new();
    let mut busy: Vec<f64> = Vec::new();
    // Compute time lost to stalls so far: every later instant shifts by it.
    let mut shift = 0.0;
    // Issued transfers not yet waited: (index into `transfers`, deadline).
    let mut in_flight: Vec<(usize, Option<usize>)> = Vec::new();
    // Wait for `group` at instant `due`, one transfer after another as
    // the engine lands them: each stalls only for what is left, so the
    // group's stall is its latest transfer's lateness. Inline transfers
    // were already charged at issue.
    let land = |transfers: &mut [SwapTransfer], group: Vec<usize>, due: f64| {
        let mut waited = 0.0;
        for i in group {
            let t = &mut transfers[i];
            t.due = due;
            if lanes > 0 {
                t.stall = (t.ready - due - waited).max(0.0);
                waited += t.stall;
            }
        }
        waited
    };
    for op in &program.ops {
        let (t, step_instant) = match op {
            Op::Out(t) => (t, fwd_finish[t.step]),
            Op::In(t) => (t, bwd_start(t.step)),
            // Fetches due at this step's compute: deadline `>= b`, the
            // engine's rule.
            Op::Await(b) => {
                let (due, later) = std::mem::take(&mut in_flight)
                    .into_iter()
                    .partition(|&(_, d)| d.is_some_and(|d| d >= *b));
                in_flight = later;
                let group = due.into_iter().map(|(i, _)| i).collect();
                shift += land(&mut transfers, group, bwd_start(*b) + shift);
                continue;
            }
            _ => continue,
        };
        let issue = step_instant + shift;
        let (tier, lane) = (t.tier, crate::exec::lane(t, lanes));
        let bytes: usize = key_bytes[t.keys(exec.ranges()[t.block])].iter().sum();
        let service = alpha
            + beta * (bytes * tiers[tier].copy_passes) as f64
            + tiers[tier].link_time(bytes).as_secs_f64();
        // An inline transfer is waited at its issue point, a lane
        // transfer at its deadline.
        let (ready, stall) = if lanes == 0 {
            shift += service;
            (issue + service, service)
        } else {
            lane_free[lane] = lane_free[lane].max(issue) + service;
            (lane_free[lane], 0.0)
        };
        busy.push(service);
        in_flight.push((transfers.len(), t.deadline));
        transfers.push(SwapTransfer {
            event: t.event(),
            block: t.block,
            step: t.step,
            tier,
            lane,
            bytes: bytes as u64,
            issue,
            ready,
            // Set by `land` when the transfer is waited.
            due: f64::NAN,
            stall,
        });
    }
    // Swap-outs drain when the step retires.
    let rest = in_flight.into_iter().map(|(i, _)| i).collect();
    land(&mut transfers, rest, bwd_end + shift);
    let busy_s = busy.iter().sum();
    let stall_s = transfers.iter().map(|t| t.stall).sum();
    let hidden_s = busy
        .iter()
        .zip(&transfers)
        .map(|(b, t)| (b - t.stall).max(0.0))
        .sum();
    Ok(SwapTiming {
        transfers,
        lanes,
        busy_s,
        stall_s,
        hidden_s,
    })
}

/// Map planner boundaries from graph-layer space (where layer 0 is the
/// input) to net-layer space (where layer 0 is the first real layer and
/// the input is near-memory key 0). Fails with
/// [`BridgeError::LeadingInputBlock`] when a cut at graph layer 1 would
/// isolate the input.
pub fn graph_boundaries_to_net(graph_bounds: &[usize]) -> Result<Vec<usize>, BridgeError> {
    if graph_bounds.first() != Some(&0) {
        return Err(BridgeError::InvalidBoundaries(
            "first boundary must be 0".into(),
        ));
    }
    let mut net = vec![0usize];
    for &g in &graph_bounds[1..] {
        if g <= 1 {
            return Err(BridgeError::LeadingInputBlock);
        }
        net.push(g - 1);
    }
    Ok(net)
}

/// The predicted near-memory trajectory of a bridged execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidencyReplay {
    /// One predicted sample per block-level event, in issue order — what
    /// [`OocExecutor::grad_step_traced`] will record.
    pub samples: Vec<ResidencySample>,
    /// The executor's near-memory high-water mark, including the
    /// transient full-block residency inside a recomputed block's forward
    /// (which the sampled trajectory never sees).
    pub peak_bytes: usize,
    /// Per-tier far-memory high-water marks, fastest tier first — what
    /// [`crate::OocStats::peak_tier_bytes`] will record. Single-pool
    /// replays carry one element.
    pub peak_tier_bytes: Vec<usize>,
}

impl ResidencyReplay {
    /// Replay `exec`'s step over real per-key byte sizes (`key_bytes[k]` =
    /// bytes of near-memory key `k`: the input for `k = 0`, layer `k - 1`'s
    /// output otherwise, so `key_bytes.len()` must be the executor's layer
    /// count + 1): a fold of bytes over the same transfer program the
    /// executor interprets, with each transfer on the tier the program
    /// routes it to and each fetch placed at the earliest step the peak
    /// allows, exactly as the engine places it. Returns the exact
    /// residency trajectory, per-tier far trajectory and high-water marks
    /// [`OocExecutor::grad_step_traced`] will produce, whatever built the
    /// executor.
    ///
    /// The far tier of a fetch discharges where the engine waits for it:
    /// at its issue point without I/O lanes, at its deadline step's
    /// compute on [`OocExecutor::with_io_lanes`] (in-flight bytes stay
    /// charged to the source tier). Near memory is charged at issue
    /// either way, so `near_bytes` never depends on the lane count, and
    /// per-tier peaks, attained during the forward sweep where both
    /// backends charge identically, do not either.
    pub fn of(exec: &OocExecutor, key_bytes: &[usize]) -> Result<Self, BridgeError> {
        let n_layers = exec.n_layers();
        check_key_bytes(key_bytes, n_layers)?;
        let ranges = exec.ranges();
        let mut program = exec.program().clone();
        program.place_fetches(ranges, key_bytes);
        let inline = exec.io_lanes() == 0;
        let mut cur = key_bytes[0]; // the input batch
        let mut peak = cur;
        let mut far = vec![0usize; exec.tiers().len()];
        let mut peak_tier = far.clone();
        // Issued fetches not yet waited: (tier, bytes, deadline step).
        let mut in_flight: Vec<(usize, usize, Option<usize>)> = Vec::new();
        let mut samples = Vec::with_capacity(program.ops.len());
        let moved = |t: &Transfer| -> usize { key_bytes[t.keys(ranges[t.block])].iter().sum() };
        for op in &program.ops {
            let (high, after) = program.near_step(op, cur, ranges, key_bytes);
            (cur, peak) = (after, peak.max(high));
            let event = match op {
                Op::Forward(b) => Some((ExecEvent::Forward, *b)),
                Op::Out(t) => {
                    far[t.tier] += moved(t);
                    peak_tier[t.tier] = peak_tier[t.tier].max(far[t.tier]);
                    Some((t.event(), t.block))
                }
                Op::Loss => None,
                Op::In(t) => {
                    in_flight.push((t.tier, moved(t), t.deadline));
                    Some((t.event(), t.block))
                }
                // The deadline wait discharges the source tier before the
                // step's compute samples (no sample of its own: the engine
                // blocks, it does not move near-memory bytes).
                Op::Await(b) => {
                    in_flight.retain(|&(tier, moved, deadline)| {
                        let due = deadline.is_some_and(|d| d >= *b);
                        if due {
                            far[tier] -= moved;
                        }
                        !due
                    });
                    None
                }
                Op::Recompute(b) => Some((ExecEvent::Recompute, *b)),
                Op::Backward(b) => Some((ExecEvent::Backward, *b)),
            };
            // The engine's one backend rule: an inline transfer is waited
            // at its issue point, a lane transfer at its deadline.
            if inline {
                for (tier, moved, _) in in_flight.drain(..) {
                    far[tier] -= moved;
                }
            }
            if let Some((event, block)) = event {
                samples.push(ResidencySample {
                    event,
                    block,
                    near_bytes: cur,
                    far_bytes: far.clone(),
                });
            }
        }
        Ok(ResidencyReplay {
            samples,
            peak_bytes: peak,
            peak_tier_bytes: peak_tier,
        })
    }
}

/// Replay `plan`'s block-level ops with the executor's movement semantics
/// over real per-key byte sizes (`key_bytes.len()` must be
/// `n_layers + 1`): [`ResidencyReplay::of`] the plan's [`lower_plan`]
/// executor, with one unbounded far tier and inline transfers. Returns
/// the exact residency trajectory and high-water mark the bridged
/// executor will produce — the cross-check that the runtime moves
/// precisely the bytes the plan prescribes, boundary departures included:
/// a swapped block's swap-out carries its boundary (as a deferred
/// [`ExecEvent::BoundaryOut`] once the consumer's forward has read it, or
/// merged into the swap-out when the eviction is already scheduled at or
/// after that point), and its swap-in carries the boundary back.
pub fn expected_residency(
    plan: &Plan,
    boundaries: &[usize],
    key_bytes: &[usize],
    n_layers: usize,
) -> Result<ResidencyReplay, BridgeError> {
    ResidencyReplay::of(
        &lower_plan(plan, boundaries, usize::MAX, n_layers)?,
        key_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPolicy;
    use karma_tensor::{small_cnn, SyntheticDataset, Tensor};

    fn setup() -> (karma_tensor::Sequential, Tensor, Vec<usize>) {
        let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
        let net = small_cnn(4, 11);
        let (x, y) = data.batch(0, 16);
        (net, x, y)
    }

    /// The doctest's plan: 3 blocks, block 0 swapped with prefetch.
    fn swap_plan() -> Plan {
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so = p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        let si = p.push(OpKind::SwapIn, 0, vec![so, b2]);
        let b1 = p.push(OpKind::Backward, 1, vec![b2]);
        p.push(OpKind::Backward, 0, vec![b1, si]);
        p
    }

    #[test]
    fn lowered_executor_matches_plan_op_counts() {
        let (net, x, y) = setup();
        let p = swap_plan();
        let exec = lower_plan(&p, &[0, 3, 6], usize::MAX / 2, net.len()).unwrap();
        let (_, _, stats) = exec.grad_step(&net, &x, &y, |_, _| {});
        assert_eq!(stats.swap_out_ops, p.count(OpKind::SwapOut));
        assert_eq!(stats.swap_in_ops, p.count(OpKind::SwapIn));
        assert_eq!(stats.recompute_ops, p.count(OpKind::Recompute));
        // The plan prefetches block 0 one step early (before B(1)).
        let program = lower_to_runtime(&p).unwrap();
        let fetched_at = |op: &Op| match op {
            Op::In(t) => Some((t.block, t.step)),
            _ => None,
        };
        let fetches: Vec<_> = program.ops.iter().filter_map(fetched_at).collect();
        assert_eq!(fetches, [(0, 1)]);
    }

    #[test]
    fn executed_trajectory_matches_replay_exactly() {
        let (net, x, y) = setup();
        let p = swap_plan();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let replay = expected_residency(&p, &[0, 3, 6], &key_bytes, net.len()).unwrap();
        // The replayed peak is a *sufficient* budget by construction.
        let exec = lower_plan(&p, &[0, 3, 6], replay.peak_bytes, net.len()).unwrap();
        let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(trace, replay.samples);
        assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
    }

    #[test]
    fn tiered_lowering_spills_and_replay_matches_execution() {
        let (net, x, y) = setup();
        let p = swap_plan();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        // A zero-capacity fast tier can park nothing: the one swapped
        // block must spill to the slow tier, and the executed per-tier
        // trajectory must match the tiered replay sample for sample.
        let tiers = vec![TierSpec::host(0), TierSpec::nvme(usize::MAX)];
        let exec = lower_plan_tiered(
            &p,
            &[0, 3, 6],
            usize::MAX / 2,
            net.len(),
            &key_bytes,
            &tiers,
        )
        .unwrap();
        assert_eq!(exec.tier_of()[0], 1, "block 0 must spill to the slow tier");
        let replay = ResidencyReplay::of(&exec, &key_bytes).unwrap();
        let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(trace, replay.samples);
        assert_eq!(stats.peak_tier_bytes, replay.peak_tier_bytes);
        assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
        assert_eq!(replay.peak_tier_bytes[0], 0, "fast tier stayed empty");
        assert!(replay.peak_tier_bytes[1] > 0, "slow tier absorbed the swap");
    }

    #[test]
    fn in_flight_replay_matches_the_async_executed_trace() {
        let (net, x, y) = setup();
        let p = swap_plan();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let tiers = vec![TierSpec::host(0), TierSpec::nvme(usize::MAX)];
        let exec = lower_plan_tiered(
            &p,
            &[0, 3, 6],
            usize::MAX / 2,
            net.len(),
            &key_bytes,
            &tiers,
        )
        .unwrap()
        .with_io_lanes(2);
        let replay = ResidencyReplay::of(&exec, &key_bytes).unwrap();
        let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(trace, replay.samples);
        assert_eq!(stats.peak_tier_bytes, replay.peak_tier_bytes);
        assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
        // Per-tier peaks agree across backends (they are attained
        // during the forward sweep, where both charge identically),
        // while the mid-flight far trajectories differ.
        let sync = ResidencyReplay::of(&exec.clone().with_io_lanes(0), &key_bytes).unwrap();
        assert_eq!(sync.peak_tier_bytes, replay.peak_tier_bytes);
        assert_ne!(
            sync.samples, replay.samples,
            "in-flight bytes must stay charged to the source tier"
        );
    }

    /// Unit-second compute costs for `swap_plan`'s three blocks.
    fn swap_plan_costs() -> BlockCosts {
        let n = 3;
        BlockCosts {
            forward: vec![1.0; n],
            backward: vec![1.0; n],
            act_bytes: vec![100; n],
            swap_bytes: vec![100; n],
            boundary_bytes: vec![10; n],
            transient_bytes: vec![0; n],
            state_bytes: vec![0; n],
            grad_bytes: vec![50; n],
            params: vec![1; n],
            swap_bw: 100.0,
            act_capacity: 1_000,
            batch: 1,
        }
    }

    #[test]
    fn swap_timing_is_exposed_inline_and_hidden_on_lanes() {
        let p = swap_plan();
        let costs = swap_plan_costs();
        let key_bytes = vec![16usize; 9];
        let tiers = [TierSpec::unbounded()];
        // Synchronous engine (0 lanes): every transfer is fully exposed.
        let sync = expected_swap_timing(
            &p,
            &costs,
            &[0, 3, 6],
            &key_bytes,
            8,
            &[0, 0, 0],
            &tiers,
            0,
            0.5,
            0.0,
        )
        .unwrap();
        assert_eq!(
            sync.transfers.iter().map(|t| t.event).collect::<Vec<_>>(),
            vec![
                ExecEvent::SwapOut,
                ExecEvent::BoundaryOut,
                ExecEvent::SwapIn
            ]
        );
        assert!((sync.stall_s - sync.busy_s).abs() < 1e-9);
        assert!(sync.hidden_s.abs() < 1e-9);
        // Two lanes: the forward-phase swap-outs hide entirely behind
        // compute (due only when the step retires); the JIT riding fetch
        // stays exposed — it is issued at its own deadline.
        let lanes = expected_swap_timing(
            &p,
            &costs,
            &[0, 3, 6],
            &key_bytes,
            8,
            &[0, 0, 0],
            &tiers,
            2,
            0.5,
            0.0,
        )
        .unwrap();
        assert!((lanes.busy_s - sync.busy_s).abs() < 1e-9);
        assert!(lanes.stall_s < sync.stall_s);
        assert!(lanes.hidden_s > 0.0);
        for t in &lanes.transfers {
            match t.event {
                ExecEvent::SwapOut | ExecEvent::BoundaryOut => {
                    assert_eq!(t.stall, 0.0, "out-transfers hide behind the step")
                }
                _ => assert!(t.stall > 0.0, "the JIT fetch cannot hide"),
            }
            assert_eq!(t.lane, t.block % 2);
        }
    }

    #[test]
    fn fetches_due_at_one_step_stall_once_for_the_latest() {
        // Blocks 0 and 1 both fetch right before B(1), on lanes 0 and 1:
        // block 1 its interiors (its boundary is the last block's input
        // and never left), block 0 its interiors with its riding
        // boundary. The engine waits them one after the other at the
        // same point, so the step stalls for the later one's lateness
        // once, not for the sum of both.
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so0 = p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let so1 = p.push(OpKind::SwapOut, 1, vec![f1]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        let si1 = p.push(OpKind::SwapIn, 1, vec![so1, b2]);
        let si0 = p.push(OpKind::SwapIn, 0, vec![so0, b2]);
        let b1 = p.push(OpKind::Backward, 1, vec![b2, si1, si0]);
        p.push(OpKind::Backward, 0, vec![b1, si0]);
        // 16 B keys at 1/16 s per byte: a key costs 1 s on the lane.
        // Block 2's interior is 48 B wide, so the step-1 peak leaves no
        // room to issue either fetch beside it at step 2.
        let mut key_bytes = [16; 9];
        key_bytes[7] = 48;
        let timing = expected_swap_timing(
            &p,
            &swap_plan_costs(),
            &[0, 3, 6],
            &key_bytes,
            8,
            &[0, 0, 0],
            &[TierSpec::unbounded()],
            2,
            0.0,
            1.0 / 16.0,
        )
        .unwrap();
        let fetches: Vec<&SwapTransfer> = timing
            .transfers
            .iter()
            .filter(|t| t.event == ExecEvent::SwapIn)
            .collect();
        assert_eq!(fetches.len(), 2);
        assert!(fetches
            .iter()
            .all(|t| t.step == 1 && t.due == fetches[0].due));
        assert_ne!(fetches[0].lane, fetches[1].lane);
        let late: Vec<f64> = fetches.iter().map(|t| t.ready - t.due).collect();
        assert!(late.iter().all(|&l| l > 0.0), "both fetches are late");
        let latest = late[0].max(late[1]);
        assert!((timing.stall_s - latest).abs() < 1e-9);
        assert!(timing.stall_s < late[0] + late[1] - 1e-9, "not the sum");
    }

    #[test]
    fn unbounded_single_tier_lowering_matches_the_plain_path() {
        let (net, x, y) = setup();
        let p = swap_plan();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let plain = lower_plan(&p, &[0, 3, 6], usize::MAX / 2, net.len()).unwrap();
        let tiered = lower_plan_tiered(
            &p,
            &[0, 3, 6],
            usize::MAX / 2,
            net.len(),
            &key_bytes,
            &[TierSpec::unbounded()],
        )
        .unwrap();
        let (loss_p, _, s_p, trace_p) = plain.grad_step_traced(&net, &x, &y, |_, _| {});
        let (loss_t, _, s_t, trace_t) = tiered.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(loss_p, loss_t);
        assert_eq!(trace_p, trace_t);
        assert_eq!(s_p, s_t);
    }

    #[test]
    fn infeasible_tier_stacks_are_typed_bridge_errors() {
        let (net, x, _) = setup();
        let p = swap_plan();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        // No tier can hold block 0's parked bytes.
        assert!(matches!(
            lower_plan_tiered(
                &p,
                &[0, 3, 6],
                usize::MAX / 2,
                net.len(),
                &key_bytes,
                &[TierSpec::host(0)],
            )
            .unwrap_err(),
            BridgeError::Lower(RuntimeLowerError::TierCapacityExceeded { block: 0, .. })
        ));
        // An empty stack cannot absorb a swapping plan at all.
        assert_eq!(
            lower_plan_tiered(&p, &[0, 3, 6], usize::MAX / 2, net.len(), &key_bytes, &[])
                .unwrap_err(),
            BridgeError::Lower(RuntimeLowerError::TierStackEmpty)
        );
    }

    #[test]
    fn tier_routing_validation_is_typed() {
        let (p, costs) = (swap_plan(), swap_plan_costs());
        let key_bytes = vec![64usize; 9];
        let timing = |tier_of: &[usize], tiers: &[TierSpec]| {
            expected_swap_timing(
                &p,
                &costs,
                &[0, 3, 6],
                &key_bytes,
                8,
                tier_of,
                tiers,
                0,
                0.0,
                0.0,
            )
            .unwrap_err()
        };
        let two = [TierSpec::host(usize::MAX), TierSpec::nvme(usize::MAX)];
        // Wrong routing length.
        assert!(matches!(
            timing(&[0], &two[..1]),
            BridgeError::TierRouting(_)
        ));
        // A route beyond the stack.
        assert!(matches!(
            timing(&[2, 0, 0], &two),
            BridgeError::TierRouting(_)
        ));
        // An empty stack.
        assert_eq!(
            timing(&[0, 0, 0], &[]),
            BridgeError::Lower(RuntimeLowerError::TierStackEmpty)
        );
    }

    #[test]
    fn replay_of_a_hand_built_executor_matches_execution_at_any_lane_count() {
        // No plan lowers to this executor (two tiers, evicted boundaries
        // departing on transfers of their own): the replay reads the
        // schedule, the routing and the backend off the executor itself.
        let (net, x, y) = setup();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        for lanes in [0, 2] {
            let exec = crate::program::two_tier_boundary_evicting_executor(8).with_io_lanes(lanes);
            let replay = ResidencyReplay::of(&exec, &key_bytes).unwrap();
            let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
            assert_eq!(trace, replay.samples, "{lanes} lanes");
            assert_eq!(stats.peak_near_bytes, replay.peak_bytes, "{lanes} lanes");
            assert_eq!(
                stats.peak_tier_bytes, replay.peak_tier_bytes,
                "{lanes} lanes"
            );
            assert!(
                replay.peak_tier_bytes.iter().all(|&b| b > 0),
                "both tiers park"
            );
        }
    }

    #[test]
    fn wrong_key_bytes_length_is_typed() {
        // A forgotten input entry must come back as the typed error, not
        // as a silently truncated replay.
        let p = swap_plan();
        let short = vec![64usize; 8]; // 8-layer net needs 9 entries
        assert_eq!(
            expected_residency(&p, &[0, 3, 6], &short, 8).unwrap_err(),
            BridgeError::KeyBytesLength {
                expected: 9,
                got: 8
            }
        );
    }

    #[test]
    fn block_count_mismatch_is_typed() {
        let p = swap_plan();
        assert_eq!(
            lower_plan(&p, &[0, 4], usize::MAX / 2, 8).unwrap_err(),
            BridgeError::BlockCountMismatch {
                plan_blocks: 3,
                boundary_blocks: 2
            }
        );
    }

    #[test]
    fn bad_boundaries_are_typed() {
        let p = swap_plan();
        assert!(matches!(
            lower_plan(&p, &[0, 6, 3], usize::MAX / 2, 8),
            Err(BridgeError::InvalidBoundaries(_))
        ));
        assert!(matches!(
            lower_plan(&p, &[0, 3, 9], usize::MAX / 2, 8),
            Err(BridgeError::InvalidBoundaries(_))
        ));
    }

    #[test]
    fn own_step_fetch_lowers_to_a_split_boundary_return() {
        // Sin at the swapped block's own backward step: the boundary can
        // no longer ride it, so the lowering splits the return onto its
        // own transfer at the consumer's backward instead of rejecting
        // the plan. (Block 2 is last, so block 0's boundary is not its
        // exempt input.)
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so = p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        let b1 = p.push(OpKind::Backward, 1, vec![b2]);
        let si = p.push(OpKind::SwapIn, 0, vec![so, b1]);
        p.push(OpKind::Backward, 0, vec![b1, si]);
        lower_plan(&p, &[0, 2, 4], usize::MAX / 2, 6).unwrap();
        let program = lower_to_runtime(&p).unwrap();
        let moves: Vec<_> = program
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Out(t) | Op::In(t) => Some((t.event(), t.block, t.step)),
                _ => None,
            })
            .collect();
        use ExecEvent::{BoundaryIn, BoundaryOut, SwapIn, SwapOut};
        assert_eq!(
            moves,
            [
                (SwapOut, 0, 0),
                (BoundaryOut, 0, 1),
                (BoundaryIn, 0, 1),
                (SwapIn, 0, 0)
            ]
        );
    }

    #[test]
    fn unrealizable_plan_errors_propagate() {
        // A host update with no exchange to ride is unrealizable.
        let mut p = Plan::new(1);
        let f = p.push(OpKind::Forward, 0, vec![]);
        let b = p.push(OpKind::Backward, 0, vec![f]);
        p.push(OpKind::HostUpdate, 0, vec![b]);
        assert_eq!(
            lower_plan(&p, &[0], usize::MAX / 2, 8).unwrap_err(),
            BridgeError::Lower(RuntimeLowerError::UpdateWithoutExchange { block: 0 })
        );
    }

    /// `swap_plan` plus a grouped exchange: blocks {2, 1} ship together
    /// once B(1) lands (overlapping B(0)), block 0 ships last.
    fn dist_swap_plan() -> Plan {
        let mut p = Plan::new(3);
        let f0 = p.push(OpKind::Forward, 0, vec![]);
        let so = p.push(OpKind::SwapOut, 0, vec![f0]);
        let f1 = p.push(OpKind::Forward, 1, vec![f0]);
        let f2 = p.push(OpKind::Forward, 2, vec![f1]);
        let b2 = p.push(OpKind::Backward, 2, vec![f2]);
        let si = p.push(OpKind::SwapIn, 0, vec![so, b2]);
        let b1 = p.push(OpKind::Backward, 1, vec![b2]);
        let ar2 = p.push(OpKind::AllReduce, 2, vec![b1]);
        let b0 = p.push(OpKind::Backward, 0, vec![b1, si]);
        let ar0 = p.push(OpKind::AllReduce, 0, vec![b0]);
        let u2 = p.push(OpKind::HostUpdate, 2, vec![ar2]);
        p.push(OpKind::HostUpdate, 0, vec![ar0, u2]);
        p
    }

    #[test]
    fn distributed_plan_lowers_to_executor_and_exchange() {
        let p = dist_swap_plan();
        let (exec, xchg) = lower_dist_plan(&p, &[0, 3, 6], usize::MAX / 2, 8).unwrap();
        assert_eq!(exec.n_blocks(), 3);
        assert_eq!(xchg.groups(), &[vec![2, 1], vec![0]]);
        // Single-GPU plans fall back to the per-block protocol.
        let (_, xchg) = lower_dist_plan(&swap_plan(), &[0, 3, 6], usize::MAX / 2, 8).unwrap();
        assert_eq!(xchg.groups(), &[vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn residency_replay_skips_exchange_ops() {
        // The distributed plan's residency replay equals the single-GPU
        // plan's: AR/U move gradients, not near-memory activations.
        let key_bytes = vec![64usize; 9];
        let dist = expected_residency(&dist_swap_plan(), &[0, 3, 6], &key_bytes, 8).unwrap();
        let plain = expected_residency(&swap_plan(), &[0, 3, 6], &key_bytes, 8).unwrap();
        assert_eq!(dist.samples, plain.samples);
        assert_eq!(dist.peak_bytes, plain.peak_bytes);
    }

    #[test]
    fn exchange_replay_predicts_messages_and_bytes() {
        let p = dist_swap_plan();
        let grad_bytes = vec![100u64, 200, 300];
        let r = expected_exchange(&p, &grad_bytes, 4, 3).unwrap();
        assert_eq!(r.groups, vec![vec![2, 1], vec![0]]);
        assert_eq!(r.per_group_bytes, vec![500, 100]);
        assert_eq!(r.messages_per_step, 8);
        assert_eq!(r.messages, 24);
        assert_eq!(r.bytes_per_step, 2400);
        assert_eq!(r.total_bytes, 7200);
        // Wrong gradient vector length is a typed error.
        assert_eq!(
            expected_exchange(&p, &[1, 2], 1, 1).unwrap_err(),
            BridgeError::GradBytesLength {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn graph_boundary_mapping_shifts_out_the_input_layer() {
        assert_eq!(graph_boundaries_to_net(&[0, 3, 6]).unwrap(), vec![0, 2, 5]);
        assert_eq!(
            graph_boundaries_to_net(&[0, 1, 4]),
            Err(BridgeError::LeadingInputBlock)
        );
    }

    fn toy_node(graph: &ModelGraph, batch: usize, frac: f64) -> NodeSpec {
        let need = graph.peak_footprint(batch, &MemoryParams::exact()) as f64;
        let gpu = karma_hw::GpuSpec::toy((need * frac) as u64, 5.0e9);
        NodeSpec::toy(gpu, karma_hw::LinkSpec::toy(4.0e9))
    }

    #[test]
    fn plan_net_applies_the_cut_rule_for_any_config() {
        // Plain `OptConfig::fast` admits a cut at graph layer 1; on this
        // graph the bare search takes it in some cells, and `plan_net`
        // must still return boundaries that lower and execute at exactly
        // the replayed peak in every cell.
        let graph = karma_zoo::micro::conv_stack_graph(6, 4);
        let net = karma_tensor::conv_stack(6, 4, 11);
        let (x, y) = SyntheticDataset::classification(32, 1, 16, 4, 21).batch(0, 16);
        let mut isolating = 0;
        for seed in [1, 2, 17] {
            for frac in [0.5, 0.65, 0.8] {
                let (node, cfg) = (toy_node(&graph, 16, frac), OptConfig::fast(seed));
                assert_eq!(cfg.min_cut_layer, 1);
                let profile = ModelProfile::collect(&graph, 16, &node.gpu, &MemoryParams::exact());
                let table = LayerCostTable::from_profile(&profile, &node);
                isolating += usize::from(optimize_blocking(&table, &cfg).get(1) == Some(&1));
                let cell = format!("seed {seed}, frac {frac}");
                let planned = plan_net(&graph, 16, &node, &cfg).expect(&cell);
                let (exec, replay) = planned.lower(&net, &x).expect(&cell);
                let (_, _, stats) = exec.grad_step(&net, &x, &y, |_, _| {});
                assert_eq!(stats.peak_near_bytes, replay.peak_bytes, "{cell}");
            }
        }
        assert!(isolating > 0, "no cell exercised the cut rule");
    }

    #[test]
    fn turnaround_round_trips_move_bytes_without_lowering_the_peak() {
        use crate::program::{fetch, out};
        // Over the `plan_net` grid, re-add the two round trips the planner
        // and the lowering leave out — the last block's interiors and,
        // when block n-2 swaps, its boundary (the last block's input),
        // both leaving after F(n-1) and back before B(n-1) — and check
        // that they would move bytes while saving none of the peak.
        let graph = karma_zoo::micro::conv_stack_graph(6, 4);
        let net = karma_tensor::conv_stack(6, 4, 11);
        let (x, y) = SyntheticDataset::classification(32, 1, 16, 4, 21).batch(0, 16);
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let moved = |s: &crate::OocStats| s.swapped_out_bytes + s.swapped_in_bytes;
        let mut input_trips = 0;
        for seed in [1, 2, 17] {
            for frac in [0.5, 0.65, 0.8] {
                let cell = format!("seed {seed}, frac {frac}");
                let node = toy_node(&graph, 16, frac);
                let planned = plan_net(&graph, 16, &node, &OptConfig::fast(seed)).expect(&cell);
                let (exec, replay) = planned.lower(&net, &x).expect(&cell);
                let n = exec.n_blocks();
                let last = n - 1;
                assert_eq!(exec.policies()[last], BlockPolicy::Resident, "{cell}");
                let (start, end) = exec.ranges()[last];
                let mut trip_bytes: usize = key_bytes[start + 1..end].iter().sum();
                // The last block's interiors leave after the step's other
                // swap-outs and return first at the turnaround.
                let mut program = lower_to_runtime(&planned.plan).expect(&cell);
                program.policies[last] = BlockPolicy::Swap;
                let loss = program.ops.iter().position(|op| *op == Op::Loss).unwrap();
                program
                    .ops
                    .insert(loss + 1, Op::In(fetch(last, last, true, false)));
                program
                    .ops
                    .insert(loss, Op::Out(out(last, last, true, false)));
                if n >= 2 && program.policies[n - 2] == BlockPolicy::Swap {
                    let carries_input = |op: &Op| matches!(op, Op::Out(t) | Op::In(t) if t.block == n - 2 && t.boundary);
                    assert!(
                        !program.ops.iter().any(carries_input),
                        "{cell}: the last block's input stays"
                    );
                    // Its input leaves alone right after F(n-1) and
                    // returns first at the turnaround.
                    let loss = program.ops.iter().position(|op| *op == Op::Loss).unwrap();
                    program
                        .ops
                        .insert(loss + 1, Op::In(fetch(n - 2, last, false, true)));
                    let f_last = program.ops.iter().position(|op| *op == Op::Forward(last));
                    let after_forward = f_last.unwrap() + 1;
                    program
                        .ops
                        .insert(after_forward, Op::Out(out(n - 2, last, false, true)));
                    trip_bytes += key_bytes[start];
                    input_trips += 1;
                }
                let trips = OocExecutor::from_program(
                    exec.boundaries().to_vec(),
                    program,
                    replay.peak_bytes,
                    exec.n_layers(),
                )
                .with_tiers(exec.tiers().to_vec(), exec.tier_of().to_vec());
                let trips_replay = ResidencyReplay::of(&trips, &key_bytes).expect(&cell);
                assert_eq!(trips_replay.peak_bytes, replay.peak_bytes, "{cell}");
                let (_, _, stats) = exec.grad_step(&net, &x, &y, |_, _| {});
                let (_, _, trip_stats) = trips.grad_step(&net, &x, &y, |_, _| {});
                assert_eq!(trip_stats.peak_near_bytes, stats.peak_near_bytes, "{cell}");
                assert_eq!(moved(&trip_stats), moved(&stats) + 2 * trip_bytes, "{cell}");
            }
        }
        assert!(input_trips > 0, "no cell swapped block n-2");
    }

    #[test]
    fn recomputing_the_last_block_frees_no_byte_of_the_peak() {
        // The dp-mlp and recompute-resnet plans (65% of the peak
        // footprint, five cut candidates): the planner keeps the last
        // block resident, and forcing its recompute back in replays to
        // the very same peak, reached at the end of F(n-1).
        let cases = [
            (
                karma_zoo::micro::mlp_stack_graph(8, 256, 4),
                karma_tensor::mlp_stack(8, 256, 4, 31),
                64,
                1.0e7,
                721_920,
            ),
            (
                karma_zoo::micro::resnet_style_graph(4),
                karma_tensor::small_resnet_style(4, 7),
                16,
                4.0e9,
                376_832,
            ),
        ];
        for (graph, net, batch, link_bw, peak) in cases {
            let need = graph.peak_footprint(batch, &MemoryParams::exact()) as f64;
            let gpu = karma_hw::GpuSpec::toy((need * 0.65) as u64, 5.0e9);
            let node = NodeSpec::toy(gpu, karma_hw::LinkSpec::toy(link_bw));
            let mut cfg = OptConfig::fast(17);
            cfg.max_cut_candidates = 5;
            let planned = plan_net(&graph, batch, &node, &cfg).unwrap();
            let n = planned.costs.n_blocks();
            let recompute: Vec<bool> = (0..n)
                .map(|b| planned.plan.find(OpKind::Recompute, b).is_some())
                .collect();
            assert!(!recompute[n - 1], "{}: R({})", graph.name, n - 1);
            assert!(recompute.iter().any(|&r| r), "{}", graph.name);
            let mut forced = recompute;
            forced[n - 1] = true;
            let forced_plan = build_training_plan(
                &planned.costs,
                &CapacityPlanOptions::karma_with_recompute(forced),
            )
            .plan;
            assert!(forced_plan.find(OpKind::Recompute, n - 1).is_some());

            let (x, _) = SyntheticDataset::classification(batch, 1, 16, 4, 5).batch(0, batch);
            let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
            let replay = |plan: &Plan| {
                expected_residency(plan, &planned.bounds, &key_bytes, net.len())
                    .unwrap()
                    .peak_bytes
            };
            assert_eq!(replay(&planned.plan), peak, "{}", graph.name);
            assert_eq!(replay(&forced_plan), peak, "{}", graph.name);
        }
    }

    #[test]
    fn lowering_onto_a_too_short_net_is_typed() {
        let graph = karma_zoo::micro::conv_stack_graph(6, 4);
        let node = toy_node(&graph, 16, 0.65);
        let planned = plan_net(&graph, 16, &node, &OptConfig::fast(17)).expect("the stack plans");
        let short = karma_tensor::conv_stack(1, 4, 11);
        assert!(*planned.bounds.last().unwrap() >= short.len());
        let (x, _) = SyntheticDataset::classification(16, 1, 16, 4, 21).batch(0, 16);
        assert!(matches!(
            planned.lower(&short, &x),
            Err(BridgeError::InvalidBoundaries(_))
        ));
    }
}
