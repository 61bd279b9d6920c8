//! The out-of-core executor: real training steps under a near-memory budget.

use karma_core::program::{block_ranges, Op, Transfer, TransferProgram};
use karma_tensor::layers::ParamGrads;
use karma_tensor::{Gradients, Sequential, Tensor};
use rayon::io::{IoHandle, IoLanePool};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::store::{priced_transfer, NearMemory, SlotStore, TierSpec, TierStack};

/// Per-block activation policy: the planner's swap / recompute /
/// resident decision, executed as the lowering emits it.
pub use karma_core::bridge::LoweredPolicy as BlockPolicy;

/// Execution accounting for one step.
///
/// Equality (`PartialEq`) compares the *deterministic* fields only: the
/// wall-clock [`OocStats::swap_wait_s`] / [`OocStats::swap_hidden_s`]
/// timings vary run to run and are excluded, so inline-vs-lanes parity
/// assertions (`assert_eq!(stats_a, stats_b)`) pin bytes, op counts and
/// peaks without pinning the clock.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OocStats {
    /// Bytes moved device→host.
    pub swapped_out_bytes: usize,
    /// Bytes moved host→device.
    pub swapped_in_bytes: usize,
    /// Layers re-forwarded by recompute.
    pub recomputed_layers: usize,
    /// Near-memory high-water mark (bytes).
    pub peak_near_bytes: usize,
    /// Block-level swap-out operations (one per evicted block — the
    /// executed analogue of a plan's `Sout` ops).
    pub swap_out_ops: usize,
    /// Block-level swap-in operations (`Sin` analogue).
    pub swap_in_ops: usize,
    /// Block-level recompute operations (`R` analogue;
    /// [`OocStats::recomputed_layers`] counts the layer-granular work).
    pub recompute_ops: usize,
    /// Boundary-activation departures: the boundary tail of a block's
    /// swap-out (merged into the swap-out when co-scheduled, a deferred
    /// [`ExecEvent::BoundaryOut`] once the consumer's forward has read
    /// the boundary otherwise). Bytes count into
    /// [`OocStats::swapped_out_bytes`].
    pub boundary_out_ops: usize,
    /// Boundary-activation returns (riding the block's swap-in, or a
    /// separate [`ExecEvent::BoundaryIn`] when scheduled apart).
    pub boundary_in_ops: usize,
    /// Far-memory (host-side swap pool) high-water mark: what an
    /// offload target must provision to absorb the evictions. With a
    /// tier stack this is the peak of the *total* parked bytes.
    pub peak_far_bytes: usize,
    /// Per-tier far-memory high-water marks, fastest tier first — what
    /// each level of a ZeRO-Infinity-style offload stack must provision.
    /// A single-pool run reports one element equal to
    /// [`OocStats::peak_far_bytes`].
    pub peak_tier_bytes: Vec<usize>,
    /// Wall-clock seconds the compute thread spent *blocked* on
    /// transfers at their wait points: an inline transfer (no I/O lanes)
    /// is waited where it is issued, so its whole copy price lands here;
    /// a lane transfer is waited at its deadline, so only the remainder
    /// still running then does. Excluded from equality.
    pub swap_wait_s: f64,
    /// Wall-clock seconds of transfer work that ran *hidden* under
    /// compute on I/O lanes — exactly 0.0 without lanes, where every
    /// transfer runs on the compute thread. Excluded from equality.
    pub swap_hidden_s: f64,
}

impl PartialEq for OocStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything except the two wall-clock fields, which are not
        // deterministic and would make trace-parity assertions flaky.
        self.swapped_out_bytes == other.swapped_out_bytes
            && self.swapped_in_bytes == other.swapped_in_bytes
            && self.recomputed_layers == other.recomputed_layers
            && self.peak_near_bytes == other.peak_near_bytes
            && self.swap_out_ops == other.swap_out_ops
            && self.swap_in_ops == other.swap_in_ops
            && self.recompute_ops == other.recompute_ops
            && self.boundary_out_ops == other.boundary_out_ops
            && self.boundary_in_ops == other.boundary_in_ops
            && self.peak_far_bytes == other.peak_far_bytes
            && self.peak_tier_bytes == other.peak_tier_bytes
    }
}

/// Block-level event kinds the executor emits while tracing residency:
/// the executed analogues of the plan IR's compute/transfer ops, named
/// by the lowered program's ops.
pub use karma_core::program::ExecEvent;

/// Near- and far-memory residency sampled immediately after a
/// block-level event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidencySample {
    /// What just happened.
    pub event: ExecEvent,
    /// The block it happened to.
    pub block: usize,
    /// Bytes resident in near memory right after the event.
    pub near_bytes: usize,
    /// Bytes parked in each far-memory tier right after the event,
    /// fastest tier first. Single-pool runs carry one element, so every
    /// sample-for-sample trace comparison pins the far trajectory too.
    pub far_bytes: Vec<usize>,
}

/// The I/O lane transfer `t` runs on among `lanes`: `block % lanes`, so a
/// block's swap-out and swap-in share a FIFO lane and the swap-out lands
/// first. Lane 0 when transfers run inline (`lanes = 0`).
pub(crate) fn lane(t: &Transfer, lanes: usize) -> usize {
    t.block % lanes.max(1)
}

/// A submitted transfer job and its busy time: run inline on the compute
/// thread at submit (no I/O lanes), or queued on an I/O lane.
enum Job {
    Inline(Vec<(usize, Tensor)>, Duration),
    Lane(IoHandle<(Vec<(usize, Tensor)>, Duration)>),
}

impl Job {
    /// Run `work` on `pool`'s lane for transfer `t` ([`lane`]),
    /// or inline right now without a pool. `work` returns the tensors a
    /// fetch brings back (none for a swap-out).
    fn submit(
        pool: Option<&IoLanePool>,
        t: &Transfer,
        work: impl FnOnce() -> Vec<(usize, Tensor)> + Send + 'static,
    ) -> Self {
        let timed = move || {
            let t0 = Instant::now();
            let group = work();
            (group, t0.elapsed())
        };
        match pool {
            Some(pool) => Job::Lane(pool.submit(lane(t, pool.lanes()), timed)),
            None => {
                let (group, busy) = timed();
                Job::Inline(group, busy)
            }
        }
    }
}

/// One issued transfer that has not been waited yet.
struct Flight {
    job: Job,
    tier: usize,
    /// The transfer's deadline step (`None`: due when the step retires).
    deadline: Option<usize>,
}

impl Flight {
    /// Wait for the transfer, book the time the compute thread was
    /// blocked (an inline job blocked it for its whole run; a lane job
    /// only for what was still left) and the busy time hidden under
    /// compute, then discharge the far tier and deposit fetched tensors.
    fn land(self, near: &mut NearMemory, far: &mut TierStack, stats: &mut OocStats) {
        let (group, blocked, busy) = match self.job {
            Job::Inline(group, busy) => (group, busy, busy),
            Job::Lane(handle) => {
                let t0 = Instant::now();
                let (group, busy) = handle.wait();
                (group, t0.elapsed(), busy)
            }
        };
        stats.swap_wait_s += blocked.as_secs_f64();
        stats.swap_hidden_s += (busy.as_secs_f64() - blocked.as_secs_f64()).max(0.0);
        for (key, t) in group {
            far.discharge(self.tier, key);
            near.fulfill(key, t);
        }
    }
}

/// Runs real training steps with per-block out-of-core policies.
///
/// Block `b` covers layers `[boundaries[b], boundaries[b+1])`. The
/// executor holds its schedule in one form: the `karma-core` transfer
/// program, interpreted every step. The bridge's
/// [`crate::bridge::lower_plan`] runs the program a plan lowers to, in
/// which a swap-policy block's boundary activation (its final output —
/// the next block's input, and the checkpoint recompute restarts from)
/// leaves with the block once the consumer block's forward has read it,
/// and returns before the consumer's backward. [`OocExecutor::new`] runs
/// the just-in-time program, which keeps every boundary in near memory.
/// The final logits and recompute checkpoints always stay. Weights stay
/// resident (single-GPU KARMA semantics; the distributed pipeline
/// streams weights, which is modelled in `karma-dist` and exercised here
/// only through gradients).
#[derive(Debug, Clone)]
pub struct OocExecutor {
    boundaries: Vec<usize>,
    budget: usize,
    n_layers: usize,
    /// Block `b`'s layers `[start, end)`: the ranges the program's
    /// transfers and its residency fold derive their keys from.
    ranges: Vec<(usize, usize)>,
    /// The step as a transfer program: block policies, evictions,
    /// fetches at their latest issue steps, boundary departures and
    /// returns, each transfer on its block's tier. Each step places a
    /// copy's fetches; this one never changes after `with_tiers`.
    program: TransferProgram,
    /// The far-memory tier stack, fastest first (default: one unbounded
    /// host-speed tier — the classic single pool).
    tiers: Vec<TierSpec>,
    /// `tier_of[b]` — the tier block `b`'s swap traffic (interiors and,
    /// when evicted, its boundary) routes through.
    tier_of: Vec<usize>,
    /// The swap engine's I/O lane pool (`None` = transfers run inline on
    /// the compute thread). Clones share the pool, so a
    /// data-parallel worker fleet rides one set of lanes.
    io_pool: Option<Arc<IoLanePool>>,
}

impl OocExecutor {
    /// Build an executor over block `boundaries` (start layer of each
    /// block, first entry 0) with one policy per block and a near-memory
    /// byte `budget` for activations, on the just-in-time schedule: each
    /// swap block evicts its interiors right after its own forward and
    /// fetches them right before its own backward, and every boundary
    /// stays in near memory. Plan-driven schedules come from
    /// [`crate::bridge::lower_plan`].
    pub fn new(
        boundaries: Vec<usize>,
        policy: Vec<BlockPolicy>,
        budget: usize,
        n_layers: usize,
    ) -> Self {
        assert!(
            boundaries.first() == Some(&0)
                && boundaries.windows(2).all(|w| w[0] < w[1])
                && boundaries.last() < Some(&n_layers),
            "boundaries must start at 0, increase and stay below the layer count"
        );
        assert_eq!(boundaries.len(), policy.len(), "one policy per block");
        let program = TransferProgram::just_in_time(policy);
        OocExecutor::from_program(boundaries, program, budget, n_layers)
    }

    /// The executor running `program` over `boundaries`, on one unbounded
    /// far tier and inline transfers. The one constructor; the program is
    /// taken as checked (`lower_to_runtime` answers an unrealizable plan
    /// with a typed error, and `new` builds its default from checked
    /// policies). The executor runs no gradient exchange, so it keeps no
    /// `dist`.
    pub(crate) fn from_program(
        boundaries: Vec<usize>,
        mut program: TransferProgram,
        budget: usize,
        n_layers: usize,
    ) -> Self {
        let nb = boundaries.len();
        let ranges = block_ranges(&boundaries, n_layers);
        program.dist = None;
        OocExecutor {
            program,
            ranges,
            boundaries,
            budget,
            n_layers,
            tiers: vec![TierSpec::unbounded()],
            tier_of: vec![0; nb],
            io_pool: None,
        }
    }

    /// Choose the swap engine's backend: a pool of `lanes` dedicated FIFO
    /// I/O lanes, or inline transfers on the compute thread for
    /// `lanes = 0` (the default). Every transfer is issued at its
    /// placed point either way; an inline one is waited right there,
    /// a lane one only at its deadline, so its copy passes and link time
    /// overlap compute instead of blocking it. The backend never changes
    /// the arithmetic or the near-memory trajectory; only the wall clock
    /// and the far-tier discharge points move. A mid-transfer panic
    /// poisons the lane and the pool refuses further steps, like
    /// `ExchangeBuffers`.
    pub fn with_io_lanes(mut self, lanes: usize) -> Self {
        self.io_pool = (lanes > 0).then(|| Arc::new(IoLanePool::new(lanes)));
        self
    }

    /// Number of I/O lanes (0 = transfers run inline).
    pub fn io_lanes(&self) -> usize {
        self.io_pool.as_ref().map_or(0, |p| p.lanes())
    }

    /// The shared I/O lane pool, when the engine has lanes.
    pub fn io_pool(&self) -> Option<&Arc<IoLanePool>> {
        self.io_pool.as_ref()
    }

    /// Has any I/O lane been poisoned by a mid-transfer panic? A poisoned
    /// engine refuses further steps; build a fresh executor.
    pub fn io_poisoned(&self) -> bool {
        self.io_pool.as_ref().is_some_and(|p| p.poisoned())
    }

    /// Replace the far-memory tier stack and per-block routing, and route
    /// every transfer of the held program accordingly: `tiers` is the
    /// stack fastest-first, `tier_of[b]` the tier block `b`'s swap
    /// traffic parks in. Tier indices must be in range; the
    /// assignment is only consulted for blocks that actually swap, so
    /// resident/recompute blocks may carry any valid index.
    pub fn with_tiers(mut self, tiers: Vec<TierSpec>, tier_of: Vec<usize>) -> Self {
        assert!(!tiers.is_empty(), "tier stack needs at least one tier");
        assert_eq!(tier_of.len(), self.n_blocks(), "one tier per block");
        for (b, &t) in tier_of.iter().enumerate() {
            assert!(t < tiers.len(), "block {b} routed to missing tier {t}");
        }
        for op in &mut self.program.ops {
            if let Op::Out(t) | Op::In(t) = op {
                t.tier = tier_of[t.block];
            }
        }
        self.tiers = tiers;
        self.tier_of = tier_of;
        self
    }

    /// An in-core executor (one resident block) with an effectively
    /// unlimited budget — the reference configuration.
    pub fn in_core(n_layers: usize) -> Self {
        OocExecutor::new(
            vec![0],
            vec![BlockPolicy::Resident],
            usize::MAX / 2,
            n_layers,
        )
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.boundaries.len()
    }

    /// Block policies.
    pub fn policies(&self) -> &[BlockPolicy] {
        &self.program.policies
    }

    /// Block boundaries (start layer of each block).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// The far-memory tier stack, fastest first.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Per-block tier routing.
    pub fn tier_of(&self) -> &[usize] {
        &self.tier_of
    }

    pub(crate) fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Every block's layers `[start, end)`.
    pub(crate) fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// The transfer program the executor interprets. Interpreters place
    /// the fetches of a copy.
    pub(crate) fn program(&self) -> &TransferProgram {
        &self.program
    }

    /// One full training step: forward (with policy-driven eviction),
    /// loss, block-wise backward (with swap-in / recompute), SGD update.
    pub fn train_step(
        &self,
        net: &mut Sequential,
        x: &Tensor,
        labels: &[usize],
        lr: f32,
    ) -> (f32, OocStats) {
        let (loss, grads, stats) = self.grad_step(net, x, labels, |_b, _g| {});
        net.apply(&grads, lr);
        (loss, stats)
    }

    /// Compute gradients without updating, invoking `on_block(b, grads)`
    /// as each block's backward completes (back to front) — the hook the
    /// phased gradient exchange plugs into. `grads` covers the *layers of
    /// block b* and may be modified in place (e.g. replaced by the
    /// all-reduced average).
    pub fn grad_step(
        &self,
        net: &Sequential,
        x: &Tensor,
        labels: &[usize],
        on_block: impl FnMut(usize, &mut [ParamGrads]),
    ) -> (f32, Gradients, OocStats) {
        self.grad_step_inner(net, x, labels, on_block, None)
    }

    /// [`OocExecutor::grad_step`] plus a residency trace: one
    /// [`ResidencySample`] per block-level event, in execution order — the
    /// executed trajectory the plan→runtime bridge cross-checks against
    /// the plan's predicted one.
    pub fn grad_step_traced(
        &self,
        net: &Sequential,
        x: &Tensor,
        labels: &[usize],
        on_block: impl FnMut(usize, &mut [ParamGrads]),
    ) -> (f32, Gradients, OocStats, Vec<ResidencySample>) {
        let mut trace = Vec::new();
        let (loss, grads, stats) = self.grad_step_inner(net, x, labels, on_block, Some(&mut trace));
        (loss, grads, stats, trace)
    }

    /// The swap engine: interpret a copy of the executor's
    /// [`TransferProgram`], placing its fetches
    /// ([`TransferProgram::place_fetches`]) at the loss from the key bytes
    /// the forward sweep recorded. Every transfer is
    /// charged at its issue point — near memory reserved,
    /// the far tier charged — and its priced copy submitted to the
    /// backend: the transfer's I/O lane ([`lane`]), or inline
    /// on the compute thread without lanes. Same-lane FIFO order (and
    /// inline program order) lands a block's swap-out in the
    /// [`SlotStore`] before its swap-in takes it. The backend decides
    /// only *where* a transfer is waited:
    /// inline at its issue point, on a lane at its deadline. The far
    /// tier discharges at that wait, so in-flight bytes stay charged to
    /// the tier they are leaving; the near trajectory is the same on
    /// either backend.
    fn grad_step_inner(
        &self,
        net: &Sequential,
        x: &Tensor,
        labels: &[usize],
        mut on_block: impl FnMut(usize, &mut [ParamGrads]),
        mut trace: Option<&mut Vec<ResidencySample>>,
    ) -> (f32, Gradients, OocStats) {
        assert_eq!(net.len(), self.n_layers, "executor/net layer mismatch");
        let pool = self.io_pool.as_deref();
        if let Some(pool) = pool {
            // Poison check + per-step re-arm, like `ExchangeBuffers`.
            pool.begin_step();
        }
        let mut program = self.program.clone();
        let slots = Arc::new(SlotStore::new());
        let mut near = NearMemory::new(self.budget);
        let mut far = TierStack::new(&self.tiers);
        let mut stats = OocStats::default();
        let mut in_flight: Vec<Flight> = Vec::new();
        let mut per_layer = vec![ParamGrads::default(); self.n_layers];
        let (mut loss, mut dy) = (0.0, None);
        // Every key's bytes, recorded as the forward sweep creates it:
        // what the backward half's fetches are placed by.
        let mut key_bytes = vec![0usize; self.n_layers + 1];
        key_bytes[0] = x.bytes();

        near.put(0, x.clone());
        let mut pc = 0;
        while let Some(op) = program.ops.get(pc).cloned() {
            pc += 1;
            let event = match op {
                Op::Forward(b) => {
                    let (start, end) = self.ranges[b];
                    for i in start..end {
                        let y = net.layers[i].forward(near.get(i));
                        key_bytes[i + 1] = y.bytes();
                        near.put(i + 1, y);
                    }
                    if program.policies[b] == BlockPolicy::Recompute {
                        for i in start + 1..end {
                            drop(near.take(i));
                        }
                    }
                    Some((ExecEvent::Forward, b))
                }
                Op::Out(ref t) => {
                    let tier = t.tier;
                    let group: Vec<(usize, Tensor)> = t
                        .keys(self.ranges[t.block])
                        .map(|key| {
                            let tensor = near.take(key);
                            far.charge_out(tier, key, tensor.bytes());
                            stats.swapped_out_bytes += tensor.bytes();
                            (key, tensor)
                        })
                        .collect();
                    stats.swap_out_ops += usize::from(t.interior);
                    stats.boundary_out_ops += usize::from(t.boundary);
                    let (spec, slots) = (far.spec(tier), Arc::clone(&slots));
                    let job = Job::submit(pool, t, move || {
                        for (key, tensor) in group {
                            slots.put(tier, key, priced_transfer(tensor, &spec));
                        }
                        Vec::new()
                    });
                    in_flight.push(Flight {
                        job,
                        tier,
                        deadline: t.deadline,
                    });
                    Some((t.event(), t.block))
                }
                Op::Loss => {
                    let logits = near.take(self.n_layers);
                    let (l, grad) = Sequential::softmax_xent(&logits, labels);
                    (loss, dy) = (l, Some(grad));
                    program.place_fetches(&self.ranges, &key_bytes);
                    None
                }
                Op::In(ref t) => {
                    let (tier, keys) = (t.tier, t.keys(self.ranges[t.block]));
                    for key in keys.clone() {
                        let bytes = far.charged(tier, key);
                        stats.swapped_in_bytes += bytes;
                        near.reserve(key, bytes);
                    }
                    stats.swap_in_ops += usize::from(t.interior);
                    stats.boundary_in_ops += usize::from(t.boundary);
                    let (spec, slots) = (far.spec(tier), Arc::clone(&slots));
                    let job = Job::submit(pool, t, move || {
                        keys.map(|key| (key, priced_transfer(slots.take(tier, key), &spec)))
                            .collect()
                    });
                    in_flight.push(Flight {
                        job,
                        tier,
                        deadline: t.deadline,
                    });
                    Some((t.event(), t.block))
                }
                Op::Await(b) => {
                    let (due, later): (Vec<Flight>, Vec<Flight>) = std::mem::take(&mut in_flight)
                        .into_iter()
                        .partition(|f| f.deadline.is_some_and(|d| d >= b));
                    in_flight = later;
                    for f in due {
                        f.land(&mut near, &mut far, &mut stats);
                    }
                    None
                }
                Op::Recompute(b) => {
                    let (start, end) = self.ranges[b];
                    for i in start..end - 1 {
                        let y = net.layers[i].forward(near.get(i));
                        near.put(i + 1, y);
                        stats.recomputed_layers += 1;
                    }
                    stats.recompute_ops += 1;
                    Some((ExecEvent::Recompute, b))
                }
                Op::Backward(b) => {
                    let (start, end) = self.ranges[b];
                    for i in (start..end).rev() {
                        let upstream = dy.as_ref().expect("the loss precedes every backward");
                        let (dx, g) = net.layers[i].backward(near.get(i), upstream);
                        per_layer[i] = g;
                        dy = Some(dx);
                        drop(near.take(i));
                    }
                    on_block(b, &mut per_layer[start..end]);
                    Some((ExecEvent::Backward, b))
                }
            };
            // The backend's one rule: an inline transfer is waited at its
            // issue point, a lane transfer at its deadline.
            if pool.is_none() {
                for f in in_flight.drain(..) {
                    f.land(&mut near, &mut far, &mut stats);
                }
            }
            if let (Some((event, block)), Some(t)) = (event, trace.as_deref_mut()) {
                t.push(ResidencySample {
                    event,
                    block,
                    near_bytes: near.used(),
                    far_bytes: far.tier_resident(),
                });
            }
        }
        // Drain the swap-outs (normally long done: any block here is
        // genuine wait) and check the engine really emptied.
        for f in in_flight {
            f.land(&mut near, &mut far, &mut stats);
        }
        assert!(
            slots.is_empty(),
            "the swap engine left tensors parked in the slot store"
        );

        stats.peak_near_bytes = near.peak();
        stats.peak_far_bytes = far.peak_resident_bytes();
        stats.peak_tier_bytes = far.peak_tier_bytes();
        (loss, Gradients { per_layer }, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{
        boundary_evicting_transfers, fetch, hand_built, out, two_tier_boundary_evicting_executor,
    };
    use karma_tensor::{small_cnn, SyntheticDataset};

    fn setup() -> (Sequential, Tensor, Vec<usize>) {
        let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
        let net = small_cnn(4, 11);
        let (x, y) = data.batch(0, 16);
        (net, x, y)
    }

    /// In-core reference snapshot after `steps` steps.
    fn reference(steps: usize) -> Vec<f32> {
        let (mut net, x, y) = setup();
        for _ in 0..steps {
            net.train_step(&x, &y, 0.05);
        }
        net.snapshot()
    }

    #[test]
    fn swap_execution_is_bit_identical_to_in_core() {
        let (mut net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
            usize::MAX / 2,
            net.len(),
        );
        let mut stats = OocStats::default();
        for _ in 0..3 {
            let (_, s) = exec.train_step(&mut net, &x, &y, 0.05);
            stats = s;
        }
        assert_eq!(net.snapshot(), reference(3), "weights must match bitwise");
        assert!(stats.swapped_out_bytes > 0);
        assert_eq!(stats.swapped_out_bytes, stats.swapped_in_bytes);
    }

    #[test]
    fn recompute_execution_is_bit_identical_to_in_core() {
        let (mut net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 3, 6],
            vec![
                BlockPolicy::Recompute,
                BlockPolicy::Recompute,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            net.len(),
        );
        let mut total_recomputed = 0;
        for _ in 0..3 {
            let (_, s) = exec.train_step(&mut net, &x, &y, 0.05);
            total_recomputed += s.recomputed_layers;
        }
        assert_eq!(net.snapshot(), reference(3));
        assert!(total_recomputed > 0);
    }

    #[test]
    fn mixed_policies_match_too() {
        let (mut net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 2, 4, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Recompute,
                BlockPolicy::Swap,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            net.len(),
        );
        for _ in 0..2 {
            exec.train_step(&mut net, &x, &y, 0.05);
        }
        assert_eq!(net.snapshot(), reference(2));
    }

    #[test]
    fn ooc_peaks_below_in_core_peak() {
        let (net, x, y) = setup();
        let in_core = OocExecutor::in_core(net.len());
        let (_, _, s_ic) = in_core.grad_step(&net, &x, &y, |_, _| {});
        let ooc = OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Swap],
            usize::MAX / 2,
            net.len(),
        );
        let (_, _, s_ooc) = ooc.grad_step(&net, &x, &y, |_, _| {});
        assert!(
            s_ooc.peak_near_bytes < s_ic.peak_near_bytes,
            "ooc {} !< in-core {}",
            s_ooc.peak_near_bytes,
            s_ic.peak_near_bytes
        );
    }

    #[test]
    fn budget_is_enforced_for_real() {
        // A budget below the in-core peak but above the OOC working set:
        // the OOC executor runs; trying to keep everything resident panics.
        let (net, x, y) = setup();
        let in_core = OocExecutor::in_core(net.len());
        let (_, _, s_ic) = in_core.grad_step(&net, &x, &y, |_, _| {});
        let budget = s_ic.peak_near_bytes * 2 / 3;
        let ooc = OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Swap],
            budget,
            net.len(),
        );
        let (_, _, s) = ooc.grad_step(&net, &x, &y, |_, _| {});
        assert!(s.peak_near_bytes <= budget);

        let resident = OocExecutor::new(
            vec![0, 3, 6],
            vec![
                BlockPolicy::Resident,
                BlockPolicy::Resident,
                BlockPolicy::Resident,
            ],
            budget,
            net.len(),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resident.grad_step(&net, &x, &y, |_, _| {});
        }));
        assert!(result.is_err(), "resident beyond budget must OOM");
    }

    #[test]
    fn batchnorm_recompute_is_bit_identical() {
        // Batch-norm recomputes its statistics from the saved input, so
        // OOC recompute must reproduce identical bits even through the
        // normalization path.
        use karma_tensor::small_resnet_style;
        let data = SyntheticDataset::classification(32, 1, 16, 4, 71);
        let (x, y) = data.batch(0, 16);

        let mut reference = small_resnet_style(4, 7);
        let mut ooc = small_resnet_style(4, 7);
        let exec = OocExecutor::new(
            vec![0, 3, 6, 9],
            vec![
                BlockPolicy::Recompute,
                BlockPolicy::Swap,
                BlockPolicy::Recompute,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            ooc.len(),
        );
        for _ in 0..3 {
            reference.train_step(&x, &y, 0.05);
            exec.train_step(&mut ooc, &x, &y, 0.05);
        }
        assert_eq!(ooc.snapshot(), reference.snapshot());
    }

    #[test]
    fn block_level_op_counts_are_recorded() {
        let (net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 2, 4, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Recompute,
                BlockPolicy::Swap,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            net.len(),
        );
        let (_, _, s) = exec.grad_step(&net, &x, &y, |_, _| {});
        assert_eq!(s.swap_out_ops, 2);
        assert_eq!(s.swap_in_ops, 2);
        assert_eq!(s.recompute_ops, 1);
        assert!(s.recomputed_layers >= s.recompute_ops);
    }

    #[test]
    fn custom_schedule_matches_jit_bitwise_with_earlier_fetches() {
        // Deferred evictions + deep prefetch move the *transfers*, not the
        // arithmetic: weights and op counts must match the just-in-time
        // schedule exactly.
        let (mut net, x, y) = setup();
        let jit = OocExecutor::new(
            vec![0, 2, 4, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Swap,
                BlockPolicy::Resident,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            net.len(),
        );
        let sched = hand_built(
            vec![0, 2, 4, 6],
            jit.policies().to_vec(),
            net.len(),
            &[
                // Both evictions after F(1), both fetches before B(3).
                out(0, 1, true, false),
                out(1, 1, true, false),
                fetch(1, 3, true, false),
                fetch(0, 3, true, false),
            ],
        );
        let (_, _, s_jit) = jit.grad_step(&net, &x, &y, |_, _| {});
        let (_, _, s_sched) = sched.grad_step(&net, &x, &y, |_, _| {});
        assert_eq!(s_jit.swap_out_ops, s_sched.swap_out_ops);
        assert_eq!(s_jit.swapped_out_bytes, s_sched.swapped_out_bytes);
        assert_eq!(s_jit.swapped_in_bytes, s_sched.swapped_in_bytes);
        // Prefetching holds more bytes at once.
        assert!(s_sched.peak_near_bytes >= s_jit.peak_near_bytes);
        for _ in 0..2 {
            sched.train_step(&mut net, &x, &y, 0.05);
        }
        assert_eq!(
            net.snapshot(),
            reference(2),
            "schedule must not change math"
        );
    }

    #[test]
    fn traced_step_samples_every_block_event() {
        let (net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 3, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Recompute,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            net.len(),
        );
        let (loss_t, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        let (loss, _, _) = exec.grad_step(&net, &x, &y, |_, _| {});
        assert_eq!(loss, loss_t, "tracing must not perturb execution");
        // 3 forwards + 1 evict + 1 fetch + 1 recompute + 3 backwards.
        assert_eq!(trace.len(), 9);
        assert_eq!(trace[0].event, ExecEvent::Forward);
        assert_eq!(trace[0].block, 0);
        let last = trace.last().unwrap();
        assert_eq!((last.event, last.block), (ExecEvent::Backward, 0));
        assert_eq!(last.near_bytes, 0, "every activation is released");
        // The high-water mark bounds every sampled point.
        assert!(trace.iter().all(|s| s.near_bytes <= stats.peak_near_bytes));
    }

    #[test]
    fn boundary_eviction_is_bitwise_and_shrinks_peak() {
        // Constant-size conv stack with a large resident suffix: the peak
        // sits at the fwd→bwd turnaround, where the always-resident
        // boundaries of the pre-refactor executor are pure overhead.
        use karma_tensor::conv_stack;
        let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
        let (x, y) = data.batch(0, 16);
        let mut net = conv_stack(6, 4, 11);
        let scheduled = |transfers: &[Transfer]| {
            hand_built(
                vec![0, 3, 6],
                vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
                net.len(),
                transfers,
            )
        };
        let base = scheduled(&[
            out(0, 0, true, false),
            out(1, 1, true, false),
            fetch(1, 2, true, false),
            fetch(0, 1, true, false),
        ]);
        let evicting = scheduled(&boundary_evicting_transfers());
        let (loss_b, _, s_base) = base.grad_step(&net, &x, &y, |_, _| {});
        let (loss_e, _, s_ev, trace) = evicting.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(loss_b, loss_e, "boundary eviction moved arithmetic");
        // The boundaries actually left (and came back): more transfer
        // bytes, more far-memory footprint, strictly less near-memory.
        assert!(
            s_ev.peak_near_bytes < s_base.peak_near_bytes,
            "evicting {} !< base {}",
            s_ev.peak_near_bytes,
            s_base.peak_near_bytes
        );
        assert_eq!(s_ev.boundary_out_ops, 2);
        assert_eq!(s_ev.boundary_in_ops, 2);
        assert_eq!(s_base.boundary_out_ops, 0);
        assert_eq!(s_ev.swapped_out_bytes, s_ev.swapped_in_bytes);
        assert!(s_ev.swapped_out_bytes > s_base.swapped_out_bytes);
        assert!(s_ev.peak_far_bytes > s_base.peak_far_bytes);
        // Transfer-op fidelity: boundary tails are not extra swap ops.
        assert_eq!(s_ev.swap_out_ops, s_base.swap_out_ops);
        assert_eq!(s_ev.swap_in_ops, s_base.swap_in_ops);
        // Deferred departures are separate events; returns ride the Sins.
        let count = |ev: ExecEvent| trace.iter().filter(|s| s.event == ev).count();
        assert_eq!(count(ExecEvent::BoundaryOut), 2);
        assert_eq!(count(ExecEvent::BoundaryIn), 0);
        let mut reference = conv_stack(6, 4, 11);
        for _ in 0..3 {
            reference.train_step(&x, &y, 0.05);
            evicting.train_step(&mut net, &x, &y, 0.05);
        }
        assert_eq!(
            net.snapshot(),
            reference.snapshot(),
            "weights must match bitwise"
        );
    }

    #[test]
    fn co_scheduled_boundary_rides_the_swap_out() {
        // Interior eviction deferred to the consumer's forward step: the
        // boundary merges into the same swap-out, no separate event. (The
        // return may split: fetch placement can issue the interiors
        // earlier than the boundary.)
        use karma_core::plan::{OpKind, Plan};
        use OpKind::{Backward, Forward, SwapIn, SwapOut};
        let (mut net, x, y) = setup();
        let mut p = Plan::new(3);
        let f0 = p.push(Forward, 0, vec![]);
        let f1 = p.push(Forward, 1, vec![f0]);
        let so = p.push(SwapOut, 0, vec![f0, f1]);
        let f2 = p.push(Forward, 2, vec![f1]);
        let b2 = p.push(Backward, 2, vec![f2]);
        let si = p.push(SwapIn, 0, vec![so, b2]);
        let b1 = p.push(Backward, 1, vec![b2]);
        p.push(Backward, 0, vec![b1, si]);
        let exec = crate::bridge::lower_plan(&p, &[0, 3, 6], usize::MAX / 2, net.len()).unwrap();
        let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(stats.boundary_out_ops, 1);
        assert_eq!(stats.boundary_in_ops, 1);
        let count = |ev: ExecEvent| trace.iter().filter(|s| s.event == ev).count();
        assert_eq!(count(ExecEvent::BoundaryOut), 0, "merged into the Sout");
        assert_eq!(count(ExecEvent::SwapOut), 1);
        for _ in 0..2 {
            exec.train_step(&mut net, &x, &y, 0.05);
        }
        assert_eq!(net.snapshot(), reference(2));
    }

    #[test]
    fn split_boundary_fetch_emits_its_own_event() {
        // Boundary scheduled back a step earlier than the interior: a
        // separate BoundaryIn event, still bitwise-identical training.
        let (mut net, x, y) = setup();
        let exec = hand_built(
            vec![0, 3, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Resident,
                BlockPolicy::Resident,
            ],
            net.len(),
            &[
                out(0, 0, true, false),
                out(0, 1, false, true),
                fetch(0, 2, false, true),
                fetch(0, 1, true, false),
            ],
        );
        let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(stats.boundary_in_ops, 1);
        let count = |ev: ExecEvent| trace.iter().filter(|s| s.event == ev).count();
        assert_eq!(count(ExecEvent::BoundaryOut), 1, "deferred tail");
        assert_eq!(count(ExecEvent::BoundaryIn), 1, "split return");
        for _ in 0..2 {
            exec.train_step(&mut net, &x, &y, 0.05);
        }
        assert_eq!(net.snapshot(), reference(2));
    }

    #[test]
    fn tiered_execution_is_bitwise_identical_to_single_pool() {
        // Same schedule, swap traffic split across a host and an NVMe
        // tier: transfers are priced differently but the arithmetic (and
        // the near-memory trajectory) must not move.
        let (mut net, x, y) = setup();
        let (mut pooled_net, _, _) = setup();
        let pooled = OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
            usize::MAX / 2,
            net.len(),
        );
        let tiered = pooled.clone().with_tiers(
            vec![TierSpec::host(usize::MAX), TierSpec::nvme(usize::MAX)],
            vec![0, 1, 0],
        );
        let (loss_p, _, s_p, trace_p) = pooled.grad_step_traced(&net, &x, &y, |_, _| {});
        let (loss_t, _, s_t, trace_t) = tiered.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(loss_p, loss_t, "tier routing moved arithmetic");
        assert_eq!(s_p.peak_near_bytes, s_t.peak_near_bytes);
        assert_eq!(s_p.peak_far_bytes, s_t.peak_far_bytes);
        assert_eq!(s_p.swapped_out_bytes, s_t.swapped_out_bytes);
        // Near-memory trajectories match sample for sample; only the
        // per-tier split differs.
        let near_p: Vec<usize> = trace_p.iter().map(|s| s.near_bytes).collect();
        let near_t: Vec<usize> = trace_t.iter().map(|s| s.near_bytes).collect();
        assert_eq!(near_p, near_t);
        assert!(trace_p.iter().all(|s| s.far_bytes.len() == 1));
        assert!(trace_t.iter().all(|s| s.far_bytes.len() == 2));
        // Per-tier peaks: both tiers saw traffic, and they recompose the
        // single pool's totals.
        assert_eq!(s_t.peak_tier_bytes.len(), 2);
        assert!(s_t.peak_tier_bytes.iter().all(|&p| p > 0));
        assert_eq!(s_p.peak_tier_bytes, vec![s_p.peak_far_bytes]);
        for _ in 0..3 {
            pooled.train_step(&mut pooled_net, &x, &y, 0.05);
            tiered.train_step(&mut net, &x, &y, 0.05);
        }
        assert_eq!(net.snapshot(), pooled_net.snapshot(), "bitwise parity");
        assert_eq!(net.snapshot(), reference(3));
    }

    #[test]
    fn tier_capacity_is_enforced_during_execution() {
        // A tier too small for the routed block's interiors OOMs exactly
        // like the near-memory allocator would.
        let (net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 3, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Resident,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            net.len(),
        )
        .with_tiers(vec![TierSpec::host(1)], vec![0, 0, 0]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.grad_step(&net, &x, &y, |_, _| {});
        }));
        assert!(result.is_err(), "undersized tier must OOM");
    }

    #[test]
    #[should_panic(expected = "missing tier")]
    fn tier_routing_must_stay_in_range() {
        let (net, _, _) = setup();
        OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
            usize::MAX / 2,
            net.len(),
        )
        .with_tiers(vec![TierSpec::unbounded()], vec![0, 1, 0]);
    }

    #[test]
    fn async_engine_matches_sync_bitwise_with_identical_near_trace() {
        // The hardest configuration: boundary eviction, deferred/split
        // schedules, and two tiers. Lanes may only move the clock and
        // the far discharge points — never the arithmetic, the event
        // order or the near-memory trajectory.
        use karma_tensor::conv_stack;
        let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
        let (x, y) = data.batch(0, 16);
        let mut net_s = conv_stack(6, 4, 11);
        let mut net_a = conv_stack(6, 4, 11);
        let sync = two_tier_boundary_evicting_executor(net_s.len());
        let overlap = sync.clone().with_io_lanes(2);
        assert_eq!(overlap.io_lanes(), 2);
        let (l_s, _, s_s, tr_s) = sync.grad_step_traced(&net_s, &x, &y, |_, _| {});
        let (l_a, _, s_a, tr_a) = overlap.grad_step_traced(&net_a, &x, &y, |_, _| {});
        assert_eq!(l_s, l_a, "lanes moved arithmetic");
        assert_eq!(s_s, s_a, "deterministic stats must match");
        assert_eq!(s_s.swap_hidden_s, 0.0, "sync hides nothing");
        assert_eq!(tr_s.len(), tr_a.len());
        for (s, a) in tr_s.iter().zip(&tr_a) {
            assert_eq!(
                (s.event, s.block, s.near_bytes),
                (a.event, a.block, a.near_bytes),
                "near trajectory must be byte-identical at every sample"
            );
        }
        // The far trajectories *differ* while fetches are in flight (the
        // async engine discharges at the deadline, not at issue) but both
        // end drained.
        assert_eq!(tr_a.last().unwrap().far_bytes, vec![0, 0]);
        for _ in 0..3 {
            sync.train_step(&mut net_s, &x, &y, 0.05);
            overlap.train_step(&mut net_a, &x, &y, 0.05);
        }
        assert_eq!(net_s.snapshot(), net_a.snapshot(), "bitwise parity");
    }

    #[test]
    fn async_engine_matches_sync_on_the_jit_schedule_too() {
        let (mut net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 2, 4, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Recompute,
                BlockPolicy::Swap,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            net.len(),
        )
        .with_io_lanes(3);
        for _ in 0..2 {
            exec.train_step(&mut net, &x, &y, 0.05);
        }
        assert_eq!(net.snapshot(), reference(2));
    }

    #[test]
    fn waited_and_hidden_transfer_time_are_accounted() {
        let (net, x, y) = setup();
        let base = OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
            usize::MAX / 2,
            net.len(),
        )
        .with_tiers(
            vec![TierSpec::nvme(usize::MAX).with_link(50_000)],
            vec![0, 0, 0],
        );
        let (_, _, s_sync) = base.grad_step(&net, &x, &y, |_, _| {});
        assert!(s_sync.swap_wait_s > 0.0, "inline transfers are waited");
        assert_eq!(s_sync.swap_hidden_s, 0.0);
        let (_, _, s_async) = base
            .clone()
            .with_io_lanes(2)
            .grad_step(&net, &x, &y, |_, _| {});
        assert!(
            s_async.swap_hidden_s > 0.0,
            "lanes hid transfer work under compute"
        );
    }

    #[test]
    fn mid_transfer_panic_poisons_the_engine() {
        let (net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
            usize::MAX / 2,
            net.len(),
        )
        .with_io_lanes(1);
        // Poison the lane through the public pool handle, standing in
        // for a transfer that panics mid-copy.
        let h = exec
            .io_pool()
            .unwrap()
            .submit(0, || panic!("mid-transfer failure"));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.wait()));
        assert!(r.is_err());
        assert!(exec.io_poisoned());
        // A poisoned engine refuses to run further steps.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.grad_step(&net, &x, &y, |_, _| {});
        }));
        assert!(r.is_err(), "poisoned engine must refuse reuse");
    }

    #[test]
    fn on_block_hook_sees_blocks_back_to_front() {
        let (net, x, y) = setup();
        let exec = OocExecutor::new(
            vec![0, 3, 6],
            vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
            usize::MAX / 2,
            net.len(),
        );
        let mut seen = Vec::new();
        exec.grad_step(&net, &x, &y, |b, _| seen.push(b));
        assert_eq!(seen, vec![2, 1, 0]);
    }
}
