//! The 5-stage data-parallel KARMA pipeline (paper Fig. 3).
//!
//! Per worker and iteration:
//!
//! 1. capacity-based forward/backward with swap + recompute interleaving
//!    (the single-GPU schedule, with block **state** riding the swaps so
//!    that arbitrarily large models fit);
//! 2. after each block's backward, its gradients move to the host
//!    (overlapped with activation swap-ins on the opposite DMA direction);
//! 3. the **phased gradient exchange**: finished blocks AllReduce without
//!    waiting for the rest (grouped per Shi et al. to amortize latency);
//! 4. the weight update runs **on the CPU** (stage 5 in the paper's
//!    numbering includes the swap-back, which overlaps the next forward).
//!
//! The returned iteration time is the steady-state estimate: the makespan
//! of the extended plan, which includes the tail where the front blocks'
//! exchange + update extends past the last backward.

use karma_core::capacity::{build_training_plan, CapacityPlanOptions};
use karma_core::cost::{BlockCosts, LayerCostTable};
use karma_core::lower::{simulate_plan, LowerOptions, SimMetrics};
use karma_core::opt::refine_recompute;
use karma_core::plan::{OpKind, Plan};
use karma_graph::{MemoryParams, ModelGraph};
use karma_hw::ClusterSpec;
use karma_net::{AllReduceAlgo, AllReduceModel, PhasedExchange};
use serde::{Deserialize, Serialize};

/// Options for the distributed iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistOptions {
    /// Use the phased (grouped) gradient exchange; `false` = one bulk
    /// AllReduce after the whole backward (the naive port).
    pub phased_exchange: bool,
    /// Interleave recompute in the per-worker schedule.
    pub recompute: bool,
    /// ZeRO-style state partitioning: model state per worker shrinks by
    /// the worker count (the ZeRO+KARMA combination of Fig. 8).
    pub zero_partition: bool,
    /// Candidate uniform block counts for the per-worker schedule search.
    pub block_counts: Vec<usize>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            phased_exchange: true,
            recompute: true,
            zero_partition: false,
            block_counts: vec![8, 12, 16, 24, 32, 48],
        }
    }
}

/// Result of planning one data-parallel KARMA iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistResult {
    /// Steady-state time per training iteration (s).
    pub iter_time: f64,
    /// Per-worker simulated metrics (compute lane occupancy etc.).
    pub metrics: SimMetrics,
    /// Seconds the gradient exchange added beyond the compute makespan
    /// (the non-overlapped communication tail).
    pub exchange_tail: f64,
    /// Number of blocks in the chosen per-worker schedule.
    pub n_blocks: usize,
    /// Per-GPU mini-batch size.
    pub per_gpu_batch: usize,
}

/// Append the phased-exchange ops to a per-worker plan: one `AR` per
/// group on its **lead** block (its first-finishing member), gated on the
/// last member's backward, and one host-side `U` after each `AR`
/// (updates of different groups serialize on the simulator's host lane;
/// no explicit dependency chain is needed).
///
/// This is the single source of the distributed op shape:
/// [`karma_dp_iteration`] emits through it, and
/// `karma_core::bridge::lower_to_runtime` recovers exactly these groups
/// as the `DistSchedule` riding alongside the transfer program it emits
/// — the round-trip the distributed plan→runtime tests pin.
pub fn append_exchange_ops(plan: &mut Plan, groups: &PhasedExchange) {
    for g in &groups.groups {
        let lead = g.blocks[0];
        // The group launches when its *last-finishing* member's backward
        // completes; members are in backward order, so that's the final
        // entry.
        let gate = *g.blocks.last().expect("groups are non-empty");
        let b_gate = plan
            .find(OpKind::Backward, gate)
            .expect("every block has a backward");
        let ar = plan.push(OpKind::AllReduce, lead, vec![b_gate]);
        plan.push(OpKind::HostUpdate, lead, vec![ar]);
    }
}

/// Build block costs for the distributed setting: block state (weights,
/// gradients, optimizer) *rides the swaps* instead of being pinned on the
/// device, which is what frees data-parallel KARMA from the model-size
/// floor (paper: "the layers (including their weights) do not entirely
/// reside on the GPU").
fn distributed_costs(
    table: &LayerCostTable,
    boundaries: &[usize],
    usable_bytes: u64,
    input_bytes: u64,
    state_divisor: u64,
) -> BlockCosts {
    let mut c = table.block_costs(boundaries);
    let n = c.n_blocks();
    for b in 0..n {
        let state = c.state_bytes[b] / state_divisor;
        c.state_bytes[b] = state;
        c.act_bytes[b] += state; // occupies device memory while resident
        c.swap_bytes[b] += state; // and moves over the interconnect
        c.grad_bytes[b] /= state_divisor;
    }
    // State is no longer statically resident, so the full device is
    // available to the streamed working set.
    c.act_capacity = usable_bytes as i64 - input_bytes as i64;
    c
}

/// Plan and simulate one steady-state data-parallel KARMA iteration of
/// `graph` at `per_gpu_batch` per worker on `cluster`.
pub fn karma_dp_iteration(
    graph: &ModelGraph,
    per_gpu_batch: usize,
    cluster: &ClusterSpec,
    mem: &MemoryParams,
    opts: &DistOptions,
) -> DistResult {
    let node = &cluster.node;
    let table = LayerCostTable::from_graph(graph, per_gpu_batch, node, mem);
    let input_bytes = graph.layers[0].out_shape.elements() * per_gpu_batch as u64 * mem.dtype_bytes;
    let state_divisor = if opts.zero_partition {
        cluster.total_gpus().max(1) as u64
    } else {
        1
    };

    let allreduce = AllReduceModel::new(AllReduceAlgo::Hierarchical, cluster);
    let n = graph.len();

    let mut best: Option<(DistResult, f64)> = None;
    for &k in &opts.block_counts {
        let k = k.clamp(1, n);
        let part = karma_graph::BlockPartition::uniform(n, k);
        let costs = distributed_costs(
            &table,
            part.boundaries(),
            node.gpu.usable_bytes(),
            input_bytes,
            state_divisor,
        );
        if !costs.is_schedulable() {
            continue;
        }
        let recompute = if opts.recompute && !costs.fits_in_core() {
            refine_recompute(&costs)
        } else {
            vec![false; costs.n_blocks()]
        };
        let cp = build_training_plan(
            &costs,
            &CapacityPlanOptions::karma_with_recompute(recompute),
        );
        let mut plan = cp.plan.clone();

        // Stages 3-5: per-block gradient path. Group blocks per the phased
        // exchange (or one bulk group), ordered by backward completion.
        let groups = if opts.phased_exchange {
            PhasedExchange::plan(&costs.grad_bytes, &allreduce)
        } else {
            PhasedExchange::bulk(&costs.grad_bytes)
        };
        // Per-block durations (applied to the group's *lead* block; the
        // rest of the group gets zero-duration ops chained to it).
        let mut ar_time = vec![0.0; costs.n_blocks()];
        let mut up_time = vec![0.0; costs.n_blocks()];
        for g in &groups.groups {
            let lead = g.blocks[0];
            // Host-bound hop over PCIe for the group's gradients, then the
            // inter-node exchange.
            ar_time[lead] = g.bytes as f64 / node.host_link.bandwidth + allreduce.time(g.bytes);
            let group_params: u64 = g.blocks.iter().map(|&b| costs.params[b]).sum();
            up_time[lead] = node.cpu.update_time(group_params / state_divisor, 5.0);
        }
        append_exchange_ops(&mut plan, &groups);

        let lower = LowerOptions {
            swap_state: false, // state already folded into swap_bytes
            allreduce_time: ar_time,
            update_time: up_time,
            ..Default::default()
        };
        let (trace, metrics) = simulate_plan(&plan, &costs, &lower);
        let compute_end = trace
            .spans()
            .iter()
            .filter(|s| s.lane == karma_sim::LaneKind::Compute)
            .map(|s| s.end)
            .fold(0.0f64, f64::max);
        let result = DistResult {
            iter_time: metrics.makespan,
            metrics,
            exchange_tail: (metrics.makespan - compute_end).max(0.0),
            n_blocks: costs.n_blocks(),
            per_gpu_batch,
        };
        let key = if metrics.capacity_ok {
            metrics.makespan
        } else {
            f64::INFINITY
        };
        if best.as_ref().is_none_or(|(_, k0)| key < *k0) {
            best = Some((result, key));
        }
    }
    best.map(|(r, _)| r)
        .expect("no schedulable distributed blocking; model block too large for device")
}

#[cfg(test)]
mod tests {
    use super::*;
    use karma_graph::{GraphBuilder, Shape};
    use karma_zoo::transformer;

    fn small_transformer() -> ModelGraph {
        transformer::gpt2_like("gpt-small", 768, 12, 6)
    }

    fn cnn() -> ModelGraph {
        let mut b = GraphBuilder::new("cnn", Shape::chw(3, 64, 64));
        for _ in 0..8 {
            b.conv_bn_relu(32, 3, 1, 1);
        }
        b.global_avg_pool();
        b.flatten();
        b.fc(10);
        b.build()
    }

    #[test]
    fn dp_iteration_runs_and_is_feasible() {
        let g = cnn();
        let cluster = ClusterSpec::abci(2);
        let r = karma_dp_iteration(
            &g,
            64,
            &cluster,
            &MemoryParams::default(),
            &DistOptions::default(),
        );
        assert!(r.iter_time > 0.0);
        assert!(r.metrics.capacity_ok);
        assert!(r.n_blocks >= 1);
    }

    #[test]
    fn phased_exchange_beats_bulk() {
        // The headline mechanism: overlapping per-block exchanges with the
        // remaining backward must not be slower than one bulk AllReduce.
        let g = small_transformer();
        let cluster = ClusterSpec::abci(8);
        let mem = MemoryParams::default();
        let phased = karma_dp_iteration(&g, 4, &cluster, &mem, &DistOptions::default());
        let bulk = karma_dp_iteration(
            &g,
            4,
            &cluster,
            &mem,
            &DistOptions {
                phased_exchange: false,
                ..Default::default()
            },
        );
        assert!(
            phased.iter_time <= bulk.iter_time + 1e-9,
            "phased {} !<= bulk {}",
            phased.iter_time,
            bulk.iter_time
        );
    }

    #[test]
    fn models_beyond_device_memory_still_train() {
        // The whole point of Sec. III-G: a model whose *state* exceeds the
        // GPU trains data-parallel because state rides the swap pipeline.
        let g = transformer::gpt2_like("gpt-1.6b", 1600, 25, 48);
        let mem = MemoryParams::default();
        let state = g.memory(1, &mem).model_state();
        let cluster = ClusterSpec::abci(4);
        assert!(
            state > cluster.node.gpu.usable_bytes(),
            "test needs an over-sized model"
        );
        let r = karma_dp_iteration(&g, 1, &cluster, &mem, &DistOptions::default());
        assert!(r.metrics.capacity_ok, "peak {}", r.metrics.peak_act_bytes);
        assert!(r.iter_time > 0.0);
    }

    #[test]
    fn zero_partitioning_shrinks_iteration_time() {
        // ZeRO+KARMA: partitioned state means less streamed volume.
        let g = transformer::gpt2_like("gpt-1.6b", 1600, 25, 48);
        let mem = MemoryParams::default();
        let cluster = ClusterSpec::abci(64);
        let plain = karma_dp_iteration(&g, 1, &cluster, &mem, &DistOptions::default());
        let zeroed = karma_dp_iteration(
            &g,
            1,
            &cluster,
            &mem,
            &DistOptions {
                zero_partition: true,
                ..Default::default()
            },
        );
        assert!(
            zeroed.iter_time < plain.iter_time,
            "zero {} !< plain {}",
            zeroed.iter_time,
            plain.iter_time
        );
    }

    #[test]
    fn exchange_tail_is_bounded_by_one_group() {
        let g = cnn();
        let cluster = ClusterSpec::abci(4);
        let r = karma_dp_iteration(
            &g,
            32,
            &cluster,
            &MemoryParams::default(),
            &DistOptions::default(),
        );
        // The tail can't exceed the full exchange + update serial time.
        assert!(r.exchange_tail < r.iter_time);
    }
}
