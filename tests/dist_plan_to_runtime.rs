//! Distributed plan → runtime cross-checks: a plan carrying `AR`/`U` ops
//! lowers through the bridge and executes end to end on real worker
//! threads, with the exchange traffic predicted exactly.
//!
//! The path under test extends `tests/plan_to_runtime.rs` to paper
//! Sec. III-G: profile → plan the per-worker out-of-core schedule →
//! group the gradient exchange with `karma_net::PhasedExchange` (MG-WFBP
//! merging over the α–β AllReduce cost model) → append the `AR`/`U` ops
//! the distributed pipeline emits → lower (`lower_dist_plan`) → train
//! replicas with `karma_runtime::dp::train`.
//!
//! Cross-check layers:
//!
//! * **exchange groups** — the `DistSchedule` recovered from the plan's
//!   `AR` ops must equal the `PhasedExchange` grouping that produced
//!   them, and the executed run must ship exactly one message per group
//!   per worker per step (`expected_exchange` replays this count);
//! * **bytes** — the α–β cost model's per-group bytes must equal the
//!   bytes the workers actually ship, message for message;
//! * **bit parity** — the N-worker grouped run must land on exactly the
//!   weights of the sequential single-worker emulation of the same
//!   sharded workload (`dp::train_reference`), at any worker or thread
//!   count: grouping and parallelism move messages, never arithmetic.

use karma::core::lower_to_runtime;
use karma::core::opt::OptConfig;
use karma::core::plan::Plan;
use karma::core::program::Op;
use karma::dist::append_exchange_ops;
use karma::graph::MemoryParams;
use karma::hw::{ClusterSpec, GpuSpec, LinkSpec, NodeSpec};
use karma::net::{AllReduceAlgo, AllReduceModel, ExchangeGroup, PhasedExchange};
use karma::runtime::bridge::{
    block_grad_bytes, expected_exchange, expected_residency, lower_dist_plan, plan_net,
};
use karma::runtime::dp::{train, train_reference};
use karma::tensor::{conv_stack, Sequential, SyntheticDataset, Tensor};

fn dataset() -> SyntheticDataset {
    SyntheticDataset::classification(128, 1, 16, 4, 21)
}

fn fresh_net() -> Sequential {
    conv_stack(6, 4, 11)
}

/// Profile → plan on the mirrored conv stack, forcing an out-of-core
/// device (same setup as `tests/plan_to_runtime.rs`).
fn plan_conv_stack() -> (Plan, Vec<usize>) {
    let graph = karma::zoo::micro::conv_stack_graph(6, 4);
    let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
    let node = NodeSpec::toy(
        GpuSpec::toy((need * 0.65) as u64, 5.0e9),
        LinkSpec::toy(4.0e9),
    );
    let mut cfg = OptConfig::fast(17);
    cfg.max_cut_candidates = 5;
    let p = plan_net(&graph, 16, &node, &cfg).expect("the conv stack plans");
    (p.plan, p.bounds)
}

/// A guaranteed-multi-group exchange: split the blocks into two
/// contiguous groups regardless of what the α–β threshold would merge.
fn two_group_exchange(grad_bytes: &[u64]) -> PhasedExchange {
    let n = grad_bytes.len();
    assert!(n >= 2, "need at least two blocks to split");
    let mid = n / 2;
    let group = |range: std::ops::Range<usize>| ExchangeGroup {
        blocks: range.clone().rev().collect(),
        bytes: range.map(|b| grad_bytes[b]).sum(),
    };
    PhasedExchange {
        groups: vec![group(mid..n), group(0..mid)],
    }
}

#[test]
fn distributed_plan_lowers_and_executes_end_to_end() {
    let (base_plan, net_bounds) = plan_conv_stack();
    let net = fresh_net();
    let grad_bytes = block_grad_bytes(&net, &net_bounds);

    // Group the exchange with the α–β cost model (MG-WFBP merging), as
    // the paper's pipeline does, and append the AR/U ops.
    let model = AllReduceModel::new(AllReduceAlgo::Hierarchical, &ClusterSpec::abci(2));
    let phased = PhasedExchange::plan(&grad_bytes, &model);
    let mut plan = base_plan.clone();
    append_exchange_ops(&mut plan, &phased);

    // The analysis recovers exactly the grouping that produced the ops.
    let sched = lower_to_runtime(&plan).expect("distributed plan lowers");
    let dist = sched.dist.as_ref().expect("plan has AR/U ops");
    let phased_blocks: Vec<Vec<usize>> = phased.groups.iter().map(|g| g.blocks.clone()).collect();
    assert_eq!(dist.group_blocks(), phased_blocks);
    assert!(dist.groups.iter().all(|g| g.has_update));

    // The residency contract is untouched by the exchange ops.
    let data = dataset();
    let (x, _) = data.batch(0, 8);
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, net.len()).unwrap();
    let base_replay = expected_residency(&base_plan, &net_bounds, &key_bytes, net.len()).unwrap();
    assert_eq!(replay.samples, base_replay.samples);

    // Lower to a runnable executor + exchange schedule and train for real.
    let (exec, xchg) = lower_dist_plan(&plan, &net_bounds, replay.peak_bytes, net.len()).unwrap();
    assert_eq!(xchg.groups(), phased_blocks.as_slice());

    // The distributed lowering carries the boundary-eviction policy: one
    // worker's traced shard-step reproduces the single-worker replay
    // sample for sample (every swapped boundary below the last departs).
    let (x0, y0) = data.shard(0, 8, 0);
    let (_, _, stats0, traj0) = exec.grad_step_traced(&net, &x0, &y0, |_, _| {});
    assert_eq!(traj0, replay.samples, "per-worker residency != replay");
    assert_eq!(stats0.peak_near_bytes, replay.peak_bytes);
    let program = lower_to_runtime(&plan).unwrap();
    let departs = |op: &&Op| matches!(op, Op::Out(t) if t.boundary);
    let evicting = program.ops.iter().filter(departs).count();
    assert_eq!(stats0.boundary_out_ops, evicting);
    if stats0.swap_out_ops > 0 {
        assert!(evicting > 0, "swaps without boundary eviction");
    }

    let (workers, per_worker, steps) = (2usize, 8usize, 2usize);
    let exchange = expected_exchange(&plan, &grad_bytes, workers, steps).unwrap();
    let mut nets: Vec<Sequential> = (0..workers).map(|_| fresh_net()).collect();
    let report = train(&mut nets, &exec, &xchg, &data, per_worker, 0.05, steps);

    // Predicted exchange groups == executed messages.
    assert_eq!(report.exchange_messages, exchange.messages);
    assert_eq!(exchange.messages_per_step, dist.messages_per_step(workers));

    // Per-worker peak residency matches the single-worker prediction:
    // the replicas inherit boundary eviction unchanged.
    assert_eq!(report.peak_near_bytes, replay.peak_bytes);

    // Cost-model bytes == shipped bytes, group for group.
    let shipped: Vec<u64> = report.group_bytes.iter().map(|&b| b as u64).collect();
    assert_eq!(shipped, exchange.per_group_bytes);
    let model_bytes: Vec<u64> = phased.groups.iter().map(|g| g.bytes).collect();
    assert_eq!(shipped, model_bytes);
    assert_eq!(report.exchanged_bytes as u64, exchange.total_bytes);
    assert_eq!(
        phased.total_bytes() * workers as u64 * steps as u64,
        exchange.total_bytes
    );

    // Bitwise weight parity with the sequential single-worker emulation
    // of the same sharded workload.
    let mut reference = fresh_net();
    let ref_losses = train_reference(
        &mut reference,
        &exec,
        &data,
        per_worker,
        workers,
        0.05,
        steps,
    );
    assert_eq!(report.final_snapshot, reference.snapshot(), "bit parity");
    assert_eq!(report.losses, ref_losses);

    // The grouped run actually exercised the out-of-core machinery.
    assert!(report.swapped_bytes > 0 || report.recomputed_layers > 0);
}

#[test]
fn grouping_moves_messages_not_bits_at_plan_scale() {
    // Per-block vs two-group vs α–β-merged exchanges over the same
    // planned schedule: message counts differ exactly as predicted,
    // total payload and final weights do not move at all.
    let (base_plan, net_bounds) = plan_conv_stack();
    let net = fresh_net();
    let grad_bytes = block_grad_bytes(&net, &net_bounds);
    let data = dataset();
    let (x, _) = data.batch(0, 8);
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();

    let model = AllReduceModel::new(AllReduceAlgo::Hierarchical, &ClusterSpec::abci(2));
    let exchanges = [
        PhasedExchange::per_block(&grad_bytes),
        two_group_exchange(&grad_bytes),
        PhasedExchange::plan(&grad_bytes, &model),
    ];

    let (workers, per_worker, steps) = (2usize, 8usize, 2usize);
    let mut snapshots = Vec::new();
    let mut totals = Vec::new();
    for phased in &exchanges {
        let mut plan = base_plan.clone();
        append_exchange_ops(&mut plan, phased);
        let replay = expected_residency(&plan, &net_bounds, &key_bytes, net.len()).unwrap();
        let (exec, xchg) =
            lower_dist_plan(&plan, &net_bounds, replay.peak_bytes, net.len()).unwrap();
        let exchange = expected_exchange(&plan, &grad_bytes, workers, steps).unwrap();
        let mut nets: Vec<Sequential> = (0..workers).map(|_| fresh_net()).collect();
        let report = train(&mut nets, &exec, &xchg, &data, per_worker, 0.05, steps);
        assert_eq!(report.exchange_messages, exchange.messages);
        assert_eq!(
            report.exchange_messages,
            phased.groups.len() * workers * steps
        );
        snapshots.push(report.final_snapshot);
        totals.push(report.exchanged_bytes);
    }
    assert_eq!(snapshots[0], snapshots[1], "two-group exchange moved bits");
    assert_eq!(snapshots[0], snapshots[2], "merged exchange moved bits");
    assert_eq!(totals[0], totals[1], "payload must be grouping-invariant");
    assert_eq!(totals[0], totals[2]);
}

#[test]
fn grouped_exchange_is_deterministic_across_workers_and_threads() {
    // The satellite determinism matrix: for every worker count × pool
    // width, the grouped exchange lands on exactly the single-worker
    // (sequential reference) weights. Thread counts only reschedule the
    // kernel and exchange work; the arithmetic order is pinned.
    let (base_plan, net_bounds) = plan_conv_stack();
    let net = fresh_net();
    let grad_bytes = block_grad_bytes(&net, &net_bounds);
    let mut plan = base_plan;
    append_exchange_ops(&mut plan, &two_group_exchange(&grad_bytes));

    let data = dataset();
    let (x, _) = data.batch(0, 8);
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, net.len()).unwrap();
    let (exec, xchg) = lower_dist_plan(&plan, &net_bounds, replay.peak_bytes, net.len()).unwrap();

    let (per_worker, steps) = (4usize, 2usize);
    for workers in [1usize, 2, 4] {
        // The reference is sequential by construction: one thread, one
        // net, shards processed in rank order.
        let mut reference = fresh_net();
        let ref_losses = train_reference(
            &mut reference,
            &exec,
            &data,
            per_worker,
            workers,
            0.05,
            steps,
        );
        let expected = reference.snapshot();
        for threads in [1usize, 4] {
            rayon::set_num_threads(threads);
            let mut nets: Vec<Sequential> = (0..workers).map(|_| fresh_net()).collect();
            let report = train(&mut nets, &exec, &xchg, &data, per_worker, 0.05, steps);
            assert_eq!(
                report.final_snapshot, expected,
                "{workers} workers × {threads} threads diverged"
            );
            assert_eq!(report.losses, ref_losses);
        }
        rayon::set_num_threads(0); // restore auto sizing
    }
}
