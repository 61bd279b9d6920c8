//! Plan → runtime bridge cross-checks: the schedule the planner searched
//! over is the schedule the runtime executes.
//!
//! The end-to-end path under test is the paper's actual tool flow:
//! profile the model, search its blocking, refine recompute and build the
//! plan (Fig. 1 steps 1–5, `karma_runtime::bridge::plan_net`), then lower
//! the plan through `karma_runtime::bridge` and run a *real* training
//! step on the tensor stack.
//!
//! Cross-check layers:
//!
//! * **op counts** — executed block-level swap-out / swap-in / recompute
//!   operations must equal the plan's op counts *and* the op counts in the
//!   `karma-sim` discrete-event simulation of the same plan;
//! * **residency trajectory** — the executed near-memory trajectory must
//!   equal, sample for sample, the bridge's replay of the plan over the
//!   real tensor sizes. (The event simulator's byte *timeline* is not
//!   directly comparable: it overlaps transfers with compute and accounts
//!   cost-model bytes, including the input in block 0 and transient
//!   backward buffers, so the trajectory contract lives in the bridge
//!   replay while the simulator anchors op counts and capacity.)
//! * **bit parity** — the bridged executor must train to exactly the same
//!   weights as in-core training.

use karma::core::capacity::{build_training_plan, CapacityPlanOptions};
use karma::core::cost::LayerCostTable;
use karma::core::lower::{simulate_plan, LowerOptions};
use karma::core::opt::{optimize_blocking, refine_recompute, OptConfig};
use karma::core::plan::OpKind;
use karma::core::program::Op;
use karma::core::{lower_to_runtime, LoweredPolicy, TransferProgram};
use karma::graph::{MemoryParams, ModelGraph};
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::runtime::bridge::{
    expected_residency, graph_boundaries_to_net, lower_plan, plan_net, NetPlan,
};
use karma::runtime::ExecEvent;
use karma::sim::ModelProfile;
use karma::tensor::{conv_stack, Sequential, SyntheticDataset, Tensor};
use karma::zoo::fig5_workloads;
use proptest::prelude::*;

/// The `karma_zoo::micro::conv_stack_graph` mirror of
/// `karma_tensor::conv_stack(6, ..)`; under `MemoryParams::exact`, graph
/// layer `i`'s activation bytes equal the executor's near-memory key `i`
/// exactly (guarded below by `profile_mirrors_real_tensor_bytes`). Deep
/// enough (14 net layers) that multi-layer blocks carry real interior
/// activations, so swap and recompute move actual bytes.
fn conv_stack_graph() -> ModelGraph {
    karma::zoo::micro::conv_stack_graph(6, 4)
}

fn setup() -> (Sequential, Tensor, Vec<usize>) {
    let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
    let (x, y) = data.batch(0, 16);
    (conv_stack(6, 4, 11), x, y)
}

/// Profile → plan → bridge on the mirrored conv stack, forcing an
/// out-of-core device. Returns everything the cross-checks need.
fn plan_conv_stack(link_bw: f64) -> NetPlan {
    let graph = conv_stack_graph();
    let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
    let node = NodeSpec::toy(
        GpuSpec::toy((need * 0.65) as u64, 5.0e9),
        LinkSpec::toy(link_bw),
    );
    // Coarse cuts only, so multi-layer blocks carry real interiors and
    // the executed swaps/recomputes move actual bytes.
    let mut cfg = OptConfig::fast(17);
    cfg.max_cut_candidates = 5;
    plan_net(&graph, 16, &node, &cfg).expect("the conv stack plans")
}

/// The near-memory peak of `program` over a net cut at `bounds` with
/// every boundary pinned resident: the program as lowered (each fetch at
/// the step it names) with its boundary moves left out, folded here
/// independently of the runtime and of the program's own fold.
fn pinned_boundary_peak(program: &TransferProgram, bounds: &[usize], key_bytes: &[usize]) -> usize {
    let n_layers = key_bytes.len() - 1;
    let end = |b: usize| bounds.get(b + 1).copied().unwrap_or(n_layers);
    let interior = |b: usize| -> usize { key_bytes[bounds[b] + 1..end(b)].iter().sum() };
    // Interior bytes leaving after each forward step and returning
    // before each backward step.
    let (mut evicted, mut fetched) = (vec![0; bounds.len()], vec![0; bounds.len()]);
    for op in &program.ops {
        match op {
            Op::Out(t) if t.interior => evicted[t.step] += interior(t.block),
            Op::In(t) if t.interior => fetched[t.step] += interior(t.block),
            _ => {}
        }
    }
    let recomputes = |b: usize| program.policies[b] == LoweredPolicy::Recompute;
    let (mut cur, mut peak) = (key_bytes[0], key_bytes[0]);
    for b in 0..bounds.len() {
        cur += interior(b) + key_bytes[end(b)];
        peak = peak.max(cur);
        if recomputes(b) {
            cur -= interior(b);
        }
        cur -= evicted[b];
    }
    cur -= key_bytes[n_layers];
    for b in (0..bounds.len()).rev() {
        cur += fetched[b];
        if recomputes(b) {
            cur += interior(b);
        }
        peak = peak.max(cur);
        cur -= key_bytes[bounds[b]] + interior(b);
    }
    peak
}

#[test]
fn profile_mirrors_real_tensor_bytes() {
    // The premise of every byte-level cross-check below: the analytic
    // profile of the mirrored graph describes exactly the tensors the
    // executor touches (graph layer i == near-memory key i).
    let (net, x, _) = setup();
    let graph = conv_stack_graph();
    assert_eq!(graph.len(), net.len() + 1, "graph adds the input layer");
    let profile = ModelProfile::collect(&graph, 16, &GpuSpec::v100_16gb(), &MemoryParams::exact());
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    for (i, lp) in profile.layers.iter().enumerate() {
        assert_eq!(
            lp.memory.activations as usize, key_bytes[i],
            "layer {i} ({})",
            lp.name
        );
        assert_eq!(lp.swap_bytes as usize, key_bytes[i], "layer {i} raw bytes");
    }
}

#[test]
fn planned_plan_executes_with_sim_matching_op_counts() {
    // The headline acceptance check: a plan produced by optimize_blocking
    // executes through OocExecutor via the bridge, and its executed
    // swap/recompute op counts match the karma-sim simulation of the
    // same plan.
    let (net, x, y) = setup();
    for link_bw in [4.0e9, 2.0e8] {
        let cp = plan_conv_stack(link_bw);
        let (costs, net_bounds) = (cp.costs.clone(), cp.bounds.clone());
        let (trace, metrics) = simulate_plan(&cp.plan, &costs, &LowerOptions::default());
        assert!(metrics.capacity_ok, "planner must respect capacity");
        let sim_souts = trace
            .spans()
            .iter()
            .filter(|s| s.label.kind == "Sout")
            .count();
        let sim_sins = trace
            .spans()
            .iter()
            .filter(|s| s.label.kind == "Sin")
            .count();
        let sim_recs = trace.spans().iter().filter(|s| s.label.kind == "R").count();

        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let replay = expected_residency(&cp.plan, &net_bounds, &key_bytes, net.len()).unwrap();
        let exec = lower_plan(&cp.plan, &net_bounds, replay.peak_bytes, net.len()).unwrap();
        let (_, _, stats, traj) = exec.grad_step_traced(&net, &x, &y, |_, _| {});

        // Plan == simulation == real execution, op for op.
        assert_eq!(cp.plan.count(OpKind::SwapOut), sim_souts);
        assert_eq!(cp.plan.count(OpKind::SwapIn), sim_sins);
        assert_eq!(cp.plan.count(OpKind::Recompute), sim_recs);
        assert_eq!(stats.swap_out_ops, sim_souts, "executed swap-outs vs sim");
        assert_eq!(stats.swap_in_ops, sim_sins, "executed swap-ins vs sim");
        assert_eq!(stats.recompute_ops, sim_recs, "executed recomputes vs sim");

        // The plans must move real bytes, not just count empty-interior
        // ops: out-of-core execution has to actually happen.
        assert!(
            stats.swapped_out_bytes > 0 || stats.recomputed_layers > 0,
            "link_bw {link_bw}: degenerate plan"
        );
        assert_eq!(stats.swapped_out_bytes, stats.swapped_in_bytes);

        // The executed residency trajectory is exactly the plan's replay
        // over the real tensor sizes: one sample per plan op plus one per
        // deferred boundary departure or split return, equal bytes — zero model-vs-
        // execution gap, boundary eviction included.
        let program = lower_to_runtime(&cp.plan).unwrap();
        let deferred_tails = program
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Out(t) if !t.interior))
            .count();
        // A boundary returns apart from its block's swap-in when the
        // schedule names it at another step, or when fetch placement
        // issues the interiors earlier than the pair could go.
        let split_returns = replay
            .samples
            .iter()
            .filter(|s| s.event == ExecEvent::BoundaryIn)
            .count();
        assert_eq!(
            traj.len(),
            cp.plan.ops.len() + deferred_tails + split_returns,
            "one extra sample per deferred boundary tail / split return"
        );
        assert_eq!(traj, replay.samples, "link_bw {link_bw}");
        assert_eq!(stats.peak_near_bytes, replay.peak_bytes);

        // Every swapped block below the last evicts its boundary, and the
        // executed departures/returns match the schedule exactly.
        let expect_evictions = program
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Out(t) if t.boundary))
            .count();
        assert_eq!(stats.boundary_out_ops, expect_evictions);
        assert_eq!(stats.boundary_in_ops, expect_evictions);
        if stats.swap_out_ops > 0 {
            assert!(
                expect_evictions > 0,
                "link_bw {link_bw}: swaps without boundary eviction"
            );
        }

        // Executed peak strictly drops versus the same schedule with
        // boundaries pinned resident.
        if expect_evictions > 0 {
            let pinned = pinned_boundary_peak(&program, &net_bounds, &key_bytes);
            assert!(
                stats.peak_near_bytes < pinned,
                "link_bw {link_bw}: evicting {} !< resident-boundary {pinned}",
                stats.peak_near_bytes,
            );
        }
    }
}

#[test]
fn bridged_execution_is_bit_identical_to_in_core() {
    let (mut net, x, y) = setup();
    let mut reference = conv_stack(6, 4, 11);
    let cp = plan_conv_stack(4.0e9);
    let net_bounds = cp.bounds.clone();
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    let replay = expected_residency(&cp.plan, &net_bounds, &key_bytes, net.len()).unwrap();
    let exec = lower_plan(&cp.plan, &net_bounds, replay.peak_bytes, net.len()).unwrap();
    for _ in 0..3 {
        reference.train_step(&x, &y, 0.05);
        exec.train_step(&mut net, &x, &y, 0.05);
    }
    assert_eq!(net.snapshot(), reference.snapshot(), "bitwise parity");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// For every capacity-builder plan that the simulator declares
    /// feasible, the *executed* peak residency stays within the plan's
    /// modeled budget (`act_capacity`, plus the input batch the model
    /// accounts statically) — the capacity promise survives lowering now
    /// that boundary bytes really leave. And boundary eviction changes
    /// residency only: losses and weights stay bitwise identical to the
    /// in-core replica.
    #[test]
    fn executed_peak_stays_within_the_modeled_budget(
        k in 2usize..7,
        cap_frac in 0.5f64..0.95,
        bw_exp in 8.0f64..9.7,
        rc_mask in 0u32..64,
        prefetch_ix in 0u8..3,
        eager_bit in 0u8..2,
    ) {
        use karma::core::capacity::PrefetchPolicy;
        let graph = conv_stack_graph();
        let mem = MemoryParams::exact();
        let need = graph.peak_footprint(16, &mem) as f64;
        let node = NodeSpec::toy(
            GpuSpec::toy((need * cap_frac) as u64, 5.0e9),
            LinkSpec::toy(10f64.powf(bw_exp)),
        );
        let profile = ModelProfile::collect(&graph, 16, &node.gpu, &mem);
        let table = LayerCostTable::from_profile(&profile, &node);
        let bounds = karma::graph::BlockPartition::uniform(graph.len(), k)
            .boundaries()
            .to_vec();
        prop_assume!(bounds.get(1).copied().unwrap_or(2) >= 2);
        let costs = table.block_costs(&bounds);
        prop_assume!(costs.is_schedulable());
        let n = costs.n_blocks();
        let opts = karma::core::capacity::CapacityPlanOptions {
            recompute: (0..n).map(|b| rc_mask >> (b % 32) & 1 == 1).collect(),
            resident_from: if eager_bit == 1 { Some(n) } else { None },
            prefetch: [
                PrefetchPolicy::CapacityBased,
                PrefetchPolicy::OneAhead,
                PrefetchPolicy::None,
            ][prefetch_ix as usize],
            sync_swap_out: false,
        };
        let cp = build_training_plan(&costs, &opts);
        let (_, metrics) = simulate_plan(&cp.plan, &costs, &LowerOptions::default());
        prop_assume!(metrics.capacity_ok);

        let (mut net, x, y) = setup();
        let net_bounds = graph_boundaries_to_net(&bounds).unwrap();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let replay = expected_residency(&cp.plan, &net_bounds, &key_bytes, net.len()).unwrap();
        let exec = lower_plan(&cp.plan, &net_bounds, replay.peak_bytes, net.len()).unwrap();
        let (loss, _, stats) = exec.grad_step(&net, &x, &y, |_, _| {});
        prop_assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
        // The input batch is accounted statically in act_capacity, so the
        // executor's near-memory (which hosts it as key 0) gets it back.
        let modeled_budget = costs.act_capacity + key_bytes[0] as i64;
        prop_assert!(
            (stats.peak_near_bytes as i64) <= modeled_budget,
            "executed peak {} exceeds modeled budget {}",
            stats.peak_near_bytes,
            modeled_budget
        );

        // Boundary eviction moves bytes, never arithmetic: the step
        // trains bitwise like the in-core replica.
        let ref_loss = conv_stack(6, 4, 11).train_step(&x, &y, 0.05);
        prop_assert_eq!(loss, ref_loss, "loss diverged from the in-core replica");
        let mut reference = conv_stack(6, 4, 11);
        for _ in 0..2 {
            exec.train_step(&mut net, &x, &y, 0.05);
            reference.train_step(&x, &y, 0.05);
        }
        prop_assert_eq!(net.snapshot(), reference.snapshot(), "weights diverged");
    }
}

#[test]
fn fig5_grid_plans_lower_with_sim_matching_op_counts() {
    // Round-trip over the paper's Fig. 5 model grid: every planned
    // workload lowers to a runtime schedule whose expected op counts
    // agree with both the plan and its simulation. (These models are
    // analytic graphs — real tensor execution is cross-checked on the
    // mirrored small CNN above; this pins the sim↔schedule agreement at
    // paper scale.)
    let node = NodeSpec::abci();
    for w in fig5_workloads() {
        // The largest out-of-core batch of each panel.
        let batch = *w.batch_sizes.last().unwrap();
        let profile = ModelProfile::collect(&w.model, batch, &node.gpu, &w.mem);
        let table = LayerCostTable::from_profile(&profile, &node);
        let mut cfg = OptConfig::fast(9);
        cfg.min_cut_layer = 2;
        let bounds = optimize_blocking(&table, &cfg);
        let costs = table.block_costs(&bounds);
        let rc = refine_recompute(&costs);
        let cp = build_training_plan(&costs, &CapacityPlanOptions::karma_with_recompute(rc));

        let sched = lower_to_runtime(&cp.plan)
            .unwrap_or_else(|e| panic!("{} @ {batch}: {e}", w.model.name));
        let (trace, _metrics) = simulate_plan(&cp.plan, &costs, &LowerOptions::default());
        let sim_souts = trace
            .spans()
            .iter()
            .filter(|s| s.label.kind == "Sout")
            .count();
        let sim_recs = trace.spans().iter().filter(|s| s.label.kind == "R").count();
        assert_eq!(
            sched.swap_blocks(),
            sim_souts,
            "{} @ {batch}: schedule vs sim swaps",
            w.model.name
        );
        assert_eq!(
            sched.recompute_blocks(),
            sim_recs,
            "{} @ {batch}: schedule vs sim recomputes",
            w.model.name
        );
        assert_eq!(sched.swap_blocks(), cp.plan.count(OpKind::SwapIn));
        // Boundary mapping stays realizable for every grid model.
        let net_bounds = graph_boundaries_to_net(&bounds)
            .unwrap_or_else(|e| panic!("{} @ {batch}: {e}", w.model.name));
        assert_eq!(net_bounds.len(), costs.n_blocks());
        // Policy split covers every block.
        let resident = sched
            .policies
            .iter()
            .filter(|p| **p == LoweredPolicy::Resident)
            .count();
        assert_eq!(
            resident + sched.swap_blocks() + sched.recompute_blocks(),
            costs.n_blocks()
        );
        // The boundary contract holds across the whole grid: every
        // swapped block below the last two evicts its boundary (what the
        // cost model priced), scheduled after the consumer's forward and
        // back before the consumer's backward; the logits and the last
        // block's input stay.
        let n = costs.n_blocks();
        for b in 0..n {
            let expect = sched.policies[b] == LoweredPolicy::Swap && b + 2 < n;
            let departs = |op: &Op| matches!(op, Op::Out(t) if t.block == b && t.boundary);
            assert_eq!(
                sched.ops.iter().any(departs),
                expect,
                "{} @ {batch}: block {b} boundary policy",
                w.model.name
            );
        }
        for op in &sched.ops {
            match op {
                Op::Out(t) if t.boundary => {
                    assert!(t.step > t.block, "{}: early departure", w.model.name)
                }
                Op::In(t) if t.boundary => {
                    assert!(t.step > t.block, "{}: late return", w.model.name);
                    // The boundary rides its block's swap-in, or — when the
                    // capacity rule deferred that fetch to the block's own
                    // step — returns split, at the consumer's backward.
                    assert!(
                        t.interior || t.step == t.block + 1,
                        "{}: stray split return",
                        w.model.name
                    );
                }
                _ => {}
            }
        }
    }
}
