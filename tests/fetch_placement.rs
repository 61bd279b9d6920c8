//! Fetch placement: each fetch issues at the earliest backward step the
//! replayed peak allows, and nothing else about the step moves.
//!
//! The schedule names each fetch's latest issue step; the engine, the
//! residency replay and the swap-timing model all place the same program
//! from the same key bytes. Across the planner's knob space and at 0 and
//! 2 I/O lanes:
//!
//! * **no higher peak** — the placed replay's peak equals the peak of
//!   the program as lowered (every fetch at the step it names), folded
//!   here from the transfers of `lower_to_runtime`'s unplaced program;
//! * **replay exactness** — the executed trace equals
//!   `ResidencyReplay::of` sample for sample, and the executed peak its
//!   peak, under a budget of exactly that peak;
//! * **the timing model follows the program** — `expected_swap_timing`
//!   models the fetches in the order the engine issues them;
//! * **bit parity** — training stays bitwise-equal to the in-core
//!   replica.

use karma::core::capacity::{build_training_plan, CapacityPlanOptions, PrefetchPolicy};
use karma::core::cost::LayerCostTable;
use karma::core::lower::{simulate_plan, LowerOptions};
use karma::core::program::Op;
use karma::core::{lower_to_runtime, TransferProgram};
use karma::graph::{BlockPartition, MemoryParams};
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::runtime::bridge::{
    expected_residency, expected_swap_timing, graph_boundaries_to_net, lower_plan, ResidencyReplay,
    SwapTiming,
};
use karma::runtime::{BlockPolicy, ExecEvent, OocExecutor, ResidencySample};
use karma::sim::ModelProfile;
use karma::tensor::{conv_stack, Sequential, SyntheticDataset, Tensor};
use proptest::prelude::*;

fn setup() -> (Sequential, Tensor, Vec<usize>) {
    let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
    let (x, y) = data.batch(0, 16);
    (conv_stack(6, 4, 11), x, y)
}

/// The near-memory peak of `exec` run on `program` as lowered: every
/// fetch at the step it names, a boundary riding its block's transfer or
/// moving alone at its own step (the order within a step does not move a
/// peak), folded here independently of the program's own fold.
fn scheduled_peak(exec: &OocExecutor, program: &TransferProgram, key_bytes: &[usize]) -> usize {
    let n_layers = key_bytes.len() - 1;
    let starts = exec.boundaries();
    let end = |b: usize| starts.get(b + 1).copied().unwrap_or(n_layers);
    let interior = |b: usize| -> usize { key_bytes[starts[b] + 1..end(b)].iter().sum() };
    let boundary = |b: usize| key_bytes[end(b)];
    // Bytes leaving after each forward step and returning before each
    // backward step.
    let n = exec.n_blocks();
    let (mut evicted, mut fetched) = (vec![0; n], vec![0; n]);
    for op in &program.ops {
        let (moved, t) = match op {
            Op::Out(t) => (&mut evicted, t),
            Op::In(t) => (&mut fetched, t),
            _ => continue,
        };
        if t.interior {
            moved[t.step] += interior(t.block);
        }
        if t.boundary {
            moved[t.step] += boundary(t.block);
        }
    }
    let recomputes = |b: usize| exec.policies()[b] == BlockPolicy::Recompute;
    let (mut cur, mut peak) = (key_bytes[0], key_bytes[0]);
    for (b, gone) in evicted.iter().enumerate() {
        cur += interior(b) + boundary(b);
        peak = peak.max(cur);
        if recomputes(b) {
            cur -= interior(b);
        }
        cur -= gone;
    }
    cur -= key_bytes[n_layers];
    for b in (0..n).rev() {
        cur += fetched[b];
        if recomputes(b) {
            cur += interior(b);
        }
        peak = peak.max(cur);
        cur -= key_bytes[starts[b]] + interior(b);
    }
    peak
}

/// The fetches `timing` models and the fetches `trace` executed, each as
/// `(event, block)` in issue order.
fn fetch_orders(timing: &SwapTiming, trace: &[ResidencySample]) -> (Vec<Fetch>, Vec<Fetch>) {
    let is_fetch = |e: ExecEvent| matches!(e, ExecEvent::SwapIn | ExecEvent::BoundaryIn);
    let modeled = timing.transfers.iter().filter(|t| is_fetch(t.event));
    let executed = trace.iter().filter(|s| is_fetch(s.event));
    (
        modeled.map(|t| (t.event, t.block)).collect(),
        executed.map(|s| (s.event, s.block)).collect(),
    )
}

type Fetch = (ExecEvent, usize);

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn placement_keeps_the_peak_and_the_replay_exact(
        k in 2usize..7,
        cap_frac in 0.5f64..0.95,
        bw_exp in 8.0f64..9.7,
        rc_mask in 0u32..64,
        prefetch_ix in 0u8..3,
        lanes in prop_oneof![Just(0usize), Just(2usize)],
    ) {
        let graph = karma::zoo::micro::conv_stack_graph(6, 4);
        let mem = MemoryParams::exact();
        let need = graph.peak_footprint(16, &mem) as f64;
        let node = NodeSpec::toy(
            GpuSpec::toy((need * cap_frac) as u64, 5.0e9),
            LinkSpec::toy(10f64.powf(bw_exp)),
        );
        let profile = ModelProfile::collect(&graph, 16, &node.gpu, &mem);
        let table = LayerCostTable::from_profile(&profile, &node);
        let bounds = BlockPartition::uniform(graph.len(), k).boundaries().to_vec();
        prop_assume!(bounds.get(1).copied().unwrap_or(2) >= 2);
        let costs = table.block_costs(&bounds);
        prop_assume!(costs.is_schedulable());
        let n = costs.n_blocks();
        let opts = CapacityPlanOptions {
            recompute: (0..n).map(|b| rc_mask >> (b % 32) & 1 == 1).collect(),
            resident_from: None,
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
        let budget = expected_residency(&cp.plan, &net_bounds, &key_bytes, net.len())
            .unwrap()
            .peak_bytes;
        let exec = lower_plan(&cp.plan, &net_bounds, budget, net.len())
            .unwrap()
            .with_io_lanes(lanes);
        let replay = ResidencyReplay::of(&exec, &key_bytes).unwrap();

        // (a) Placement never raises the peak.
        let program = lower_to_runtime(&cp.plan).unwrap();
        prop_assert_eq!(replay.peak_bytes, scheduled_peak(&exec, &program, &key_bytes));

        // (b) Executed == replayed, at exactly the replayed budget.
        let (loss, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        prop_assert_eq!(&trace, &replay.samples);
        prop_assert_eq!(stats.peak_near_bytes, replay.peak_bytes);

        // (c) The timing model issues the fetches the engine issues, in
        // the engine's order.
        let timing = expected_swap_timing(
            &cp.plan,
            &costs,
            &net_bounds,
            &key_bytes,
            net.len(),
            exec.tier_of(),
            exec.tiers(),
            lanes,
            0.0,
            1e-9,
        )
        .unwrap();
        let (modeled, executed) = fetch_orders(&timing, &trace);
        prop_assert_eq!(modeled, executed);

        // (d) Placement moves transfers, never arithmetic.
        let (mut reference, _, _) = setup();
        let ref_loss = setup().0.train_step(&x, &y, 0.05);
        prop_assert_eq!(loss, ref_loss, "loss diverged from the in-core replica");
        for _ in 0..2 {
            exec.train_step(&mut net, &x, &y, 0.05);
            reference.train_step(&x, &y, 0.05);
        }
        prop_assert_eq!(net.snapshot(), reference.snapshot(), "weights diverged");
    }
}

/// The conv-stack plan of `tests/async_swap.rs` exercises placement: at
/// least one fetch issues earlier than its scheduled step, and the
/// engine's fetch order at 0 and 2 lanes is the timing model's.
#[test]
fn the_timing_model_orders_fetches_as_the_engine_issues_them() {
    use karma::core::opt::OptConfig;
    use karma::runtime::bridge::plan_net;
    let graph = karma::zoo::micro::conv_stack_graph(6, 4);
    let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
    let node = NodeSpec::toy(
        GpuSpec::toy((need * 0.65) as u64, 5.0e9),
        LinkSpec::toy(4.0e9),
    );
    let mut cfg = OptConfig::fast(17);
    cfg.max_cut_candidates = 5;
    let planned = plan_net(&graph, 16, &node, &cfg).expect("the conv stack plans");
    let (net, x, y) = setup();
    let (exec, replay) = planned.lower(&net, &x).unwrap();
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    for lanes in [0, 2] {
        let exec = exec.clone().with_io_lanes(lanes);
        let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
        let timing = expected_swap_timing(
            &planned.plan,
            &planned.costs,
            &planned.bounds,
            &key_bytes,
            net.len(),
            exec.tier_of(),
            exec.tiers(),
            lanes,
            0.0,
            1e-9,
        )
        .unwrap();
        let (modeled, executed) = fetch_orders(&timing, &trace);
        assert_eq!(modeled, executed, "lanes {lanes}");
        // Some fetch issues ahead of the step the schedule names.
        let program = lower_to_runtime(&planned.plan).unwrap();
        let scheduled = |b: usize| {
            let fetch = |op: &Op| match op {
                Op::In(t) if t.block == b && t.interior => Some(t.step),
                _ => None,
            };
            program.ops.iter().find_map(fetch).unwrap()
        };
        assert!(
            timing
                .transfers
                .iter()
                .filter(|t| t.event == ExecEvent::SwapIn)
                .any(|t| t.step > scheduled(t.block)),
            "placement moved no fetch"
        );
    }
}
