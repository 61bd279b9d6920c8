//! Tiered far-memory invariants, pinned by property tests.
//!
//! For arbitrary builder knobs and tier stacks, three contracts must hold
//! (at any `KARMA_NUM_THREADS` — the executor's trajectory is
//! deterministic by construction, and CI runs this suite across the
//! thread matrix):
//!
//! * **replay exactness** — a `lower_plan_tiered` executor's per-tier
//!   residency trajectory and peaks equal `ResidencyReplay::of`'s
//!   prediction sample for sample;
//! * **capacity** — no tier ever holds more than its capacity, at any
//!   sampled instant (the interval packing in
//!   `karma_core::bridge::assign_tiers` promises this at plan time; the
//!   executed `TierStack` would panic if the promise broke);
//! * **bit parity** — tier routing moves bytes between pools, never
//!   arithmetic: tiered training is bitwise-identical to the single-pool
//!   path, and a single unbounded host tier reproduces it trace-for-trace.

use karma::core::capacity::{build_training_plan, CapacityPlanOptions, PrefetchPolicy};
use karma::core::cost::LayerCostTable;
use karma::core::lower::{simulate_plan, LowerOptions};
use karma::graph::{BlockPartition, MemoryParams};
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::runtime::bridge::{
    expected_residency, graph_boundaries_to_net, lower_plan, lower_plan_tiered, ResidencyReplay,
};
use karma::runtime::TierSpec;
use karma::sim::ModelProfile;
use karma::tensor::{conv_stack, Sequential, SyntheticDataset, Tensor};
use proptest::prelude::*;

fn setup() -> (Sequential, Tensor, Vec<usize>) {
    let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
    let (x, y) = data.batch(0, 16);
    (conv_stack(6, 4, 11), x, y)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn tiered_runs_match_their_replay_and_never_overflow_a_tier(
        k in 2usize..7,
        cap_frac in 0.5f64..0.95,
        bw_exp in 8.0f64..9.7,
        rc_mask in 0u32..64,
        prefetch_ix in 0u8..3,
        fast_frac in 0.05f64..1.1,
        stack_kind in prop_oneof![Just(0u8), Just(1u8), Just(2u8)],
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
        let pool_replay = expected_residency(&cp.plan, &net_bounds, &key_bytes, net.len()).unwrap();
        // Plans without swap traffic make tiering trivial — focus the
        // budget on plans that actually park bytes.
        let parked = pool_replay.peak_tier_bytes[0];
        prop_assume!(parked > 0);

        // The fast tier gets a knob-chosen fraction of the pooled peak;
        // the last tier is always big enough, so every stack is feasible
        // and the packing's first-fit choice is what varies.
        let fast_cap = (parked as f64 * fast_frac) as usize;
        let tiers = match stack_kind {
            0 => vec![TierSpec::unbounded()],
            1 => vec![TierSpec::host(fast_cap), TierSpec::nvme(usize::MAX)],
            _ => vec![
                TierSpec::host(fast_cap / 2),
                TierSpec::nvme(fast_cap),
                TierSpec::nvme(usize::MAX),
            ],
        };
        let exec = lower_plan_tiered(
            &cp.plan,
            &net_bounds,
            pool_replay.peak_bytes,
            net.len(),
            &key_bytes,
            &tiers,
        )
        .expect("an unbounded last tier keeps every stack feasible");
        let replay = ResidencyReplay::of(&exec, &key_bytes).unwrap();
        let (loss, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});

        // (a) Executed == modeled: the whole per-tier trajectory, sample
        // for sample, and every peak.
        prop_assert_eq!(&trace, &replay.samples);
        prop_assert_eq!(&stats.peak_tier_bytes, &replay.peak_tier_bytes);
        prop_assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
        // Routing never changes *what* is parked, only *where*: the
        // whole-stack high-water mark equals the single pool's.
        prop_assert_eq!(stats.peak_far_bytes, parked);

        // (b) No tier exceeds its capacity at any sampled instant.
        for s in &trace {
            for (t, (&used, spec)) in s.far_bytes.iter().zip(&tiers).enumerate() {
                prop_assert!(
                    used <= spec.capacity,
                    "tier {} holds {} B of {} B capacity",
                    t, used, spec.capacity
                );
            }
        }

        // (c) Tier routing moves bytes, never arithmetic: bitwise parity
        // with the single-pool path; an unbounded single host tier also
        // reproduces the pooled trace exactly.
        let pooled = lower_plan(&cp.plan, &net_bounds, pool_replay.peak_bytes, net.len()).unwrap();
        let (loss_pool, _, _, trace_pool) = pooled.grad_step_traced(&net, &x, &y, |_, _| {});
        prop_assert_eq!(loss, loss_pool, "loss diverged under tier routing");
        if tiers.len() == 1 {
            prop_assert_eq!(&trace, &trace_pool);
        }
        let mut pooled_net = conv_stack(6, 4, 11);
        for _ in 0..2 {
            exec.train_step(&mut net, &x, &y, 0.05);
            pooled.train_step(&mut pooled_net, &x, &y, 0.05);
        }
        prop_assert_eq!(net.snapshot(), pooled_net.snapshot(), "weights diverged");
    }
}
