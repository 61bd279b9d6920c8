//! Asynchronous swap engine integration contracts on the planned path:
//! profile → plan → lower → execute with transfers riding dedicated I/O
//! lanes instead of blocking the compute thread.
//!
//! The contract layers, per ISSUE tentpole:
//!
//! * **determinism** — lane count and compute-pool width move only the
//!   wall clock: the loss trajectory and the final weights are
//!   bitwise-identical to the synchronous engine in every
//!   (threads × lanes) cell;
//! * **in-flight replay** — the executed residency trace equals
//!   `ResidencyReplay::of` the lane executor sample for sample, and the
//!   per-tier peaks match the replay of the same executor without lanes
//!   (overlap moves discharge points, not peaks);
//! * **capacity under flight** — no sampled instant observes a far tier
//!   above its capacity even with issued-but-unwaited transfers charged
//!   to the source tier, at any lane count or tier split;
//! * **poisoning** — a mid-transfer panic poisons its lane and the
//!   engine refuses further steps instead of publishing partial copies.

use karma::core::opt::OptConfig;
use karma::core::plan::Plan;
use karma::graph::MemoryParams;
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::runtime::bridge::{
    expected_residency, lower_plan, lower_plan_tiered, plan_net, ResidencyReplay,
};
use karma::runtime::TierSpec;
use karma::tensor::{conv_stack, Sequential, SyntheticDataset, Tensor};
use proptest::prelude::*;

fn fresh_net() -> Sequential {
    conv_stack(6, 4, 11)
}

/// Profile → plan on the mirrored conv stack, forcing an out-of-core
/// device whose plan uses the swap lane (same setup as
/// `tests/elastic_churn.rs`).
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

fn batch() -> (karma::tensor::Tensor, Vec<usize>) {
    let data = SyntheticDataset::classification(32, 1, 16, 4, 21);
    data.batch(0, 16)
}

/// Lane count and compute-thread count never move the bits: every
/// (threads × lanes) cell reproduces the synchronous engine's loss
/// trajectory and final weights exactly.
#[test]
fn lanes_and_threads_never_move_the_bits() {
    let (plan, net_bounds) = plan_conv_stack();
    let (x, y) = batch();
    let net = fresh_net();
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, net.len()).unwrap();
    let sync = lower_plan(&plan, &net_bounds, replay.peak_bytes, net.len()).unwrap();

    let steps = 3;
    let run = |exec: &karma::runtime::OocExecutor| {
        let mut net = fresh_net();
        let losses: Vec<f32> = (0..steps)
            .map(|_| exec.train_step(&mut net, &x, &y, 0.05).0)
            .collect();
        (losses, net.snapshot())
    };
    let (ref_losses, ref_weights) = run(&sync);

    for threads in [1usize, 4] {
        for lanes in [1usize, 2, 4] {
            rayon::set_num_threads(threads);
            let overlap = sync.clone().with_io_lanes(lanes);
            assert_eq!(overlap.io_lanes(), lanes);
            let (losses, weights) = run(&overlap);
            assert_eq!(
                losses, ref_losses,
                "loss trajectory drifted at threads={threads} lanes={lanes}"
            );
            assert_eq!(
                weights, ref_weights,
                "weights drifted at threads={threads} lanes={lanes}"
            );
        }
    }
    rayon::set_num_threads(0); // restore auto sizing
}

/// The executed trace is exactly the in-flight replay, sample for
/// sample, on the real planned schedule routed through a bounded tier
/// stack — and the per-tier peaks agree with the synchronous
/// accounting's peaks: overlap moves when far bytes discharge, never how
/// high either tier fills.
#[test]
fn executed_trace_matches_the_in_flight_replay() {
    let (plan, net_bounds) = plan_conv_stack();
    let (x, y) = batch();
    let net = fresh_net();
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, net.len()).unwrap();
    let parked = replay.peak_tier_bytes[0];
    let tiers = vec![TierSpec::host(parked / 2), TierSpec::nvme(usize::MAX)];
    let exec = lower_plan_tiered(
        &plan,
        &net_bounds,
        replay.peak_bytes,
        net.len(),
        &key_bytes,
        &tiers,
    )
    .unwrap()
    .with_io_lanes(2);
    let inflight = ResidencyReplay::of(&exec, &key_bytes).unwrap();
    let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
    assert_eq!(
        trace, inflight.samples,
        "executed trace != in-flight replay"
    );
    assert_eq!(stats.peak_tier_bytes, inflight.peak_tier_bytes);
    assert_eq!(stats.peak_near_bytes, inflight.peak_bytes);
    let sync = ResidencyReplay::of(&exec.clone().with_io_lanes(0), &key_bytes).unwrap();
    assert_eq!(
        sync.peak_tier_bytes, inflight.peak_tier_bytes,
        "accounting mode moved a per-tier peak"
    );
    assert_eq!(sync.peak_bytes, inflight.peak_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// With in-flight bytes charged to their source tier, no sampled
    /// instant overcommits any tier — at any lane count and any host-tier
    /// split. (The stores would panic on a real overcommit; the trace
    /// assertion additionally pins the observable trajectory under the
    /// replay's predicted peaks.)
    #[test]
    fn no_sampled_instant_overcommits_any_tier(
        lanes in 1usize..=4,
        frac in 0.25f64..0.95,
    ) {
        let (plan, net_bounds) = plan_conv_stack();
        let (x, y) = batch();
        let net = fresh_net();
        let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
        let replay = expected_residency(&plan, &net_bounds, &key_bytes, net.len()).unwrap();
        let host_cap = (replay.peak_tier_bytes[0] as f64 * frac) as usize;
        let tiers = vec![TierSpec::host(host_cap), TierSpec::nvme(usize::MAX)];
        let exec = lower_plan_tiered(
            &plan,
            &net_bounds,
            replay.peak_bytes,
            net.len(),
            &key_bytes,
            &tiers,
        )
        .unwrap()
        .with_io_lanes(lanes);
        let inflight = ResidencyReplay::of(&exec, &key_bytes).unwrap();
        let (_, _, stats, trace) = exec.grad_step_traced(&net, &x, &y, |_, _| {});
        prop_assert_eq!(&trace, &inflight.samples);
        for s in &trace {
            prop_assert!(s.near_bytes <= replay.peak_bytes);
            prop_assert!(
                s.far_bytes[0] <= host_cap,
                "host tier over capacity mid-flight: {} > {}", s.far_bytes[0], host_cap
            );
            for (t, &fb) in s.far_bytes.iter().enumerate() {
                prop_assert!(fb <= inflight.peak_tier_bytes[t]);
            }
        }
        prop_assert_eq!(stats.peak_tier_bytes, inflight.peak_tier_bytes);
    }
}

/// A panic on an I/O lane — standing in for a transfer that dies
/// mid-copy — poisons the pool: the waiter sees the panic, the engine
/// reports itself poisoned, and further steps are refused rather than
/// risking a partially-published tensor.
#[test]
fn a_mid_transfer_panic_poisons_the_engine() {
    let (plan, net_bounds) = plan_conv_stack();
    let (x, y) = batch();
    let net = fresh_net();
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, net.len()).unwrap();
    let exec = lower_plan(&plan, &net_bounds, replay.peak_bytes, net.len())
        .unwrap()
        .with_io_lanes(1);
    // A healthy engine runs.
    exec.grad_step(&net, &x, &y, |_, _| {});
    assert!(!exec.io_poisoned());
    let h = exec
        .io_pool()
        .unwrap()
        .submit(0, || panic!("mid-transfer failure"));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.wait()));
    assert!(r.is_err(), "the waiter must see the lane panic");
    assert!(exec.io_poisoned());
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.grad_step(&net, &x, &y, |_, _| {});
    }));
    assert!(r.is_err(), "a poisoned engine must refuse further steps");
}
