//! Elastic churn on the planned path: profile → plan → lower → execute
//! with workers dying mid-exchange, the pool shrinking and growing, and
//! training resuming from far-store checkpoints.
//!
//! The contract layers, per ISSUE tentpole:
//!
//! * **determinism** — a worker dying between exchange groups resolves by
//!   the static complete-or-abort rule, so every (workers × threads ×
//!   failure-schedule) cell lands on exactly the sequential reference's
//!   bits, run after run;
//! * **replay per phase** — after every hot swap, `expected_exchange`
//!   still predicts the executed message count phase by phase;
//! * **peak contracts** — the tiered residency prediction
//!   (`ResidencyReplay::of` the lowered executor) bounds the executed
//!   per-worker peaks through every pool change;
//! * **restore** — a run resumed from a far-store checkpoint starts at
//!   the checkpointed step (not step 0) and is bitwise-identical to the
//!   uninterrupted run, at any thread count.

use karma::core::opt::OptConfig;
use karma::core::plan::Plan;
use karma::core::RuntimeLowerError;
use karma::dist::append_exchange_ops;
use karma::graph::MemoryParams;
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::net::{ExchangeGroup, PhasedExchange};
use karma::runtime::bridge::{
    block_grad_bytes, expected_exchange, expected_residency, plan_net, BridgeError, ResidencyReplay,
};
use karma::runtime::dp::{train_churn_reference, ChurnConfig, FaultPlan, WorkerFailure};
use karma::runtime::elastic::{Checkpoint, ElasticDriver, ElasticError, ElasticOptions, PoolEvent};
use karma::runtime::{TierSpec, TierStack};
use karma::tensor::{conv_stack, Sequential, SyntheticDataset, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::classification(384, 1, 16, 4, 21)
}

fn fresh_net() -> Sequential {
    conv_stack(6, 4, 11)
}

/// Profile → plan on the mirrored conv stack, forcing an out-of-core
/// device (same setup as `tests/dist_plan_to_runtime.rs`).
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

/// A guaranteed-multi-group exchange, so "mid-exchange" is a real place
/// for a worker to die.
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

/// The shared planned pipeline: a distributed plan with a forced
/// two-group exchange, plus the pieces the assertions need.
fn planned() -> (Plan, Vec<usize>, Vec<u64>, Vec<usize>, usize) {
    let (base_plan, net_bounds) = plan_conv_stack();
    let net = fresh_net();
    let grad_bytes = block_grad_bytes(&net, &net_bounds);
    let mut plan = base_plan;
    append_exchange_ops(&mut plan, &two_group_exchange(&grad_bytes));
    let data = dataset();
    let (x, _) = data.batch(0, 8);
    let key_bytes: Vec<usize> = net.forward_all(&x).iter().map(Tensor::bytes).collect();
    let n_layers = net.len();
    (plan, net_bounds, grad_bytes, key_bytes, n_layers)
}

fn planned_driver() -> (ElasticDriver, Vec<u64>) {
    let (plan, net_bounds, grad_bytes, key_bytes, n_layers) = planned();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, n_layers).unwrap();
    let driver = ElasticDriver::from_plan(plan, net_bounds, replay.peak_bytes, n_layers);
    (driver, grad_bytes)
}

fn far_store() -> TierStack {
    TierStack::new(&[TierSpec::unbounded()])
}

#[test]
fn mid_exchange_death_is_deterministic_across_workers_threads_and_runs() {
    // The acceptance matrix: kill a worker between the two exchange
    // groups and demand the survivors land on the sequential reference's
    // bits in every (workers × threads) cell, twice.
    let (driver, _) = planned_driver();
    let data = dataset();
    let (per_worker, steps) = (4usize, 3usize);

    for workers in [2usize, 4] {
        // Sequential single-thread reference over the same fault plan.
        let (exec, xchg) = driver.lower_for(workers).expect("pool lowers");
        let mut reference = fresh_net();
        let cfg = ChurnConfig {
            offset: 0,
            per_worker,
            lr: 0.05,
            steps,
        };
        let faults = FaultPlan::new(vec![WorkerFailure {
            step: 1,
            rank: workers - 1,
            groups_shipped: 1,
        }]);
        let ref_losses =
            train_churn_reference(&mut reference, &exec, &xchg, &data, &cfg, workers, &faults);
        let expected = reference.snapshot();

        let opts = {
            let mut o = ElasticOptions::plain(per_worker, 0.05, steps);
            o.events = vec![PoolEvent::Fail {
                step: 1,
                rank: workers - 1,
                groups_shipped: 1,
            }];
            o
        };
        for threads in [1usize, 4] {
            rayon::set_num_threads(threads);
            for run in 0..2 {
                let mut nets: Vec<Sequential> = (0..workers).map(|_| fresh_net()).collect();
                let mut store = far_store();
                let report = driver
                    .run(&mut nets, None, &data, &opts, &mut store, None)
                    .expect("churn run succeeds");
                assert_eq!(
                    report.final_snapshot, expected,
                    "{workers} workers × {threads} threads, run {run}: bit drift"
                );
                assert_eq!(report.losses, ref_losses);
                let mut pools = vec![workers; 2];
                pools.extend(vec![workers - 1; steps - 2]);
                assert_eq!(report.pool_sizes, pools);
                assert_eq!(
                    report.completed_with_dead, 1,
                    "group 0 shipped before death"
                );
                assert_eq!(report.aborted_groups, 1, "group 1 falls back to survivors");
                assert_eq!(report.relowers, 1, "the shrink hot-swaps once");
            }
        }
        rayon::set_num_threads(0); // restore auto sizing
    }
}

#[test]
fn every_relowered_phase_replays_its_exchange_exactly() {
    // Shrink then grow: three pool widths, three lowerings — and
    // `expected_exchange` must predict each phase's executed message
    // count from the plan alone.
    let (driver, grad_bytes) = planned_driver();
    let (plan, ..) = planned();
    let data = dataset();

    let mut opts = ElasticOptions::plain(4, 0.05, 6);
    opts.events = vec![
        PoolEvent::Fail {
            step: 1,
            rank: 0,
            groups_shipped: 0,
        },
        PoolEvent::Join {
            step: 4,
            joiners: 2,
        },
    ];
    let mut nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
    let mut store = far_store();
    let spawn = fresh_net;
    let report = driver
        .run(&mut nets, Some(&spawn), &data, &opts, &mut store, None)
        .expect("churn run succeeds");

    assert_eq!(report.pool_sizes, vec![3, 3, 2, 2, 4, 4]);
    assert_eq!(report.relowers, 2, "one shrink + one growth");
    assert!(
        report.phases.len() >= 3,
        "at least one phase per pool width"
    );

    let mut predicted_total = 0usize;
    for phase in &report.phases {
        let replay = expected_exchange(&plan, &grad_bytes, phase.workers, phase.steps)
            .expect("plan replays at any pool width");
        if phase.faulty {
            // The dying worker skips its unshipped groups; everything
            // else matches the full-pool prediction.
            assert!(phase.exchange_messages < replay.messages);
            predicted_total += phase.exchange_messages;
        } else {
            assert_eq!(
                phase.exchange_messages, replay.messages,
                "phase at step {} diverged from its replay",
                phase.start_step
            );
            predicted_total += replay.messages;
        }
    }
    assert_eq!(predicted_total, report.exchange_messages);
}

#[test]
fn tiered_peak_contracts_survive_hot_swaps() {
    // Route the planned swaps through a two-tier far stack and churn the
    // pool: the per-worker peak contracts (near + per tier) predicted
    // from the plan must bound the whole elastic run, because every pool
    // size runs the same per-worker schedule.
    let (plan, net_bounds, _, key_bytes, n_layers) = planned();
    let pool_replay = expected_residency(&plan, &net_bounds, &key_bytes, n_layers).unwrap();
    let parked = pool_replay.peak_tier_bytes[0];
    assert!(parked > 0, "plan must actually park bytes");
    let tiers = vec![TierSpec::host(parked / 2), TierSpec::nvme(usize::MAX)];

    let driver = ElasticDriver::from_plan_tiered(
        plan.clone(),
        net_bounds.clone(),
        pool_replay.peak_bytes,
        n_layers,
        key_bytes.clone(),
        tiers.clone(),
    );
    let (exec, _) = driver.lower_for(3).expect("tiered pool lowers");
    let tiered_replay = ResidencyReplay::of(&exec, &key_bytes).unwrap();

    // per_worker matches the batch the key_bytes were profiled at.
    let mut opts = ElasticOptions::plain(8, 0.05, 5);
    opts.events = vec![
        PoolEvent::Fail {
            step: 1,
            rank: 1,
            groups_shipped: 1,
        },
        PoolEvent::Join {
            step: 3,
            joiners: 1,
        },
    ];
    let mut nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
    let mut store = far_store();
    let spawn = fresh_net;
    let report = driver
        .run(&mut nets, Some(&spawn), &dataset(), &opts, &mut store, None)
        .expect("tiered churn run succeeds");

    assert_eq!(report.pool_sizes, vec![3, 3, 2, 3, 3]);
    assert_eq!(report.relowers, 2);
    assert_eq!(
        report.peak_near_bytes, tiered_replay.peak_bytes,
        "near peak must survive the hot swaps"
    );
    assert_eq!(
        report.peak_tier_bytes, tiered_replay.peak_tier_bytes,
        "per-tier peaks must survive the hot swaps"
    );
}

#[test]
fn one_lowering_serves_every_pool_size_bitwise() {
    // Shrink 3 → 2, then grow back to 3: the driver lowered once, when
    // it was built, so the initial pool and both hot swaps run on that
    // one lowering (lower_cache_hits == 3) — and a second run on the same
    // driver must land on exactly the same bits as the first.
    let data = dataset();
    let mut opts = ElasticOptions::plain(4, 0.05, 6);
    opts.events = vec![
        PoolEvent::Leave { step: 2, rank: 0 },
        PoolEvent::Join {
            step: 4,
            joiners: 1,
        },
    ];
    let spawn = fresh_net;

    let run = |driver: &ElasticDriver| {
        let mut nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
        let mut store = far_store();
        driver
            .run(&mut nets, Some(&spawn), &data, &opts, &mut store, None)
            .expect("churn run succeeds")
    };

    let (driver, _) = planned_driver();
    let first = run(&driver);
    assert_eq!(first.pool_sizes, vec![3, 3, 2, 2, 3, 3]);
    assert_eq!(first.relowers, 2, "leave and join each hot-swap");
    assert_eq!(
        first.lower_cache_hits, 3,
        "initial pool + both swaps run on the construction-time lowering"
    );

    // A driver reused for a second run answers every lowering the same
    // way, and lands on the same bits.
    let rerun = run(&driver);
    assert_eq!(
        rerun.lower_cache_hits, 3,
        "second run: initial + both swaps all hit"
    );
    assert_eq!(
        rerun.final_snapshot, first.final_snapshot,
        "reusing the lowering drifted from the first run"
    );
    assert_eq!(rerun.losses, first.losses);
    assert_eq!(rerun.exchange_messages, first.exchange_messages);
}

#[test]
fn every_pool_size_shares_one_io_lane_pool() {
    // The driver arms its one executor: every pool size it hands out
    // runs its transfers on the same lanes.
    let (plan, net_bounds, _, key_bytes, n_layers) = planned();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, n_layers).unwrap();
    let driver =
        ElasticDriver::from_plan(plan, net_bounds, replay.peak_bytes, n_layers).with_io_lanes(2);
    let pools: Vec<_> = [1usize, 3, 4]
        .into_iter()
        .map(|workers| {
            let (exec, _) = driver.lower_for(workers).expect("pool lowers");
            assert_eq!(exec.io_lanes(), 2);
            exec.io_pool().expect("lanes armed").clone()
        })
        .collect();
    assert!(
        pools.iter().all(|p| Arc::ptr_eq(p, &pools[0])),
        "a pool size got its own I/O lane pool"
    );
}

#[test]
fn a_plan_that_cannot_lower_fails_typed_before_any_step() {
    // The swapping conv-stack plan on a one-byte host tier: no swapped
    // block fits, so the construction-time lowering fails and both
    // `lower_for` and `run` report it without touching the pool or store.
    let (plan, net_bounds, _, key_bytes, n_layers) = planned();
    let replay = expected_residency(&plan, &net_bounds, &key_bytes, n_layers).unwrap();
    assert!(
        replay.peak_tier_bytes[0] > 0,
        "plan must actually park bytes"
    );
    let driver = ElasticDriver::from_plan_tiered(
        plan,
        net_bounds,
        replay.peak_bytes,
        n_layers,
        key_bytes,
        vec![TierSpec::host(1)],
    );
    let is_capacity_error = |err: &ElasticError, pool: usize| {
        matches!(
            err,
            ElasticError::Lower {
                workers,
                source: BridgeError::Lower(RuntimeLowerError::TierCapacityExceeded { .. }),
            } if *workers == pool
        )
    };
    let err = driver.lower_for(3).unwrap_err();
    assert!(is_capacity_error(&err, 3), "{err}");

    let mut nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
    let before: Vec<Vec<f32>> = nets.iter().map(Sequential::snapshot).collect();
    let mut store = far_store();
    let mut opts = ElasticOptions::plain(4, 0.05, 4);
    opts.checkpoint_every = Some(1);
    let spawn = fresh_net;
    let err = driver
        .run(&mut nets, Some(&spawn), &dataset(), &opts, &mut store, None)
        .unwrap_err();
    assert!(is_capacity_error(&err, 3), "{err}");
    let after: Vec<Vec<f32>> = nets.iter().map(Sequential::snapshot).collect();
    assert_eq!(after, before, "a step ran before the lowering error");
    assert!(!store.contains(0, 0), "a checkpoint was saved");
    assert_eq!(store.transfers(), 0, "the store was touched");
}

#[test]
fn far_store_restore_resumes_at_the_failed_step_not_step_zero() {
    // The acceptance scenario: checkpoints flow to the far store every
    // two steps; the run dies after step 4; a fresh process restores the
    // step-4 checkpoint and finishes bitwise-identically to a run that
    // never died — at both thread counts.
    let (driver, _) = planned_driver();
    let data = dataset();
    let mut opts = ElasticOptions::plain(4, 0.05, 6);
    opts.events = vec![PoolEvent::Fail {
        step: 3,
        rank: 2,
        groups_shipped: 1,
    }];
    opts.checkpoint_every = Some(2);

    // Uninterrupted run.
    let mut full_nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
    let mut full_store = far_store();
    let spawn = fresh_net;
    let full = driver
        .run(
            &mut full_nets,
            Some(&spawn),
            &data,
            &opts,
            &mut full_store,
            None,
        )
        .expect("uninterrupted run succeeds");

    // Interrupted run: the process dies after step 4 completes; the last
    // checkpoint in the store is the step-4 one, saved *after* the
    // mid-exchange failure shrank the pool.
    let mut cut_nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
    let mut store = far_store();
    let mut cut_opts = opts.clone();
    cut_opts.total_steps = 5;
    driver
        .run(
            &mut cut_nets,
            Some(&spawn),
            &data,
            &cut_opts,
            &mut store,
            None,
        )
        .expect("interrupted run succeeds");
    let ck = Checkpoint::load(&mut store, 0, 0).expect("checkpoint survives the crash");
    assert_eq!(
        ck.step, 4,
        "resume point is the step after the failure, not 0"
    );
    assert_eq!(ck.pool, 2, "checkpoint reflects the shrunken pool");
    // The step-4 checkpoint precedes step 4: steps 0–3 ran with 3
    // workers (the fault at step 3 strikes mid-step, after its window).
    assert_eq!(ck.cursor, 4 * 4 * 3, "cursor covers the consumed windows");

    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let mut resumed_nets: Vec<Sequential> = Vec::new(); // fresh process
        let mut resume_store = far_store();
        let resumed = driver
            .run(
                &mut resumed_nets,
                Some(&spawn),
                &data,
                &opts,
                &mut resume_store,
                Some(&ck),
            )
            .expect("resumed run succeeds");
        assert_eq!(resumed.start_step, 4);
        assert_eq!(resumed.losses, full.losses[4..]);
        assert_eq!(resumed.pool_sizes, full.pool_sizes[4..]);
        assert_eq!(
            resumed.final_snapshot, full.final_snapshot,
            "{threads} threads: restored run drifted from the uninterrupted one"
        );
    }
    rayon::set_num_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // Checkpoint round trips under sampled schedules: save → restore →
    // train must be bitwise-equal to never stopping, for any cut point,
    // pool size, and checkpoint cadence.
    #[test]
    fn restored_runs_always_match_uninterrupted_ones(
        pool in 1usize..4,
        total_steps in 2usize..6,
        every in 1usize..3,
        fail_rank in 0usize..3,
        shipped in 0usize..3,
        unbounded_store in prop_oneof![Just(true), Just(false)],
    ) {
        let (driver, _) = planned_driver();
        let data = dataset();
        let mut opts = ElasticOptions::plain(4, 0.05, total_steps);
        if pool > 1 {
            opts.events = vec![PoolEvent::Fail {
                step: total_steps / 2,
                rank: fail_rank % pool.min(2),
                groups_shipped: shipped,
            }];
        }
        opts.checkpoint_every = Some(every);

        let spawn = fresh_net;
        let store_spec = if unbounded_store {
            vec![TierSpec::unbounded()]
        } else {
            // Tight but sufficient: a checkpoint is a few hundred KB here.
            vec![TierSpec::host(16 << 20)]
        };

        let mut full_nets: Vec<Sequential> = (0..pool).map(|_| fresh_net()).collect();
        let mut full_store = TierStack::new(&store_spec);
        let full = driver
            .run(&mut full_nets, Some(&spawn), &data, &opts, &mut full_store, None)
            .expect("uninterrupted run succeeds");

        // Cut at the last checkpoint mark strictly inside the run.
        let cut = (1..total_steps).rev().find(|s| s % every == 0);
        prop_assume!(cut.is_some());
        let cut = cut.unwrap();
        let mut cut_nets: Vec<Sequential> = (0..pool).map(|_| fresh_net()).collect();
        let mut store = TierStack::new(&store_spec);
        let mut cut_opts = opts.clone();
        cut_opts.total_steps = cut + 1;
        driver
            .run(&mut cut_nets, Some(&spawn), &data, &cut_opts, &mut store, None)
            .expect("interrupted run succeeds");
        let ck = Checkpoint::load(&mut store, 0, 0).expect("checkpoint present");
        prop_assert_eq!(ck.step, cut);

        let mut resumed_nets: Vec<Sequential> = Vec::new();
        let mut resume_store = TierStack::new(&store_spec);
        let resumed = driver
            .run(&mut resumed_nets, Some(&spawn), &data, &opts, &mut resume_store, Some(&ck))
            .expect("resumed run succeeds");
        prop_assert_eq!(resumed.start_step, cut);
        prop_assert_eq!(&resumed.losses[..], &full.losses[cut..]);
        prop_assert_eq!(resumed.final_snapshot, full.final_snapshot, "restore drifted");
    }
}
