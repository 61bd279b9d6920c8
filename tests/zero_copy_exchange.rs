//! Transport parity matrix for the zero-copy gradient exchange.
//!
//! `dp::train` folds group gradients in place into pre-registered shared
//! buffers (`ExchangeBuffers`). These tests pin that transport against
//! **two independent oracles**:
//!
//! * bits: the sequential single-thread emulation (`train_reference` /
//!   `train_churn_reference`) — weights and losses must agree exactly,
//!   across workers ∈ {1, 2, 4} × `KARMA_NUM_THREADS` ∈ {1, 4} ×
//!   repeated runs, churn included;
//! * traffic: a closed-form count — one message per worker per group per
//!   step, each group's payload the summed `block_grad_bytes` of its
//!   blocks (cross-checked with the sized registration).
//!
//! Plus the buffer-safety properties: registered group spans never
//! alias, `ElasticDriver`'s one buffer registration is bitwise-neutral
//! across hot swaps, and a contributor panicking mid-fold poisons the
//! buffer instead of letting a partial accumulation be observed.

use karma::runtime::bridge::block_grad_bytes;
use karma::runtime::dp::{
    train, train_churn_reference, train_reference, ChurnConfig, ExchangeBuffers, ExchangeSchedule,
    FaultPlan, WorkerFailure,
};
use karma::runtime::elastic::{ElasticDriver, ElasticOptions, PoolEvent};
use karma::runtime::exec::{BlockPolicy, OocExecutor};
use karma::runtime::store::{TierSpec, TierStack};
use karma::tensor::{small_cnn, Sequential, SyntheticDataset};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::classification(256, 1, 16, 4, 33)
}

fn replicas(n: usize) -> Vec<Sequential> {
    (0..n).map(|_| small_cnn(4, 77)).collect()
}

fn ooc_exec(n_layers: usize) -> OocExecutor {
    OocExecutor::new(
        vec![0, 3, 6],
        vec![
            BlockPolicy::Swap,
            BlockPolicy::Recompute,
            BlockPolicy::Resident,
        ],
        usize::MAX / 2,
        n_layers,
    )
}

fn two_groups() -> ExchangeSchedule {
    ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3)
}

/// One worker's payload per group, in launch order: the summed gradient
/// bytes of the group's blocks. Checked against the sized registration,
/// which derives the same numbers through `ExchangeBuffers`.
fn expected_group_bytes(exec: &OocExecutor, xchg: &ExchangeSchedule) -> Vec<usize> {
    let net = small_cnn(4, 77);
    let per_block = block_grad_bytes(&net, exec.boundaries());
    let per_group: Vec<u64> = xchg
        .groups()
        .iter()
        .map(|blocks| blocks.iter().map(|&b| per_block[b]).sum())
        .collect();
    let sized = ExchangeBuffers::register_sized(xchg, exec.boundaries(), net.len(), &per_block);
    assert_eq!(sized.registered_group_bytes(), Some(per_group.clone()));
    per_group.into_iter().map(|b| b as usize).collect()
}

#[test]
fn zero_copy_matches_both_oracles_across_the_matrix() {
    let data = dataset();
    let (per_worker, steps) = (8usize, 3usize);
    let xchg = two_groups();
    let exec = ooc_exec(replicas(1)[0].len());
    let group_bytes = expected_group_bytes(&exec, &xchg);
    let step_bytes: usize = group_bytes.iter().sum();
    for workers in [1usize, 2, 4] {
        // The sequential single-thread emulation.
        let mut reference = small_cnn(4, 77);
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
            for repeat in 0..2 {
                let mut nets = replicas(workers);
                let report = train(&mut nets, &exec, &xchg, &data, per_worker, 0.05, steps);
                assert_eq!(
                    report.final_snapshot, expected,
                    "{workers}w × {threads}t, repeat {repeat}: diverged from reference"
                );
                assert_eq!(report.losses, ref_losses);
                // Traffic: one message per worker per group per step,
                // each the group's registered payload.
                assert_eq!(report.exchange_messages, workers * xchg.n_groups() * steps);
                assert_eq!(report.group_bytes, group_bytes);
                assert_eq!(report.exchanged_bytes, workers * steps * step_bytes);
                // The zero-copy path records real exchange timing.
                assert_eq!(report.group_ship_s.len(), xchg.n_groups());
                assert_eq!(report.group_ready_s.len(), xchg.n_groups());
                assert!(report.step_wall_s > 0.0);
            }
            rayon::set_num_threads(0);
        }
    }
}

#[test]
fn churn_matches_both_oracles_bitwise() {
    // Worker 1 of 4 dies mid-exchange (after group 0 of 2): group 0
    // completes with its contribution, group 1 aborts to survivor-only
    // averaging. The engine must land on the sequential reference's bits.
    let data = dataset();
    let xchg = two_groups();
    let faults = FaultPlan::new(vec![WorkerFailure {
        step: 1,
        rank: 1,
        groups_shipped: 1,
    }]);
    let cfg = ChurnConfig {
        offset: 0,
        per_worker: 8,
        lr: 0.05,
        steps: 3,
    };
    let exec = ooc_exec(replicas(1)[0].len());
    let group_bytes = expected_group_bytes(&exec, &xchg);

    let mut reference = small_cnn(4, 77);
    let ref_losses = train_churn_reference(&mut reference, &exec, &xchg, &data, &cfg, 4, &faults);

    let driver = ElasticDriver::fixed(exec, xchg);
    let mut opts = ElasticOptions::plain(cfg.per_worker, cfg.lr, cfg.steps);
    opts.events = vec![PoolEvent::Fail {
        step: 1,
        rank: 1,
        groups_shipped: 1,
    }];
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        for repeat in 0..2 {
            let mut nets = replicas(4);
            let mut store = TierStack::new(&[TierSpec::unbounded()]);
            let report = driver
                .run(&mut nets, None, &data, &opts, &mut store, None)
                .expect("churn run succeeds");
            assert_eq!(
                report.final_snapshot,
                reference.snapshot(),
                "{threads}t repeat {repeat}: churn parity broke"
            );
            assert_eq!(report.losses, ref_losses);
            assert_eq!(report.completed_with_dead, 1);
            assert_eq!(report.aborted_groups, 1);
            assert_eq!(nets.len(), 3, "dead replica dropped");
            // Steps 0-2 ship 8, 7 (the dead worker's group 1 is lost) and
            // 6 messages.
            assert_eq!(report.exchange_messages, 8 + 7 + 6);
            assert_eq!(
                report.exchanged_bytes,
                4 * group_bytes[0] + 4 * group_bytes[1] // step 0
                    + 4 * group_bytes[0] + 3 * group_bytes[1] // step 1
                    + 3 * group_bytes[0] + 3 * group_bytes[1] // step 2
            );
        }
        rayon::set_num_threads(0);
    }
}

#[test]
fn elastic_one_registration_is_bitwise_neutral_across_hot_swaps() {
    // Shrink 4 → 3, then grow back to 4: every pool size folds through
    // the one registration made when the driver was built. Running the
    // same schedule twice on one driver (run 2 reuses every buffer run 1
    // folded through) must land on identical bits — reuse only skips
    // work.
    let data = SyntheticDataset::classification(512, 1, 16, 4, 33);
    let driver = ElasticDriver::fixed(ooc_exec(replicas(1)[0].len()), two_groups());
    let mut opts = ElasticOptions::plain(8, 0.05, 5);
    opts.events = vec![
        PoolEvent::Fail {
            step: 1,
            rank: 2,
            groups_shipped: 1,
        },
        PoolEvent::Join {
            step: 3,
            joiners: 1,
        },
    ];
    let spawn = || small_cnn(4, 77);
    let run = |driver: &ElasticDriver| {
        let mut nets = replicas(4);
        let mut store = TierStack::new(&[TierSpec::unbounded()]);
        driver
            .run(&mut nets, Some(&spawn), &data, &opts, &mut store, None)
            .expect("elastic run succeeds")
    };
    let first = run(&driver);
    let second = run(&driver); // reuses run 1's registration
    assert_eq!(
        first.final_snapshot, second.final_snapshot,
        "registration reuse moved bits"
    );
    assert_eq!(first.losses, second.losses);
    assert_eq!(first.pool_sizes, vec![4, 4, 3, 4, 4]);

    // And both equal a fresh driver (fresh registration).
    let cold = ElasticDriver::fixed(ooc_exec(replicas(1)[0].len()), two_groups());
    let fresh = run(&cold);
    assert_eq!(first.final_snapshot, fresh.final_snapshot);
}

#[test]
fn panicking_contributor_poisons_instead_of_publishing_partial_state() {
    // Arm a bulk group expecting two contributions; land one good fold,
    // then panic mid-fold (payload shorter than the registered span).
    // The slot must poison: no later fold or install may observe the
    // half-accumulated buffer, and `done` was never set.
    let net = small_cnn(4, 77);
    let exec = ooc_exec(net.len());
    let xchg = ExchangeSchedule::bulk(3);
    let bufs = ExchangeBuffers::register(&xchg, exec.boundaries(), net.len());
    let data = dataset();
    let (x, y) = data.shard(0, 8, 0);
    let (_, grads, _) = exec.grad_step(&net, &x, &y, |_, _| {});
    let payload = grads.per_layer.clone();

    bufs.begin_step(&[2]);
    let epoch = Instant::now();
    assert!(
        bufs.try_contribute(0, 0, &payload, epoch),
        "first fold lands"
    );
    assert!(!bufs.poisoned());

    // Second contributor dies mid-fold: wrong payload shape panics under
    // the slot lock.
    let short = &payload[..payload.len() - 1];
    let died = catch_unwind(AssertUnwindSafe(|| {
        bufs.try_contribute(0, 1, short, epoch);
    }));
    assert!(died.is_err(), "short payload must panic");
    assert!(bufs.poisoned(), "mid-fold panic must poison the buffer");

    // The partial accumulation is unobservable: both folding and
    // installing now fail loudly instead of returning data.
    let fold_after = catch_unwind(AssertUnwindSafe(|| {
        bufs.try_contribute(0, 1, &payload, epoch);
    }));
    assert!(fold_after.is_err(), "fold into a poisoned buffer must fail");
    let mut dst = payload.clone();
    let install_after = catch_unwind(AssertUnwindSafe(|| {
        bufs.install(0, &mut dst);
    }));
    assert!(
        install_after.is_err(),
        "install from a poisoned buffer must fail"
    );
    assert_eq!(dst, payload, "poisoned install must not write");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Registered buffers never alias: over arbitrary contiguous group
    /// partitions and block boundaries, every layer belongs to exactly
    /// one group's span and the spans tile the net exactly.
    #[test]
    fn registered_spans_never_alias(
        widths in prop::collection::vec(1usize..4, 2..7),
        split_mask in 0u32..u32::MAX,
    ) {
        let n_blocks = widths.len();
        let mut boundaries = vec![0usize];
        for w in &widths[..n_blocks - 1] {
            boundaries.push(boundaries.last().unwrap() + w);
        }
        let n_layers: usize = widths.iter().sum();
        // Partition the descending block walk into contiguous groups.
        let mut groups: Vec<Vec<usize>> = vec![vec![n_blocks - 1]];
        for b in (0..n_blocks - 1).rev() {
            if split_mask & (1 << b) != 0 {
                groups.push(vec![b]);
            } else {
                groups.last_mut().unwrap().push(b);
            }
        }
        let xchg = ExchangeSchedule::new(groups, n_blocks);
        let bufs = ExchangeBuffers::register(&xchg, &boundaries, n_layers);
        prop_assert_eq!(bufs.n_groups(), xchg.n_groups());
        let mut covered = vec![false; n_layers];
        for g in 0..bufs.n_groups() {
            let (s, e) = bufs.span(g);
            prop_assert!(s < e && e <= n_layers, "span out of range");
            for owner in covered.iter_mut().take(e).skip(s) {
                prop_assert!(!*owner, "layer owned by two groups");
                *owner = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c), "layer owned by no group");
    }
}
