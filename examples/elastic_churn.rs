//! Elastic fault-tolerant training on the planned path: a worker dies
//! *mid-exchange*, the survivors finish the step deterministically, the
//! pool re-shards onto the one lowered executor and later grows back, and
//! a far-store checkpoint
//! restores the run bitwise at the failed step — not step 0.
//!
//! The paper (Sec. II-B) argues out-of-core data parallelism is naturally
//! fault-tolerant because every worker holds a complete replica; this
//! walkthrough runs that recovery story end to end over a real planned
//! schedule.
//!
//! Run with: `cargo run --release --example elastic_churn`

use karma::core::opt::OptConfig;
use karma::dist::append_exchange_ops;
use karma::graph::MemoryParams;
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::net::{ExchangeGroup, PhasedExchange};
use karma::runtime::bridge::{block_grad_bytes, plan_net};
use karma::runtime::elastic::{Checkpoint, ElasticDriver, ElasticOptions, PoolEvent};
use karma::runtime::{TierSpec, TierStack};
use karma::tensor::{conv_stack, Sequential, SyntheticDataset};

fn fresh_net() -> Sequential {
    conv_stack(6, 4, 11)
}

fn main() {
    let data = SyntheticDataset::classification(384, 1, 16, 4, 7);
    let (per_worker, total_steps) = (4usize, 6usize);

    // Profile → plan the per-worker out-of-core schedule on a device
    // that cannot hold the model (same pipeline as the other examples).
    let graph = karma::zoo::micro::conv_stack_graph(6, 4);
    let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
    let node = NodeSpec::toy(
        GpuSpec::toy((need * 0.65) as u64, 5.0e9),
        LinkSpec::toy(4.0e9),
    );
    let mut cfg = OptConfig::fast(17);
    cfg.max_cut_candidates = 5;
    let cp = plan_net(&graph, 16, &node, &cfg).expect("realizable boundaries");

    // A two-group phased exchange, so "mid-exchange" is a real place for
    // a worker to die: group 0 ships at its gate, group 1 never does.
    let net = fresh_net();
    let grad_bytes = block_grad_bytes(&net, &cp.bounds);
    let mid = grad_bytes.len() / 2;
    let group = |range: std::ops::Range<usize>| ExchangeGroup {
        blocks: range.clone().rev().collect(),
        bytes: range.map(|b| grad_bytes[b]).sum(),
    };
    let phased = PhasedExchange {
        groups: vec![group(mid..grad_bytes.len()), group(0..mid)],
    };
    let (x, _) = data.batch(0, per_worker);
    let (_, replay) = cp.lower(&net, &x).expect("replayable plan");
    let mut plan = cp.plan;
    append_exchange_ops(&mut plan, &phased);

    // The elastic driver lowers this plan once; every pool size runs it.
    let driver = ElasticDriver::from_plan(plan, cp.bounds, replay.peak_bytes, net.len());

    // The churn schedule: rank 1 dies at step 2 after shipping one of
    // the two exchange groups; two fresh workers join before step 4.
    // Checkpoints flow to the far store every two steps.
    let mut opts = ElasticOptions::plain(per_worker, 0.05, total_steps);
    opts.events = vec![
        PoolEvent::Fail {
            step: 2,
            rank: 1,
            groups_shipped: 1,
        },
        PoolEvent::Join {
            step: 4,
            joiners: 2,
        },
    ];
    opts.checkpoint_every = Some(2);

    let spawn = fresh_net;
    let mut store = TierStack::new(&[TierSpec::unbounded()]);
    let mut nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
    let full = driver
        .run(&mut nets, Some(&spawn), &data, &opts, &mut store, None)
        .expect("elastic run succeeds");

    println!("pool      : {:?}", full.pool_sizes);
    println!(
        "churn     : {} group(s) kept a dead worker's shipped gradient, {} aborted to survivor-only averaging",
        full.completed_with_dead, full.aborted_groups
    );
    println!(
        "hot swaps : {} pool change(s) on one lowering, across {} phases",
        full.relowers,
        full.phases.len()
    );
    println!(
        "far store : {} checkpoint(s) saved mid-run",
        full.checkpoints_saved
    );

    // Crash after step 4 and restore from the far store: the resumed run
    // starts at the checkpointed step and lands on identical bits.
    let mut cut_opts = opts.clone();
    cut_opts.total_steps = 5;
    let mut crash_store = TierStack::new(&[TierSpec::unbounded()]);
    let mut crash_nets: Vec<Sequential> = (0..3).map(|_| fresh_net()).collect();
    driver
        .run(
            &mut crash_nets,
            Some(&spawn),
            &data,
            &cut_opts,
            &mut crash_store,
            None,
        )
        .expect("run up to the crash succeeds");
    let ck = Checkpoint::load(&mut crash_store, 0, 0).expect("checkpoint survives the crash");
    println!(
        "restore   : checkpoint at step {} (pool {}, cursor {})",
        ck.step, ck.pool, ck.cursor
    );

    let mut resumed_nets: Vec<Sequential> = Vec::new(); // a fresh process
    let mut resume_store = TierStack::new(&[TierSpec::unbounded()]);
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

    assert_eq!(resumed.start_step, ck.step);
    assert_eq!(resumed.final_snapshot, full.final_snapshot);
    println!(
        "resumed   : steps {}..{} re-run, final weights bitwise-identical to the uninterrupted run",
        resumed.start_step, total_steps
    );
}
