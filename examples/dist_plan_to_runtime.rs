//! Distributed plan → runtime, end to end (paper Sec. III-G): profile a
//! model, plan the per-worker out-of-core schedule, group the gradient
//! exchange with the α–β cost model (MG-WFBP merging), append the
//! `AR`/`U` ops, lower everything through the bridge, and train real
//! worker replicas with the grouped phased exchange — then show that the
//! executed messages and shipped bytes are exactly the plan's.
//!
//! Run with: `cargo run --release --example dist_plan_to_runtime`

use karma::core::lower_to_runtime;
use karma::core::opt::OptConfig;
use karma::dist::append_exchange_ops;
use karma::graph::MemoryParams;
use karma::hw::{ClusterSpec, GpuSpec, LinkSpec, NodeSpec};
use karma::net::{AllReduceAlgo, AllReduceModel, PhasedExchange};
use karma::runtime::bridge::{
    block_grad_bytes, expected_exchange, expected_exchange_timing, lower_dist_plan, plan_net,
};
use karma::runtime::dp::train;
use karma::tensor::{conv_stack, Sequential, SyntheticDataset};

fn main() {
    let data = SyntheticDataset::classification(128, 1, 16, 4, 7);
    let (workers, per_worker, steps) = (2usize, 8usize, 2usize);

    // Steps 1-5 on a device that cannot hold the model (the graph is the
    // zoo's mirror of the executable net): the per-worker schedule every
    // replica runs.
    let graph = karma::zoo::micro::conv_stack_graph(6, 4);
    let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
    let node = NodeSpec::toy(
        GpuSpec::toy((need * 0.65) as u64, 5.0e9),
        LinkSpec::toy(4.0e9),
    );
    let mut cfg = OptConfig::fast(17);
    cfg.max_cut_candidates = 5;
    let cp = plan_net(&graph, 16, &node, &cfg).expect("realizable boundaries");

    // Stage 4 (Sec. III-G): group the exchange over *real* per-block
    // gradient sizes with the α–β AllReduce model, then append one AR
    // (+ CPU-side update) per group, gated on its last member's backward.
    let net = conv_stack(6, 4, 11);
    let (x, _) = data.batch(0, per_worker);
    let grad_bytes = block_grad_bytes(&net, &cp.bounds);
    // A toy 2-node cluster whose per-message latency sits between one
    // block's gradients and the whole model's: the MG-WFBP merge then
    // produces real multi-block groups (on ABCI-scale links these
    // laptop-scale gradients would all merge into one bulk message).
    let link = LinkSpec {
        name: "toy-net".into(),
        bandwidth: 1.0e9,
        latency: 3.0e-7,
    };
    let mut cluster = ClusterSpec::abci(2);
    cluster.system_link = link.clone();
    cluster.node.peer_link = link;
    let model = AllReduceModel::new(AllReduceAlgo::Hierarchical, &cluster);
    let phased = PhasedExchange::plan(&grad_bytes, &model);

    let mut plan = cp.plan.clone();
    append_exchange_ops(&mut plan, &phased);
    println!("plan      : {}", plan.notation());

    // Bridge: the AR/U ops are analysed into the exchange schedule, the
    // rest into the out-of-core executor every worker runs.
    let sched = lower_to_runtime(&plan).expect("distributed plan lowers");
    let dist = sched.dist.as_ref().expect("plan has AR/U ops");
    for (i, g) in dist.groups.iter().enumerate() {
        println!(
            "group {i}   : blocks {:?}, launch after B{}, overlaps {} backwards",
            g.blocks,
            g.gate + 1,
            g.overlap_backwards()
        );
    }
    let (_, replay) = cp.lower(&net, &x).expect("replayable plan");
    let (exec, xchg) =
        lower_dist_plan(&plan, &cp.bounds, replay.peak_bytes, net.len()).expect("lowers");

    // Predict the exchange, then run it for real on worker threads.
    let exchange = expected_exchange(&plan, &grad_bytes, workers, steps).unwrap();
    let mut nets: Vec<Sequential> = (0..workers).map(|_| conv_stack(6, 4, 11)).collect();
    let report = train(&mut nets, &exec, &xchg, &data, per_worker, 0.05, steps);

    println!(
        "executed  : {} messages ({} predicted), {} B shipped ({} predicted)",
        report.exchange_messages, exchange.messages, report.exchanged_bytes, exchange.total_bytes
    );
    println!("losses    : {:?}", report.losses);
    assert_eq!(report.exchange_messages, exchange.messages);
    assert_eq!(report.exchanged_bytes as u64, exchange.total_bytes);
    let shipped: Vec<u64> = report.group_bytes.iter().map(|&b| b as u64).collect();
    assert_eq!(shipped, exchange.per_group_bytes);
    println!("executed exchange matches the plan's prediction exactly");

    // Overlap windows: the wall-clock model prices each group's ship
    // (its gate block's backward finish under the Eq. 8 occupancy walk)
    // and ready (α–β serialization on one exchange lane); the zero-copy
    // transport records the instants the run actually hit. Modeled time
    // is planner seconds, measured time is this machine's — the shapes
    // correspond, the units do not.
    let timing = expected_exchange_timing(&plan, &cp.costs, &grad_bytes, 3.0e-7, 1.0e-9)
        .expect("distributed plan prices");
    println!(
        "modeled   : backward {:.4} s, exchange tail past it {:.4} s",
        timing.backward,
        timing.exposed()
    );
    for g in 0..timing.groups.len() {
        let (m_ship, m_ready) = timing.window(g);
        println!(
            "group {g}   : modeled ship {m_ship:.4} s -> ready {m_ready:.4} s | measured \
             ship {:.6} s -> ready {:.6} s",
            report.group_ship_s[g], report.group_ready_s[g]
        );
    }
    println!(
        "measured  : backward done {:.6} s, full step {:.6} s",
        report.backward_done_s, report.step_wall_s
    );
    // Every group shipped while some worker was still in backward: the
    // overlap the phased exchange exists to create, on real threads.
    for (g, s) in report.group_ship_s.iter().enumerate() {
        assert!(
            *s <= report.backward_done_s,
            "group {g} shipped only after backward finished"
        );
    }
    println!("every group shipped inside the backward phase — overlap achieved");
}
