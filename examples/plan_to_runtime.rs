//! Plan → runtime, end to end: profile a model, search a blocking, build
//! the capacity-based plan, lower it through the bridge, and run a *real*
//! out-of-core training step — then show that the executed swap/recompute
//! operations are exactly the plan's.
//!
//! Run with: `cargo run --example plan_to_runtime`

use karma::core::lower_to_runtime;
use karma::core::opt::OptConfig;
use karma::core::plan::OpKind;
use karma::core::program::Op;
use karma::graph::MemoryParams;
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::runtime::bridge::plan_net;
use karma::tensor::{conv_stack, SyntheticDataset};

fn main() {
    let mut net = conv_stack(6, 4, 11);
    let data = SyntheticDataset::classification(32, 1, 16, 4, 7);
    let (x, y) = data.batch(0, 16);

    // Steps 1-5 on a device that cannot hold the model: profile, blocking
    // search, recompute refinement, plan generation. The graph is the
    // zoo's mirror of the executable net, so the planner's bytes are the
    // executor's bytes.
    let graph = karma::zoo::micro::conv_stack_graph(6, 4);
    let need = graph.peak_footprint(16, &MemoryParams::exact()) as f64;
    let node = NodeSpec::toy(
        GpuSpec::toy((need * 0.65) as u64, 5.0e9),
        LinkSpec::toy(4.0e9),
    );
    // Coarse cuts only: multi-layer blocks carry real interiors, so the
    // executed swaps/recomputes move actual bytes.
    let mut cfg = OptConfig::fast(17);
    cfg.max_cut_candidates = 5;
    let cp = plan_net(&graph, 16, &node, &cfg).expect("realizable boundaries");
    println!("plan      : {}", cp.plan.notation());

    // Bridge: lower the plan onto the out-of-core executor and size the
    // near-memory budget from the plan's own residency replay.
    let (exec, replay) = cp.lower(&net, &x).expect("plan lowers to the executor");
    let program = lower_to_runtime(&cp.plan).expect("plan lowers to a transfer program");
    // Each fetch as (block, latest issue step), boundary-only returns
    // marked: the executor issues them as early as the replayed peak
    // allows.
    let fetches: Vec<String> = program
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::In(t) if t.interior => Some(format!("{}@{}", t.block, t.step)),
            Op::In(t) => Some(format!("{}b@{}", t.block, t.step)),
            _ => None,
        })
        .collect();
    println!(
        "executor  : {} blocks, budget {} B, fetches at their latest steps [{}]",
        exec.n_blocks(),
        replay.peak_bytes,
        fetches.join(" ")
    );

    // A real training step under the plan's schedule.
    let (loss, stats) = exec.train_step(&mut net, &x, &y, 0.05);
    println!("loss      : {loss:.4}");
    println!("stats     : {stats:?}");
    assert_eq!(stats.swap_out_ops, cp.plan.count(OpKind::SwapOut));
    assert_eq!(stats.swap_in_ops, cp.plan.count(OpKind::SwapIn));
    assert_eq!(stats.recompute_ops, cp.plan.count(OpKind::Recompute));
    // The boundary contract: every swapped block below the last really
    // evicted its boundary activation (and fetched it back before the
    // block above's backward), so the executed peak is exactly the
    // replay's — the cost model's capacity promise, kept at runtime.
    let departs = |op: &Op| matches!(op, Op::Out(t) if t.boundary);
    let evictions = program.ops.iter().filter(|op| departs(op)).count();
    assert_eq!(stats.boundary_out_ops, evictions);
    assert_eq!(stats.boundary_in_ops, evictions);
    assert_eq!(stats.peak_near_bytes, replay.peak_bytes);
    println!(
        "executed swap/recompute ops match the plan exactly; \
         {evictions} boundary evictions, peak {} B == modeled peak",
        stats.peak_near_bytes
    );
}
