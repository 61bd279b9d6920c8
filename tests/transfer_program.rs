//! The transfer program matches the plan IR it was lowered from.
//!
//! The swap engine, the residency replay and the swap-timing model all
//! interpret one transfer program, lowered once from the executor's
//! schedule. The program is crate-private, so this suite reads it
//! through `expected_swap_timing`: that model is a fold over the program
//! emitting one `SwapTransfer` per `Out`/`In` op, in program order, with
//! the op's event, block and issuing step. With every near-memory key
//! priced at one byte, a transfer's `bytes` counts the keys it moves.
//!
//! The oracle is the plan, not a second walk of the schedule:
//!
//! * the program's swap-outs correspond one-to-one and in order with the
//!   plan's `SwapOut` ops — same block, same issuing step (after the
//!   latest forward before it);
//! * its swap-ins correspond one-to-one with the plan's `SwapIn` ops by
//!   block, each issuing no later than the backward step of the plan's
//!   next compute op and not before the fwd→bwd turnaround: fetch
//!   placement may issue a fetch earlier, never later;
//! * a boundary rides its block's swap-out exactly when the lowered,
//!   unplaced program moves it with the interiors, and departs on a
//!   transfer of its own at its lowered step otherwise. A returning
//!   boundary rides its block's swap-in only when the unplaced program
//!   fetches both together; placement may split that pair, and then the
//!   interiors issue earlier than the boundary.

use karma::core::cost::BlockCosts;
use karma::core::plan::{OpKind, Plan};
use karma::core::program::{Op, Transfer};
use karma::core::{lower_to_runtime, OptConfig};
use karma::graph::{MemoryParams, ModelGraph};
use karma::hw::{GpuSpec, LinkSpec, NodeSpec};
use karma::runtime::bridge::{expected_swap_timing, plan_net, SwapTransfer};
use karma::runtime::{ExecEvent, TierSpec};
use karma::zoo::micro::{conv_stack_graph, mlp_stack_graph, resnet_style_graph};

/// `plan_net` on a device with `device_bytes`, as
/// `tests/async_swap.rs::plan_conv_stack` does. Returns the plan, its
/// costs and its net-space boundaries.
fn capacity_plan(
    graph: &ModelGraph,
    batch: usize,
    device_bytes: f64,
    cfg: &OptConfig,
) -> (Plan, BlockCosts, Vec<usize>) {
    let node = NodeSpec::toy(
        GpuSpec::toy(device_bytes as u64, 5.0e9),
        LinkSpec::toy(4.0e9),
    );
    let p = plan_net(graph, batch, &node, cfg).expect("micro-zoo graphs plan");
    (p.plan, p.costs, p.bounds)
}

/// The conv-stack plan of `tests/async_swap.rs`, then every cell of the
/// fig5 micro grid (each executable micro-zoo mirror at batches 8 and 16
/// on a device holding the model state plus 65% of the activations).
fn plans() -> Vec<(String, ModelGraph, Plan, BlockCosts, Vec<usize>)> {
    let mem = MemoryParams::exact();
    let cfg = OptConfig::fast(17);
    let mut conv_cfg = cfg.clone();
    conv_cfg.max_cut_candidates = 5;
    let conv = conv_stack_graph(6, 4);
    let need = conv.peak_footprint(16, &mem) as f64;
    let (plan, costs, bounds) = capacity_plan(&conv, 16, need * 0.65, &conv_cfg);
    let mut out = vec![(
        "async-swap conv-stack".to_string(),
        conv,
        plan,
        costs,
        bounds,
    )];
    let grid = [
        ("conv-stack", conv_stack_graph(6, 4)),
        ("mlp-stack", mlp_stack_graph(3, 64, 4)),
        ("resnet-style", resnet_style_graph(4)),
    ];
    for (name, graph) in grid {
        for batch in [8, 16] {
            let state = graph.memory(batch, &mem).model_state() as f64;
            let acts = graph.peak_footprint(batch, &mem) as f64 - state;
            let (plan, costs, bounds) = capacity_plan(&graph, batch, state + acts * 0.65, &cfg);
            out.push((
                format!("{name}/b{batch}"),
                graph.clone(),
                plan,
                costs,
                bounds,
            ));
        }
    }
    out
}

#[test]
fn program_transfers_match_the_plan_ops_and_the_boundary_schedule() {
    let (mut swaps, mut riding, mut alone) = (0, 0, 0);
    for (name, graph, plan, costs, bounds) in plans() {
        let n = plan.n_blocks;
        let n_layers = graph.len() - 1;
        let unit_keys = vec![1usize; n_layers + 1];
        let timing = expected_swap_timing(
            &plan,
            &costs,
            &bounds,
            &unit_keys,
            n_layers,
            &vec![0; n],
            &[TierSpec::unbounded()],
            0,
            0.0,
            0.0,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));

        // The plan's own transfer ops, in plan order, with their steps.
        let (mut plan_outs, mut plan_ins): (Vec<_>, Vec<_>) = (Vec::new(), Vec::new());
        let mut last_forward = None;
        for (i, op) in plan.ops.iter().enumerate() {
            match op.kind {
                OpKind::Forward => last_forward = Some(op.block),
                OpKind::SwapOut => {
                    plan_outs.push((op.block, last_forward.expect("Sout after a forward")))
                }
                OpKind::SwapIn => {
                    let next_compute = plan.ops[i + 1..]
                        .iter()
                        .find(|o| matches!(o.kind, OpKind::Backward | OpKind::Recompute))
                        .expect("Sin before a backward");
                    plan_ins.push((op.block, next_compute.block));
                }
                _ => {}
            }
        }
        let outs: Vec<(usize, usize)> = timing
            .transfers
            .iter()
            .filter(|t| t.event == ExecEvent::SwapOut)
            .map(|t| (t.block, t.step))
            .collect();
        assert_eq!(outs, plan_outs, "{name}: swap-outs");
        let mut ins: Vec<&SwapTransfer> = timing
            .transfers
            .iter()
            .filter(|t| t.event == ExecEvent::SwapIn)
            .collect();
        ins.sort_by_key(|t| t.block);
        plan_ins.sort_unstable();
        assert_eq!(ins.len(), plan_ins.len(), "{name}: swap-ins");
        let turnaround: f64 = costs.forward.iter().sum();
        for (t, &(block, latest)) in ins.iter().zip(&plan_ins) {
            assert_eq!(t.block, block, "{name}: swap-ins");
            assert!(
                (latest..n).contains(&t.step),
                "{name}: {t:?} after {latest}"
            );
            assert!(t.issue >= turnaround, "{name}: {t:?} before the turnaround");
        }
        swaps += plan_outs.len();

        // Riding vs moving alone, against the lowered, unplaced program.
        let program = lower_to_runtime(&plan).unwrap();
        let interior = |b: usize| bounds.get(b + 1).copied().unwrap_or(n_layers) - bounds[b] - 1;
        // The unplaced program's transfers out (`out`) or in that move
        // block `b`'s interiors (`part` false) or boundary (`part` true).
        let lowered = |out: bool, part: bool| -> Vec<&Transfer> {
            program
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Out(t) if out => Some(t),
                    Op::In(t) if !out => Some(t),
                    _ => None,
                })
                .filter(|t| if part { t.boundary } else { t.interior })
                .collect()
        };
        // The step the unplaced program moves that part of block `b` at:
        // a fetch's latest.
        let named_at = |out: bool, part: bool, b: usize| {
            lowered(out, part)
                .iter()
                .find(|t| t.block == b)
                .map(|t| t.step)
        };
        let (mut carried_out, mut carried_in) = (Vec::new(), Vec::new());
        for t in &timing.transfers {
            match t.event {
                ExecEvent::SwapOut => {
                    assert_eq!(
                        named_at(true, false, t.block),
                        Some(t.step),
                        "{name}: {t:?}"
                    );
                    let named = named_at(true, true, t.block) == Some(t.step);
                    assert_eq!(t.bytes as usize, interior(t.block) + usize::from(named));
                    riding += usize::from(named);
                    if named {
                        carried_out.push((t.step, t.block));
                    }
                }
                ExecEvent::BoundaryOut => {
                    assert!(
                        named_at(true, true, t.block) == Some(t.step)
                            && named_at(true, false, t.block) != Some(t.step),
                        "{name}: {t:?}"
                    );
                    assert_eq!(t.bytes, 1, "{name}: a lone boundary moves one key");
                    alone += 1;
                    carried_out.push((t.step, t.block));
                }
                ExecEvent::SwapIn => {
                    let due = named_at(false, false, t.block).expect("a scheduled Sin");
                    let carries = t.bytes as usize - interior(t.block);
                    assert!(carries <= 1, "{name}: {t:?}");
                    if carries == 1 {
                        let boundary_due = named_at(false, true, t.block);
                        assert_eq!(boundary_due, Some(due), "{name}: {t:?} rides");
                        riding += 1;
                        carried_in.push((due, t.block));
                    }
                }
                ExecEvent::BoundaryIn => {
                    let due = named_at(false, true, t.block).expect("a scheduled boundary return");
                    assert!((due..n).contains(&t.step), "{name}: {t:?} after {due}");
                    assert_eq!(t.bytes, 1, "{name}: a lone boundary moves one key");
                    if named_at(false, false, t.block) == Some(due) {
                        let sin = ins.iter().find(|s| s.block == t.block).unwrap();
                        assert!(sin.step > t.step, "{name}: {t:?} split without moving");
                    }
                    alone += 1;
                    carried_in.push((due, t.block));
                }
                _ => unreachable!("{name}: {t:?} is not a transfer"),
            }
        }
        // Every scheduled boundary move happens exactly once.
        let scheduled = |out: bool| -> Vec<(usize, usize)> {
            let mut moves: Vec<_> = lowered(out, true)
                .iter()
                .map(|t| (t.step, t.block))
                .collect();
            moves.sort_unstable();
            moves
        };
        carried_out.sort_unstable();
        carried_in.sort_unstable();
        assert_eq!(carried_out, scheduled(true), "{name}");
        assert_eq!(carried_in, scheduled(false), "{name}");
    }
    // The grid exercises swaps, riding boundaries and lone ones.
    assert!(
        swaps > 0 && riding > 0 && alone > 0,
        "{swaps} {riding} {alone}"
    );
}
