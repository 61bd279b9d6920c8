//! The two-tier optimization of paper Fig. 4.
//!
//! **Problem 1** (blocking): choose contiguous block boundaries maximizing
//! occupancy — equivalently minimizing the simulated iteration makespan —
//! subject to the device-capacity constraint (9.4). Constraints 9.1–9.3
//! (complete, disjoint, dependency-respecting blocks) hold by construction:
//! the search space *is* the space of contiguous partitions of the
//! topological order. The search runs the ACO solver (`karma-solver`, the
//! MIDACO substitute) over binary cut variables, seeded with uniform
//! partitions, and evaluates candidates by building the capacity-based plan
//! and simulating it.
//!
//! **Problem 2** (recompute interleave): flip swapped blocks to redundant
//! recompute where that reduces pipeline stalls — candidates must satisfy
//! constraint 10.1 (recompute time below swap time); each flip is accepted
//! only if the simulated makespan improves.

use std::collections::HashMap;
use std::sync::Mutex;

use karma_solver::{Aco, AcoConfig, Evaluation, Problem};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::capacity::{build_training_plan, pinned_at_turnaround, CapacityPlanOptions};
use crate::cost::{BlockCosts, LayerCostTable};
use crate::lower::{simulate_plan, LowerOptions};

/// Search configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptConfig {
    /// Cap on binary cut variables; boundaries are restricted to (roughly)
    /// evenly spaced candidate positions when the model has more layers.
    pub max_cut_candidates: usize,
    /// Uniform-partition seeds (block counts) handed to the ACO.
    pub seed_block_counts: Vec<usize>,
    /// ACO generations (ants per generation and the rest of the ACO
    /// settings follow [`AcoConfig::planner`]).
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Smallest allowed cut position (layer index). The default `1`
    /// admits every cut. Plans for the runtime executor come from
    /// `karma_runtime::bridge::plan_net`, which raises this to `2` itself:
    /// graph layer 0 is the model input, and a cut at position 1 would
    /// open an input-only block with no executable analogue. The field
    /// stays only because `benchmark/src/workloads.rs` still sets it (as
    /// does the Fig. 5 grid test, which plans graphs that have no net).
    pub min_cut_layer: usize,
    /// Reuse evaluations of repeated cut genomes: in-batch deduplication in
    /// the ACO plus a cross-generation memo cache around plan construction
    /// and simulation. Ants resample identical genomes constantly as the
    /// archive converges, so repeats become free. Purely an
    /// evaluation-count optimization — the search trajectory and result
    /// are unchanged. `false` reproduces the unoptimized evaluation cost
    /// (every sampled genome simulated afresh) for baseline measurements
    /// (`planner_bench`).
    pub memoize: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            max_cut_candidates: 39,
            seed_block_counts: vec![4, 6, 8, 12, 16, 24, 32],
            generations: 60,
            seed: 0x6b61726d61, // "karma"
            min_cut_layer: 1,
            memoize: true,
        }
    }
}

impl OptConfig {
    /// Cheap settings for unit tests.
    pub fn fast(seed: u64) -> Self {
        OptConfig {
            max_cut_candidates: 15,
            seed_block_counts: vec![2, 4, 8],
            generations: 25,
            seed,
            min_cut_layer: 1,
            memoize: true,
        }
    }
}

/// The blocking problem over candidate cut positions.
struct BlockingProblem<'a> {
    table: &'a LayerCostTable,
    /// Allowed cut positions (layer indices), ascending.
    candidates: Vec<usize>,
    seeds: Vec<Vec<i64>>,
    /// Cross-generation evaluation memo (genome → evaluation), `None` when
    /// [`OptConfig::memoize`] is off. Behind a `Mutex` because the ACO
    /// evaluates each generation's batch from several threads; the lock is
    /// held only for lookup/insert, never across the simulation itself.
    cache: Option<Mutex<HashMap<Vec<i64>, Evaluation>>>,
}

impl BlockingProblem<'_> {
    fn boundaries(&self, x: &[i64]) -> Vec<usize> {
        let mut b = Vec::with_capacity(x.len() + 1);
        b.push(0);
        for (i, &v) in x.iter().enumerate() {
            if v != 0 {
                b.push(self.candidates[i]);
            }
        }
        b
    }
}

impl Problem for BlockingProblem<'_> {
    fn dims(&self) -> usize {
        self.candidates.len()
    }
    fn bounds(&self, _i: usize) -> (i64, i64) {
        (0, 1)
    }
    fn evaluate(&self, x: &[i64]) -> Evaluation {
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.lock().unwrap().get(x) {
                return *hit;
            }
        }
        let bounds = self.boundaries(x);
        let costs = self.table.block_costs(&bounds);
        let eval = evaluate_blocking(&costs);
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().insert(x.to_vec(), eval);
        }
        eval
    }
    fn seeds(&self) -> Vec<Vec<i64>> {
        self.seeds.clone()
    }
}

/// Score one blocking: simulated makespan, with capacity overflow as the
/// constraint-violation term.
fn evaluate_blocking(costs: &BlockCosts) -> Evaluation {
    if !costs.is_schedulable() {
        // A block alone exceeds memory: heavily infeasible.
        let worst = (0..costs.n_blocks())
            .map(|b| (costs.act_bytes[b] + costs.transient_bytes[b]) as i64 - costs.act_capacity)
            .max()
            .unwrap_or(i64::MAX);
        return Evaluation {
            objective: f64::INFINITY,
            violation: worst.max(1) as f64,
        };
    }
    let n = costs.n_blocks();
    let cp = build_training_plan(costs, &CapacityPlanOptions::karma(n));
    let (_trace, m) = simulate_plan(&cp.plan, costs, &LowerOptions::default());
    let overflow = (m.peak_act_bytes as i64 - costs.act_capacity).max(0);
    Evaluation {
        objective: m.makespan,
        violation: overflow as f64,
    }
}

/// Solve optimization problem 1: return the best block boundaries found.
pub fn optimize_blocking(table: &LayerCostTable, cfg: &OptConfig) -> Vec<usize> {
    let n = table.n_layers();
    if n <= 1 {
        return vec![0];
    }
    // Candidate cut positions: activation-mass + layer-count quantiles
    // (activation mass is front-loaded in CNNs, so uniform layer spacing
    // would leave early blocks unsplittably large).
    let candidates: Vec<usize> = table
        .cut_candidates(cfg.max_cut_candidates)
        .into_iter()
        .filter(|&c| c >= cfg.min_cut_layer)
        .collect();

    // Uniform-partition seeds projected onto the candidate set.
    let mut seeds: Vec<Vec<i64>> = cfg
        .seed_block_counts
        .iter()
        .map(|&k| {
            let k = k.clamp(1, n);
            let targets: Vec<usize> = (1..k).map(|i| i * n / k).collect();
            candidates
                .iter()
                .map(|&c| {
                    let near = targets.iter().any(|&t| {
                        (c as i64 - t as i64).unsigned_abs() as usize <= n / (2 * k).max(1)
                    });
                    i64::from(near)
                })
                .collect()
        })
        .collect();
    // Feasibility anchor: the finest candidate blocking has the smallest
    // per-block footprint, so whenever *any* candidate blocking satisfies
    // the capacity constraint this seed does. Starting the archive with it
    // guarantees the search returns a feasible blocking when one exists,
    // independent of the random stream.
    seeds.push(vec![1; candidates.len()]);

    let problem = BlockingProblem {
        table,
        candidates,
        seeds,
        cache: cfg.memoize.then(|| Mutex::new(HashMap::new())),
    };
    let mut aco_cfg = AcoConfig::planner(cfg.seed);
    aco_cfg.generations = cfg.generations;
    aco_cfg.dedupe = cfg.memoize;
    let best = Aco::new(aco_cfg).minimize(&problem);
    problem.boundaries(&best.x)
}

/// Whether block `b` may be flipped to recompute at all: constraint 10.1
/// (recomputing it is cheaper than the swap it replaces) and the
/// turnaround rule ([`pinned_at_turnaround`]: the last block never
/// recomputes).
fn may_recompute(costs: &BlockCosts, b: usize) -> bool {
    !pinned_at_turnaround(b, costs.n_blocks()) && costs.forward[b] < costs.swap_time(b)
}

/// Solve optimization problem 2: greedy recompute refinement.
///
/// Scans swapped blocks (front of the model, below the resident suffix);
/// a block is a candidate when recomputing it costs less than swapping it
/// in (constraint 10.1) and it is not the last block (the turnaround
/// rule, [`pinned_at_turnaround`]); each flip is kept only if the
/// simulated makespan improves. Sweeps until a fixed point (bounded by 4
/// sweeps).
pub fn refine_recompute(costs: &BlockCosts) -> Vec<bool> {
    let n = costs.n_blocks();
    // Recompute wherever the rules allow: the constraint-10.1 heuristic.
    let all_rc: Vec<bool> = (0..n).map(|b| may_recompute(costs, b)).collect();
    if n > 160 {
        // Per-flip simulation is quadratic-ish; for very fine partitions
        // fall back to the constraint-10.1 heuristic directly, validated
        // by one simulation against the no-recompute plan.
        let quick = |rc: Vec<bool>| {
            let cp = build_training_plan(
                costs,
                &CapacityPlanOptions::karma_with_recompute(rc.clone()),
            );
            let (_t, m) = simulate_plan(&cp.plan, costs, &LowerOptions::default());
            (rc, m)
        };
        let (rc, m_rc) = quick(all_rc);
        let (none, m_none) = quick(vec![false; n]);
        let (knap, m_knap) = quick(knapsack_recompute(costs));
        let mut best = (none, m_none);
        for cand in [(rc, m_rc), (knap, m_knap)] {
            let better =
                (cand.1.capacity_ok, -cand.1.makespan) > (best.1.capacity_ok, -best.1.makespan);
            if better {
                best = cand;
            }
        }
        return best.0;
    }
    let score = |rc: &Vec<bool>| -> f64 {
        let cp = build_training_plan(
            costs,
            &CapacityPlanOptions::karma_with_recompute(rc.clone()),
        );
        let (_t, m) = simulate_plan(&cp.plan, costs, &LowerOptions::default());
        if m.capacity_ok {
            m.makespan
        } else {
            f64::INFINITY
        }
    };

    // Greedy sweeps from a starting assignment; each flip (in either
    // direction) is kept only if the simulated makespan improves.
    //
    // The per-flip re-simulations run speculatively on the rayon pool, one
    // chunk of candidate flips at a time, all scored against the *current*
    // assignment. The chunk is then scanned in block order and only the
    // first improving flip is accepted (later speculative scores are stale
    // and discarded). A candidate ahead of the first improver would have
    // been rejected against the very same base by the serial sweep too, so
    // the accept sequence — and therefore the result — is bit-identical to
    // the serial greedy at any thread count; only wall time changes.
    let chunk_len = rayon::current_num_threads().max(1);
    let sweep = |mut rc: Vec<bool>| -> (Vec<bool>, f64) {
        let mut best = score(&rc);
        for _sweep in 0..4 {
            let mut improved = false;
            let mut cursor = 0usize;
            while cursor < n {
                // A flip *to* recompute is a candidate only where
                // `may_recompute` allows it; flips back to swapping are
                // always candidates.
                let chunk: Vec<usize> = (cursor..n)
                    .filter(|&b| rc[b] || may_recompute(costs, b))
                    .take(chunk_len)
                    .collect();
                let Some(&chunk_last) = chunk.last() else {
                    break;
                };
                let scores: Vec<f64> = chunk
                    .par_iter()
                    .map(|&b| {
                        let mut cand = rc.clone();
                        cand[b] = !cand[b];
                        score(&cand)
                    })
                    .collect();
                let accepted = chunk.iter().zip(&scores).find(|&(_, &s)| s < best - 1e-12);
                match accepted {
                    Some((&b, &s)) => {
                        rc[b] = !rc[b];
                        best = s;
                        improved = true;
                        cursor = b + 1;
                    }
                    None => cursor = chunk_last + 1,
                }
            }
            if !improved {
                break;
            }
        }
        (rc, best)
    };

    // Direction 1: start from pure swapping (Fig. 2 (b)) and add recompute.
    let (from_swap, s1) = sweep(vec![false; n]);
    // Direction 2: start from pure recompute (checkpointing-like) and put
    // blocks back on the copy lane where overlap makes swapping free.
    let (from_rc, s2) = sweep(all_rc);
    // Direction 3: start from the value-density knapsack (keep the
    // activations that are most expensive to recompute per byte) — the
    // assignment family Checkmate-style rematerialization draws from.
    let (from_knap, s3) = sweep(knapsack_recompute(costs));
    if s3 <= s1 && s3 <= s2 {
        from_knap
    } else if s2 < s1 {
        from_rc
    } else {
        from_swap
    }
}

/// Keep/recompute selection by recompute-cost density under the capacity
/// budget: every block stores its boundary checkpoint; keeping a block
/// additionally stores its interior. The last block is kept whatever the
/// budget says (the turnaround rule, [`pinned_at_turnaround`]), so its
/// interior is charged before any other block is chosen.
pub fn knapsack_recompute(costs: &BlockCosts) -> Vec<bool> {
    let n = costs.n_blocks();
    let budget = costs.act_capacity
        - costs.max_transient() as i64
        - costs.act_bytes.iter().copied().max().unwrap_or(0) as i64;
    let extra = |b: usize| costs.act_bytes[b].saturating_sub(costs.boundary_bytes[b]) as i64;
    let mut used: i64 = costs.boundary_bytes.iter().map(|&b| b as i64).sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let da = costs.forward[a] / (costs.act_bytes[a].max(1) as f64);
        let db = costs.forward[b] / (costs.act_bytes[b].max(1) as f64);
        db.partial_cmp(&da).unwrap()
    });
    // The pinned block goes first (the sort is stable).
    order.sort_by_key(|&b| !pinned_at_turnaround(b, n));
    let mut recompute = vec![true; n];
    for b in order {
        if pinned_at_turnaround(b, n) || used + extra(b) <= budget {
            recompute[b] = false;
            used += extra(b);
        }
    }
    recompute
}

#[cfg(test)]
mod tests {
    use super::*;
    use karma_graph::{GraphBuilder, MemoryParams, Shape};
    use karma_hw::{GpuSpec, LinkSpec, NodeSpec};

    fn chain(n: usize) -> karma_graph::ModelGraph {
        let mut b = GraphBuilder::new("chain", Shape::chw(8, 16, 16));
        for _ in 0..n {
            b.conv(8, 3, 1, 1);
        }
        b.build()
    }

    /// A node sized so the chain is out-of-core and transfer-bound.
    fn tight_node(g: &karma_graph::ModelGraph, frac: f64) -> NodeSpec {
        let mem = MemoryParams::exact();
        let need = g.peak_footprint(4, &mem) as f64;
        NodeSpec::toy(
            GpuSpec::toy((need * frac) as u64, 5.0e9),
            LinkSpec::toy(2.0e8),
        )
    }

    #[test]
    fn optimized_blocking_beats_naive_uniform() {
        let g = chain(16);
        let node = tight_node(&g, 0.5);
        let mem = MemoryParams::exact();
        let table = LayerCostTable::from_graph(&g, 4, &node, &mem);

        let bounds = optimize_blocking(&table, &OptConfig::fast(1));
        let opt_costs = table.block_costs(&bounds);
        let opt_eval = evaluate_blocking(&opt_costs);
        assert_eq!(opt_eval.violation, 0.0, "optimum must be feasible");

        // Compare against a coarse uniform partition.
        let uniform = karma_graph::BlockPartition::uniform(g.len(), 3);
        let uni_costs = table.block_costs(uniform.boundaries());
        let uni_eval = evaluate_blocking(&uni_costs);
        assert!(
            opt_eval.objective <= uni_eval.objective * 1.001,
            "opt {} vs uniform {}",
            opt_eval.objective,
            uni_eval.objective
        );
    }

    #[test]
    fn recompute_refinement_never_hurts() {
        let g = chain(12);
        let node = tight_node(&g, 0.4);
        let mem = MemoryParams::exact();
        let table = LayerCostTable::from_graph(&g, 4, &node, &mem);
        let bounds = optimize_blocking(&table, &OptConfig::fast(2));
        let costs = table.block_costs(&bounds);

        let plain = build_training_plan(&costs, &CapacityPlanOptions::karma(costs.n_blocks()));
        let (_t, m_plain) = simulate_plan(&plain.plan, &costs, &LowerOptions::default());

        let rc = refine_recompute(&costs);
        let with = build_training_plan(&costs, &CapacityPlanOptions::karma_with_recompute(rc));
        let (_t, m_rc) = simulate_plan(&with.plan, &costs, &LowerOptions::default());
        assert!(m_rc.makespan <= m_plain.makespan + 1e-9);
        assert!(m_rc.capacity_ok);
    }

    #[test]
    fn optimize_blocking_invariant_to_thread_count() {
        // The planner's promise after the parallel rework: same OptConfig →
        // bit-identical boundaries regardless of how many rayon workers
        // evaluate the ACO batches.
        let g = chain(14);
        let node = tight_node(&g, 0.5);
        let table = LayerCostTable::from_graph(&g, 4, &node, &MemoryParams::exact());
        rayon::set_num_threads(1);
        let sequential = optimize_blocking(&table, &OptConfig::fast(9));
        rayon::set_num_threads(4);
        let parallel = optimize_blocking(&table, &OptConfig::fast(9));
        rayon::set_num_threads(0); // restore auto sizing
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn memoization_does_not_change_the_result() {
        let g = chain(12);
        let node = tight_node(&g, 0.5);
        let table = LayerCostTable::from_graph(&g, 4, &node, &MemoryParams::exact());
        let mut plain = OptConfig::fast(4);
        plain.memoize = false;
        let mut memo = plain.clone();
        memo.memoize = true;
        assert_eq!(
            optimize_blocking(&table, &plain),
            optimize_blocking(&table, &memo)
        );
    }

    #[test]
    fn single_layer_model_is_one_block() {
        // chain(0) is just the input layer: n_layers = 1.
        let g = chain(0);
        let node = tight_node(&chain(4), 2.0); // any roomy device
        let table = LayerCostTable::from_graph(&g, 1, &node, &MemoryParams::exact());
        assert_eq!(optimize_blocking(&table, &OptConfig::fast(3)), vec![0]);
    }

    #[test]
    fn refine_recompute_invariant_to_thread_count() {
        // The speculative parallel sweeps must reproduce the serial greedy
        // accept order bit-for-bit at any pool width.
        let g = chain(10);
        let node = tight_node(&g, 0.4);
        let table = LayerCostTable::from_graph(&g, 4, &node, &MemoryParams::exact());
        let bounds = optimize_blocking(&table, &OptConfig::fast(6));
        let costs = table.block_costs(&bounds);
        rayon::set_num_threads(1);
        let serial = refine_recompute(&costs);
        rayon::set_num_threads(4);
        let parallel = refine_recompute(&costs);
        rayon::set_num_threads(0); // restore auto sizing
        assert_eq!(serial, parallel);
    }

    #[test]
    fn recompute_respects_constraint_10_1() {
        // Swap faster than compute for every block: nothing may flip.
        let costs = BlockCosts {
            forward: vec![1.0; 4],
            backward: vec![1.0; 4],
            act_bytes: vec![10; 4],
            swap_bytes: vec![10; 4],
            boundary_bytes: vec![0; 4],
            transient_bytes: vec![0; 4],
            state_bytes: vec![0; 4],
            grad_bytes: vec![0; 4],
            params: vec![0; 4],
            swap_bw: 1000.0, // swap time = 0.01 s << 1 s forward
            act_capacity: 25,
            batch: 1,
        };
        let rc = refine_recompute(&costs);
        assert!(rc.iter().all(|&r| !r));
    }
}
