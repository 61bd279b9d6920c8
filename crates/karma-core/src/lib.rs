//! KARMA's core contribution (Wahib et al., SC '20, Sec. III).
//!
//! Given a model graph, a profiled batch size and a node description, the
//! planner derives an out-of-core training schedule in the paper's five
//! steps (Fig. 1):
//!
//! 1. **Metadata extraction** — [`cost::BlockCosts`] aggregates per-layer
//!    compute times (Sec. III-C formulas) and memory decompositions
//!    (Sec. III-D) over candidate blocks;
//! 2. **Occupancy model** — [`occupancy`] implements Eqs. 1–8: buffer-based
//!    occupancy, the swap-throughput bound (Eq. 4) and the catch-up
//!    crossover θ (Eq. 7);
//! 3. **Optimization problem 1** — [`opt`] searches contiguous blockings
//!    for maximum occupancy subject to device capacity (constraints
//!    9.1–9.4), using the ACO solver (`karma-solver`, MIDACO substitute)
//!    seeded by an exact DP on a separable surrogate;
//! 4. **Optimization problem 2** — [`opt::refine_recompute`] flips blocks to
//!    redundant recompute when recomputing fills pipeline stalls
//!    (constraint 10.1);
//! 5. **Execution plan generation** — [`plan`] (the op-level IR with the
//!    paper's `F1 → F2‖Sout1 → …` notation) built by [`capacity`]
//!    (Algorithm 1: the capacity-based schedule, Fig. 2 (b)/(c)), lowered
//!    onto the event simulator by [`lower`] and toward the real
//!    out-of-core executor by [`bridge`], whose output is the
//!    [`program`] the executor runs (consumed by `karma-runtime`).
//!
//! The one-call facade is [`planner::Karma`].
//!
//! **Workspace position:** the convergence point of the analysis stack —
//! combines `karma-graph` (model IR), `karma-hw` (node specs), `karma-sim`
//! (event simulation) and `karma-solver` (search); everything downstream
//! (`karma-zoo` presets, `karma-baselines`, `karma-dist`, `karma-bench`)
//! consumes its plans.

pub mod bridge;
pub mod capacity;
pub mod codegen;
pub mod cost;
pub mod lower;
pub mod occupancy;
pub mod opt;
pub mod plan;
pub mod planner;
pub mod program;

pub use bridge::{
    assign_tiers, lower_to_runtime, DistGroup, DistSchedule, LoweredPolicy, RuntimeLowerError,
    TierPolicy,
};
pub use capacity::{build_training_plan, CapacityPlanOptions};
pub use codegen::generate_training_script;
pub use cost::BlockCosts;
pub use lower::{simulate_plan, SimMetrics};
pub use occupancy::OccupancyModel;
pub use opt::{optimize_blocking, refine_recompute, OptConfig};
pub use plan::{OpKind, Plan, PlanOp};
pub use planner::{Karma, KarmaOptions, KarmaPlan};
pub use program::TransferProgram;
