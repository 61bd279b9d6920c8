//! Real out-of-core execution of KARMA-style schedules.
//!
//! The simulator (`karma-sim`) answers *how fast* a schedule runs; this
//! crate answers *whether it computes the right thing*, reproducing the
//! paper's accuracy-parity validation (Sec. IV-D) at laptop scale:
//!
//! * [`store`] — a budgeted **near-memory** arena plus a **far-memory**
//!   tier stack; every activation lives in exactly one of them and all
//!   movement is accounted (bytes, transfer counts, peak usage);
//! * [`exec::OocExecutor`] — runs a real `karma-tensor` training step under
//!   a hard near-memory budget, with the planner's per-block policies
//!   (resident / swap / recompute) and schedule, as the step-ordered
//!   transfer program `karma-core`'s lowering emits, which one swap engine
//!   interprets (inline, or on I/O lanes). Because layers are pure functions over
//!   explicitly saved inputs, the executed arithmetic is
//!   **bit-identical** to in-core training — the property the paper's
//!   accuracy experiments check empirically;
//! * [`dp`] — multi-worker data parallelism with the *grouped phased*
//!   gradient exchange and host-side update of Sec. III-G, implemented with
//!   real threads over zero-copy shared aggregation buffers
//!   ([`dp::ExchangeBuffers`]): gradients fold in place group-by-group as
//!   blocks finish backward, overlapping aggregation with the remaining
//!   backward/swap work, pinned bitwise against sequential single-thread
//!   oracles ([`dp::train_reference`], [`dp::train_churn_reference`]);
//! * [`bridge`] — the executable planning pipeline and the plan→runtime
//!   lowering: [`bridge::plan_net`] profiles, searches and plans a model
//!   for its executable net, and a validated `karma-core` `Plan` becomes
//!   an [`exec::OocExecutor`] holding its transfer program (policies,
//!   eviction order, prefetch steps, boundary trips) plus, for distributed plans, the
//!   [`dp::ExchangeSchedule`] its `AR`/`U` ops prescribe — with residency
//!   and exchange replays predicting the executed trajectory, message
//!   count, and shipped bytes exactly (the residency replay,
//!   [`bridge::ResidencyReplay::of`], folds any lowered executor's
//!   transfer program, on its own tiers and I/O lanes);
//! * [`elastic`] — fault-tolerant training on the planned path: mid-step
//!   worker death resolved by [`dp`]'s deterministic complete-or-abort
//!   rule, one executor and exchange schedule lowered once and re-sharded
//!   on every pool shrink or growth, and far-store checkpoint/restore
//!   with bitwise-identical resume.
//!
//! **Workspace position:** the execution-side top layer over
//! `karma-tensor`. The parity-critical modules ([`store`], [`exec`],
//! [`dp`]) use none of the analysis stack's models, so parity results
//! cannot be contaminated by the models they validate: [`exec`] takes
//! only `karma-core`'s plain-data lowering output (the
//! `TransferProgram` that `lower_to_runtime` emits, whose per-block
//! policy is [`BlockPolicy`] and whose events are [`ExecEvent`]). Only
//! [`bridge`] links the analysis crates (`karma-core`, `karma-sim`,
//! `karma-graph`, `karma-hw`): it runs the profile → search → plan
//! pipeline ([`bridge::plan_net`]) and consumes the plans it yields.

pub mod bridge;
pub mod dp;
pub mod elastic;
pub mod exec;
pub mod store;

pub use bridge::{
    block_grad_bytes, expected_exchange, expected_exchange_timing, expected_residency,
    expected_swap_timing, graph_boundaries_to_net, lower_dist_plan, lower_plan, lower_plan_tiered,
    plan_net, BridgeError, ExchangeReplay, ExchangeTiming, NetPlan, ResidencyReplay, SwapTiming,
    SwapTransfer,
};
pub use dp::{
    train, train_churn_reference, train_reference, train_with_buffers, ChurnConfig,
    DataParallelReport, ExchangeBuffers, ExchangeSchedule, FaultPlan, WorkerFailure,
};
pub use elastic::{
    Checkpoint, ElasticDriver, ElasticError, ElasticOptions, ElasticReport, PhaseInfo, PoolEvent,
};
pub use exec::{BlockPolicy, ExecEvent, OocExecutor, OocStats, ResidencySample};
pub use store::{NearMemory, SlotStore, TierSpec, TierStack};

#[cfg(test)]
mod program;
