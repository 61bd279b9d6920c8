//! Elastic fault-tolerant training on the planned path: pool churn,
//! re-sharding, and far-store checkpoint/restore.
//!
//! The paper's Sec. II-B argument for out-of-core data parallelism is
//! that every worker holds a *complete* replica, so the pool can shrink
//! (or grow) without losing the model. This module runs that recovery
//! story over the real lowered pipeline:
//!
//! * **Churn-safe phased exchange** — mid-step failures are injected into
//!   the data-parallel engine through a static [`FaultPlan`], so a worker
//!   dying between exchange groups resolves deterministically
//!   (complete-or-abort rule, documented there);
//! * **One lowering for every pool size** — [`ElasticDriver`] lowers the
//!   plan once, when it is built, through the existing `karma-core` bridge
//!   ([`lower_dist_plan`] / [`crate::bridge::lower_plan_tiered`]), and
//!   registers its [`ExchangeBuffers`] once. The per-worker schedule does
//!   not depend on the pool size, so whenever the pool shrinks *or grows*
//!   the same executor and [`ExchangeSchedule`] run the re-sharded pool
//!   from the next step; a plan that cannot lower surfaces as a typed
//!   [`ElasticError`] before any step runs, never a panic mid-swap;
//! * **Checkpoint/restore through the far store** — [`Checkpoint`]
//!   serializes model + step + data cursor with the workspace serde
//!   plumbing and parks the bytes in a [`TierStack`] slot, pricing the
//!   save like any other far-memory transfer. A restored run resumes at
//!   the checkpointed step (not step 0) and is **bitwise-identical** to
//!   an uninterrupted run from that step: parameters are copied verbatim
//!   (no arithmetic) and the f32 → JSON → f32 round trip is exact
//!   (shortest-round-trip float printing).
//!
//! The "RNG cursor" of a checkpoint is the dataset sample offset:
//! `SyntheticDataset` pre-generates its stream from a seeded ChaCha RNG,
//! so a position in the stream *is* the RNG state.

use karma_core::plan::Plan;
use karma_tensor::{Sequential, SyntheticDataset, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::bridge::{lower_dist_plan, lower_plan_tiered, BridgeError};
use crate::dp::{
    train_churn, ChurnConfig, ExchangeBuffers, ExchangeSchedule, FaultPlan, Lanes, WorkerFailure,
    Workers,
};
use crate::exec::OocExecutor;
use crate::store::{TierSpec, TierStack};

// ------------------------------------------------------------ checkpoint

/// A far-store training checkpoint: everything needed to resume a run at
/// `step` bitwise-identically — the flat parameter snapshot (replicas are
/// bit-identical, so one suffices for the whole pool), the completed-step
/// count, the dataset cursor, and the pool size to rebuild.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Completed steps; a resumed run starts here.
    pub step: usize,
    /// Dataset sample offset of the next step's window (the RNG cursor:
    /// the synthetic stream is position-addressable).
    pub cursor: usize,
    /// Worker-pool size at save time.
    pub pool: usize,
    /// Flat [`Sequential::snapshot`] of the (identical) replicas.
    pub params: Vec<f32>,
}

impl Checkpoint {
    /// Capture a checkpoint from one replica of an identical pool.
    pub fn capture(net: &Sequential, step: usize, cursor: usize, pool: usize) -> Self {
        Checkpoint {
            step,
            cursor,
            pool,
            params: net.snapshot(),
        }
    }

    /// Serialized size in bytes (what the far-store slot will hold).
    pub fn bytes(&self) -> usize {
        serde_json::to_string(self)
            .expect("checkpoint serializes")
            .len()
            * 4
    }

    /// Serialize and park the checkpoint in `store` tier `tier`, slot
    /// `key`, replacing any previous checkpoint there. The write moves
    /// through the tier like any swap-out: capacity is enforced and the
    /// transfer is priced at the tier's copy passes.
    pub fn save(&self, store: &mut TierStack, tier: usize, key: usize) {
        if store.contains(tier, key) {
            store.swap_in(tier, key); // drop the stale checkpoint
        }
        let text = serde_json::to_string(self).expect("checkpoint serializes");
        let encoded: Vec<f32> = text.bytes().map(f32::from).collect();
        store.swap_out(tier, key, Tensor::from_vec(&[encoded.len()], encoded));
    }

    /// Fetch and deserialize the checkpoint at `store[tier][key]`,
    /// leaving the slot empty. Returns [`ElasticError::NoCheckpoint`] when
    /// the slot is empty and [`ElasticError::CorruptCheckpoint`] when it
    /// holds something that is not a checkpoint.
    pub fn load(store: &mut TierStack, tier: usize, key: usize) -> Result<Self, ElasticError> {
        if !store.contains(tier, key) {
            return Err(ElasticError::NoCheckpoint { tier, key });
        }
        let t = store.swap_in(tier, key);
        let bytes: Vec<u8> = t.data.iter().map(|&v| v as u8).collect();
        let text =
            String::from_utf8(bytes).map_err(|e| ElasticError::CorruptCheckpoint(e.to_string()))?;
        serde_json::from_str(&text).map_err(|e| ElasticError::CorruptCheckpoint(e.to_string()))
    }

    /// Rebuild the worker pool this checkpoint describes: resize `nets`
    /// to [`Checkpoint::pool`] replicas (spawning fresh ones with
    /// `spawn`) and restore every replica to the saved parameters.
    pub fn restore_pool(&self, nets: &mut Vec<Sequential>, spawn: &dyn Fn() -> Sequential) {
        nets.truncate(self.pool);
        while nets.len() < self.pool {
            nets.push(spawn());
        }
        for n in nets.iter_mut() {
            n.restore(&self.params);
        }
    }
}

// ---------------------------------------------------------------- events

/// A scheduled pool change. `step` is the global step index the event
/// applies at; `Fail` strikes *inside* that step, `Leave`/`Join` apply at
/// its start. Events at the same step apply in list order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolEvent {
    /// Worker `rank` dies mid-step after shipping `groups_shipped`
    /// exchange groups (the churn-safe path: [`FaultPlan`]'s
    /// complete-or-abort rule decides each group's averaging).
    Fail {
        /// Step the failure strikes in.
        step: usize,
        /// Rank in the pool at that step.
        rank: usize,
        /// Exchange groups shipped before dying.
        groups_shipped: usize,
    },
    /// Worker `rank` leaves cleanly before `step` runs (a between-steps
    /// shrink). Ignored when it would empty the pool: the sole survivor
    /// keeps training.
    Leave {
        /// Step the departure precedes.
        step: usize,
        /// Rank in the pool at that point.
        rank: usize,
    },
    /// `joiners` fresh replicas join before `step` runs, restored
    /// bitwise from a survivor's snapshot (pool growth).
    Join {
        /// Step the arrivals precede.
        step: usize,
        /// Number of replicas joining.
        joiners: usize,
    },
}

impl PoolEvent {
    fn step(&self) -> usize {
        match *self {
            PoolEvent::Fail { step, .. }
            | PoolEvent::Leave { step, .. }
            | PoolEvent::Join { step, .. } => step,
        }
    }
}

// ---------------------------------------------------------------- errors

/// Why an elastic run cannot proceed — the typed surface for infeasible
/// pools and broken recovery state.
#[derive(Debug, Clone, PartialEq)]
pub enum ElasticError {
    /// The pool is (or would become) empty.
    EmptyPool,
    /// The plan did not lower when the driver was built, so a
    /// `workers`-wide pool cannot run (no pool size can).
    Lower {
        /// Pool size that asked for the lowered executor.
        workers: usize,
        /// The bridge's reason.
        source: BridgeError,
    },
    /// An event names a rank outside the pool it applies to.
    UnknownRank {
        /// Step of the offending event.
        step: usize,
        /// The rank it names.
        rank: usize,
        /// Pool size at that point.
        pool: usize,
    },
    /// A scheduled step's failures would leave no survivor.
    NoSurvivors {
        /// The step in question.
        step: usize,
    },
    /// The dataset cannot cover the remaining windows of the grown pool.
    DataExhausted {
        /// Samples the next phase needs (cursor included).
        needed: usize,
        /// Samples the dataset holds.
        available: usize,
    },
    /// A growth or resume event needs to spawn fresh replicas but no
    /// spawner was provided.
    NoSpawner,
    /// A far-store slot held bytes that do not decode as a checkpoint.
    CorruptCheckpoint(String),
    /// A far-store slot to load a checkpoint from holds nothing.
    NoCheckpoint {
        /// Tier of the empty slot.
        tier: usize,
        /// Key of the empty slot.
        key: usize,
    },
}

impl fmt::Display for ElasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticError::EmptyPool => write!(f, "worker pool is empty"),
            ElasticError::Lower { workers, source } => {
                write!(
                    f,
                    "the plan for a {workers}-worker pool did not lower: {source}"
                )
            }
            ElasticError::UnknownRank { step, rank, pool } => {
                write!(
                    f,
                    "event at step {step} names rank {rank} of a {pool}-worker pool"
                )
            }
            ElasticError::NoSurvivors { step } => {
                write!(f, "failures at step {step} would leave no survivor")
            }
            ElasticError::DataExhausted { needed, available } => {
                write!(
                    f,
                    "dataset exhausted: need {needed} samples, have {available}"
                )
            }
            ElasticError::NoSpawner => write!(f, "pool growth requires a replica spawner"),
            ElasticError::CorruptCheckpoint(e) => write!(f, "corrupt checkpoint: {e}"),
            ElasticError::NoCheckpoint { tier, key } => {
                write!(f, "no checkpoint in far-memory tier {tier} slot {key}")
            }
        }
    }
}

impl std::error::Error for ElasticError {}

// ---------------------------------------------------------------- driver

/// The one executor, exchange schedule and zero-copy buffer registration
/// every pool size runs on.
struct Lowered {
    exec: OocExecutor,
    xchg: ExchangeSchedule,
    bufs: ExchangeBuffers,
}

/// Drives elastic training: runs phased-exchange steps on one lowered
/// executor + exchange schedule, applies scheduled [`PoolEvent`]s
/// (re-sharding the pool between steps), and saves / resumes
/// [`Checkpoint`]s through a far-store tier.
///
/// The plan is per-worker — every worker holds a complete replica — so
/// the lowered schedule and the [`ExchangeBuffers`] spans do not depend
/// on the pool size. The driver lowers and registers **once**, when it is
/// built, and every pool size shares that value: a pool change only
/// re-shards the data and the exchange divisors, both owned by the
/// runtime. A plan that cannot lower is kept as its typed error and
/// surfaces from [`ElasticDriver::lower_for`] and [`ElasticDriver::run`]
/// before any step runs.
pub struct ElasticDriver {
    lowered: Result<Lowered, BridgeError>,
}

/// Knobs of one [`ElasticDriver::run`].
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// Samples per worker per step.
    pub per_worker: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Global steps to reach (a resumed run only executes the remainder).
    pub total_steps: usize,
    /// Scheduled pool changes.
    pub events: Vec<PoolEvent>,
    /// Save a checkpoint every `k` completed steps (and at every
    /// pool-change boundary in between) into the far-store slot below.
    pub checkpoint_every: Option<usize>,
    /// Far-store tier the checkpoints park in.
    pub checkpoint_tier: usize,
    /// Far-store key the checkpoints park at.
    pub checkpoint_key: usize,
}

impl ElasticOptions {
    /// Plain run: no events, no checkpoints.
    pub fn plain(per_worker: usize, lr: f32, total_steps: usize) -> Self {
        ElasticOptions {
            per_worker,
            lr,
            total_steps,
            events: Vec::new(),
            checkpoint_every: None,
            checkpoint_tier: 0,
            checkpoint_key: 0,
        }
    }
}

/// One constant-pool stretch of an elastic run, between hot swaps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseInfo {
    /// Global step the phase starts at.
    pub start_step: usize,
    /// Steps the phase ran.
    pub steps: usize,
    /// Pool size through the phase.
    pub workers: usize,
    /// Exchange messages the phase shipped.
    pub exchange_messages: usize,
    /// True when the phase ran with mid-step failures injected.
    pub faulty: bool,
}

/// Outcome of an [`ElasticDriver::run`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticReport {
    /// Global step the run started at (0, or the resumed checkpoint's).
    pub start_step: usize,
    /// Mean participant loss per executed step.
    pub losses: Vec<f32>,
    /// Pool size at each executed step's start.
    pub pool_sizes: Vec<usize>,
    /// Final parameters (identical across surviving replicas).
    pub final_snapshot: Vec<f32>,
    /// The constant-pool phases the run broke into.
    pub phases: Vec<PhaseInfo>,
    /// Pool changes the run hot-swapped across: the one lowered executor
    /// re-shards onto the new pool between steps (the initial pool is not
    /// counted).
    pub relowers: usize,
    /// How many of this run's lowerings (initial + hot swaps) were
    /// answered without running the lowering analysis. The driver lowers
    /// once, when it is built, so this is always `relowers + 1`.
    pub lower_cache_hits: usize,
    /// Checkpoints saved to the far store.
    pub checkpoints_saved: usize,
    /// Exchange groups that fell back to survivor-only averaging.
    pub aborted_groups: usize,
    /// Exchange groups that kept a dead worker's shipped contribution.
    pub completed_with_dead: usize,
    /// Exchange messages actually shipped.
    pub exchange_messages: usize,
    /// Gradient payload actually shipped.
    pub exchanged_bytes: usize,
    /// Highest per-worker near-memory residency across the run — the
    /// executed peak must survive every hot swap.
    pub peak_near_bytes: usize,
    /// Highest per-worker residency per far-memory tier across the run.
    pub peak_tier_bytes: Vec<usize>,
    /// Samples consumed (from the starting cursor).
    pub samples_consumed: usize,
    /// Dataset cursor after the last executed step.
    pub cursor: usize,
}

impl ElasticDriver {
    fn new(lowered: Result<(OocExecutor, ExchangeSchedule), BridgeError>) -> Self {
        ElasticDriver {
            lowered: lowered.map(|(exec, xchg)| {
                let bufs = ExchangeBuffers::register(&xchg, exec.boundaries(), exec.n_layers());
                Lowered { exec, xchg, bufs }
            }),
        }
    }

    /// Drive the planned path: lower `plan` once through
    /// [`lower_dist_plan`].
    pub fn from_plan(plan: Plan, boundaries: Vec<usize>, budget: usize, n_layers: usize) -> Self {
        Self::new(lower_dist_plan(&plan, &boundaries, budget, n_layers))
    }

    /// [`ElasticDriver::from_plan`] with swaps routed through a
    /// far-memory tier stack ([`crate::bridge::lower_plan_tiered`]), so
    /// the per-tier peak contracts ride through every pool change.
    pub fn from_plan_tiered(
        plan: Plan,
        boundaries: Vec<usize>,
        budget: usize,
        n_layers: usize,
        key_bytes: Vec<usize>,
        tiers: Vec<TierSpec>,
    ) -> Self {
        Self::new(
            lower_dist_plan(&plan, &boundaries, budget, n_layers).and_then(|(_, xchg)| {
                let exec =
                    lower_plan_tiered(&plan, &boundaries, budget, n_layers, &key_bytes, &tiers)?;
                Ok((exec, xchg))
            }),
        )
    }

    /// Drive a pre-built executor + exchange schedule with no planning.
    pub fn fixed(exec: OocExecutor, xchg: ExchangeSchedule) -> Self {
        Self::new(Ok((exec, xchg)))
    }

    /// Run the executor's transfers on `lanes` I/O lanes
    /// ([`OocExecutor::with_io_lanes`]); 0 keeps them inline on the
    /// compute thread. Results are bitwise-unchanged either way. Every
    /// worker of every pool size shares the one lane pool (each step
    /// publishes through its own slot store), and the pool is re-armed
    /// per step and poisoned by a mid-transfer panic exactly like
    /// [`ExchangeBuffers`].
    pub fn with_io_lanes(mut self, lanes: usize) -> Self {
        self.lowered = self.lowered.map(|l| Lowered {
            exec: l.exec.with_io_lanes(lanes),
            ..l
        });
        self
    }

    /// The lowered value a `workers`-wide pool runs on.
    fn lowered(&self, workers: usize) -> Result<&Lowered, ElasticError> {
        if workers == 0 {
            return Err(ElasticError::EmptyPool);
        }
        self.lowered.as_ref().map_err(|source| ElasticError::Lower {
            workers,
            source: source.clone(),
        })
    }

    /// The executor + exchange schedule a `workers`-wide pool runs: the
    /// one pair lowered at construction, whatever the pool size, or the
    /// construction's typed lowering error.
    pub fn lower_for(
        &self,
        workers: usize,
    ) -> Result<(OocExecutor, ExchangeSchedule), ElasticError> {
        let l = self.lowered(workers)?;
        Ok((l.exec.clone(), l.xchg.clone()))
    }

    /// Run elastic training to `opts.total_steps`, applying the
    /// scheduled events, re-sharding on every pool change, and
    /// checkpointing into `store`. `resume` starts from a previously
    /// saved checkpoint (at its step and cursor, with its pool and
    /// parameters) instead of step 0; events before the resumed step are
    /// skipped, since the checkpointed pool already reflects them.
    /// `spawn` builds fresh replicas for growth and resume; pass `None`
    /// when neither happens. A plan that did not lower fails here with
    /// [`ElasticError::Lower`] before `nets` or `store` are touched.
    pub fn run(
        &self,
        nets: &mut Vec<Sequential>,
        spawn: Option<&dyn Fn() -> Sequential>,
        data: &SyntheticDataset,
        opts: &ElasticOptions,
        store: &mut TierStack,
        resume: Option<&Checkpoint>,
    ) -> Result<ElasticReport, ElasticError> {
        let Lowered { exec, xchg, bufs } = self.lowered(resume.map_or(nets.len(), |ck| ck.pool))?;
        let mut step = 0usize;
        let mut cursor = 0usize;
        if let Some(ck) = resume {
            let spawn = spawn.ok_or(ElasticError::NoSpawner)?;
            ck.restore_pool(nets, spawn);
            step = ck.step;
            cursor = ck.cursor;
        }
        let start_cursor = cursor;

        let mut report = ElasticReport {
            start_step: step,
            losses: Vec::new(),
            pool_sizes: Vec::new(),
            final_snapshot: Vec::new(),
            phases: Vec::new(),
            relowers: 0,
            lower_cache_hits: 0,
            checkpoints_saved: 0,
            aborted_groups: 0,
            completed_with_dead: 0,
            exchange_messages: 0,
            exchanged_bytes: 0,
            peak_near_bytes: 0,
            peak_tier_bytes: Vec::new(),
            samples_consumed: 0,
            cursor,
        };

        while step < opts.total_steps {
            // Boundary events at this step (list order). A checkpoint at
            // step `s` is saved *before* the boundary events of step `s`
            // apply, so a resumed run replays them — including the ones
            // at its own start step.
            let mut changed = false;
            for ev in opts.events.iter().filter(|e| e.step() == step) {
                match *ev {
                    PoolEvent::Leave { rank, .. } => {
                        if rank >= nets.len() {
                            return Err(ElasticError::UnknownRank {
                                step,
                                rank,
                                pool: nets.len(),
                            });
                        }
                        // Never shrink below one worker.
                        if nets.len() > 1 {
                            nets.remove(rank);
                            changed = true;
                        }
                    }
                    PoolEvent::Join { joiners, .. } => {
                        if joiners > 0 {
                            let spawn = spawn.ok_or(ElasticError::NoSpawner)?;
                            let snapshot = nets[0].snapshot();
                            for _ in 0..joiners {
                                let mut fresh = spawn();
                                fresh.restore(&snapshot);
                                nets.push(fresh);
                            }
                            changed = true;
                        }
                    }
                    PoolEvent::Fail { .. } => {} // strikes inside the step
                }
            }
            report.relowers += usize::from(changed);

            // Mid-step failures scheduled for this step.
            let fails: Vec<WorkerFailure> = opts
                .events
                .iter()
                .filter_map(|e| match *e {
                    PoolEvent::Fail {
                        step: s,
                        rank,
                        groups_shipped,
                    } if s == step => Some(WorkerFailure {
                        step: 0, // relative to the single-step churn call
                        rank,
                        groups_shipped,
                    }),
                    _ => None,
                })
                .collect();
            for f in &fails {
                if f.rank >= nets.len() {
                    return Err(ElasticError::UnknownRank {
                        step,
                        rank: f.rank,
                        pool: nets.len(),
                    });
                }
            }
            if fails.len() >= nets.len() {
                return Err(ElasticError::NoSurvivors { step });
            }

            // Phase length: up to the next event, checkpoint mark, or the
            // end; a fault step runs alone (the fault plan is per-call).
            let phase_steps = if fails.is_empty() {
                let next_event = opts
                    .events
                    .iter()
                    .map(PoolEvent::step)
                    .filter(|&s| s > step)
                    .min()
                    .unwrap_or(opts.total_steps)
                    .min(opts.total_steps);
                let next_mark = match opts.checkpoint_every {
                    Some(k) if k > 0 => (step / k + 1) * k,
                    _ => usize::MAX,
                };
                next_event.min(next_mark).max(step + 1) - step
            } else {
                1
            };

            let needed = cursor + opts.per_worker * nets.len() * phase_steps;
            if needed > data.len() {
                return Err(ElasticError::DataExhausted {
                    needed,
                    available: data.len(),
                });
            }

            let cfg = ChurnConfig {
                offset: cursor,
                per_worker: opts.per_worker,
                lr: opts.lr,
                steps: phase_steps,
            };
            let faults = FaultPlan::new(fails.clone());
            // The shared pool, not one device per worker: on a 2-vCPU
            // host a conv-stack worker held to one lane runs its forward
            // at half speed for stretches of steps, and only the shared
            // pool lets the other lane take strips off it (ROADMAP,
            // `churn-tiered`).
            let workers = Workers {
                faults: &faults,
                lanes: Lanes::Shared,
            };
            let (phase, dead) = train_churn(nets, exec, xchg, bufs, data, &cfg, workers);
            for &i in dead.iter().rev() {
                nets.remove(i);
            }

            report.phases.push(PhaseInfo {
                start_step: step,
                steps: phase_steps,
                workers: phase.pool_sizes[0],
                exchange_messages: phase.dp.exchange_messages,
                faulty: !fails.is_empty(),
            });
            report.losses.extend(phase.dp.losses);
            report.pool_sizes.extend(phase.pool_sizes);
            report.aborted_groups += phase.aborted_groups;
            report.completed_with_dead += phase.completed_with_dead;
            report.exchange_messages += phase.dp.exchange_messages;
            report.exchanged_bytes += phase.dp.exchanged_bytes;
            report.peak_near_bytes = report.peak_near_bytes.max(phase.dp.peak_near_bytes);
            if report.peak_tier_bytes.len() < phase.dp.peak_tier_bytes.len() {
                report
                    .peak_tier_bytes
                    .resize(phase.dp.peak_tier_bytes.len(), 0);
            }
            for (p, s) in report
                .peak_tier_bytes
                .iter_mut()
                .zip(&phase.dp.peak_tier_bytes)
            {
                *p = (*p).max(*s);
            }
            cursor += phase.samples_consumed;
            step += phase_steps;

            // A fault shrank the pool: the next step re-shards.
            if !fails.is_empty() && step < opts.total_steps {
                report.relowers += 1;
            }

            // Checkpoint at every phase boundary on or past a mark.
            if let Some(k) = opts.checkpoint_every {
                if k > 0 && step.is_multiple_of(k) && step < opts.total_steps {
                    Checkpoint::capture(&nets[0], step, cursor, nets.len()).save(
                        store,
                        opts.checkpoint_tier,
                        opts.checkpoint_key,
                    );
                    report.checkpoints_saved += 1;
                }
            }
        }

        report.final_snapshot = nets[0].snapshot();
        report.samples_consumed = cursor - start_cursor;
        report.cursor = cursor;
        report.lower_cache_hits = report.relowers + 1;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::train;
    use crate::exec::BlockPolicy;
    use karma_tensor::small_cnn;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::classification(512, 1, 16, 4, 33)
    }

    fn replicas(n: usize) -> Vec<Sequential> {
        (0..n).map(|_| small_cnn(4, 77)).collect()
    }

    fn spawn() -> Sequential {
        small_cnn(4, 77)
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

    fn fixed_driver(n_layers: usize) -> ElasticDriver {
        ElasticDriver::fixed(
            ooc_exec(n_layers),
            ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3),
        )
    }

    fn far_store() -> TierStack {
        TierStack::new(&[TierSpec::unbounded()])
    }

    #[test]
    fn plain_run_matches_the_direct_dp_path_bitwise() {
        let data = dataset();
        let mut nets = replicas(3);
        let exec = ooc_exec(nets[0].len());
        let xchg = ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3);
        let direct = train(&mut nets, &exec, &xchg, &data, 8, 0.05, 4);

        let driver = fixed_driver(replicas(1)[0].len());
        let mut elastic_nets = replicas(3);
        let mut store = far_store();
        let report = driver
            .run(
                &mut elastic_nets,
                None,
                &data,
                &ElasticOptions::plain(8, 0.05, 4),
                &mut store,
                None,
            )
            .expect("plain elastic run succeeds");

        assert_eq!(report.final_snapshot, direct.final_snapshot, "bit drift");
        assert_eq!(report.losses, direct.losses);
        assert_eq!(report.pool_sizes, vec![3, 3, 3, 3]);
        assert_eq!(report.relowers, 0);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.exchange_messages, direct.exchange_messages);
        assert_eq!(report.samples_consumed, 4 * 3 * 8);
    }

    #[test]
    fn churn_schedule_shrinks_grows_and_relowers() {
        let data = dataset();
        let driver = fixed_driver(replicas(1)[0].len());
        let mut nets = replicas(4);
        let mut store = far_store();
        let mut opts = ElasticOptions::plain(8, 0.05, 6);
        opts.events = vec![
            PoolEvent::Fail {
                step: 1,
                rank: 1,
                groups_shipped: 1,
            },
            PoolEvent::Leave { step: 3, rank: 0 },
            PoolEvent::Join {
                step: 4,
                joiners: 2,
            },
        ];
        let report = driver
            .run(&mut nets, Some(&spawn), &data, &opts, &mut store, None)
            .expect("churn run succeeds");

        // 4 workers; mid-step death at 1 -> 3; clean leave at 3 -> 2;
        // growth at 4 -> 4.
        assert_eq!(report.pool_sizes, vec![4, 4, 3, 2, 4, 4]);
        assert_eq!(nets.len(), 4);
        assert_eq!(report.relowers, 3, "fail, leave, and join each hot-swap");
        assert_eq!(
            report.lower_cache_hits,
            report.relowers + 1,
            "the one lowering answers the initial pool and every hot swap"
        );
        assert_eq!(report.completed_with_dead, 1);
        assert_eq!(report.aborted_groups, 1);
        assert!(report.phases.iter().any(|p| p.faulty));
        let stepped: usize = report.phases.iter().map(|p| p.steps).sum();
        assert_eq!(stepped, 6);
        // All replicas (including the joiners) end bit-identical.
        let head = nets[0].snapshot();
        for n in &nets[1..] {
            assert_eq!(n.snapshot(), head, "replica diverged");
        }
        assert_eq!(report.final_snapshot, head);
        // Samples: steps 0-1 at 4 workers, 2 at 3, 3 at 2, 4-5 at 4.
        assert_eq!(report.samples_consumed, 8 * (4 + 4 + 3 + 2 + 4 + 4));
    }

    #[test]
    fn io_lane_churn_runs_bitwise_match_the_synchronous_driver() {
        // The whole churn gauntlet — mid-step death, clean leave, growth —
        // run on asynchronous I/O lanes must land on the
        // synchronous driver's bits step for step.
        let data = dataset();
        let mut opts = ElasticOptions::plain(8, 0.05, 6);
        opts.events = vec![
            PoolEvent::Fail {
                step: 1,
                rank: 1,
                groups_shipped: 1,
            },
            PoolEvent::Leave { step: 3, rank: 0 },
            PoolEvent::Join {
                step: 4,
                joiners: 2,
            },
        ];
        let run = |driver: ElasticDriver| {
            let mut nets = replicas(4);
            let mut store = far_store();
            driver
                .run(&mut nets, Some(&spawn), &data, &opts, &mut store, None)
                .expect("churn run succeeds")
        };
        let sync = run(fixed_driver(replicas(1)[0].len()));
        let lanes = run(fixed_driver(replicas(1)[0].len()).with_io_lanes(2));
        assert_eq!(
            lanes.final_snapshot, sync.final_snapshot,
            "bit drift on I/O lanes"
        );
        assert_eq!(lanes.losses, sync.losses);
        assert_eq!(lanes.pool_sizes, sync.pool_sizes);
        assert_eq!(lanes.exchange_messages, sync.exchange_messages);
    }

    #[test]
    fn checkpoint_round_trips_through_the_far_store() {
        let net = small_cnn(4, 77);
        let ck = Checkpoint::capture(&net, 5, 120, 3);
        let mut store = far_store();
        ck.save(&mut store, 0, 9);
        assert!(store.contains(0, 9));
        let back = Checkpoint::load(&mut store, 0, 9).expect("checkpoint decodes");
        assert_eq!(back, ck, "far-store round trip must be exact");
        assert!(!store.contains(0, 9), "load drains the slot");
        // Saving twice into the same slot replaces, not panics.
        ck.save(&mut store, 0, 9);
        ck.save(&mut store, 0, 9);
        assert!(store.contains(0, 9));
    }

    #[test]
    fn resume_from_checkpoint_is_bitwise_identical_and_not_from_step_zero() {
        let data = dataset();
        let driver = fixed_driver(replicas(1)[0].len());
        let events = vec![
            PoolEvent::Fail {
                step: 3,
                rank: 2,
                groups_shipped: 1,
            },
            PoolEvent::Join {
                step: 5,
                joiners: 1,
            },
        ];

        // Uninterrupted run.
        let mut full_nets = replicas(3);
        let mut full_store = far_store();
        let mut opts = ElasticOptions::plain(8, 0.05, 6);
        opts.events = events.clone();
        opts.checkpoint_every = Some(2);
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
        assert!(full.checkpoints_saved >= 2);

        // Interrupted run: stop at step 4 (past the fault), keeping the
        // step-4 checkpoint in the store.
        let mut cut_nets = replicas(3);
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
        let ck = Checkpoint::load(&mut store, 0, 0).expect("checkpoint present");
        assert_eq!(ck.step, 4, "latest mark before the cut");
        assert_eq!(ck.pool, 2, "checkpoint reflects the shrunken pool");

        // Resume from a *fresh* pool — everything comes from the store.
        let mut resumed_nets: Vec<Sequential> = Vec::new();
        let resumed = driver
            .run(
                &mut resumed_nets,
                Some(&spawn),
                &data,
                &opts,
                &mut store,
                Some(&ck),
            )
            .expect("resumed run succeeds");

        assert_eq!(
            resumed.start_step, 4,
            "resume starts at the failed step, not 0"
        );
        assert_eq!(resumed.losses.len(), 2, "only the remaining steps execute");
        assert_eq!(resumed.losses, full.losses[4..]);
        assert_eq!(resumed.pool_sizes, full.pool_sizes[4..]);
        assert_eq!(
            resumed.final_snapshot, full.final_snapshot,
            "restored run must be bitwise-identical to the uninterrupted one"
        );
    }

    #[test]
    fn infeasible_events_surface_typed_errors() {
        let data = dataset();
        let driver = fixed_driver(replicas(1)[0].len());
        let mut store = far_store();

        let err = driver
            .run(
                &mut Vec::new(),
                None,
                &data,
                &ElasticOptions::plain(8, 0.05, 1),
                &mut store,
                None,
            )
            .unwrap_err();
        assert_eq!(err, ElasticError::EmptyPool);

        let mut opts = ElasticOptions::plain(8, 0.05, 2);
        opts.events = vec![PoolEvent::Fail {
            step: 0,
            rank: 7,
            groups_shipped: 0,
        }];
        let err = driver
            .run(&mut replicas(2), None, &data, &opts, &mut store, None)
            .unwrap_err();
        assert_eq!(
            err,
            ElasticError::UnknownRank {
                step: 0,
                rank: 7,
                pool: 2
            }
        );

        let mut opts = ElasticOptions::plain(8, 0.05, 2);
        opts.events = vec![
            PoolEvent::Fail {
                step: 0,
                rank: 0,
                groups_shipped: 0,
            },
            PoolEvent::Fail {
                step: 0,
                rank: 1,
                groups_shipped: 1,
            },
        ];
        let err = driver
            .run(&mut replicas(2), None, &data, &opts, &mut store, None)
            .unwrap_err();
        assert_eq!(err, ElasticError::NoSurvivors { step: 0 });

        let mut opts = ElasticOptions::plain(8, 0.05, 1);
        opts.events = vec![PoolEvent::Join {
            step: 0,
            joiners: 1,
        }];
        let err = driver
            .run(&mut replicas(1), None, &data, &opts, &mut store, None)
            .unwrap_err();
        assert_eq!(err, ElasticError::NoSpawner);

        // 512 samples cannot feed 2 workers x 8 per step for 100 steps.
        let err = driver
            .run(
                &mut replicas(2),
                None,
                &data,
                &ElasticOptions::plain(8, 0.05, 100),
                &mut store,
                None,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ElasticError::DataExhausted { available: 512, .. }
        ));
    }

    #[test]
    fn corrupt_far_store_slot_is_a_typed_error() {
        let mut store = far_store();
        store.swap_out(0, 3, Tensor::from_vec(&[2], vec![42.0, 1.0e9]));
        let err = Checkpoint::load(&mut store, 0, 3).unwrap_err();
        assert!(matches!(err, ElasticError::CorruptCheckpoint(_)));
    }

    #[test]
    fn empty_far_store_slot_is_a_typed_error() {
        let mut store = far_store();
        let err = Checkpoint::load(&mut store, 0, 4).unwrap_err();
        assert_eq!(err, ElasticError::NoCheckpoint { tier: 0, key: 4 });
        // The slot next to a saved checkpoint is still empty.
        Checkpoint::capture(&small_cnn(4, 77), 1, 8, 2).save(&mut store, 0, 3);
        let err = Checkpoint::load(&mut store, 0, 4).unwrap_err();
        assert_eq!(err, ElasticError::NoCheckpoint { tier: 0, key: 4 });
        assert!(store.contains(0, 3), "a failed load touches no other slot");
    }

    #[test]
    fn leave_never_empties_the_pool() {
        let data = dataset();
        let driver = fixed_driver(replicas(1)[0].len());
        let mut nets = replicas(1);
        let mut store = far_store();
        let mut opts = ElasticOptions::plain(8, 0.05, 2);
        opts.events = vec![PoolEvent::Leave { step: 1, rank: 0 }];
        let report = driver
            .run(&mut nets, None, &data, &opts, &mut store, None)
            .expect("sole survivor keeps training");
        assert_eq!(report.pool_sizes, vec![1, 1]);
        assert_eq!(report.relowers, 0);
    }

    /// A `workers`-wide run of `steps` steps on the fixed per-block
    /// protocol, with `events` applied.
    fn per_block_run(workers: usize, steps: usize, events: Vec<PoolEvent>) -> ElasticReport {
        let data = dataset();
        let n_layers = replicas(1)[0].len();
        let driver = ElasticDriver::fixed(ooc_exec(n_layers), ExchangeSchedule::per_block(3));
        let mut opts = ElasticOptions::plain(8, 0.05, steps);
        opts.events = events;
        driver
            .run(
                &mut replicas(workers),
                None,
                &data,
                &opts,
                &mut far_store(),
                None,
            )
            .expect("leave-only run succeeds")
    }

    #[test]
    fn tail_leaves_shrink_the_pool_and_training_continues() {
        let report = per_block_run(
            4,
            6,
            vec![
                PoolEvent::Leave { step: 2, rank: 3 },
                PoolEvent::Leave { step: 4, rank: 2 },
            ],
        );
        assert_eq!(report.pool_sizes, vec![4, 4, 3, 3, 2, 2]);
        assert_eq!(report.losses.len(), 6);
        // Still learning across the shrinks.
        assert!(report.losses.last().unwrap() < report.losses.first().unwrap());
    }

    #[test]
    fn head_leave_equals_tail_leave_under_identical_replicas() {
        // With bit-identical replicas the pool is symmetric: losing rank
        // 0 and losing rank 3 leave the same survivors after contiguous
        // renumbering, so training continues bit-identically either way.
        let head = per_block_run(4, 5, vec![PoolEvent::Leave { step: 2, rank: 0 }]);
        let tail = per_block_run(4, 5, vec![PoolEvent::Leave { step: 2, rank: 3 }]);
        assert_eq!(head.pool_sizes, vec![4, 4, 3, 3, 3]);
        assert_eq!(head.pool_sizes, tail.pool_sizes);
        assert_eq!(head.final_snapshot, tail.final_snapshot);
        assert_eq!(head.losses, tail.losses);
    }
}
