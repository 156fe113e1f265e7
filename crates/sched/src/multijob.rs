//! The multi-job scheduler: every job's engine multiplexed over one shared
//! `Simulator`/`FlowNet`.
//!
//! Each running job is driven by an [`aiacc_trainer::JobDriver`], the same
//! per-job state machine the single-job [`aiacc_trainer::TrainingSim`]
//! runs — same compute schedule, same stream limits, same engine callbacks
//! — plus the scheduler's own iteration-boundary drain, which mirrors
//! `TrainingSim`'s. Its collectives run on a
//! [`aiacc_cluster::ClusterNet::subnet`] view of the shared physical fabric,
//! so concurrent jobs' flows contend inside one max-min allocation. With a
//! single job the event sequence degenerates to exactly the single-job path,
//! which is what makes the N=1 bit-identity guarantee hold.
//!
//! # One loop for batch and streaming
//!
//! Jobs arrive from an arrival source, one staged arrival at a time, and are
//! admitted into a pool of recycled job *slots*. A batch scenario is a
//! stream over a finite in-memory source — the workload's specs in
//! `(arrival, id)` order — with one slot per job; [`crate::stream`] feeds the
//! same loop from an open-loop generator or a trace file through a bounded
//! pool. The one difference is where finished outcomes go: a batch run keeps
//! them by job id for its [`MultiJobReport`], a streaming run folds them into
//! windowed metrics.
//!
//! # Failure model
//!
//! Node crashes from the fault plan are first-class events. When a node
//! crashes, its GPUs are quarantined in the [`GpuFreeList`] until the repair
//! event (if any) returns them, and every gang with a member on the node is
//! torn down: in-flight collectives cancelled, then the configured
//! [`RecoveryPolicy`] decides the job's fate — [`RecoveryPolicy::Restart`]
//! (checkpoint restart, re-place on healthy nodes),
//! [`RecoveryPolicy::Shrink`] (elastic continue on the surviving gang
//! members), or [`RecoveryPolicy::Fail`] (account the job as killed). Every
//! recovery pause is priced by the replayed timelines of
//! [`aiacc_trainer::recovery`], so multi-job crash accounting reconciles
//! with the single-job closed forms.
//!
//! Determinism argument for the shared event loop: the simulator delivers
//! events in `(time, schedule-order)` order; every event is routed to its
//! owning slot either by the scope stamped into its token's high bits
//! ([`aiacc_simnet::Simulator::set_token_scope`]) or by probing
//! `JobDriver::owns_flow`. Scopes carry the slot's *generation*, bumped on
//! every crash recovery and every departure past any generation whose
//! scope still has timers queued, so events from an aborted attempt or a
//! previous tenant can never leak into the current one. Crash
//! victims, fault broadcasts and the straggler detector visit running jobs
//! in job-id order. No routing decision depends on wall-clock, hashing, or
//! thread interleaving, so a scenario is a pure function of (cluster,
//! workload, policy, faults).

use std::collections::VecDeque;

use crate::error::SchedError;
use crate::placement::{try_place, PlacePolicy, Placement};
use crate::stream::{validate_spec, Acc, ArrivalSource, Snapshots, Windows};
use crate::workload::{JobSpec, Workload};
use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel, GpuFreeList, IterationTiming};
use aiacc_dnn::{zoo, DType, ModelProfile};
use aiacc_simnet::trace::track;
use aiacc_simnet::{
    Event, FaultPhase, FaultPlan, FaultRecord, FaultTarget, FlowId, SimDuration, SimTime,
    Simulator, SolverStats, Token,
};
use aiacc_trainer::recovery::{replay_elastic_join, replay_failure_recovery, RecoveryConfig};
use aiacc_trainer::{comm_stream_limits, ComputeAttempt, Framework, JobDriver};

/// Unscoped timer kind announcing the staged arrival (`a` = job id).
const ARRIVAL_KIND: u32 = 10;
/// Scoped timer kind marking a job's iteration boundary (`b` = iteration).
const BOUNDARY_KIND: u32 = 11;
/// Unscoped timer kind for a node crash (`a` = node).
const CRASH_KIND: u32 = 12;
/// Unscoped timer kind for a node repair (`a` = node).
const REPAIR_KIND: u32 = 13;
/// Unscoped timer kind re-queueing a restarted job after its checkpoint
/// restore completes (`a` = slot, `b` = the slot generation it belongs to).
const REQUEUE_KIND: u32 = 14;
/// Scoped timer kind resuming a shrunken gang after its elastic-join pause.
const RESUME_KIND: u32 = 15;

/// EWMA weight of the newest iteration sample in the straggler detector.
const EWMA_ALPHA: f64 = 0.5;
/// Floor on the synthetic NIC-health capacity ratio a mitigation reports —
/// the stream pool never collapses below a quarter of its configured size.
const MITIGATION_FLOOR: f64 = 0.25;
/// The largest slot pool that leaves two generations in the 16-bit token
/// scope. A batch scenario gets one slot per job up to this size; beyond
/// it, a job waits for a slot only while this many jobs are running or
/// suspended at once.
pub(crate) const MAX_SLOTS: usize = 0xFFFF / 2;

/// What to do with a job whose gang lost a node to a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Checkpoint restart: pay a replayed
    /// [`aiacc_trainer::recovery::replay_failure_recovery`] pause, then
    /// re-place the full gang on healthy nodes and retry the interrupted
    /// iteration (completed iterations are checkpointed).
    Restart,
    /// Elastic continue: the surviving gang members keep their GPUs, pay a
    /// replayed [`aiacc_trainer::recovery::replay_elastic_join`]
    /// membership-change pause (the rebuild cost is symmetric in join and
    /// leave), and resume on a ring rebuilt over the shrunken subnet. A gang
    /// with no survivors falls back to [`RecoveryPolicy::Restart`].
    Shrink,
    /// Kill the job and account it as failed in the cluster metrics.
    Fail,
}

impl RecoveryPolicy {
    /// The policy's CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Restart => "restart",
            RecoveryPolicy::Shrink => "shrink",
            RecoveryPolicy::Fail => "fail",
        }
    }

    /// Looks a policy up by name.
    pub fn by_name(name: &str) -> Option<RecoveryPolicy> {
        match name {
            "restart" => Some(RecoveryPolicy::Restart),
            "shrink" => Some(RecoveryPolicy::Shrink),
            "fail" => Some(RecoveryPolicy::Fail),
            _ => None,
        }
    }
}

/// Configuration of one multi-job scenario.
#[derive(Debug, Clone)]
pub struct MultiJobCfg {
    /// The shared physical cluster.
    pub cluster: ClusterSpec,
    /// Gang placement policy.
    pub policy: PlacePolicy,
    /// The jobs to run.
    pub workload: Workload,
    /// Framework adapter applied to every job.
    pub framework: Framework,
    /// Compute jitter amplitude (fraction).
    pub jitter_frac: f64,
    /// Fault plan on the *physical* cluster: node-targeted link faults
    /// resolve to that node's NIC, straggler windows slow the node's
    /// compute, and crashes take the node (and every gang on it) down until
    /// the repair event.
    pub faults: FaultPlan,
    /// What happens to a gang that loses a node.
    pub recovery: RecoveryPolicy,
    /// When `Some(threshold)`, the straggler detector flags a running job
    /// whose iteration-time slowdown (EWMA over its own fastest iteration)
    /// exceeds `threshold ×` the cluster-median slowdown, and feeds a
    /// synthetic NIC-health record to that job's engine so AIACC's stream
    /// pool scales down on the degraded gang.
    pub straggler_threshold: Option<f64>,
    /// Records a structured trace (one lane per job).
    pub trace: bool,
}

impl MultiJobCfg {
    /// A scenario with TrainingSim-matching defaults (PyTorch, 2 % jitter,
    /// no faults, restart recovery, no straggler mitigation, no trace).
    pub fn new(cluster: ClusterSpec, policy: PlacePolicy, workload: Workload) -> Self {
        MultiJobCfg {
            cluster,
            policy,
            workload,
            framework: Framework::PyTorch,
            jitter_frac: 0.02,
            faults: FaultPlan::new(),
            recovery: RecoveryPolicy::Restart,
            straggler_threshold: None,
            trace: false,
        }
    }

    /// Installs a fault plan (link faults, straggler windows, crashes).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the crash-recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables the straggler detector with the given relative threshold
    /// (e.g. `1.25` flags jobs running 25 % slower than the cluster median
    /// slowdown).
    ///
    /// # Panics
    /// Panics if `threshold < 1.0`.
    pub fn with_straggler_mitigation(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "straggler threshold must be >= 1: {threshold}");
        self.straggler_threshold = Some(threshold);
        self
    }

    /// Enables structured tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// What happened to one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: usize,
    /// Model name.
    pub model: String,
    /// Gang size in GPUs.
    pub gpus: usize,
    /// Engine label.
    pub engine: String,
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// When the gang was placed and the first iteration began, seconds.
    pub start_secs: f64,
    /// When the last iteration's boundary passed (or the job was killed),
    /// seconds.
    pub finish_secs: f64,
    /// Physical nodes the gang occupied (its last placement).
    pub nodes_used: usize,
    /// Per-iteration durations, seconds. A crashed-and-retried iteration's
    /// duration includes the lost attempt and the recovery pause, exactly as
    /// in the single-job `TrainingSim`.
    pub iter_secs: Vec<f64>,
    /// Bytes this job's flows actually moved on the fabric (all epochs).
    pub comm_bytes_delivered: f64,
    /// Bytes this job's flows were launched to move (all epochs).
    pub comm_bytes_launched: f64,
    /// Node crashes that hit this job's gang.
    pub crashes: u32,
    /// Checkpoint restarts the job paid.
    pub restarts: u32,
    /// Elastic shrink operations the job paid.
    pub shrinks: u32,
    /// Total wall-clock spent in recovery pauses, seconds.
    pub recovery_secs: f64,
    /// Straggler mitigations applied to this job.
    pub mitigations: u32,
    /// Whether the job was killed (crash under [`RecoveryPolicy::Fail`], or
    /// no possible placement left after permanent capacity loss).
    pub failed: bool,
}

impl JobOutcome {
    /// Job completion time: finish − arrival.
    pub fn jct_secs(&self) -> f64 {
        self.finish_secs - self.arrival_secs
    }

    /// Time spent waiting in the queue: start − arrival (clamped at zero —
    /// the simulator snaps arrival timestamps to its nanosecond grid, which
    /// can land a hair before the requested float instant).
    pub fn queue_delay_secs(&self) -> f64 {
        (self.start_secs - self.arrival_secs).max(0.0)
    }

    /// Mean iteration duration, seconds (0 for a job killed before its
    /// first iteration boundary).
    pub fn mean_iter_secs(&self) -> f64 {
        if self.iter_secs.is_empty() {
            return 0.0;
        }
        self.iter_secs.iter().sum::<f64>() / self.iter_secs.len() as f64
    }

    /// The TSV header matching [`JobOutcome::tsv_row`].
    pub fn tsv_header() -> &'static str {
        "id\tmodel\tgpus\tengine\tarrival_s\tstart_s\tfinish_s\tjct_s\tqueue_s\tnodes\tmean_iter_s\
         \tcrashes\trestarts\tshrinks\trecovery_s\tmitigations\tfailed"
    }

    /// One deterministic TSV row (fixed 9-digit float precision, no trailing
    /// newline) — shared by the batch `schedule` renderer and the streaming
    /// per-job output, so the two paths are directly diffable.
    pub fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{}\t{:.9}\t{}\t{}\t{}\t{:.9}\t{}\t{}",
            self.id,
            self.model,
            self.gpus,
            self.engine,
            self.arrival_secs,
            self.start_secs,
            self.finish_secs,
            self.jct_secs(),
            self.queue_delay_secs(),
            self.nodes_used,
            self.mean_iter_secs(),
            self.crashes,
            self.restarts,
            self.shrinks,
            self.recovery_secs,
            self.mitigations,
            self.failed as u8,
        )
    }
}

/// Result of one multi-job scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiJobReport {
    /// The placement policy that ran.
    pub policy: PlacePolicy,
    /// Per-job outcomes, by job id.
    pub jobs: Vec<JobOutcome>,
    /// Last finish minus first arrival, seconds.
    pub makespan_secs: f64,
    /// Mean NIC transmit utilization over the makespan across all nodes.
    pub fabric_utilization: f64,
    /// Cumulative fluid-solver counters for the whole scenario. Diagnostic
    /// only — not part of any TSV rendering, and the `par_*` fields vary
    /// with the solver worker count.
    pub solver: SolverStats,
}

/// Iteration progress of one job; kept across checkpoint restarts.
struct Progress {
    iter: u64,
    iter_secs: Vec<f64>,
    started_at: SimTime,
    iter_start: SimTime,
}

/// One placed gang's execution state.
struct RunningJob {
    placement: Placement,
    driver: JobDriver,
    timing: IterationTiming,
    last_bwd: SimTime,
    /// Between comm-done and the iteration boundary: the job's events are
    /// dropped, as in `TrainingSim`'s drain.
    draining: bool,
}

/// One admitted job.
struct JobRun {
    spec: JobSpec,
    model: ModelProfile,
    /// `None` while suspended: restoring a checkpoint under
    /// [`RecoveryPolicy::Restart`], then waiting to be re-placed.
    running: Option<Box<RunningJob>>,
    progress: Progress,
    /// Every token scope this job has used, for byte accounting across
    /// restarts.
    scopes: Vec<u32>,
    crashes: u32,
    restarts: u32,
    shrinks: u32,
    recovery_secs: f64,
    mitigations: u32,
    /// EWMA of iteration seconds (straggler detector).
    ewma_iter: Option<f64>,
    /// Fastest iteration seen so far (the job's own healthy baseline).
    best_iter: Option<f64>,
    /// Whether a synthetic NIC-health mitigation is currently applied.
    mitigated: bool,
    /// Capacity the active mitigation advertised (for the restore record).
    mitigation_cap: f64,
}

impl JobRun {
    /// A freshly admitted job at `now`, before its first placement.
    fn new(spec: JobSpec, now: SimTime) -> JobRun {
        JobRun {
            model: zoo::by_name(&spec.model).expect("spec validated at emission"),
            spec,
            running: None,
            progress: Progress { iter: 0, iter_secs: Vec::new(), started_at: now, iter_start: now },
            scopes: Vec::new(),
            crashes: 0,
            restarts: 0,
            shrinks: 0,
            recovery_secs: 0.0,
            mitigations: 0,
            ewma_iter: None,
            best_iter: None,
            mitigated: false,
            mitigation_cap: 0.0,
        }
    }

    /// The job's outcome on finishing at `t`; `bytes` is
    /// `(delivered, launched)` over every scope it ran under.
    fn into_outcome(
        self,
        t: SimTime,
        nodes_used: usize,
        bytes: (f64, f64),
        failed: bool,
    ) -> JobOutcome {
        JobOutcome {
            id: self.spec.id,
            engine: self.spec.engine.label().to_string(),
            model: self.spec.model,
            gpus: self.spec.gpus,
            arrival_secs: self.spec.arrival_secs,
            start_secs: self.progress.started_at.as_secs_f64(),
            finish_secs: t.as_secs_f64(),
            nodes_used,
            iter_secs: self.progress.iter_secs,
            comm_bytes_delivered: bytes.0,
            comm_bytes_launched: bytes.1,
            crashes: self.crashes,
            restarts: self.restarts,
            shrinks: self.shrinks,
            recovery_secs: self.recovery_secs,
            mitigations: self.mitigations,
            failed,
        }
    }
}

/// A recycled job slot.
pub(crate) struct Slot {
    /// Generation counter: bumped on every crash recovery and every
    /// departure, so events stamped with an older generation are dropped.
    pub(crate) epoch: u32,
    /// The tenant, `None` while the slot is vacant.
    job: Option<JobRun>,
}

/// FIFO backlog entry: a suspended slot awaiting re-placement, or an arrived
/// job not yet admitted to a slot.
enum QueueEntry {
    Slot(usize),
    Spec(JobSpec),
}

/// Where finished outcomes go.
pub(crate) enum Outcomes {
    /// Batch: kept by job id for the [`MultiJobReport`].
    Keep(Vec<Option<JobOutcome>>),
    /// Streaming: folded into the windowed metrics.
    Fold(Windows),
}

/// The multi-job scheduler/simulator.
pub struct MultiJobSim {
    pub(crate) cfg: MultiJobCfg,
    pub(crate) sim: Simulator,
    pub(crate) physical: ClusterNet,
    pub(crate) free: GpuFreeList,
    faults: FaultPlan,
    pub(crate) slots: Vec<Slot>,
    /// Modulus folding slot generations into the 16-bit scope space:
    /// `0xFFFF / nslots`.
    gen_mod: u32,
    /// Vacant slot indices, least recently vacated first, so a batch of at
    /// most `MAX_SLOTS` jobs never reuses a slot and a stream spreads reuse
    /// over the whole pool.
    pub(crate) free_slots: VecDeque<usize>,
    pub(crate) source: ArrivalSource,
    /// The one future arrival whose timer is in the event queue.
    pub(crate) staged: Option<JobSpec>,
    source_done: bool,
    /// FIFO backlog in arrival order.
    queue: VecDeque<QueueEntry>,
    /// Conservative lower bound on the smallest gang size in `queue` (only
    /// lowered on push, reset when the queue empties): the backfill walk is
    /// skipped whenever fewer GPUs than this are free.
    min_queued_gpus: usize,
    /// Conservative upper bound on the largest gang size in `queue` (only
    /// raised on push, reset when the queue empties): rules out hopeless
    /// entries without a walk.
    max_queued_gpus: usize,
    /// Repair events still scheduled to fire; while any remain, an
    /// unplaceable job keeps waiting instead of being declared impossible.
    pending_repairs: usize,
    /// Crash timers still in the event queue.
    pending_crashes: usize,
    pub(crate) acc: Acc,
    pub(crate) outcomes: Outcomes,
    pub(crate) snap: Snapshots,
}

impl MultiJobSim {
    /// Builds the scenario — physical resources, fault plan (link faults,
    /// crash/repair timers), the first arrival — after validating the
    /// config.
    pub fn try_new(mut cfg: MultiJobCfg) -> Result<Self, SchedError> {
        if cfg.workload.jobs.is_empty() {
            return Err(SchedError::EmptyWorkload);
        }
        let total = cfg.cluster.world_size();
        for (i, j) in cfg.workload.jobs.iter().enumerate() {
            if j.id != i {
                return Err(SchedError::NonDenseJobIds { index: i, id: j.id });
            }
            validate_spec(j, total)?;
        }
        validate_fault_nodes(&cfg)?;
        let njobs = cfg.workload.jobs.len();
        let source = ArrivalSource::finite(std::mem::take(&mut cfg.workload.jobs));
        let mut sim = MultiJobSim::assemble(
            cfg,
            source,
            njobs.min(MAX_SLOTS),
            Outcomes::Keep(vec![None; njobs]),
            Snapshots::default(),
        );
        sim.start_fresh()?;
        Ok(sim)
    }

    /// Builds the scenario, panicking on an invalid config (the fallible
    /// variant is [`MultiJobSim::try_new`]).
    ///
    /// # Panics
    /// Panics if [`MultiJobSim::try_new`] would return an error.
    pub fn new(cfg: MultiJobCfg) -> Self {
        MultiJobSim::try_new(cfg).unwrap_or_else(|e| panic!("invalid multi-job scenario: {e}"))
    }

    /// The simulator, fabric and an empty slot pool; nothing is scheduled
    /// yet (see [`MultiJobSim::start_fresh`]). `nslots` must be in
    /// `1..=MAX_SLOTS`.
    pub(crate) fn assemble(
        cfg: MultiJobCfg,
        source: ArrivalSource,
        nslots: usize,
        outcomes: Outcomes,
        snap: Snapshots,
    ) -> MultiJobSim {
        let mut sim = Simulator::new();
        if cfg.trace {
            sim.enable_tracing();
        }
        let physical = ClusterNet::build(&cfg.cluster, sim.net_mut());
        let free = GpuFreeList::new(&cfg.cluster);
        let faults = cfg.faults.resolve_links(|n| {
            vec![physical.node_tx_resource(n as usize), physical.node_rx_resource(n as usize)]
        });
        MultiJobSim {
            cfg,
            sim,
            physical,
            free,
            faults,
            slots: (0..nslots).map(|_| Slot { epoch: 0, job: None }).collect(),
            gen_mod: (0xFFFF / nslots) as u32,
            free_slots: (0..nslots).collect(),
            source,
            staged: None,
            source_done: false,
            queue: VecDeque::new(),
            min_queued_gpus: usize::MAX,
            max_queued_gpus: 0,
            pending_repairs: 0,
            pending_crashes: 0,
            acc: Acc::new(),
            outcomes,
            snap,
        }
    }

    /// Installs the fault plan, stages the first arrival and schedules the
    /// crash/repair timers.
    pub(crate) fn start_fresh(&mut self) -> Result<(), SchedError> {
        self.sim.install_faults(&self.faults);
        let first = self.source.next()?.ok_or_else(|| serr("arrival source produced no jobs"))?;
        validate_spec(&first, self.cfg.cluster.world_size())?;
        self.stage(first);
        for (node, at, repair) in self.faults.crash_spans() {
            self.sim.schedule_at(at, Token::new(CRASH_KIND, node, 0));
            self.pending_crashes += 1;
            if let Some(up_at) = repair {
                self.sim.schedule_at(up_at, Token::new(REPAIR_KIND, node, 0));
                self.pending_repairs += 1;
            }
        }
        Ok(())
    }

    /// Schedules `spec`'s arrival timer and holds it as the staged arrival.
    pub(crate) fn stage(&mut self, spec: JobSpec) {
        self.sim.schedule_at(
            SimTime::from_secs_f64(spec.arrival_secs),
            Token::new(ARRIVAL_KIND, spec.id as u32, 0),
        );
        self.staged = Some(spec);
    }

    /// Records an instant on the trainer track's lane `tid` when tracing is
    /// on (the name is only formatted then).
    fn mark(
        &mut self,
        tid: u64,
        cat: &'static str,
        arg: Option<f64>,
        name: impl FnOnce() -> String,
    ) {
        if self.sim.tracing_enabled() {
            self.sim.trace_instant(track::TRAINER, tid, &name(), cat, arg);
        }
    }

    fn job(&self, slot: usize) -> &JobRun {
        self.slots[slot].job.as_ref().expect("occupied slot")
    }

    fn job_mut(&mut self, slot: usize) -> &mut JobRun {
        self.slots[slot].job.as_mut().expect("occupied slot")
    }

    /// The scope stamped on a slot's tokens and flows in its current
    /// generation: `1 + slot + (epoch mod gen_mod)·nslots` (scope 0 stays
    /// reserved for scheduler-level events). Stale events from an older
    /// generation are dropped on delivery by [`MultiJobSim::live_slot`], and
    /// per-tag byte accounting is re-zeroed on reuse (see
    /// [`MultiJobSim::record_scope`]).
    fn scope(&self, slot: usize) -> u32 {
        let nslots = self.slots.len();
        (1 + slot + (self.slots[slot].epoch % self.gen_mod) as usize * nslots) as u32
    }

    /// Inverts [`MultiJobSim::scope`]: the slot whose *current* generation
    /// owns `scope`, or `None` for a stale event of an earlier one.
    fn live_slot(&self, scope: u32) -> Option<usize> {
        let v = scope as usize - 1;
        let (slot, gen) = (v % self.slots.len(), (v / self.slots.len()) as u32);
        (gen == self.slots[slot].epoch % self.gen_mod).then_some(slot)
    }

    /// Moves the slot to its next generation, skipping any whose scope
    /// still has timers queued: a timer that outlives its generation (a
    /// stall watchdog backs off for seconds) can then never pass
    /// [`MultiJobSim::live_slot`] for a later one.
    ///
    /// # Panics
    /// Panics if every generation of the slot has timers queued.
    fn next_generation(&mut self, slot: usize) {
        for _ in 0..self.gen_mod {
            let s = &mut self.slots[slot];
            s.epoch = s.epoch.wrapping_add(1);
            if self.sim.timers_pending_in_scope(self.scope(slot)) == 0 {
                return;
            }
        }
        panic!("slot {slot}: all {} generations have timers queued", self.gen_mod);
    }

    /// Records the slot's current scope for the job's byte accounting. The
    /// tag's fabric accumulators are re-zeroed first, so a recycled tag
    /// starts counting from exactly `0.0` for its new owner (this also makes
    /// snapshot-resumed runs — whose fresh network starts all tags at zero —
    /// bit-identical to uninterrupted ones).
    fn record_scope(&mut self, slot: usize) {
        let s = self.scope(slot);
        let job = self.slots[slot].job.as_mut().expect("occupied slot");
        if !job.scopes.contains(&s) {
            self.sim.net_mut().reset_bytes_by_tag(s);
            job.scopes.push(s);
        }
    }

    /// Total GPUs on nodes that are currently up (free or occupied).
    fn up_capacity(&self) -> usize {
        (0..self.cfg.cluster.nodes)
            .filter(|&n| !self.free.node_is_down(n))
            .map(|n| self.cfg.cluster.gpus_on_node(n))
            .sum()
    }

    /// Whether a gang of `gpus` can never be placed again: it exceeds the
    /// up capacity and no repair is pending.
    fn hopeless(&self, gpus: usize) -> bool {
        self.pending_repairs == 0 && gpus > self.up_capacity()
    }

    /// Running slots in job-id order — the order crash victims, fault
    /// broadcasts and the straggler detector visit them.
    fn running_by_id(&self) -> Vec<usize> {
        let mut running: Vec<(usize, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| match &slot.job {
                Some(j) if j.running.is_some() => Some((j.spec.id, s)),
                _ => None,
            })
            .collect();
        running.sort_unstable();
        running.into_iter().map(|(_, s)| s).collect()
    }

    /// Admits `spec` into the least recently vacated slot if its gang can be
    /// placed right now, and starts its first iteration.
    fn try_admit(&mut self, spec: &JobSpec) -> bool {
        let Some(&slot) = self.free_slots.front() else { return false };
        let Some(placement) = try_place(self.cfg.policy, spec.gpus, &self.free) else {
            return false;
        };
        self.free_slots.pop_front();
        let now = self.sim.now();
        self.slots[slot].job = Some(JobRun::new(spec.clone(), now));
        self.start(slot, placement, "start");
        let active = self.slots.len() - self.free_slots.len();
        self.acc.peak_active = self.acc.peak_active.max(active);
        true
    }

    /// Re-places a suspended job if its gang fits right now, resuming at the
    /// interrupted iteration.
    fn try_resume(&mut self, slot: usize) -> bool {
        match try_place(self.cfg.policy, self.job(slot).spec.gpus, &self.free) {
            Some(placement) => {
                self.start(slot, placement, "restart");
                true
            }
            None => false,
        }
    }

    /// Commits `placement` for the slot's job and begins its pending
    /// iteration.
    fn start(&mut self, slot: usize, placement: Placement, what: &str) {
        placement.commit(&mut self.free);
        let running = self.build_running(slot, placement, self.sim.now(), false);
        let job = self.job_mut(slot);
        // A rebuilt engine starts with a clean NIC-health map.
        job.mitigated = false;
        job.running = Some(running);
        let id = self.job(slot).spec.id;
        self.mark(id as u64, "sched", None, || format!("job{id} {what}"));
        self.record_scope(slot);
        self.begin_iteration(slot);
    }

    /// A fresh engine, compute model and subnet view for the slot's job on
    /// `placement`.
    fn build_running(
        &self,
        slot: usize,
        placement: Placement,
        now: SimTime,
        draining: bool,
    ) -> Box<RunningJob> {
        let job = self.job(slot);
        let spec = &placement.spec;
        let engine = job.spec.engine.build(&job.model, spec.world_size());
        let compute = ComputeModel::new(spec.node.gpu.clone());
        let timing =
            compute.iteration_timing(&job.model, job.model.default_batch_per_gpu(), DType::F32);
        let limits = comm_stream_limits(&compute, spec, &job.model);
        let cluster = self.physical.subnet(spec.clone(), &placement.ranks);
        Box::new(RunningJob {
            driver: JobDriver::new(cluster, engine, limits),
            placement,
            timing,
            last_bwd: now,
            draining,
        })
    }

    /// Begins the slot's pending iteration under its token scope, so every
    /// timer and flow is stamped with its owner.
    fn begin_iteration(&mut self, slot: usize) {
        let scope = self.scope(slot);
        let now = self.sim.now();
        let job = self.slots[slot].job.as_mut().expect("occupied slot");
        let r = job.running.as_mut().expect("job not running");
        let attempt = ComputeAttempt {
            world: r.placement.spec.world_size(),
            seed: job.spec.seed,
            jitter_frac: self.cfg.jitter_frac,
            framework: self.cfg.framework,
            timing: &r.timing,
            iter: job.progress.iter,
        };
        let (phys_spec, faults, ranks) = (&self.cfg.cluster, &self.faults, &r.placement.ranks);
        self.sim.set_token_scope(scope);
        r.last_bwd = r.driver.begin_iteration(&mut self.sim, &attempt, |w| {
            faults.compute_factor(phys_spec.node_of(ranks[w]) as u32, now)
        });
        self.sim.set_token_scope(0);
        r.draining = false;
        if self.sim.tracing_enabled() {
            let name = format!("job{} iter {}", job.spec.id, job.progress.iter);
            self.sim.trace_span_begin(track::TRAINER, job.spec.id as u64, &name, "iteration");
        }
    }

    /// Mirrors `TrainingSim`'s post-event check: once the driver reports
    /// communication done, the iteration ends at
    /// `max(comm_done, last_bwd) + update` and the job drains until that
    /// boundary.
    fn check_comm_done(&mut self, slot: usize, t: SimTime) {
        let scope = self.scope(slot);
        let Some(job) = self.slots[slot].job.as_mut() else { return };
        let Some(r) = job.running.as_mut() else { return };
        if r.draining || !r.driver.comm_done() {
            return;
        }
        let end = t.max(r.last_bwd) + r.timing.update;
        r.draining = true;
        self.sim.set_token_scope(scope);
        self.sim.schedule_at(end, Token::new(BOUNDARY_KIND, slot as u32, job.progress.iter));
        self.sim.set_token_scope(0);
    }

    /// Handles a job's iteration boundary: record the duration, then either
    /// start the next iteration or complete the job and re-dispatch the
    /// queue.
    fn on_boundary(&mut self, slot: usize, t: SimTime) {
        let Some(job) = self.slots[slot].job.as_mut() else { return };
        let Some(r) = job.running.as_mut() else { return };
        let id = job.spec.id;
        let p = &mut job.progress;
        let last = (t - p.iter_start).as_secs_f64();
        p.iter_secs.push(last);
        job.best_iter = Some(job.best_iter.map_or(last, |b| b.min(last)));
        job.ewma_iter =
            Some(job.ewma_iter.map_or(last, |e| (1.0 - EWMA_ALPHA) * e + EWMA_ALPHA * last));
        if self.sim.tracing_enabled() {
            let name = format!("job{id} iter {}", p.iter);
            self.sim.trace_span_end(track::TRAINER, id as u64, &name, "iteration");
        }
        p.iter += 1;
        if (p.iter as usize) < job.spec.iterations {
            p.iter_start = t;
            self.begin_iteration(slot);
            self.run_straggler_detector();
            return;
        }
        // Job complete: tear down lingering flows so the fabric is clean for
        // the tenants that remain, free the gang, record the outcome.
        r.driver.abort(&mut self.sim);
        r.placement.release(&mut self.free);
        let nodes_used = r.placement.node_count();
        self.finish(slot, t, nodes_used, false);
        self.mark(id as u64, "sched", None, || format!("job{id} done"));
        self.dispatch();
    }

    /// Terminal accounting for a finished (completed or failed) job: the
    /// slot is vacated — its generation bumped so lingering events die — and
    /// the outcome delivered, its fabric bytes summed over every scope the
    /// job ran under.
    fn finish(&mut self, slot: usize, t: SimTime, nodes_used: usize, failed: bool) {
        let j = self.slots[slot].job.take().expect("occupied slot");
        self.next_generation(slot);
        self.free_slots.push_back(slot);
        let net = self.sim.net();
        let bytes = j.scopes.iter().fold((0.0, 0.0), |(d, l), &s| {
            (d + net.delivered_bytes_by_tag(s), l + net.launched_bytes_by_tag(s))
        });
        self.deliver(j.into_outcome(t, nodes_used, bytes, failed));
    }

    /// Fails an arrived-but-never-admitted spec (permanent capacity loss).
    fn fail_spec(&mut self, spec: JobSpec) {
        let (now, id) = (self.sim.now(), spec.id);
        self.mark(id as u64, "sched", None, || format!("job{id} failed"));
        self.deliver(JobRun::new(spec, now).into_outcome(now, 0, (0.0, 0.0), true));
    }

    fn deliver(&mut self, out: JobOutcome) {
        if let Outcomes::Keep(kept) = &mut self.outcomes {
            let id = out.id;
            kept[id] = Some(out);
        } else {
            crate::stream::fold_outcome(self, &out);
        }
    }

    /// Entries waiting in the backlog.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queues a backlog entry of `gpus` GPUs.
    fn enqueue(&mut self, entry: QueueEntry, gpus: usize) {
        self.min_queued_gpus = self.min_queued_gpus.min(gpus);
        self.max_queued_gpus = self.max_queued_gpus.max(gpus);
        self.queue.push_back(entry);
        self.acc.peak_backlog = self.acc.peak_backlog.max(self.queue.len());
    }

    /// FIFO dispatch with backfill: entries are tried in arrival order, and
    /// a blocked head does not starve smaller jobs behind it. Suspended
    /// slots are re-placed, waiting specs admitted, and an entry that can
    /// never fit again — its gang exceeds the up-node capacity and no
    /// repairs are pending — is failed deterministically instead of
    /// stalling the scenario forever.
    fn dispatch(&mut self) {
        let mut i = 0;
        // Refreshed after every successful start; placement cannot succeed
        // for a gang larger than the free-GPU total, and a spec cannot be
        // admitted with no vacant slot, so such entries are skipped with an
        // integer compare instead of a placement attempt — this keeps the
        // backfill walk cheap when a deep backlog queues behind a saturated
        // cluster.
        let mut free_gpus = self.free.total_free();
        // Nothing can be hopeless when every queued gang fits the up
        // capacity (or repairs are pending), and nothing can start once
        // fewer GPUs than the smallest queued gang are free — together these
        // end the walk early instead of touching every backlogged entry. The
        // bounds are conservative, so cutting the walk short is always sound.
        let no_hopeless = self.pending_repairs > 0 || self.max_queued_gpus <= self.up_capacity();
        // Placement is a pure function of (policy, gang size, free list),
        // and the free list only changes on a successful start — so once a
        // gang size has failed to place, every later entry of the same size
        // must fail too until something starts. Caching those sizes turns
        // the pathological fragmented regime (a few GPUs free that no queued
        // shape fits) from one placement attempt per backlogged entry into
        // one per distinct gang size.
        let mut failed_sizes: Vec<usize> = Vec::new();
        loop {
            if no_hopeless && self.min_queued_gpus > free_gpus {
                break;
            }
            let Some(entry) = self.queue.get(i) else {
                if self.queue.is_empty() {
                    self.min_queued_gpus = usize::MAX;
                    self.max_queued_gpus = 0;
                }
                break;
            };
            let (gpus, has_slot) = match entry {
                QueueEntry::Slot(s) => (self.job(*s).spec.gpus, true),
                QueueEntry::Spec(spec) => (spec.gpus, !self.free_slots.is_empty()),
            };
            // A cached size cannot be hopeless (its gpus fit the free total,
            // which never exceeds the up capacity), so skipping it is
            // exactly the attempt-and-requeue path minus the futile attempt.
            let blocked = gpus > free_gpus || !has_slot;
            if (blocked && !self.hopeless(gpus)) || (!blocked && failed_sizes.contains(&gpus)) {
                i += 1;
                continue;
            }
            let entry = self.queue.remove(i).expect("index checked");
            if blocked {
                self.fail_entry(entry);
                continue;
            }
            let started = match &entry {
                QueueEntry::Slot(s) => self.try_resume(*s),
                QueueEntry::Spec(spec) => self.try_admit(spec),
            };
            if started {
                free_gpus = self.free.total_free();
                failed_sizes.clear();
            } else if self.hopeless(gpus) {
                self.fail_entry(entry);
            } else {
                failed_sizes.push(gpus);
                self.queue.insert(i, entry);
                i += 1;
            }
        }
    }

    /// Fails a queued entry with no possible placement left (permanent
    /// capacity loss).
    fn fail_entry(&mut self, entry: QueueEntry) {
        match entry {
            QueueEntry::Slot(s) => self.fail_at(s, self.sim.now(), 0),
            QueueEntry::Spec(spec) => self.fail_spec(spec),
        }
    }

    /// Handles the staged arrival: stage and schedule the *successor* first
    /// (so its timer's sequence number precedes everything the current
    /// admission schedules), then admit or enqueue the current spec.
    fn on_arrival(&mut self) -> Result<(), SchedError> {
        let spec = self.staged.take().expect("ARRIVAL event with no staged spec");
        if !self.source_done {
            match self.source.next()? {
                Some(n) => {
                    validate_spec(&n, self.cfg.cluster.world_size())?;
                    if SimTime::from_secs_f64(n.arrival_secs)
                        < SimTime::from_secs_f64(spec.arrival_secs)
                    {
                        return Err(serr(format!(
                            "arrivals must be non-decreasing: job {} at {} after {}",
                            n.id, n.arrival_secs, spec.arrival_secs
                        )));
                    }
                    self.stage(n);
                }
                None => self.source_done = true,
            }
        }
        self.acc.emitted += 1;
        if !self.try_admit(&spec) {
            let gpus = spec.gpus;
            self.enqueue(QueueEntry::Spec(spec), gpus);
            self.dispatch();
        }
        Ok(())
    }

    /// A restarted job's checkpoint restore is over: queue it for
    /// re-placement. The token carries the generation it was scheduled for,
    /// so a re-queue cannot resume a *later* tenant of a recycled slot.
    fn on_requeue(&mut self, slot: usize, gen: u64) {
        let suspended = matches!(&self.slots[slot].job, Some(j) if j.running.is_none());
        if suspended && gen == (self.slots[slot].epoch % self.gen_mod) as u64 {
            let gpus = self.job(slot).spec.gpus;
            self.enqueue(QueueEntry::Slot(slot), gpus);
            self.dispatch();
        }
    }

    /// Handles a node crash: quarantine the node's GPUs, then tear down and
    /// recover (or fail) every gang with a member on it, in job-id order.
    fn on_crash(&mut self, node: usize, t: SimTime) {
        self.free.set_node_down(node);
        self.mark(u64::MAX, "fault", None, || format!("crash n{node}"));
        for slot in self.running_by_id() {
            let job = self.slots[slot].job.as_mut().expect("occupied slot");
            let cluster = &self.cfg.cluster;
            let hit = job
                .running
                .as_ref()
                .is_some_and(|r| r.placement.ranks.iter().any(|&g| cluster.node_of(g) == node));
            if !hit {
                continue;
            }
            job.crashes += 1;
            let mut r = job.running.take().expect("hit job is running");
            r.driver.abort(&mut self.sim);
            if self.sim.tracing_enabled() {
                // Close the open iteration span so traces stay balanced; the
                // retry re-opens it under the same name.
                let name = format!("job{} iter {}", job.spec.id, job.progress.iter);
                self.sim.trace_span_end(track::TRAINER, job.spec.id as u64, &name, "iteration");
            }
            match self.cfg.recovery {
                RecoveryPolicy::Fail => {
                    r.placement.release(&mut self.free);
                    self.fail_at(slot, t, r.placement.node_count());
                }
                RecoveryPolicy::Restart => self.restart_job(slot, r, t),
                RecoveryPolicy::Shrink => self.shrink_job(slot, r, node, t),
            }
        }
        // Capacity released by restarted/failed gangs can admit queued jobs.
        self.dispatch();
    }

    /// Kills the slot's job at `t`: a crash under [`RecoveryPolicy::Fail`],
    /// or a suspended job that can never be placed again.
    fn fail_at(&mut self, slot: usize, t: SimTime, nodes_used: usize) {
        let id = self.job(slot).spec.id;
        self.finish(slot, t, nodes_used, true);
        self.mark(id as u64, "sched", None, || format!("job{id} failed"));
    }

    /// Checkpoint restart ([`RecoveryPolicy::Restart`]): release the whole
    /// gang, pay the replayed restore pause, re-queue at the interrupted
    /// iteration. The crashed iteration's eventual duration spans the lost
    /// attempt, the pause and the re-run — the same accounting as the
    /// single-job `TrainingSim`.
    fn restart_job(&mut self, slot: usize, r: Box<RunningJob>, t: SimTime) {
        r.placement.release(&mut self.free);
        let job = self.slots[slot].job.as_mut().expect("occupied slot");
        let pause =
            replay_failure_recovery(&r.placement.spec, &job.model, RecoveryConfig::default())
                .total_secs;
        job.recovery_secs += pause;
        job.restarts += 1;
        let id = job.spec.id;
        self.next_generation(slot);
        let gen = self.slots[slot].epoch % self.gen_mod;
        self.sim.schedule_at(
            t + SimDuration::from_secs_f64(pause),
            Token::new(REQUEUE_KIND, slot as u32, gen as u64),
        );
        self.mark(id as u64, "recovery", Some(pause), || format!("job{id} checkpoint restore"));
    }

    /// Elastic shrink ([`RecoveryPolicy::Shrink`]): survivors keep their
    /// GPUs, the dead node's ranks are parked, the ring is rebuilt over the
    /// shrunken subnet after a replayed membership-change pause. Falls back
    /// to a full restart when the gang has no survivors.
    fn shrink_job(&mut self, slot: usize, r: Box<RunningJob>, node: usize, t: SimTime) {
        let (dead, alive): (Vec<usize>, Vec<usize>) =
            r.placement.ranks.iter().partition(|&&g| self.cfg.cluster.node_of(g) == node);
        if alive.is_empty() {
            self.restart_job(slot, r, t);
            return;
        }
        self.free.release(&dead);
        // Removing one physical node from a regular gang leaves a regular
        // gang: the per-logical-node counts stay `c, …, c, tail`.
        let old = &r.placement.spec;
        let counts: Vec<usize> = (0..old.nodes)
            .filter(|&ln| {
                self.cfg.cluster.node_of(r.placement.ranks[logical_base(old, ln)]) != node
            })
            .map(|ln| old.gpus_on_node(ln))
            .collect();
        let mut nodecfg = old.node.clone();
        let survivor_spec = if counts.len() == 1 {
            nodecfg.gpus_per_node = counts[0];
            ClusterSpec::new(1, nodecfg)
        } else {
            let c = counts[0];
            let tail = *counts.last().expect("non-empty");
            nodecfg.gpus_per_node = c;
            ClusterSpec::with_tail(counts.len(), nodecfg, if tail == c { 0 } else { tail })
        };
        debug_assert_eq!(survivor_spec.world_size(), alive.len());
        let pause = replay_elastic_join(
            &survivor_spec,
            &self.job(slot).model,
            1,
            RecoveryConfig::default(),
        )
        .total_secs;
        let survivors = Placement { spec: survivor_spec, ranks: alive };
        let running = self.build_running(slot, survivors, t, true);
        let job = self.job_mut(slot);
        job.recovery_secs += pause;
        job.shrinks += 1;
        job.mitigated = false;
        job.running = Some(running);
        let id = job.spec.id;
        self.next_generation(slot);
        self.record_scope(slot);
        let scope = self.scope(slot);
        self.sim.set_token_scope(scope);
        self.sim.schedule_at(
            t + SimDuration::from_secs_f64(pause),
            Token::new(RESUME_KIND, slot as u32, 0),
        );
        self.sim.set_token_scope(0);
        self.mark(id as u64, "recovery", Some(pause), || format!("job{id} elastic shrink"));
    }

    /// Handles a node repair: the node's parked GPUs return to the pool and
    /// the queue gets another chance.
    fn on_repair(&mut self, node: usize) {
        self.free.set_node_up(node);
        self.pending_repairs -= 1;
        self.mark(u64::MAX, "fault", None, || format!("repair n{node}"));
        self.dispatch();
    }

    /// The straggler detector: compare each running job's iteration-time
    /// slowdown (EWMA over its own fastest iteration) to the cluster median
    /// slowdown; flagged jobs get a synthetic NIC-health record so AIACC's
    /// stream-pool scaling kicks in, lifted again once the job recovers.
    fn run_straggler_detector(&mut self) {
        let Some(threshold) = self.cfg.straggler_threshold else { return };
        let mut slowdowns: Vec<(usize, f64)> = Vec::new();
        for slot in self.running_by_id() {
            let j = self.job(slot);
            if let (Some(ewma), Some(best)) = (j.ewma_iter, j.best_iter) {
                if best > 0.0 {
                    slowdowns.push((slot, ewma / best));
                }
            }
        }
        if slowdowns.len() < 2 {
            return; // a lone job has no cluster to be slower than
        }
        let mut vals: Vec<f64> = slowdowns.iter().map(|&(_, s)| s).collect();
        vals.sort_by(f64::total_cmp);
        let median = vals[vals.len() / 2];
        let base = self.cfg.cluster.node.nic.bytes_per_sec();
        for (slot, slowdown) in slowdowns {
            let flagged = slowdown > threshold * median;
            let job = self.job_mut(slot);
            let id = job.spec.id;
            // The advertised capacity ratio is the inverse relative
            // slowdown, floored at MITIGATION_FLOOR. Only the engine's
            // *belief* changes — the physical fabric is untouched — which is
            // exactly the NIC-health signal AIACC's stream-pool scaling
            // consumes.
            let (phase, before, after, name, arg) = if flagged && !job.mitigated {
                let scaled = base * (1.0 / (slowdown / median)).clamp(MITIGATION_FLOOR, 1.0);
                job.mitigated = true;
                job.mitigations += 1;
                job.mitigation_cap = scaled;
                let name = format!("job{id} straggler mitigation");
                (FaultPhase::Applied, base, scaled, name, Some(scaled / base))
            } else if !flagged && job.mitigated {
                job.mitigated = false;
                let name = format!("job{id} mitigation lifted");
                (FaultPhase::Restored, job.mitigation_cap, base, name, None)
            } else {
                continue;
            };
            let lead = job.running.as_ref().expect("running").placement.ranks[0];
            let rec = FaultRecord {
                resource: self.physical.node_tx_resource(self.cfg.cluster.node_of(lead)),
                phase,
                capacity_before: before,
                capacity_after: after,
            };
            self.mark(id as u64, "sched", arg, || name);
            self.on_job_event(slot, Event::Fault(rec), self.sim.now());
        }
    }

    /// Routes one event to the slot's job. Iteration boundaries and elastic
    /// resumes are the scheduler's; everything else goes to the job's
    /// driver, except that a draining job drops its timers and flow
    /// completions exactly like `TrainingSim::drain_to` (faults still reach
    /// the engine).
    fn on_job_event(&mut self, slot: usize, ev: Event, t: SimTime) {
        if let Event::Timer(tok) = ev {
            match tok.base_kind() {
                BOUNDARY_KIND => return self.on_boundary(slot, t),
                RESUME_KIND => {
                    // The elastic-join pause is over: restart the interrupted
                    // iteration on the shrunken gang.
                    let id = self.job(slot).spec.id;
                    self.mark(id as u64, "sched", None, || format!("job{id} resume"));
                    return self.begin_iteration(slot);
                }
                _ => {}
            }
        }
        let scope = self.scope(slot);
        let Some(r) = self.slots[slot].job.as_mut().and_then(|j| j.running.as_mut()) else {
            return;
        };
        if r.draining && !matches!(ev, Event::Fault(_)) {
            return;
        }
        self.sim.set_token_scope(scope);
        r.driver.on_event(&mut self.sim, ev);
        self.sim.set_token_scope(0);
        self.check_comm_done(slot, t);
    }

    /// The (unique) running slot whose collective engine owns flow `f`.
    fn flow_owner(&self, f: FlowId) -> Option<usize> {
        let mut owner = None;
        for (s, slot) in self.slots.iter().enumerate() {
            if let Some(r) = slot.job.as_ref().and_then(|j| j.running.as_ref()) {
                if r.driver.owns_flow(f) {
                    assert!(owner.is_none(), "flow {f} owned by slots {owner:?} and {s}");
                    owner = Some(s);
                }
            }
        }
        owner
    }

    /// Source dry, nothing staged, backlog empty, every slot vacant.
    fn all_done(&self) -> bool {
        self.source_done
            && self.staged.is_none()
            && self.queue.is_empty()
            && self.free_slots.len() == self.slots.len()
    }

    /// A regeneration point: the only live state is the accumulator and the
    /// staged arrival. All checks are O(1) — this runs after every event
    /// while a snapshot is armed.
    pub(crate) fn quiescent(&self) -> bool {
        self.staged.is_some()
            && self.queue.is_empty()
            && self.free_slots.len() == self.slots.len()
            && self.pending_crashes == 0
            && self.pending_repairs == 0
            && self.sim.net().flow_count() == 0
            && !self.sim.faults_pending()
    }

    /// The shared event loop: runs until every job has finished (or a
    /// snapshot asked to stop), writing armed snapshots at quiescent points.
    pub(crate) fn run_loop(&mut self) -> Result<(), SchedError> {
        while !self.snap.stop_requested && !self.all_done() {
            let Some((t, ev)) = self.sim.next_event() else {
                return Err(serr(format!(
                    "event queue drained with work left (staged={}, backlog={}, active={})",
                    self.staged.is_some(),
                    self.queue.len(),
                    self.slots.len() - self.free_slots.len(),
                )));
            };
            match ev {
                Event::Timer(tok) if tok.scope() == 0 => match tok.kind {
                    ARRIVAL_KIND => self.on_arrival()?,
                    CRASH_KIND => {
                        self.pending_crashes -= 1;
                        self.on_crash(tok.a as usize, t);
                    }
                    REPAIR_KIND => self.on_repair(tok.a as usize),
                    REQUEUE_KIND => self.on_requeue(tok.a as usize, tok.b),
                    _ => {}
                },
                Event::Timer(tok) => {
                    // Events from an aborted attempt or an earlier tenant
                    // die here.
                    if let Some(slot) = self.live_slot(tok.scope()) {
                        self.on_job_event(slot, ev, t);
                    }
                }
                Event::FlowCompleted(f) => {
                    if let Some(slot) = self.flow_owner(f) {
                        self.on_job_event(slot, ev, t);
                    }
                }
                // Link capacities have already changed inside the shared
                // net; every running job's engine hears about it.
                Event::Fault(_) => {
                    for slot in self.running_by_id() {
                        self.on_job_event(slot, ev, t);
                    }
                }
            }
            crate::stream::maybe_snapshot(self)?;
        }
        Ok(())
    }

    /// Runs the scenario to completion and reports per-job and cluster
    /// metrics.
    ///
    /// # Panics
    /// Panics if the event queue drains while jobs are still pending — a
    /// scheduler bug, since a finished job always re-dispatches the queue
    /// and an impossible placement fails the job deterministically.
    pub fn run(mut self) -> MultiJobReport {
        self.run_loop().unwrap_or_else(|e| panic!("{e}"));
        self.into_report()
    }

    /// Runs the scenario, returning the report together with the Chrome
    /// trace JSON (empty unless the config enabled tracing).
    pub fn run_with_trace(mut self) -> (MultiJobReport, String) {
        self.run_loop().unwrap_or_else(|e| panic!("{e}"));
        let json = self.sim.trace().to_chrome_json();
        (self.into_report(), json)
    }

    fn into_report(self) -> MultiJobReport {
        let Outcomes::Keep(kept) = self.outcomes else {
            unreachable!("batch scenarios keep their outcomes")
        };
        let jobs: Vec<JobOutcome> = kept.into_iter().map(|o| o.expect("job finished")).collect();
        let first_arrival = jobs.iter().map(|j| j.arrival_secs).fold(f64::INFINITY, f64::min);
        let last_finish = jobs.iter().map(|j| j.finish_secs).fold(0.0, f64::max);
        let makespan = last_finish - first_arrival;
        MultiJobReport {
            policy: self.cfg.policy,
            jobs,
            makespan_secs: makespan,
            fabric_utilization: fabric_utilization(
                &self.cfg.cluster,
                &self.sim,
                &self.physical,
                makespan,
            ),
            solver: self.sim.net().solver_stats(),
        }
    }
}

/// Mean NIC transmit utilization over `makespan_secs` across all nodes.
pub(crate) fn fabric_utilization(
    cluster: &ClusterSpec,
    sim: &Simulator,
    physical: &ClusterNet,
    makespan_secs: f64,
) -> f64 {
    if makespan_secs <= 0.0 {
        return 0.0;
    }
    let carried: f64 =
        (0..cluster.nodes).map(|n| sim.net().carried_bytes(physical.node_tx_resource(n))).sum();
    carried / (cluster.node.nic.bytes_per_sec() * cluster.nodes as f64 * makespan_secs)
}

/// Rejects node-targeted faults outside the cluster.
pub(crate) fn validate_fault_nodes(cfg: &MultiJobCfg) -> Result<(), SchedError> {
    let nodes = cfg.cluster.nodes;
    for ev in cfg.faults.events() {
        if let FaultTarget::Node(n) = ev.target {
            if n as usize >= nodes {
                return Err(SchedError::FaultNodeOutOfRange { node: n, nodes });
            }
        }
    }
    Ok(())
}

pub(crate) fn serr(msg: impl Into<String>) -> SchedError {
    SchedError::Stream { msg: msg.into() }
}

/// First logical rank hosted by logical node `ln` of `spec`.
fn logical_base(spec: &ClusterSpec, ln: usize) -> usize {
    (0..ln).map(|j| spec.gpus_on_node(j)).sum()
}

/// One-shot convenience: build and run a multi-job scenario.
pub fn run_multijob(cfg: MultiJobCfg) -> MultiJobReport {
    MultiJobSim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{JobMix, WorkloadCfg};
    use aiacc_trainer::EngineKind;

    /// Runs `cfg` as a batch through a pool of `nslots` slots; returns the
    /// per-job rows and the peak number of occupied slots.
    fn run_with_slots(mut cfg: MultiJobCfg, nslots: usize) -> (Vec<String>, usize) {
        let njobs = cfg.workload.jobs.len();
        let source = ArrivalSource::finite(std::mem::take(&mut cfg.workload.jobs));
        let keep = Outcomes::Keep(vec![None; njobs]);
        let mut sim = MultiJobSim::assemble(cfg, source, nslots, keep, Snapshots::default());
        sim.start_fresh().unwrap();
        sim.run_loop().unwrap();
        let peak = sim.acc.peak_active;
        (sim.into_report().jobs.iter().map(JobOutcome::tsv_row).collect(), peak)
    }

    /// A 1,500-job chaos batch whose AIACC jobs arm the 0.5 s stall
    /// watchdog, as `schedule --chaos` does: each ~5 ms job leaves watchdog
    /// timers queued long after it departs. One slot per job folds
    /// generations modulo 43, a 64-slot pool modulo 1023; both must give the
    /// same outcomes. Were generations folded without skipping queued
    /// timers, and slots refilled lowest-first, stale watchdogs would pass
    /// the generation check, cancel and resubmit a later tenant's collective
    /// and move its JCT (12 rows differ).
    #[test]
    fn slot_generations_never_alias_under_chaos() {
        let mut wl = Workload::generate(
            &WorkloadCfg::new(1_500, 5)
                .with_mix(JobMix::Tiny)
                .with_iterations(2)
                .with_interarrival(0.002),
        );
        for j in &mut wl.jobs {
            if let EngineKind::Aiacc(c) = &mut j.engine {
                *c =
                    c.with_stall_timeout(SimDuration::from_secs_f64(0.5)).with_max_resubmissions(4);
            }
        }
        let cluster = ClusterSpec::tcp_v100(32);
        let faults = FaultPlan::chaos(5, cluster.nodes, SimDuration::from_secs_f64(3.0), 4);
        let cfg = MultiJobCfg::new(cluster, PlacePolicy::Packed, wl).with_faults(faults);
        let (per_job, _) = run_with_slots(cfg.clone(), 1_500);
        let (pooled, peak) = run_with_slots(cfg, 64);
        assert!(peak < 64, "the 64-slot pool must never make a job wait for a slot");
        assert_eq!(per_job, pooled);
    }
}
