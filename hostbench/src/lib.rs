//! Host-time benchmark of the AIACC-Training simulator.
//!
//! Three workloads, each driven only through the program's public API:
//!
//! * [`train_ctr`] — one CTR job stepped by the benchmark's own copy of
//!   `TrainingSim`'s fault-free iteration loop (engine and event-core heavy);
//! * [`stream`] — the saturated 20,000-job streaming replay (scheduler
//!   heavy);
//! * [`fabric`] — a 1024-node, ~102k-flow rack/spine cell (FlowNet heavy).
//!
//! Every run folds its simulated output into a digest, so a speed change
//! that alters a single simulated bit is caught. See `README.md` beside
//! this crate for the metric definitions.

pub mod calib;
pub mod fabric;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod train_ctr;

use aiacc_simnet::{SolveBreakdown, SolverStats};

/// Seconds FlowNet has accrued in solve, apply and queue phases.
pub fn flownet_s(b: SolveBreakdown) -> f64 {
    b.solve_s + b.apply_s + b.queue_s
}

/// Difference of two cumulative FlowNet timings.
pub fn breakdown_delta(after: SolveBreakdown, before: SolveBreakdown) -> SolveBreakdown {
    SolveBreakdown {
        solve_s: after.solve_s - before.solve_s,
        apply_s: after.apply_s - before.apply_s,
        queue_s: after.queue_s - before.queue_s,
    }
}

/// Difference of two cumulative solver counter sets.
pub fn stats_delta(after: SolverStats, before: SolverStats) -> SolverStats {
    SolverStats {
        recomputes: after.recomputes - before.recomputes,
        comps_solved: after.comps_solved - before.comps_solved,
        comps_existing: after.comps_existing - before.comps_existing,
        parts_solved: after.parts_solved - before.parts_solved,
        fill_rounds: after.fill_rounds - before.fill_rounds,
        comp_parts_max: after.comp_parts_max,
        solve_parts_max: after.solve_parts_max - before.solve_parts_max,
        par_solves: after.par_solves - before.par_solves,
        par_workers: after.par_workers - before.par_workers,
    }
}

/// What the FlowNet of a run did after setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowNetUse {
    /// Wall time per solver phase.
    pub breakdown: SolveBreakdown,
    /// Solver work counters.
    pub stats: SolverStats,
}

/// Deterministic event counts of a run, seen from the driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Timer events delivered.
    pub timers: u64,
    /// Timer events no handler consumed (stale engine timers, drained
    /// boundary leftovers).
    pub stale_timers: u64,
    /// Flow completions delivered.
    pub flow_completed: u64,
    /// Collective ops completed by `CollectiveEngine::on_flow_completed`.
    pub ops_completed: u64,
}

/// The scheduler's own counters (stream workload only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounts {
    /// Peak backlog length.
    pub peak_backlog: u64,
    /// Peak concurrently admitted jobs.
    pub peak_active: u64,
    /// Jobs emitted by the arrival source.
    pub emitted: u64,
    /// Jobs completed (including failed ones).
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
}

/// One repeat of a workload: a fresh setup followed by the measured run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Host seconds to build the simulation, before its first event.
    pub setup_s: f64,
    /// Host seconds of the measured run after setup.
    pub run_s: f64,
    /// Host milliseconds per step: per iteration (`train_ctr`) or per fixed
    /// simulated-time slice (`fabric_1024`); empty for `stream_saturated`.
    pub steps_ms: Vec<f64>,
    /// Simulated seconds covered by the run.
    pub sim_s: f64,
    /// Simulated work units completed: iterations, jobs or slices.
    pub units: u64,
    /// Simulated events the driver handled (`0` where the driver cannot
    /// see them).
    pub events: u64,
    /// Digest of the checked simulated output.
    pub digest: u64,
    /// Driver-side event counts.
    pub counts: EventCounts,
    /// FlowNet use, where the driver owns the network.
    pub flownet: Option<FlowNetUse>,
    /// Scheduler counters, for the stream workload.
    pub sched: Option<SchedCounts>,
}
