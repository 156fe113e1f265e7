//! The multi-job contention figure: tail JCT of a shared cluster as the
//! number of concurrent tenants grows, AIACC vs single-stream Horovod.
//!
//! This is the deployment the paper motivates but never plots: on a shared
//! GPU cloud, many jobs' gradient flows meet on the same NICs. A
//! single-stream engine leaves per-flow TCP headroom idle exactly when the
//! fabric is busiest, so its job-completion-time *tail* degrades faster than
//! AIACC's as tenancy rises.

use crate::report::{fnum, Table};
use aiacc_cluster::ClusterSpec;
use aiacc_sched::{summarize, ClusterMetrics, MultiJobCfg, PlacePolicy, Workload, WorkloadCfg};
use aiacc_simnet::par;
use aiacc_trainer::EngineKind;

/// Tenancy levels swept by the full figure.
pub const MULTIJOB_SWEEP: &[usize] = &[1, 2, 4, 8];

/// A reduced sweep for quick runs.
pub const MULTIJOB_QUICK_SWEEP: &[usize] = &[1, 4];

/// One `(tenancy, engine)` cell of the multi-job figure.
#[derive(Debug, Clone, PartialEq)]
pub struct MultijobPoint {
    /// Concurrent jobs in the workload.
    pub njobs: usize,
    /// Engine label (`aiacc` / `horovod`).
    pub engine: &'static str,
    /// Cluster metrics of the run.
    pub metrics: ClusterMetrics,
}

/// Runs every cell of the multi-job figure: comm-heavy jobs arriving on a
/// 4-node × 8-V100 TCP cluster under [`PlacePolicy::Spread`] (every gang
/// touches every NIC — the high-contention regime), each tenancy level run
/// once with every job on AIACC and once with every job on Horovod.
///
/// Both runs share the workload seed, so arrivals, models, and gang sizes
/// are identical pairs; only the communication engine differs.
pub fn multijob_points(njobs_sweep: &[usize], iterations: usize) -> Vec<MultijobPoint> {
    let mut cells = Vec::new();
    for &n in njobs_sweep {
        cells.push((n, EngineKind::aiacc_default()));
        cells.push((n, EngineKind::Horovod(Default::default())));
    }
    par::map(&cells, |&(njobs, engine)| {
        let wl = Workload::generate(
            &WorkloadCfg::new(njobs, 7).with_engine(engine).with_iterations(iterations),
        );
        let cfg = MultiJobCfg::new(ClusterSpec::tcp_v100(32), PlacePolicy::Spread, wl);
        let metrics = summarize(&aiacc_sched::run_multijob(cfg));
        MultijobPoint { njobs, engine: engine.label(), metrics }
    })
}

/// The multi-job tail-JCT figure, one row per [`multijob_points`] cell.
pub fn fig_multijob(njobs_sweep: &[usize], iterations: usize) -> Table {
    let mut t = Table::new(
        "Multi-job: tail JCT under shared-fabric contention (spread placement, 4x8 V100, TCP)",
        &[
            "njobs",
            "engine",
            "jct_p50_s",
            "jct_p99_s",
            "queue_delay_s",
            "makespan_s",
            "fabric_util",
            "jain",
        ],
    );
    for p in multijob_points(njobs_sweep, iterations) {
        let m = &p.metrics;
        t.push(vec![
            p.njobs.to_string(),
            p.engine.to_string(),
            fnum(m.jct_p50_secs),
            fnum(m.jct_p99_secs),
            fnum(m.queue_delay_mean_secs),
            fnum(m.makespan_secs),
            fnum(m.fabric_utilization),
            fnum(m.jain_fairness),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_at(njobs: usize, engine: EngineKind) -> ClusterMetrics {
        let wl =
            Workload::generate(&WorkloadCfg::new(njobs, 7).with_engine(engine).with_iterations(4));
        let cfg = MultiJobCfg::new(ClusterSpec::tcp_v100(32), PlacePolicy::Spread, wl);
        summarize(&aiacc_sched::run_multijob(cfg))
    }

    #[test]
    fn aiacc_beats_horovod_tail_under_contention() {
        let a = metrics_at(4, EngineKind::aiacc_default());
        let h = metrics_at(4, EngineKind::Horovod(Default::default()));
        assert!(
            a.jct_p99_secs < h.jct_p99_secs,
            "aiacc p99 {} vs horovod p99 {}",
            a.jct_p99_secs,
            h.jct_p99_secs
        );
    }

    #[test]
    fn figure_has_one_row_per_point() {
        let t = fig_multijob(MULTIJOB_QUICK_SWEEP, 2);
        assert_eq!(t.rows.len(), 2 * MULTIJOB_QUICK_SWEEP.len());
    }
}
