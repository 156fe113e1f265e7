//! `stream_saturated`: the saturated streaming replay, driven through
//! `StreamSim::try_new` / `StreamSim::run`. It is the one workload that runs
//! the scheduler (`sched`) and the baseline engines (`baselines`).
//!
//! Equivalent to `aiacc-sim schedule --stream --njobs 20000 --seed 11 --mix
//! tiny --iters 2 --interarrival 0.0001 --window 5000`: 32 V100s on 30 Gbps
//! TCP, packed placement, restart recovery, engines alternating between
//! AIACC and Horovod by job parity.

use crate::stats::Fnv;
use crate::trace::{Name, Probe};
use crate::{Run, SchedCounts};
use aiacc_cluster::ClusterSpec;
use aiacc_sched::stream::{ArrivalCfg, ArrivalProcess, StreamCfg, StreamReport, StreamSim};
use aiacc_sched::{
    ClusterMetrics, JobMix, MultiJobCfg, PlacePolicy, RecoveryPolicy, Workload, WorkloadCfg,
};
use std::time::Instant;

/// Seed of the recorded digest.
pub const DEFAULT_SEED: u64 = 11;
/// Jobs per repeat.
pub const JOBS: u64 = 20_000;
/// Completions per windowed-metrics row.
pub const WINDOW: u64 = 5_000;

/// The replay's configuration for `njobs` jobs.
pub fn config(seed: u64, njobs: u64, window: u64) -> StreamCfg {
    let mut arrivals = ArrivalCfg::new(ArrivalProcess::Poisson, njobs, seed);
    arrivals.mix = JobMix::Tiny;
    arrivals.iterations = 2;
    arrivals.mean_interarrival_secs = 0.0001;
    // The batch workload is unused in streaming mode; a one-job placeholder
    // satisfies the constructor (as the CLI does).
    let placeholder = Workload::generate(&WorkloadCfg::new(1, 1).with_mix(JobMix::Tiny));
    let base = MultiJobCfg::new(ClusterSpec::tcp_v100(32), PlacePolicy::Packed, placeholder)
        .with_recovery(RecoveryPolicy::Restart);
    StreamCfg::new(base, arrivals).with_window(window)
}

/// The small check every run makes: 2,000 jobs, window 500.
pub fn small_config(seed: u64) -> StreamCfg {
    config(seed, 2_000, 500)
}

/// Digest of the report lines plus the summary row, as the CLI prints them.
pub fn digest(report: &StreamReport) -> u64 {
    let mut h = Fnv::default();
    for line in &report.lines {
        h.bytes(line.as_bytes());
        h.bytes(b"\n");
    }
    if let Some(m) = &report.summary {
        h.bytes(ClusterMetrics::tsv_header().as_bytes());
        h.bytes(b"\n");
        h.bytes(m.to_tsv_row().as_bytes());
    }
    h.finish()
}

/// Builds and runs one replay; with `setup_only`, returns right after the
/// build.
pub fn run<P: Probe>(cfg: StreamCfg, setup_only: bool, probe: &mut P) -> Result<Run, String> {
    let setup_t0 = Instant::now();
    probe.enter(Name::SchedSetup, || 0.0);
    let sim = StreamSim::try_new(cfg);
    probe.exit(|| 0.0);
    let sim = sim.map_err(|e| e.to_string())?;
    let setup_s = setup_t0.elapsed().as_secs_f64();
    if setup_only {
        return Ok(Run { setup_s, ..Run::default() });
    }

    let run_t0 = Instant::now();
    probe.enter(Name::SchedRun, || 0.0);
    let report = sim.run();
    probe.exit(|| 0.0);
    let report = report.map_err(|e| e.to_string())?;
    let run_s = run_t0.elapsed().as_secs_f64();

    let summary = report.summary.as_ref().ok_or("stream run stopped without a summary")?;
    let st = &report.stats;
    Ok(Run {
        setup_s,
        run_s,
        steps_ms: Vec::new(),
        sim_s: summary.makespan_secs,
        units: st.completed,
        events: 0,
        digest: digest(&report),
        counts: Default::default(),
        flownet: None,
        sched: Some(SchedCounts {
            peak_backlog: st.peak_backlog as u64,
            peak_active: st.peak_active as u64,
            emitted: st.emitted,
            completed: st.completed,
            failed: st.failed,
        }),
    })
}
