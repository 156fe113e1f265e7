//! Experiment harness: one generator per table/figure of the paper.
//!
//! Each `fig*`/`table*` function runs the corresponding sweep on the
//! simulated cluster and returns a [`Table`] whose rows mirror what the
//! paper plots; the `repro` binary prints them and writes TSV files, and the
//! criterion benches wrap reduced-scale versions. The `bench` binary turns
//! the `*_points` sweeps into the committed `BENCH_*.json` reports through
//! [`Json`] and gates their headlines. `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for every entry here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod exp_chaos;
mod exp_compress;
mod exp_further;
mod exp_multijob;
mod exp_overall;
pub mod exp_scale;
mod exp_stream;
mod exp_tuning;
mod report;

pub use exp_chaos::{
    chaos_points, fig_chaos, mean_delta_p99, ChaosPoint, CHAOS_QUICK_SEEDS, CHAOS_SEEDS,
};
pub use exp_compress::{
    best_point, data_plane_points, frontier_points, low_bandwidth_cluster, tune_comparison,
    DataPlanePoint, FrontierPoint, TuneComparison, COMPRESS_SCHEMES, FRONTIER_QUICK_STREAMS,
    FRONTIER_STREAMS,
};
pub use exp_further::{
    bandwidth_utilization, ctr_production_speedup, dawnbench_table, fig13_hybrid,
    fig14_batch_sweep, fig15_rdma, insightface_speedup, table1_models,
};
pub use exp_multijob::{
    fig_multijob, multijob_points, MultijobPoint, MULTIJOB_QUICK_SWEEP, MULTIJOB_SWEEP,
};
pub use exp_overall::{fig10_nlp, fig11_tensorflow, fig12_mxnet, fig2_motivation, fig9_cv};
pub use exp_stream::{
    saturated_points, scale_point, steady_throughput, StreamPoint, STREAM_SATURATED_JOBS,
    STREAM_SATURATED_QUICK_JOBS, STREAM_SCALE_JOBS, STREAM_SCALE_QUICK_JOBS,
};
pub use exp_tuning::{
    ablation_byteps_servers, ablation_flow_cap, ablation_granularity, ablation_meta_solver,
    ablation_sync_scheme, ablation_tree_vs_ring, tuning_report,
};
pub use report::{Json, Table};

/// The GPU counts swept by the overall-performance figures (Figs. 9–12).
pub const FULL_GPU_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

/// A reduced sweep for quick runs and criterion benches.
pub const QUICK_GPU_SWEEP: &[usize] = &[1, 8, 32];
