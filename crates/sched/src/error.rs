//! Typed configuration errors for the multi-job scheduler.
//!
//! [`crate::MultiJobSim::try_new`] validates a scenario up front and returns
//! a [`SchedError`] instead of panicking, so sweep harnesses and the CLI can
//! reject a bad workload or fault plan gracefully.

use std::fmt;

/// Why a [`crate::MultiJobCfg`] cannot be turned into a runnable scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The workload has no jobs.
    EmptyWorkload,
    /// Job ids must be `0..n` in order; `jobs[index].id` was `id`.
    NonDenseJobIds {
        /// Position in the workload vector.
        index: usize,
        /// The id found there.
        id: usize,
    },
    /// A job requests an impossible gang size.
    BadGangSize {
        /// The offending job id.
        job: usize,
        /// Requested GPUs.
        gpus: usize,
        /// Total GPUs in the cluster.
        capacity: usize,
    },
    /// A job has zero iterations.
    ZeroIterations {
        /// The offending job id.
        job: usize,
    },
    /// A job names a model the zoo does not know.
    UnknownModel {
        /// The offending job id.
        job: usize,
        /// The unknown model name.
        model: String,
    },
    /// The fault plan targets a node outside the cluster.
    FaultNodeOutOfRange {
        /// The out-of-range node index.
        node: u32,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
    /// An arrival-source or event-loop error: bad arrival config, malformed
    /// or unsorted trace line, snapshot I/O failure, a snapshot that does
    /// not match the run configuration, or an event queue that drained with
    /// work left.
    Stream {
        /// Human-readable description.
        msg: String,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::EmptyWorkload => write!(f, "workload has no jobs"),
            SchedError::NonDenseJobIds { index, id } => {
                write!(f, "workload job ids must be dense and ordered: jobs[{index}].id = {id}")
            }
            SchedError::BadGangSize { job, gpus, capacity } => {
                write!(f, "job {job} requests {gpus} of {capacity} GPUs")
            }
            SchedError::ZeroIterations { job } => write!(f, "job {job} has no iterations"),
            SchedError::UnknownModel { job, model } => {
                write!(f, "job {job}: unknown model {model:?}")
            }
            SchedError::FaultNodeOutOfRange { node, nodes } => {
                write!(f, "fault plan targets node {node}, cluster has {nodes} nodes")
            }
            SchedError::Stream { msg } => write!(f, "streaming replay: {msg}"),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = SchedError::BadGangSize { job: 3, gpus: 64, capacity: 32 };
        assert_eq!(e.to_string(), "job 3 requests 64 of 32 GPUs");
        let e = SchedError::FaultNodeOutOfRange { node: 9, nodes: 4 };
        assert!(e.to_string().contains("node 9"));
        // It is a real std error.
        let _: &dyn std::error::Error = &e;
    }
}
