//! # dosas-repro — reproduction of *DOSAS: Mitigating the Resource
//! # Contention in Active Storage Systems* (IEEE CLUSTER 2012)
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! * [`simkit`] — deterministic discrete-event simulation engine.
//! * [`cluster`] — cluster hardware model (CPUs, disks, max-min fair network).
//! * [`pfs`] — PVFS2-like parallel file system model.
//! * [`mpiio`] — MPI-like runtime with the paper's `MPI_File_read_ex`
//!   extension (Table I).
//! * [`kernels`] — real, checkpointable processing kernels (SUM, 2-D
//!   Gaussian filter, stats, grep, histogram, k-means).
//! * [`dosas`] — the paper's contribution: Active Storage Client/Server,
//!   Contention Estimator, Active I/O Runtime, scheduling solvers, and the
//!   end-to-end simulation driver.
//!
//! ## Quickstart
//!
//! ```
//! use dosas_repro::prelude::*;
//!
//! // 4 processes each ask the storage node to run the 2-D Gaussian filter
//! // over 128 MB — under dynamic operation scheduling.
//! let workload = Workload::uniform_active(
//!     4, 1, 128 << 20, "gaussian2d", KernelParams::with_width(4096));
//! let metrics = Driver::run(DriverConfig::paper(Scheme::dosas_default()), &workload);
//! assert!(metrics.makespan_secs > 0.0);
//! println!("completed in {:.2} simulated seconds", metrics.makespan_secs);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

pub use cluster;
pub use dosas;
pub use kernels;
pub use mpiio;
pub use obs;
pub use pfs;
pub use simkit;

/// The common imports for driving experiments.
pub mod prelude {
    pub use cluster::{ClusterConfig, NodeId};
    pub use dosas::{
        AutopsyReport, CostModel, CriticalPath, DosasConfig, Driver, DriverConfig, ExecMode, OpId,
        OpRates, ProbeConfig, RequestAutopsy, RequestSpec, RunMetrics, RunProfile, Scheme,
        SolverKind, TenantReport, TenantSlo, TenantSloOutcome, TenantStats, WaitCause, Workload,
    };
    pub use kernels::{Kernel, KernelParams, KernelRegistry};
    pub use mpiio::program::{Op, RankProgram};
    pub use obs::{ObsConfig, ObsReport, Severity, TimelineRecord};
    pub use simkit::{ExecProfile, FaultKind, FaultPlan, SimSpan, SimTime};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let workload = Workload::uniform_active(2, 1, 1 << 20, "sum", KernelParams::default());
        let metrics = Driver::run(DriverConfig::paper(Scheme::ActiveStorage), &workload);
        assert_eq!(metrics.records.len(), 2);
    }
}
