//! Platform simulator for the paper's three Intel testbeds.
//!
//! The paper's evaluation ran on a 4-core Core2Quad, an 8-core Xeon E5320 and
//! a 32-core Xeon X7560.  None of those machines (nor any multi-core CPU) is
//! available in this reproduction environment, so this crate models them: each
//! [`platform::PlatformModel`] captures the core count, disk behaviour
//! (per-file seek overhead, single-stream and aggregate bandwidth), per-byte
//! CPU costs for scanning/extraction and index update, and the lock/join
//! overheads of the shared-index and join-forces designs.  The models are
//! **calibrated against Table 1** of the paper (the measured sequential stage
//! times) and validated against Tables 2–4.
//!
//! The same [`model`] is used to:
//!
//! * regenerate Table 1 (sequential stage times per platform),
//! * estimate the runtime of any `(implementation, (x, y, z))` combination on
//!   any platform ([`model::estimate_run`]), which regenerates Tables 2–4 at
//!   the paper's best configurations,
//! * search the configuration space ([`sweep`]) point by point for each
//!   implementation's best configuration and its speed-up curve — on the
//!   model a point costs microseconds, where the paper's auto-tuner saved
//!   measured runs.
//!
//! # Example
//!
//! ```
//! use dsearch_core::{Configuration, Implementation};
//! use dsearch_sim::{estimate_run, PlatformModel, WorkloadModel};
//!
//! let platform = PlatformModel::thirty_two_core();
//! let workload = WorkloadModel::paper();
//! let run = estimate_run(
//!     &platform,
//!     &workload,
//!     Implementation::ReplicateNoJoin,
//!     Configuration::new(9, 4, 0),
//! );
//! assert!(run.speedup > 3.0); // the paper reports 3.50×
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curves;
pub mod model;
pub mod paper;
pub mod platform;
pub mod sweep;
pub mod workload;

pub use curves::{all_curves, amdahl_ceiling, speedup_curve, SpeedupCurve};
pub use model::{estimate_run, sequential_stages, RunEstimate, SequentialStageEstimate};
pub use platform::PlatformModel;
pub use sweep::{best_configuration, sweep_implementation, SweepPoint};
pub use workload::WorkloadModel;
