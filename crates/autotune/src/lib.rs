//! Configuration auto-tuner.
//!
//! The paper leaned on the auto-tuner of Schäfer et al. to explore thread
//! allocations ("use an auto-tuner to speed up exploring the design space")
//! but could not use it throughout because that tuner targeted C#.  This crate
//! provides the equivalent capability natively: given an objective function
//! that maps a [`Configuration`](dsearch_core::Configuration) to a cost (estimated or measured seconds),
//! a [`Tuner`] searches the [`ConfigSpace`] for the best tuple.
//!
//! Three strategies are provided:
//!
//! * [`ExhaustiveTuner`] — evaluates every point (what the paper effectively
//!   did with its repeated measurement runs);
//! * [`HillClimbTuner`] — greedy neighbourhood descent with random restarts;
//! * [`RandomSearchTuner`] — uniform random sampling under a fixed budget.
//!
//! # Example
//!
//! ```
//! use dsearch_autotune::{ConfigSpace, ExhaustiveTuner, Tuner};
//! use dsearch_core::Configuration;
//!
//! // A toy objective: the sweet spot is (3, 1, 0).
//! let objective = |c: &Configuration| {
//!     (c.extraction_threads as f64 - 3.0).abs()
//!         + (c.update_threads as f64 - 1.0).abs()
//!         + c.join_threads as f64
//! };
//! let space = ConfigSpace::new(1..=6, 0..=3, 0..=1);
//! let result = ExhaustiveTuner::new().tune(&space, objective);
//! assert_eq!(result.best_configuration, Configuration::new(3, 1, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhaustive;
pub mod hill_climb;
pub mod random_search;
pub mod space;
pub mod tuner;

pub use exhaustive::ExhaustiveTuner;
pub use hill_climb::HillClimbTuner;
pub use random_search::RandomSearchTuner;
pub use space::ConfigSpace;
pub use tuner::{Evaluation, Tuner, TuningResult};
