//! Run configurations.
//!
//! The paper explores the design space along two axes:
//!
//! * which **implementation** of the index interaction is used
//!   ([`Implementation`]), and
//! * how many threads are allocated to each stage — the configuration tuple
//!   *(x, y, z)* = (term-extraction threads, index-update threads, index-join
//!   threads) ([`Configuration`]).
//!
//! [`GeneratorOptions`] collects what a run may set besides: the tokenizer,
//! the insert granularity and whether file formats are detected.  The paper's
//! other Stage 1–2 choices — an up-front Stage 1, round-robin distribution
//! into private vectors, a condensed word list per file — are not options:
//! they are the code ([`crate::distribute`], [`crate::stage2`]).

use serde::{Deserialize, Serialize};

use dsearch_text::tokenizer::TokenizerOptions;

/// The three index-update designs compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Implementation {
    /// Implementation 1: a single shared index, locked on update.
    SharedLocked,
    /// Implementation 2: per-thread replica indices, joined at the end
    /// ("Join Forces").
    ReplicateJoin,
    /// Implementation 3: per-thread replica indices, never joined; the search
    /// queries all replicas in parallel.
    ReplicateNoJoin,
}

impl Implementation {
    /// All three implementations, in paper order.
    pub const ALL: [Implementation; 3] = [
        Implementation::SharedLocked,
        Implementation::ReplicateJoin,
        Implementation::ReplicateNoJoin,
    ];

    /// The paper's name for the implementation ("Implementation 1" …).
    #[must_use]
    pub fn paper_name(self) -> &'static str {
        match self {
            Implementation::SharedLocked => "Implementation 1",
            Implementation::ReplicateJoin => "Implementation 2",
            Implementation::ReplicateNoJoin => "Implementation 3",
        }
    }

    /// Whether the implementation performs a join stage.
    #[must_use]
    pub fn joins(self) -> bool {
        matches!(self, Implementation::ReplicateJoin)
    }

    /// Whether the implementation keeps a single shared index during updates.
    #[must_use]
    pub fn uses_shared_index(self) -> bool {
        matches!(self, Implementation::SharedLocked)
    }
}

impl std::fmt::Display for Implementation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// A thread-allocation tuple *(x, y, z)*.
///
/// * `x` — term-extraction threads (Stage 2); must be ≥ 1.
/// * `y` — dedicated index-update threads (Stage 3); `0` means the extractor
///   threads update the index themselves.
/// * `z` — index-join threads; only meaningful for
///   [`Implementation::ReplicateJoin`], `0` means the main thread performs a
///   sequential join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    /// Term-extraction threads (x).
    pub extraction_threads: usize,
    /// Index-update threads (y); 0 = extractors update the index directly.
    pub update_threads: usize,
    /// Index-join threads (z); 0 = sequential join on the main thread.
    pub join_threads: usize,
}

impl Configuration {
    /// Creates a configuration tuple `(x, y, z)`.
    #[must_use]
    pub fn new(extraction_threads: usize, update_threads: usize, join_threads: usize) -> Self {
        Configuration { extraction_threads, update_threads, join_threads }
    }

    /// The sequential configuration `(1, 0, 0)`.
    #[must_use]
    pub fn sequential() -> Self {
        Configuration::new(1, 0, 0)
    }

    /// Number of threads that perform index updates: `y`, or `x` when `y == 0`.
    #[must_use]
    pub fn updater_count(&self) -> usize {
        if self.update_threads == 0 {
            self.extraction_threads
        } else {
            self.update_threads
        }
    }

    /// Total worker threads used during the extraction/update phase.
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.extraction_threads + self.update_threads
    }

    /// Validates the tuple for a given implementation.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the tuple cannot be run.
    pub fn validate(&self, implementation: Implementation) -> Result<(), String> {
        if self.extraction_threads == 0 {
            return Err("extraction_threads (x) must be at least 1".into());
        }
        if self.join_threads > 0 && !implementation.joins() {
            return Err(format!(
                "{} does not join indices; join_threads (z) must be 0",
                implementation.paper_name()
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.extraction_threads, self.update_threads, self.join_threads)
    }
}

/// Granularity of index insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InsertGranularity {
    /// Pass the whole per-file word list to the index in one call (en bloc).
    #[default]
    EnBloc,
    /// Insert terms one at a time (one lock acquisition per term for the
    /// shared index).
    PerTerm,
}

/// All design choices of a run besides the thread counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GeneratorOptions {
    /// Tokenizer settings.
    pub tokenizer: TokenizerOptions,
    /// Index insertion granularity.
    pub granularity: InsertGranularity,
    /// Detect each file's format and extract its plain text before
    /// tokenisation, skipping binary files.  The paper's benchmark was plain
    /// ASCII text only and named "more file formats" as future work; off,
    /// every file is tokenised as it is.
    pub formats: bool,
}

impl GeneratorOptions {
    /// The reference configuration the paper converged on.
    #[must_use]
    pub fn paper_defaults() -> Self {
        GeneratorOptions {
            tokenizer: TokenizerOptions::default(),
            granularity: InsertGranularity::EnBloc,
            formats: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Configuration::new(3, 1, 0).to_string(), "(3, 1, 0)");
        assert_eq!(Configuration::new(8, 4, 1).to_string(), "(8, 4, 1)");
        assert_eq!(Implementation::SharedLocked.to_string(), "Implementation 1");
        assert_eq!(Implementation::ReplicateJoin.to_string(), "Implementation 2");
        assert_eq!(Implementation::ReplicateNoJoin.to_string(), "Implementation 3");
    }

    #[test]
    fn implementation_properties() {
        assert!(Implementation::SharedLocked.uses_shared_index());
        assert!(!Implementation::ReplicateJoin.uses_shared_index());
        assert!(Implementation::ReplicateJoin.joins());
        assert!(!Implementation::ReplicateNoJoin.joins());
        assert_eq!(Implementation::ALL.len(), 3);
    }

    #[test]
    fn validation_rules() {
        assert!(Configuration::new(0, 1, 0).validate(Implementation::SharedLocked).is_err());
        assert!(Configuration::new(1, 0, 1).validate(Implementation::SharedLocked).is_err());
        assert!(Configuration::new(1, 0, 1).validate(Implementation::ReplicateNoJoin).is_err());
        assert!(Configuration::new(3, 5, 1).validate(Implementation::ReplicateJoin).is_ok());
        assert!(Configuration::new(3, 1, 0).validate(Implementation::SharedLocked).is_ok());
    }

    #[test]
    fn updater_and_worker_counts() {
        let direct = Configuration::new(4, 0, 0);
        assert_eq!(direct.updater_count(), 4);
        assert_eq!(direct.worker_threads(), 4);
        let buffered = Configuration::new(3, 2, 1);
        assert_eq!(buffered.updater_count(), 2);
        assert_eq!(buffered.worker_threads(), 5);
        assert_eq!(Configuration::sequential(), Configuration::new(1, 0, 0));
    }

    #[test]
    fn options_defaults_match_paper_choices() {
        let opts = GeneratorOptions::paper_defaults();
        assert_eq!(opts.granularity, InsertGranularity::EnBloc);
        assert!(!opts.formats);
        assert_eq!(GeneratorOptions::default(), opts);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = Configuration::new(6, 2, 0);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(serde_json::from_str::<Configuration>(&json).unwrap(), cfg);
        let imp = Implementation::ReplicateNoJoin;
        let json = serde_json::to_string(&imp).unwrap();
        assert_eq!(serde_json::from_str::<Implementation>(&json).unwrap(), imp);
    }
}
