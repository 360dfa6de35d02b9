//! Run results and reports.
//!
//! A sequential run produces [`SequentialRun`] with the four per-stage times
//! of the paper's Table 1; a parallel run produces [`ParallelRun`] whose
//! timings, configuration and implementation are the raw material of
//! Tables 2–4.  [`RunReport`] is the serialisable summary (no index payload)
//! used by the benchmark harness and EXPERIMENTS.md generation.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use dsearch_index::{join_all, DocTable, InMemoryIndex, IndexSet, IndexStats, PostingList};
use dsearch_text::Term;

use crate::config::{Configuration, Implementation};
use crate::stage1::Stage1Stats;
use crate::stage2::Stage2Stats;
use crate::timing::StageTimings;

/// Timings of the sequential baseline, matching Table 1's columns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequentialTimings {
    /// Filename generation (Stage 1).
    pub filename_generation: Duration,
    /// Reading every file without extracting terms (the "empty scanner").
    pub read_files: Duration,
    /// Reading every file and extracting terms.
    pub read_and_extract: Duration,
    /// Inserting the extracted word lists into the index.
    pub index_update: Duration,
}

impl SequentialTimings {
    /// Total time of a sequential index generation: Stage 1 + read-and-extract
    /// + index update (the read-only pass is a measurement aid, not part of a
    ///   production run).
    #[must_use]
    pub fn total(&self) -> Duration {
        self.filename_generation + self.read_and_extract + self.index_update
    }
}

/// Result of the sequential baseline run.
#[derive(Debug)]
pub struct SequentialRun {
    /// Per-stage timings (Table 1).
    pub timings: SequentialTimings,
    /// Stage 1 statistics.
    pub stage1: Stage1Stats,
    /// Stage 2 statistics (from the read-and-extract pass).
    pub stage2: Stage2Stats,
    /// The index that was built.
    pub index: InMemoryIndex,
    /// The document table.
    pub docs: DocTable,
}

impl SequentialRun {
    /// Index statistics.
    #[must_use]
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }
}

/// What a parallel run produced: one joined/shared index, or the un-joined
/// replica set of Implementation 3.
#[derive(Debug)]
pub enum IndexOutcome {
    /// A single index (Implementations 1 and 2).
    Single {
        /// The index.
        index: InMemoryIndex,
        /// The document table.
        docs: DocTable,
    },
    /// Un-joined replicas (Implementation 3).
    Replicas {
        /// The replica set.
        set: IndexSet,
        /// The document table.
        docs: DocTable,
    },
}

impl IndexOutcome {
    /// The document table of the run.
    #[must_use]
    pub fn docs(&self) -> &DocTable {
        match self {
            IndexOutcome::Single { docs, .. } | IndexOutcome::Replicas { docs, .. } => docs,
        }
    }

    /// Number of files indexed.
    #[must_use]
    pub fn file_count(&self) -> u64 {
        match self {
            IndexOutcome::Single { index, .. } => index.file_count(),
            IndexOutcome::Replicas { set, .. } => set.file_count(),
        }
    }

    /// The posting list for `term`, unified across replicas when necessary.
    #[must_use]
    pub fn postings(&self, term: &Term) -> PostingList {
        match self {
            IndexOutcome::Single { index, .. } => index.postings(term).cloned().unwrap_or_default(),
            IndexOutcome::Replicas { set, .. } => set.postings(term),
        }
    }

    /// The indexes as the run built them: the one index, or the un-joined
    /// replicas (what a store seals into one segment without joining).
    #[must_use]
    pub fn replicas(&self) -> &[InMemoryIndex] {
        match self {
            IndexOutcome::Single { index, .. } => std::slice::from_ref(index),
            IndexOutcome::Replicas { set, .. } => set.replicas(),
        }
    }

    /// Takes the outcome apart: [`replicas`](IndexOutcome::replicas), owned,
    /// plus the document table.
    #[must_use]
    pub fn into_replicas(self) -> (Vec<InMemoryIndex>, DocTable) {
        match self {
            IndexOutcome::Single { index, docs } => (vec![index], docs),
            IndexOutcome::Replicas { set, docs } => (set.into_replicas(), docs),
        }
    }

    /// Collapses the outcome into a single index (joining replicas if needed)
    /// plus the document table.
    #[must_use]
    pub fn into_single_index(self) -> (InMemoryIndex, DocTable) {
        let (replicas, docs) = self.into_replicas();
        (join_all(replicas), docs)
    }

    /// Number of replicas (1 for a single index).
    #[must_use]
    pub fn replica_count(&self) -> usize {
        match self {
            IndexOutcome::Single { .. } => 1,
            IndexOutcome::Replicas { set, .. } => set.replica_count(),
        }
    }

    /// Bytes of heap behind the index, or behind all the replicas
    /// ([`InMemoryIndex::heap_bytes`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.replicas().iter().map(InMemoryIndex::heap_bytes).sum()
    }

    /// Aggregate index statistics.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        match self {
            IndexOutcome::Single { index, .. } => index.stats(),
            IndexOutcome::Replicas { set, .. } => set.stats(),
        }
    }
}

/// Result of one parallel run.
#[derive(Debug)]
pub struct ParallelRun {
    /// Which implementation ran.
    pub implementation: Implementation,
    /// The thread-allocation tuple.
    pub configuration: Configuration,
    /// Wall-clock stage timings.
    pub timings: StageTimings,
    /// Stage 1 statistics.
    pub stage1: Stage1Stats,
    /// Combined Stage 2 statistics across extractor threads.
    pub stage2: Stage2Stats,
    /// The index (or replica set) that was built.
    pub outcome: IndexOutcome,
}

impl ParallelRun {
    /// Builds the serialisable report for this run.
    #[must_use]
    pub fn report(&self) -> RunReport {
        RunReport {
            implementation: self.implementation,
            configuration: self.configuration,
            total_seconds: self.timings.total.as_secs_f64(),
            filename_generation_seconds: self.timings.filename_generation.as_secs_f64(),
            extraction_seconds: self.timings.extraction.as_secs_f64(),
            join_seconds: self.timings.join.as_secs_f64(),
            files: self.stage2.files,
            bytes: self.stage2.bytes,
            term_occurrences: self.stage2.occurrences,
            index_stats: self.outcome.stats(),
            replicas: self.outcome.replica_count(),
        }
    }
}

/// A flat, serialisable summary of a run (what the benchmark harness stores).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Which implementation ran.
    pub implementation: Implementation,
    /// The thread-allocation tuple.
    pub configuration: Configuration,
    /// End-to-end wall-clock seconds.
    pub total_seconds: f64,
    /// Stage 1 seconds.
    pub filename_generation_seconds: f64,
    /// Extraction + update seconds.
    pub extraction_seconds: f64,
    /// Join seconds (Implementation 2 only).
    pub join_seconds: f64,
    /// Files processed.
    pub files: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Term occurrences scanned.
    pub term_occurrences: u64,
    /// Statistics of the resulting index.
    pub index_stats: IndexStats,
    /// Number of replica indices in the outcome.
    pub replicas: usize,
}

impl RunReport {
    /// Speed-up relative to a sequential total time.
    #[must_use]
    pub fn speedup_vs_seconds(&self, sequential_seconds: f64) -> f64 {
        if self.total_seconds == 0.0 {
            0.0
        } else {
            sequential_seconds / self.total_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::FileId;

    fn sample_outcome_single() -> IndexOutcome {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file(a, [Term::from("x"), Term::from("y")]);
        index.insert_file(b, [Term::from("y")]);
        IndexOutcome::Single { index, docs }
    }

    fn sample_outcome_replicas() -> IndexOutcome {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let mut r0 = InMemoryIndex::new();
        r0.insert_file(a, [Term::from("x"), Term::from("y")]);
        let mut r1 = InMemoryIndex::new();
        r1.insert_file(b, [Term::from("y")]);
        IndexOutcome::Replicas { set: IndexSet::new(vec![r0, r1]), docs }
    }

    #[test]
    fn sequential_timings_total() {
        let t = SequentialTimings {
            filename_generation: Duration::from_secs(5),
            read_files: Duration::from_secs(77),
            read_and_extract: Duration::from_secs(88),
            index_update: Duration::from_secs(22),
        };
        // Total skips the read-only measurement pass: 5 + 88 + 22.
        assert_eq!(t.total(), Duration::from_secs(115));
    }

    #[test]
    fn outcome_single_accessors() {
        let outcome = sample_outcome_single();
        assert_eq!(outcome.file_count(), 2);
        assert_eq!(outcome.replica_count(), 1);
        assert_eq!(outcome.docs().len(), 2);
        assert_eq!(outcome.postings(&Term::from("y")).len(), 2);
        assert!(outcome.postings(&Term::from("zzz")).is_empty());
        let (index, docs) = outcome.into_single_index();
        assert_eq!(index.file_count(), 2);
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn outcome_replicas_accessors() {
        let outcome = sample_outcome_replicas();
        assert_eq!(outcome.file_count(), 2);
        assert_eq!(outcome.replica_count(), 2);
        assert_eq!(outcome.postings(&Term::from("y")).len(), 2);
        let stats = outcome.stats();
        assert_eq!(stats.files, 2);
        let (joined, _) = outcome.into_single_index();
        assert_eq!(joined.postings(&Term::from("y")).unwrap().doc_ids(), &[FileId(0), FileId(1)]);
    }

    #[test]
    fn report_serialises_and_computes_speedup() {
        let run = ParallelRun {
            implementation: Implementation::ReplicateNoJoin,
            configuration: Configuration::new(9, 4, 0),
            timings: StageTimings { total: Duration::from_secs_f64(25.7), ..Default::default() },
            stage1: Stage1Stats::default(),
            stage2: Stage2Stats {
                files: 51_000,
                bytes: 869_000_000,
                occurrences: 1,
                terms_emitted: 1,
            },
            outcome: sample_outcome_replicas(),
        };
        let report = run.report();
        assert_eq!(report.configuration.to_string(), "(9, 4, 0)");
        assert_eq!(report.replicas, 2);
        let speedup = report.speedup_vs_seconds(90.0);
        assert!((speedup - 3.5).abs() < 0.01, "speedup {speedup}");
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(RunReport { total_seconds: 0.0, ..report }.speedup_vs_seconds(90.0), 0.0);
    }
}
