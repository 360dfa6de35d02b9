//! The pipeline orchestrator.
//!
//! [`IndexGenerator`] wires the three stages together for any combination of
//! [`Implementation`] and [`Configuration`], using real operating-system
//! threads (scoped threads for the workers, a bounded crossbeam channel for
//! the extractor → updater buffer).  It also provides the instrumented
//! sequential baseline ([`IndexGenerator::run_sequential`]) whose per-stage
//! times are the paper's Table 1.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};

use dsearch_index::{join_all, parallel_join, InMemoryIndex, IndexSet, SharedIndex};
use dsearch_text::tokenizer::Tokenizer;
use dsearch_vfs::{FileSystem, VPath};

use crate::config::{Configuration, FormatMode, GeneratorOptions, Implementation, Stage1Mode};
use crate::distribute::{
    partition, stealing_pool, DistributionStrategy, LeaseQueue, StealWorker, WorkItem,
    MAX_LEASE_ATTEMPTS,
};
use crate::error::PipelineError;
use crate::report::{IndexOutcome, ParallelRun, SequentialRun, SequentialTimings};
use crate::stage1::{generate_filenames, FilenameSet};
use crate::stage2::{Extractor, FileTerms, Stage2Stats};
use crate::stage3::{ReplicaSink, SharedSink, UpdateSink};
use crate::timing::StageTimings;

/// The configurable index generator.
///
/// The default instance uses the paper's reference choices
/// ([`GeneratorOptions::paper_defaults`]): round-robin distribution, per-file
/// condensed word lists, en-bloc insertion and an up-front Stage 1.
#[derive(Debug, Clone)]
pub struct IndexGenerator {
    options: GeneratorOptions,
}

impl Default for IndexGenerator {
    fn default() -> Self {
        IndexGenerator { options: GeneratorOptions::paper_defaults() }
    }
}

/// Where an extractor thread obtains its work.
enum WorkSource {
    /// A private, statically assigned vector (no synchronisation).
    Static(Vec<WorkItem>),
    /// The shared dynamic queue (one lock operation per file).
    Queue(Arc<LeaseQueue>),
    /// A private deque with work stealing from the other extractors.
    Stealing(StealWorker),
    /// A channel fed by the concurrent Stage 1 producer.
    Channel(Receiver<WorkItem>),
}

impl IndexGenerator {
    /// Creates a generator with explicit options.
    #[must_use]
    pub fn new(options: GeneratorOptions) -> Self {
        IndexGenerator { options }
    }

    /// The options this generator runs with.
    #[must_use]
    pub fn options(&self) -> &GeneratorOptions {
        &self.options
    }

    fn extractor(&self) -> Extractor {
        let extractor =
            Extractor::new(Tokenizer::new(self.options.tokenizer.clone()), self.options.dedup);
        match self.options.formats {
            FormatMode::PlainTextOnly => extractor,
            FormatMode::DetectAndExtract => {
                extractor.with_formats(dsearch_formats::FormatRegistry::with_builtins())
            }
        }
    }

    /// Runs the fully sequential, instrumented baseline.
    ///
    /// Four passes are timed separately, matching Table 1 of the paper:
    /// filename generation, a read-only pass over every file (the "empty
    /// scanner"), the read-and-extract pass, and the index update.
    ///
    /// # Errors
    ///
    /// Fails when the directory tree cannot be walked or a file cannot be
    /// read.
    pub fn run_sequential<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        root: &VPath,
    ) -> Result<SequentialRun, PipelineError> {
        let mut extractor = self.extractor();

        let sw = Instant::now();
        let set = generate_filenames(fs, root)?;
        let filename_generation = sw.elapsed();

        let sw = Instant::now();
        extractor.scan_only(fs, &set.items)?;
        let read_files = sw.elapsed();

        let sw = Instant::now();
        let mut collected: Vec<FileTerms> = Vec::with_capacity(set.items.len());
        let stage2 = extractor.extract_all(fs, &set.items, |ft| collected.push(ft))?;
        let read_and_extract = sw.elapsed();

        let sw = Instant::now();
        let mut sink = ReplicaSink::new(self.options.granularity);
        for ft in collected {
            sink.apply(ft);
        }
        let index_update = sw.elapsed();

        Ok(SequentialRun {
            timings: SequentialTimings {
                filename_generation,
                read_files,
                read_and_extract,
                index_update,
            },
            stage1: set.stats,
            stage2,
            index: sink.into_index(),
            docs: set.docs,
        })
    }

    /// Runs the parallel generator with the given implementation and
    /// `(x, y, z)` configuration: Stage 1 over the tree under `root`, then
    /// [`run_items`](IndexGenerator::run_items) over everything it found.
    ///
    /// # Errors
    ///
    /// Fails when the tree cannot be walked, or like
    /// [`run_items`](IndexGenerator::run_items).
    pub fn run<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        root: &VPath,
        implementation: Implementation,
        configuration: Configuration,
    ) -> Result<ParallelRun, PipelineError> {
        let sw = Instant::now();
        let set = generate_filenames(fs, root)?;
        let filename_generation = sw.elapsed();
        let mut run = self.run_items(fs, set, implementation, configuration)?;
        run.timings.filename_generation = filename_generation;
        run.timings.total += filename_generation;
        Ok(run)
    }

    /// Stages 2 and 3 (and the join) over the files of `set` — all that
    /// Stage 1 found, or the ones an incremental update
    /// ([`update_store`](IndexGenerator::update_store)) kept of them.  The
    /// run's timings start here: its `filename_generation` is zero and is the
    /// caller's to fill in.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is invalid for the implementation, a
    /// file cannot be read, or a worker thread panics.
    pub fn run_items<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        set: FilenameSet,
        implementation: Implementation,
        configuration: Configuration,
    ) -> Result<ParallelRun, PipelineError> {
        configuration.validate(implementation).map_err(PipelineError::InvalidConfiguration)?;

        let total_sw = Instant::now();
        let FilenameSet { items, docs, stats: stage1_stats } = set;

        // ---- Stages 2+3: extraction and index update ---------------------
        let sw = Instant::now();
        let x = configuration.extraction_threads;
        let y = configuration.update_threads;

        // Build the per-extractor work sources.
        let mut queue_handle: Option<Arc<LeaseQueue>> = None;
        let sources: Vec<WorkSource> = match (self.options.stage1, self.options.distribution) {
            (Stage1Mode::Concurrent, _) => {
                // The producer re-sends the already generated filenames one by
                // one through a rendezvous-sized channel, modelling the
                // per-filename hand-off the paper found inefficient.
                let (tx, rx) = bounded::<WorkItem>(1);
                let producer_items = items.clone();
                std::thread::spawn(move || {
                    for item in producer_items {
                        if tx.send(item).is_err() {
                            break;
                        }
                    }
                });
                (0..x).map(|_| WorkSource::Channel(rx.clone())).collect()
            }
            (Stage1Mode::UpFront, DistributionStrategy::WorkQueue) => {
                let queue = LeaseQueue::new(items.clone(), MAX_LEASE_ATTEMPTS);
                queue_handle = Some(queue.clone());
                (0..x).map(|_| WorkSource::Queue(queue.clone())).collect()
            }
            (Stage1Mode::UpFront, DistributionStrategy::WorkStealing) => {
                stealing_pool(items.clone(), x).into_iter().map(WorkSource::Stealing).collect()
            }
            (Stage1Mode::UpFront, strategy) => {
                partition(items.clone(), x, strategy).into_iter().map(WorkSource::Static).collect()
            }
        };

        let shared_index =
            if implementation.uses_shared_index() { Some(SharedIndex::new()) } else { None };

        let extractor_template = self.extractor();
        let granularity = self.options.granularity;
        let queue_capacity = self.options.queue_capacity();

        // Channel between extractors and dedicated updaters (when y > 0).
        let update_channel: Option<(Sender<FileTerms>, Receiver<FileTerms>)> =
            (y > 0).then(|| bounded(queue_capacity));

        let mut extract_results: Vec<Result<Stage2Stats, PipelineError>> = Vec::new();
        let mut replicas: Vec<InMemoryIndex> = Vec::new();
        let mut worker_panic: Option<&'static str> = None;

        std::thread::scope(|scope| {
            // Spawn updater threads (if any).
            let updater_handles: Vec<_> = match &update_channel {
                Some((_, rx)) => (0..y)
                    .map(|_| {
                        let rx = rx.clone();
                        let shared = shared_index.clone();
                        scope.spawn(move || {
                            let mut shared_sink = shared.map(|s| SharedSink::new(s, granularity));
                            let mut replica_sink = if shared_sink.is_none() {
                                Some(ReplicaSink::new(granularity))
                            } else {
                                None
                            };
                            for file_terms in rx.iter() {
                                if let Some(sink) = shared_sink.as_mut() {
                                    sink.apply(file_terms);
                                } else if let Some(sink) = replica_sink.as_mut() {
                                    sink.apply(file_terms);
                                }
                            }
                            replica_sink.map(ReplicaSink::into_index)
                        })
                    })
                    .collect(),
                None => Vec::new(),
            };

            // Spawn extractor threads.
            let extractor_handles: Vec<_> = sources
                .into_iter()
                .map(|source| {
                    let mut extractor = extractor_template.clone();
                    let shared = shared_index.clone();
                    let sender = update_channel.as_ref().map(|(tx, _)| tx.clone());
                    scope.spawn(
                        move || -> (Result<Stage2Stats, PipelineError>, Option<InMemoryIndex>) {
                            // When there are no dedicated updaters the extractor
                            // owns its own sink.
                            let mut shared_sink = if sender.is_none() {
                                shared.map(|s| SharedSink::new(s, granularity))
                            } else {
                                None
                            };
                            let mut replica_sink = if sender.is_none() && shared_sink.is_none() {
                                Some(ReplicaSink::new(granularity))
                            } else {
                                None
                            };

                            let mut stats = Stage2Stats::default();
                            let mut handle_file = |ft: FileTerms| {
                                stats.files += 1;
                                stats.bytes += ft.bytes;
                                stats.occurrences += ft.occurrences;
                                stats.terms_emitted += ft.terms.len() as u64;
                                if let Some(tx) = &sender {
                                    // The updaters exit when every sender is
                                    // dropped; a send error can only happen if
                                    // they already exited, which means we are
                                    // shutting down.
                                    let _ = tx.send(ft);
                                } else if let Some(sink) = shared_sink.as_mut() {
                                    sink.apply(ft);
                                } else if let Some(sink) = replica_sink.as_mut() {
                                    sink.apply(ft);
                                }
                            };

                            let result: Result<(), PipelineError> = (|| {
                                match source {
                                    WorkSource::Static(work) => {
                                        for item in &work {
                                            let ft = extractor.extract_file(fs, item)?;
                                            handle_file(ft);
                                        }
                                    }
                                    WorkSource::Queue(queue) => {
                                        // Lease/ack instead of pop: a panic
                                        // unwinding out of the extractor
                                        // reclaims the item for another
                                        // worker instead of silently
                                        // dropping the file.
                                        while let Some(lease) = queue.pop() {
                                            let extracted = std::panic::catch_unwind(
                                                std::panic::AssertUnwindSafe(|| {
                                                    extractor.extract_file(fs, lease.item())
                                                }),
                                            );
                                            match extracted {
                                                Ok(Ok(ft)) => {
                                                    handle_file(ft);
                                                    lease.ack();
                                                }
                                                Ok(Err(e)) => {
                                                    lease.ack();
                                                    return Err(e);
                                                }
                                                Err(_) => drop(lease),
                                            }
                                        }
                                    }
                                    WorkSource::Stealing(worker) => {
                                        while let Some(item) = worker.pop() {
                                            let ft = extractor.extract_file(fs, &item)?;
                                            handle_file(ft);
                                        }
                                    }
                                    WorkSource::Channel(rx) => {
                                        for item in rx.iter() {
                                            let ft = extractor.extract_file(fs, &item)?;
                                            handle_file(ft);
                                        }
                                    }
                                }
                                Ok(())
                            })(
                            );

                            let replica = replica_sink.map(ReplicaSink::into_index);
                            (result.map(|()| stats), replica)
                        },
                    )
                })
                .collect();

            // Collect extractors.
            for handle in extractor_handles {
                match handle.join() {
                    Ok((result, replica)) => {
                        extract_results.push(result);
                        if let Some(r) = replica {
                            replicas.push(r);
                        }
                    }
                    Err(_) => worker_panic = Some("extraction"),
                }
            }

            // All extractors are done: drop the senders so updaters drain and
            // exit, then collect their replicas.
            drop(update_channel);
            for handle in updater_handles {
                match handle.join() {
                    Ok(Some(replica)) => replicas.push(replica),
                    Ok(None) => {}
                    Err(_) => worker_panic = Some("index update"),
                }
            }
        });

        // An item every lease holder panicked on is permanently lost work —
        // surface it as the panic it is instead of an index missing a file.
        if worker_panic.is_none() && queue_handle.is_some_and(|q| !q.take_fallen().is_empty()) {
            worker_panic = Some("extraction");
        }
        if let Some(stage) = worker_panic {
            return Err(PipelineError::WorkerPanicked(stage));
        }
        let mut stage2 = Stage2Stats::default();
        for result in extract_results {
            stage2.merge(&result?);
        }
        let extraction = sw.elapsed();

        // ---- Join stage (Implementation 2 only) --------------------------
        let sw = Instant::now();
        let outcome = match implementation {
            Implementation::SharedLocked => {
                let index =
                    shared_index.expect("shared index exists for Implementation 1").into_inner();
                IndexOutcome::Single { index, docs }
            }
            Implementation::ReplicateJoin => {
                let joined = if configuration.join_threads <= 1 {
                    join_all(replicas)
                } else {
                    parallel_join(replicas, configuration.join_threads)
                };
                IndexOutcome::Single { index: joined, docs }
            }
            Implementation::ReplicateNoJoin => {
                IndexOutcome::Replicas { set: IndexSet::new(replicas), docs }
            }
        };
        let join = sw.elapsed();

        let total = total_sw.elapsed();
        Ok(ParallelRun {
            implementation,
            configuration,
            timings: StageTimings { extraction, join, total, ..StageTimings::default() },
            stage1: stage1_stats,
            stage2,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DedupMode, InsertGranularity};
    use crate::testing::segment_bytes;
    use dsearch_corpus::{materialize_to_memfs, CorpusSpec};
    use dsearch_text::Term;
    use dsearch_vfs::{FlakyFs, MemFs};

    fn corpus() -> MemFs {
        let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 11);
        fs
    }

    fn hand_built() -> MemFs {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("d1/a.txt"), b"alpha beta alpha".to_vec()).unwrap();
        fs.add_file(&VPath::new("d1/b.txt"), b"beta gamma".to_vec()).unwrap();
        fs.add_file(&VPath::new("d2/c.txt"), b"gamma delta epsilon".to_vec()).unwrap();
        fs.add_file(&VPath::new("top.txt"), b"alpha".to_vec()).unwrap();
        fs
    }

    #[test]
    fn sequential_run_measures_all_four_columns() {
        let fs = hand_built();
        let run = IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
        assert_eq!(run.stage1.files, 4);
        assert_eq!(run.stage2.files, 4);
        assert_eq!(run.index.file_count(), 4);
        assert_eq!(run.docs.len(), 4);
        assert_eq!(run.index.postings(&Term::from("alpha")).unwrap().len(), 2);
        assert_eq!(run.index_stats().files, 4);
        // All four timings were measured (may be tiny but not negative; total
        // is the production-run subset).
        assert!(run.timings.total() >= run.timings.filename_generation);
    }

    #[test]
    fn all_implementations_build_the_same_index() {
        let fs = corpus();
        let generator = IndexGenerator::default();
        let sequential = generator.run_sequential(&fs, &VPath::root()).unwrap();
        let sequential_bytes = segment_bytes(&sequential.index, &sequential.docs);

        for implementation in Implementation::ALL {
            for config in [
                Configuration::new(1, 0, 0),
                Configuration::new(3, 0, 0),
                Configuration::new(2, 2, if implementation.joins() { 1 } else { 0 }),
                Configuration::new(3, 1, if implementation.joins() { 2 } else { 0 }),
            ] {
                let run = generator.run(&fs, &VPath::root(), implementation, config).unwrap();
                assert_eq!(run.implementation, implementation);
                assert_eq!(run.stage2.files, sequential.stage2.files);
                assert_eq!(run.outcome.file_count(), sequential.index.file_count());
                let (index, docs) = run.outcome.into_single_index();
                assert_eq!(docs, sequential.docs);
                assert!(
                    segment_bytes(&index, &docs) == sequential_bytes,
                    "{implementation} {config} seals to other bytes than the sequential build"
                );
            }
        }
    }

    #[test]
    fn replicate_no_join_keeps_replicas() {
        let fs = corpus();
        let generator = IndexGenerator::default();
        let run = generator
            .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(3, 0, 0))
            .unwrap();
        assert_eq!(run.outcome.replica_count(), 3);
        // Postings unify across replicas.
        let sequential = generator.run_sequential(&fs, &VPath::root()).unwrap();
        for (term, list) in sequential.index.iter().take(25) {
            assert_eq!(run.outcome.postings(term).doc_ids(), list.doc_ids());
        }
    }

    #[test]
    fn dedicated_updaters_produce_replica_per_updater() {
        let fs = corpus();
        let generator = IndexGenerator::default();
        let run = generator
            .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(2, 3, 0))
            .unwrap();
        assert_eq!(run.outcome.replica_count(), 3);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let fs = hand_built();
        let generator = IndexGenerator::default();
        let err = generator
            .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(0, 0, 0))
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
        let err = generator
            .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(1, 0, 2))
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
    }

    #[test]
    fn missing_root_propagates_walk_error() {
        let fs = MemFs::new();
        let generator = IndexGenerator::default();
        let err = generator
            .run(
                &fs,
                &VPath::new("missing"),
                Implementation::SharedLocked,
                Configuration::new(1, 0, 0),
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::Walk(_)));
        assert!(generator.run_sequential(&fs, &VPath::new("missing")).is_err());
    }

    #[test]
    fn alternative_options_still_produce_identical_indices() {
        let fs = corpus();
        let reference = IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
        let reference_bytes = segment_bytes(&reference.index, &reference.docs);

        // However a file's occurrences reach the index — condensed or one by
        // one, en bloc or per term, whichever thread extracted it, one index
        // or replicas — the joined index seals to the bytes of the sequential
        // en-bloc build: same frequencies, same lengths, same list bounds.
        let mut variations = Vec::new();
        for dedup in [DedupMode::PerFileWordList, DedupMode::InsertEveryOccurrence] {
            for granularity in [InsertGranularity::EnBloc, InsertGranularity::PerTerm] {
                for distribution in DistributionStrategy::ALL {
                    let mut options = GeneratorOptions::paper_defaults();
                    (options.dedup, options.granularity) = (dedup, granularity);
                    options.distribution = distribution;
                    variations.push(options);
                }
            }
        }
        let mut concurrent = GeneratorOptions::paper_defaults();
        concurrent.stage1 = Stage1Mode::Concurrent;
        variations.push(concurrent);

        for options in variations {
            let generator = IndexGenerator::new(options.clone());
            assert_eq!(generator.options().distribution, options.distribution);
            for implementation in Implementation::ALL {
                let run = generator
                    .run(&fs, &VPath::root(), implementation, Configuration::new(2, 0, 0))
                    .unwrap();
                let (index, docs) = run.outcome.into_single_index();
                assert!(
                    segment_bytes(&index, &docs) == reference_bytes,
                    "{implementation} with {options:?} seals to other bytes"
                );
            }
        }
    }

    #[test]
    fn work_queue_survives_a_panicking_extractor_read() {
        // Regression test for the lease/ack queue: a read that panics once
        // must not lose its work item.  The dropped lease returns the file to
        // the queue, another pop retries it, and the final index is complete.
        let flaky = FlakyFs::new(hand_built());
        flaky.panic_reads("d1/a.txt", 1);

        let mut options = GeneratorOptions::paper_defaults();
        options.distribution = DistributionStrategy::WorkQueue;
        let generator = IndexGenerator::new(options);
        let run = generator
            .run(&flaky, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(3, 0, 0))
            .unwrap();

        assert_eq!(run.stage2.files, 4, "all four files extracted despite the panic");
        assert_eq!(flaky.read_attempts("d1/a.txt"), 2, "panicked once, retried once");
        let reference =
            IndexGenerator::default().run_sequential(&hand_built(), &VPath::root()).unwrap();
        let (index, docs) = run.outcome.into_single_index();
        assert_eq!(index, reference.index);
        assert_eq!(docs, reference.docs);
    }

    #[test]
    fn work_queue_poisons_an_item_that_always_panics() {
        // A file whose extraction panics on every attempt must not wedge the
        // run: after MAX_LEASE_ATTEMPTS the queue quarantines it and the run
        // reports the extraction-stage failure instead of hanging or silently
        // dropping the file.
        let flaky = FlakyFs::new(hand_built());
        flaky.panic_reads("d1/a.txt", u32::MAX);

        let mut options = GeneratorOptions::paper_defaults();
        options.distribution = DistributionStrategy::WorkQueue;
        let generator = IndexGenerator::new(options);
        let err = generator
            .run(&flaky, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
            .unwrap_err();
        assert!(matches!(err, PipelineError::WorkerPanicked("extraction")), "{err}");
        assert_eq!(flaky.read_attempts("d1/a.txt"), crate::distribute::MAX_LEASE_ATTEMPTS);
    }

    #[test]
    fn format_mode_indexes_markup_files_by_their_text() {
        let fs = MemFs::new();
        fs.add_file(
            &VPath::new("docs/readme.md"),
            b"# Quickstart\n\nRun the *generator* on your corpus\n".to_vec(),
        )
        .unwrap();
        fs.add_file(
            &VPath::new("docs/page.html"),
            b"<html><body>inverted index</body></html>".to_vec(),
        )
        .unwrap();
        fs.add_file(&VPath::new("bin/tool.exe"), vec![0u8, 1, 2, 3, 4]).unwrap();

        let mut options = GeneratorOptions::paper_defaults();
        options.formats = crate::config::FormatMode::DetectAndExtract;
        let generator = IndexGenerator::new(options);
        let run = generator
            .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
            .unwrap();
        let (index, _) = run.outcome.into_single_index();
        assert!(index.contains_term(&Term::from("quickstart")));
        assert!(index.contains_term(&Term::from("generator")));
        assert!(index.contains_term(&Term::from("inverted")));
        assert!(!index.contains_term(&Term::from("body")), "markup tags are not terms");
        // The binary file was read but produced no postings.
        assert_eq!(run.stage2.files, 3);
    }

    #[test]
    fn report_reflects_run_shape() {
        let fs = corpus();
        let run = IndexGenerator::default()
            .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 1, 1))
            .unwrap();
        let report = run.report();
        assert_eq!(report.implementation, Implementation::ReplicateJoin);
        assert_eq!(report.configuration, Configuration::new(2, 1, 1));
        assert!(report.total_seconds > 0.0);
        assert_eq!(report.files, run.stage2.files);
        assert_eq!(report.replicas, 1);
    }
}
