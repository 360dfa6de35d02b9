//! The pipeline orchestrator.
//!
//! [`IndexGenerator`] wires the three stages together for any combination of
//! [`Implementation`] and [`Configuration`], using real operating-system
//! threads (scoped threads for the workers, a bounded crossbeam channel for
//! the extractor → updater buffer).  It also provides the instrumented
//! sequential baseline ([`IndexGenerator::run_sequential`]) whose per-stage
//! times are the paper's Table 1.
//!
//! Its extractor loop is the one build loop, for `index` and for the
//! checkpointed [`BuildPipeline`](crate::pipeline::BuildPipeline) alike.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};

use dsearch_index::{join_all, parallel_join, InMemoryIndex, IndexSet, SharedIndex};
use dsearch_text::tokenizer::Tokenizer;
use dsearch_vfs::{FileSystem, VPath};

use crate::config::{Configuration, GeneratorOptions, Implementation, InsertGranularity};
use crate::distribute::{deal, WorkItem};
use crate::error::PipelineError;
use crate::pipeline::CancelToken;
use crate::report::{IndexOutcome, ParallelRun, SequentialRun, SequentialTimings};
use crate::stage1::{generate_filenames, FilenameSet};
use crate::stage2::{Extractor, FileTerms, Stage2Stats};
use crate::stage3::{ReplicaSink, SharedSink, UpdateSink};
use crate::timing::StageTimings;

/// Files in flight between the extractors and the dedicated updaters (when
/// `y > 0`).
const UPDATE_QUEUE_CAPACITY: usize = 64;

/// The configurable index generator.
///
/// Stage 1 runs up front; Stage 2 deals its files round-robin into one
/// private vector per extractor and condenses each file's word list; the
/// default instance inserts each list en bloc
/// ([`GeneratorOptions::paper_defaults`]) — the paper's reference choices.
#[derive(Debug, Clone)]
pub struct IndexGenerator {
    options: GeneratorOptions,
}

impl Default for IndexGenerator {
    fn default() -> Self {
        IndexGenerator { options: GeneratorOptions::paper_defaults() }
    }
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
        Extractor::new(Tokenizer::new(self.options.tokenizer.clone()))
            .with_formats(self.options.formats)
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
        self.run_supervised(fs, set, implementation, configuration, &CancelToken::new())
    }

    /// [`run_items`](IndexGenerator::run_items) with `supervisor` deciding
    /// what a failed file, a stop request and a grown replica mean.
    pub(crate) fn run_supervised<F, S>(
        &self,
        fs: &F,
        set: FilenameSet,
        implementation: Implementation,
        configuration: Configuration,
        supervisor: &S,
    ) -> Result<ParallelRun, PipelineError>
    where
        F: FileSystem + ?Sized,
        S: Supervisor,
    {
        configuration.validate(implementation).map_err(PipelineError::InvalidConfiguration)?;

        let total_sw = Instant::now();
        let FilenameSet { items, docs, stats: stage1_stats } = set;

        // ---- Stages 2+3: extraction and index update ---------------------
        let sw = Instant::now();
        let x = configuration.extraction_threads;
        let y = configuration.update_threads;

        // Round-robin into private vectors: no synchronisation between the
        // extractors until their word lists reach the index.
        let shares = deal(items, x);

        let shared_index =
            if implementation.uses_shared_index() { Some(SharedIndex::new()) } else { None };

        let extractor_template = self.extractor();
        let granularity = self.options.granularity;

        // Channel between extractors and dedicated updaters (when y > 0).
        let update_channel = (y > 0).then(|| bounded::<FileTerms>(UPDATE_QUEUE_CAPACITY));

        let mut extract_results: Vec<Result<Stage2Stats, PipelineError>> = Vec::new();
        let mut replicas: Vec<InMemoryIndex> = Vec::new();
        let mut worker_panic: Option<&'static str> = None;

        std::thread::scope(|scope| {
            // Spawn updater threads (if any).
            let updater_handles: Vec<_> = match &update_channel {
                Some((_, rx)) => (0..y)
                    .map(|_| {
                        let rx = rx.clone();
                        let mut destination = Destination::index(&shared_index, granularity);
                        scope.spawn(move || {
                            for file_terms in rx.iter() {
                                destination.apply(file_terms);
                            }
                            destination.into_replica()
                        })
                    })
                    .collect(),
                None => Vec::new(),
            };

            // Spawn extractor threads.  When there are no dedicated updaters
            // an extractor owns its sink.
            let extractor_handles: Vec<_> = shares
                .into_iter()
                .map(|share| {
                    let mut destination = match &update_channel {
                        Some((tx, _)) => Destination::Updaters(tx.clone()),
                        None => Destination::index(&shared_index, granularity),
                    };
                    let template = &extractor_template;
                    scope.spawn(move || {
                        let result =
                            extract_share(fs, template, share, &mut destination, supervisor);
                        if result.is_err() {
                            supervisor.halt();
                        }
                        (result, destination.into_replica())
                    })
                })
                .collect();

            // Collect extractors.
            for handle in extractor_handles {
                match handle.join() {
                    Ok((result, replica)) => {
                        extract_results.push(result);
                        replicas.extend(replica);
                    }
                    Err(_) => worker_panic = Some("extraction"),
                }
            }

            // All extractors are done: drop the senders so updaters drain and
            // exit, then collect their replicas.
            drop(update_channel);
            for handle in updater_handles {
                match handle.join() {
                    Ok(replica) => replicas.extend(replica),
                    Err(_) => worker_panic = Some("index update"),
                }
            }
        });

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

/// What a run does with a failed file, a stop request and a growing replica.
/// `index` fails on the first failed file (a bare [`CancelToken`]); the
/// checkpointed build retries, dead-letters and seals.
pub(crate) trait Supervisor: Sync {
    /// Checked before every file: `true` ends the extractor's loop.
    fn stopped(&self) -> bool;

    /// Stops every extractor: one of them failed the run.
    fn halt(&self);

    /// Called before each extraction, outside any lock.
    fn before_extract(&self) {}

    /// The `attempts`-th failed extraction of `item` (a panic arrives as
    /// [`PipelineError::WorkerPanicked`]): `Ok(Some(delay))` retries it once
    /// `delay` has passed, `Ok(None)` gives it up, `Err` fails the run.
    fn failed(
        &self,
        _item: &WorkItem,
        _attempts: u32,
        error: PipelineError,
    ) -> Result<Option<Duration>, PipelineError> {
        Err(error)
    }

    /// A file has reached `replica`, which this extractor last emptied at
    /// `sealed_at` (or started with then).
    fn extracted(
        &self,
        _replica: &mut ReplicaSink,
        _sealed_at: &mut Instant,
    ) -> Result<(), PipelineError> {
        Ok(())
    }
}

impl Supervisor for CancelToken {
    fn stopped(&self) -> bool {
        self.is_cancelled()
    }

    fn halt(&self) {
        self.cancel();
    }
}

/// Where a worker puts each file's word list.
enum Destination {
    /// To the dedicated updaters (an extractor, when `y > 0`).
    Updaters(Sender<FileTerms>),
    /// Into the one shared index (Implementation 1).
    Shared(SharedSink),
    /// Into its own replica (Implementations 2 and 3).
    Replica(ReplicaSink),
}

impl Destination {
    /// An updating worker's index: the shared one, if any, else its own.
    fn index(shared: &Option<SharedIndex>, granularity: InsertGranularity) -> Self {
        match shared {
            Some(shared) => Destination::Shared(SharedSink::new(shared.clone(), granularity)),
            None => Destination::Replica(ReplicaSink::new(granularity)),
        }
    }

    fn apply(&mut self, terms: FileTerms) {
        match self {
            // The updaters exit when every sender is dropped; a send error
            // can only happen if they already exited, which means we are
            // shutting down.
            Destination::Updaters(tx) => {
                let _ = tx.send(terms);
            }
            Destination::Shared(sink) => sink.apply(terms),
            Destination::Replica(sink) => sink.apply(terms),
        }
    }

    fn into_replica(self) -> Option<InMemoryIndex> {
        match self {
            Destination::Replica(sink) => Some(sink.into_index()),
            _ => None,
        }
    }
}

/// One extractor: its dealt share in order, each file under `catch_unwind`.
/// A file to retry waits on the extractor's own delayed list until due; once
/// the share is done, the extractor sleeps until the earliest is.
fn extract_share<F, S>(
    fs: &F,
    template: &Extractor,
    share: Vec<WorkItem>,
    destination: &mut Destination,
    supervisor: &S,
) -> Result<Stage2Stats, PipelineError>
where
    F: FileSystem + ?Sized,
    S: Supervisor,
{
    // Each extractor interns the vocabulary in its own scratch.
    let mut extractor = template.clone();
    let mut stats = Stage2Stats::default();
    let mut sealed_at = Instant::now();
    // `(due, item, failed attempts)`.
    let mut delayed: Vec<(Instant, WorkItem, u32)> = Vec::new();
    let mut fresh = share.into_iter();
    while !supervisor.stopped() {
        let now = Instant::now();
        let (item, attempts) = if let Some(i) = delayed.iter().position(|(due, ..)| *due <= now) {
            let (_, item, attempts) = delayed.swap_remove(i);
            (item, attempts)
        } else if let Some(item) = fresh.next() {
            (item, 0)
        } else if let Some(due) = delayed.iter().map(|(due, ..)| *due).min() {
            std::thread::sleep(due.saturating_duration_since(now));
            continue;
        } else {
            break;
        };
        supervisor.before_extract();
        let error = match catch_unwind(AssertUnwindSafe(|| extractor.extract_file(fs, &item))) {
            Ok(Ok(terms)) => {
                stats.record(&terms);
                destination.apply(terms);
                if let Destination::Replica(sink) = destination {
                    supervisor.extracted(sink, &mut sealed_at)?;
                }
                continue;
            }
            Ok(Err(error)) => error,
            Err(_) => {
                // The panic may have left the scratch half-filled.
                extractor = template.clone();
                PipelineError::WorkerPanicked("extraction")
            }
        };
        if let Some(delay) = supervisor.failed(&item, attempts + 1, error)? {
            delayed.push((Instant::now() + delay, item, attempts + 1));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
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

        // However a file's word list reaches the index — en bloc or per term,
        // one index or replicas — the joined index seals to the bytes of the
        // sequential en-bloc build: same frequencies, same lengths, same list
        // bounds.
        for granularity in [InsertGranularity::EnBloc, InsertGranularity::PerTerm] {
            let mut options = GeneratorOptions::paper_defaults();
            options.granularity = granularity;
            let generator = IndexGenerator::new(options);
            assert_eq!(generator.options().granularity, granularity);
            for implementation in Implementation::ALL {
                let run = generator
                    .run(&fs, &VPath::root(), implementation, Configuration::new(2, 0, 0))
                    .unwrap();
                let (index, docs) = run.outcome.into_single_index();
                assert!(
                    segment_bytes(&index, &docs) == reference_bytes,
                    "{implementation} with {granularity:?} seals to other bytes"
                );
            }
        }
    }

    #[test]
    fn a_panicking_extractor_fails_the_run_without_hanging() {
        // A read that panics kills its extractor thread.  The run reports the
        // extraction-stage failure instead of unwinding into the caller, and
        // with dedicated updaters (y = 1) they still drain and exit once the
        // surviving extractors are done.
        for implementation in Implementation::ALL {
            for config in [Configuration::new(2, 0, 0), Configuration::new(2, 1, 0)] {
                let (done, outcome) = std::sync::mpsc::channel();
                let run = std::thread::spawn(move || {
                    let flaky = FlakyFs::new(hand_built());
                    flaky.panic_reads("d1/a.txt", 1);
                    let result = IndexGenerator::default()
                        .run(&flaky, &VPath::root(), implementation, config)
                        .map(|_| ());
                    let _ = done.send((result, flaky.read_attempts("d1/a.txt")));
                });
                let (result, attempts) = outcome
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|e| panic!("{implementation} {config}: no outcome ({e})"));
                run.join().expect("the run returned its outcome, so its thread ends");
                let err = result.unwrap_err();
                assert!(
                    matches!(err, PipelineError::WorkerPanicked("extraction")),
                    "{implementation} {config}: {err}"
                );
                assert_eq!(attempts, 1, "{implementation} {config}");
            }
        }
    }

    #[test]
    fn a_failure_outside_extraction_fails_the_run_and_stops_the_others() {
        // A supervisor that fails (or panics) on the second file it is told
        // of: the run returns the error, never a run, and the other
        // extractors are told to stop.
        struct FailsOnSecond {
            panics: bool,
            seen: std::sync::atomic::AtomicU32,
            stop: CancelToken,
        }
        impl Supervisor for FailsOnSecond {
            fn stopped(&self) -> bool {
                self.stop.is_cancelled()
            }
            fn halt(&self) {
                self.stop.cancel();
            }
            fn extracted(
                &self,
                _replica: &mut ReplicaSink,
                _sealed_at: &mut Instant,
            ) -> Result<(), PipelineError> {
                if self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 1 {
                    assert!(!self.panics, "scripted panic outside extraction");
                    return Err(PipelineError::ResumeRejected("scripted".into()));
                }
                Ok(())
            }
        }

        let fs = corpus();
        let generator = IndexGenerator::default();
        for panics in [false, true] {
            let supervisor =
                FailsOnSecond { panics, seen: Default::default(), stop: CancelToken::new() };
            let set = generate_filenames(&fs, &VPath::root()).unwrap();
            let err = generator
                .run_supervised(
                    &fs,
                    set,
                    Implementation::ReplicateNoJoin,
                    Configuration::new(2, 0, 0),
                    &supervisor,
                )
                .unwrap_err();
            if panics {
                assert!(matches!(err, PipelineError::WorkerPanicked("extraction")), "{err}");
            } else {
                assert!(matches!(err, PipelineError::ResumeRejected(_)), "{err}");
                assert!(supervisor.stopped(), "the failing extractor halts the run");
            }
        }
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
        options.formats = true;
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
