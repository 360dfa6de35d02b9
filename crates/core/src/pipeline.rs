//! Checkpointed, fault-tolerant index builds.
//!
//! [`BuildPipeline`] runs the pipeline `index` runs — Implementation 3 at
//! `(x, 0, 0)`: the files dealt round-robin, one replica per extractor, no
//! shared work queue and no lock per file — and adds what a deployed
//! generator needs:
//!
//! * **Retry with backoff** — a transient read failure or a caught panic
//!   waits on its extractor's own delayed list and is retried between files
//!   once due; permanent failures and files out of attempts go to the
//!   on-disk dead-letter queue instead of failing the build.
//! * **Checkpointing** — every `checkpoint_every`, an extractor seals its
//!   replica into an ordinary segment and only then extends the durable
//!   [`BuildCheckpoint`], so a killed build resumes re-extracting only the
//!   unsealed tail.  An uninterrupted build seals the replicas' tails as one
//!   segment, as `index` does: with an interval longer than the build its
//!   store is `index`'s byte for byte.  Periodic seals cost up to *x*
//!   segments per interval.
//! * **DLQ replay** ([`BuildPipeline::replay_dlq`]) — a recovered file
//!   leaves the queue in the seal that records it.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_persist::{BuildCheckpoint, DeadLetter, DeadLetterQueue, IndexStore};
use dsearch_vfs::{FileSystem, VPath, VfsError};

use crate::config::{Configuration, GeneratorOptions, Implementation};
use crate::distribute::WorkItem;
use crate::error::PipelineError;
use crate::runner::{IndexGenerator, Supervisor};
use crate::stage1::{generate_filenames, FilenameSet};
use crate::stage3::ReplicaSink;

/// Base delay of the exponential retry backoff.
const RETRY_BASE: Duration = Duration::from_millis(10);

/// Upper bound on a single retry delay.
const RETRY_CAP: Duration = Duration::from_secs(1);

/// Options of a checkpointed build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Extractor worker threads.
    pub extractors: usize,
    /// Maximum extraction attempts per file before it is dead-lettered.
    pub max_retries: u32,
    /// Minimum interval between an extractor's seals of its replica.
    /// [`Duration::ZERO`] seals after every completed file (maximum
    /// durability, maximum overhead — the bench measures the trade-off).
    pub checkpoint_every: Duration,
    /// Resume from an existing checkpoint instead of starting fresh.
    pub resume: bool,
    /// Detect file formats and extract text before tokenising.
    pub formats: bool,
    /// Artificial per-file delay, used by tests and the CI kill–resume smoke
    /// to make a SIGKILL land mid-corpus deterministically.
    pub throttle: Duration,
    /// Stop the build (as if it crashed) after this many successful
    /// extractions — the hook the interruption tests and the resumed-build
    /// bench use.  `None` runs to completion.
    pub stop_after: Option<u64>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            extractors: 4,
            max_retries: 3,
            checkpoint_every: Duration::from_secs(1),
            resume: false,
            formats: false,
            throttle: Duration::ZERO,
            stop_after: None,
        }
    }
}

/// The counter totals of one build.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Files extracted successfully.
    pub items_ok: u64,
    /// Retries scheduled after transient failures (including caught panics).
    pub items_retried: u64,
    /// Files dead-lettered.
    pub items_dead: u64,
    /// Checkpoints written.
    pub checkpoint_writes: u64,
    /// Always 0, kept because the repo benchmark reads it: no file is leased
    /// from a shared queue any more, so none is reclaimed from a dead holder.
    pub lease_reclaims: u64,
}

/// Outcome of a checkpointed build.
#[derive(Debug, Clone, Serialize)]
pub struct BuildReport {
    /// Files the Stage 1 walk discovered.
    pub files: u64,
    /// Files skipped because a checkpoint or the DLQ already covered them.
    pub skipped: u64,
    /// Bytes read by successful extractions this run.
    pub bytes: u64,
    /// Counter totals for this run.
    pub counters: CounterSnapshot,
    /// Segments live in the store after the build.
    pub segments: usize,
    /// Files quarantined in the DLQ (across all runs, as on disk).
    pub dead_letters: usize,
    /// `true` when every discovered file is extracted or dead-lettered.
    pub complete: bool,
    /// `true` when the build stopped early (`stop_after` or cancellation).
    pub interrupted: bool,
    /// Wall-clock seconds.
    pub elapsed_seconds: f64,
    /// Fingerprint of the corpus file list the build ran over.
    pub corpus_fingerprint: u64,
    /// The most heap the replicas held when they were sealed into a segment
    /// ([`InMemoryIndex::heap_bytes`]).
    pub index_heap_bytes: u64,
}

/// Outcome of a DLQ replay.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ReplayReport {
    /// Quarantined items matched against the current corpus and re-run.
    pub attempted: u64,
    /// Items that extracted successfully, were sealed and left the queue.
    pub recovered: u64,
    /// Items still quarantined after the replay.
    pub still_dead: u64,
    /// Quarantined paths that no longer exist in the corpus.
    pub missing: u64,
}

/// A cooperative cancellation handle for a running build.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates an un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; workers stop after their current file.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`Self::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// FNV-1a fingerprint of a corpus file list (paths and sizes, in walk
/// order).  Stage 1 walks deterministically, so equal corpora produce equal
/// fingerprints and stable file ids — the invariant resume depends on.
#[must_use]
pub fn corpus_fingerprint(items: &[WorkItem]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mix = |byte: u8, hash: &mut u64| {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(PRIME);
    };
    for item in items {
        for &b in item.path.as_str().as_bytes() {
            mix(b, &mut hash);
        }
        mix(0xff, &mut hash);
        for b in item.size.to_le_bytes() {
            mix(b, &mut hash);
        }
    }
    hash
}

/// Exponential backoff with deterministic jitter: attempt *n* waits
/// `base * 2^(n-1)` capped at `cap`, jittered into the upper half of that
/// window by an xorshift hash of `(file_id, attempts)` — deterministic for
/// tests, de-synchronised across items.
#[must_use]
pub fn backoff_delay(base: Duration, cap: Duration, attempts: u32, file_id: u32) -> Duration {
    let base_ns = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX).max(1);
    let cap_ns = u64::try_from(cap.as_nanos()).unwrap_or(u64::MAX).max(1);
    let shift = attempts.saturating_sub(1).min(20);
    let exp = base_ns.saturating_mul(1u64 << shift).min(cap_ns);
    let mut x = (u64::from(file_id) << 32) ^ u64::from(attempts) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let half = exp / 2;
    Duration::from_nanos(half + x % (exp - half + 1))
}

/// The store, checkpoint and DLQ, and the counts of failures and seals:
/// behind one lock, taken per seal or failed attempt, never per file.
struct Durable {
    store: IndexStore,
    checkpoint: BuildCheckpoint,
    dlq: DeadLetterQueue,
    /// The document table every segment of the run is sealed over.
    docs: DocTable,
    /// All but `items_ok`, which the extractors count without the lock.
    counters: CounterSnapshot,
    /// The most heap the replicas held at a seal.
    peak_heap: usize,
}

impl Durable {
    /// Seals `replicas` into one segment, then durably extends the
    /// checkpoint with their files, then lets the quarantined ones among them
    /// leave the DLQ.  Ordering matters: the checkpoint is written only after
    /// its segment exists, so a crash between the two leaves an orphan
    /// segment that `reconcile` drops on resume — never a checkpoint that
    /// promises missing data; and a file leaves the DLQ only once the
    /// checkpoint records it.
    fn seal(&mut self, replicas: &[InMemoryIndex]) -> Result<(), PipelineError> {
        let mut ids: Vec<u32> =
            replicas.iter().flat_map(|r| r.doc_lens().map(|(id, _)| id.as_u32())).collect();
        if ids.is_empty() {
            return Ok(());
        }
        ids.sort_unstable();
        self.peak_heap = self.peak_heap.max(replicas.iter().map(InMemoryIndex::heap_bytes).sum());
        let (name, _info) = self.store.commit_named(replicas, &self.docs)?;
        self.checkpoint.segments.push(name);
        self.checkpoint.completed.extend_from_slice(&ids);
        self.checkpoint.save(self.store.root())?;
        self.counters.checkpoint_writes += 1;
        // A replay runs over the corpus the checkpoint fingerprinted, so a
        // quarantined file keeps the id its entry names.
        let quarantined = self.dlq.len();
        self.dlq.entries.retain(|e| ids.binary_search(&e.file_id).is_err());
        if self.dlq.len() < quarantined {
            self.dlq.save(self.store.root())?;
        }
        Ok(())
    }

    /// Quarantines an item with its final error.
    fn dead(&mut self, item: &WorkItem, attempts: u32, error: String) -> Result<(), PipelineError> {
        self.counters.items_dead += 1;
        let path = item.path.as_str().to_owned();
        let file_id = item.file_id.as_u32();
        if let Some(existing) = self.dlq.entries.iter_mut().find(|e| e.path == path) {
            existing.attempts = existing.attempts.max(attempts);
            existing.error = error;
            existing.file_id = file_id;
        } else {
            self.dlq.entries.push(DeadLetter { path, file_id, attempts, error });
        }
        self.dlq.save(self.store.root())?;
        Ok(())
    }
}

/// One checkpointed run, as the extractor loop's [`Supervisor`].
struct BuildRun<'a> {
    options: &'a BuildOptions,
    /// The caller's ([`BuildPipeline::cancel_token`]).
    cancel: &'a CancelToken,
    /// This run's: cancelled at `stop_after` or on a fatal error.
    stop: CancelToken,
    items_ok: AtomicU64,
    durable: parking_lot::Mutex<Durable>,
}

impl Supervisor for BuildRun<'_> {
    fn stopped(&self) -> bool {
        self.stop.is_cancelled() || self.cancel.is_cancelled()
    }

    fn halt(&self) {
        self.stop.cancel();
    }

    fn before_extract(&self) {
        if !self.options.throttle.is_zero() {
            std::thread::sleep(self.options.throttle);
        }
    }

    /// Retries with backoff while the budget and the error's nature allow;
    /// dead-letters otherwise.
    fn failed(
        &self,
        item: &WorkItem,
        attempts: u32,
        error: PipelineError,
    ) -> Result<Option<Duration>, PipelineError> {
        if is_permanent(&error) || attempts >= self.options.max_retries.max(1) {
            let error = match error {
                PipelineError::WorkerPanicked(_) => {
                    format!("extraction panicked on {}", item.path)
                }
                error => error.to_string(),
            };
            self.durable.lock().dead(item, attempts, error)?;
            Ok(None)
        } else {
            self.durable.lock().counters.items_retried += 1;
            Ok(Some(backoff_delay(RETRY_BASE, RETRY_CAP, attempts, item.file_id.as_u32())))
        }
    }

    /// Seals the extractor's replica once the interval has passed since its
    /// last seal, and stops the run at `stop_after`.
    fn extracted(
        &self,
        replica: &mut ReplicaSink,
        sealed_at: &mut Instant,
    ) -> Result<(), PipelineError> {
        let ok = self.items_ok.fetch_add(1, Ordering::Relaxed) + 1;
        if sealed_at.elapsed() >= self.options.checkpoint_every {
            let index = replica.take_index();
            self.durable.lock().seal(std::slice::from_ref(&index))?;
            *sealed_at = Instant::now();
        }
        if self.options.stop_after.is_some_and(|n| ok >= n) {
            self.stop.cancel();
        }
        Ok(())
    }
}

/// The checkpointed build pipeline.
#[derive(Debug, Clone)]
pub struct BuildPipeline {
    options: BuildOptions,
    cancel: CancelToken,
}

impl BuildPipeline {
    /// Creates a pipeline with the given options.
    #[must_use]
    pub fn new(options: BuildOptions) -> Self {
        BuildPipeline { options, cancel: CancelToken::new() }
    }

    /// A handle that cancels a build running on another thread.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs a checkpointed build of the tree under `root` into the store at
    /// `store_root`.
    ///
    /// A fresh build (the default) takes ownership of the store: previous
    /// segments, checkpoint and DLQ are cleared.  With
    /// [`BuildOptions::resume`] the build loads the existing checkpoint,
    /// refuses a changed corpus, reconciles orphan segments, and extracts
    /// only the files not yet sealed or quarantined.
    ///
    /// # Errors
    ///
    /// Fails on Stage 1 walk errors, persistence failures, a rejected
    /// resume, or an extractor that dies outside extraction.  Per-file
    /// extraction failures do *not* fail the build — they retry and then
    /// dead-letter.
    pub fn build<F>(
        &self,
        fs: &F,
        root: &VPath,
        store_root: &Path,
    ) -> Result<BuildReport, PipelineError>
    where
        F: FileSystem + ?Sized,
    {
        let mut set = generate_filenames(fs, root)?;
        let fingerprint = corpus_fingerprint(&set.items);
        let mut store = IndexStore::open(store_root)?;
        let files = set.items.len() as u64;
        let resumed = if self.options.resume { resume(&mut store, fingerprint)? } else { None };
        // Resuming with no checkpoint on disk is a fresh build.
        let (checkpoint, dlq) = match resumed {
            Some((mut checkpoint, dlq)) => {
                let done: HashSet<u32> = checkpoint.completed.iter().copied().collect();
                set.items.retain(|i| {
                    !done.contains(&i.file_id.as_u32()) && !dlq.contains(i.path.as_str())
                });
                checkpoint.complete = false;
                (checkpoint, dlq)
            }
            None => {
                BuildCheckpoint::remove(store.root())?;
                store.clear_segments()?;
                let dlq = DeadLetterQueue::default();
                dlq.save(store.root())?;
                (BuildCheckpoint::new(fingerprint), dlq)
            }
        };
        let skipped = files - set.items.len() as u64;
        self.run(fs, set, store, checkpoint, dlq, skipped)
    }

    /// Re-runs the quarantined items of the store's DLQ through the
    /// pipeline.  Recovered items are sealed into a new segment, added to
    /// the checkpoint and removed from the queue; items that fail again stay
    /// quarantined with their latest error.
    ///
    /// # Errors
    ///
    /// Fails when the store has no checkpoint, the corpus changed since the
    /// checkpoint was written, or persistence fails.
    pub fn replay_dlq<F>(
        &self,
        fs: &F,
        root: &VPath,
        store_root: &Path,
    ) -> Result<ReplayReport, PipelineError>
    where
        F: FileSystem + ?Sized,
    {
        let mut set = generate_filenames(fs, root)?;
        let fingerprint = corpus_fingerprint(&set.items);
        let mut store = IndexStore::open(store_root)?;
        let Some((checkpoint, dlq)) = resume(&mut store, fingerprint)? else {
            return Err(PipelineError::ResumeRejected(
                "no checkpoint in the store; run `dsearch build` first".to_owned(),
            ));
        };
        if dlq.is_empty() {
            return Ok(ReplayReport::default());
        }
        let quarantined = dlq.len() as u64;
        set.items.retain(|i| dlq.contains(i.path.as_str()));
        let attempted = set.items.len() as u64;
        let missing = quarantined - attempted;

        // A file leaves the queue only when a seal records it, and one that
        // fails again keeps its entry.
        let report = self.run(fs, set, store, checkpoint, dlq, 0)?;
        let still_dead = report.dead_letters as u64;
        Ok(ReplayReport { attempted, recovered: quarantined - still_dead, still_dead, missing })
    }

    /// The files of `set` through the one extractor loop, as Implementation
    /// 3 at `(extractors, 0, 0)` — shared by `build` and `replay_dlq`.
    fn run<F>(
        &self,
        fs: &F,
        set: FilenameSet,
        store: IndexStore,
        checkpoint: BuildCheckpoint,
        dlq: DeadLetterQueue,
        skipped: u64,
    ) -> Result<BuildReport, PipelineError>
    where
        F: FileSystem + ?Sized,
    {
        let started = Instant::now();
        let files = set.items.len() as u64 + skipped;
        let docs = set.docs.clone();
        let durable =
            Durable { store, checkpoint, dlq, docs, counters: Default::default(), peak_heap: 0 };
        let supervisor = BuildRun {
            options: &self.options,
            cancel: &self.cancel,
            stop: CancelToken::new(),
            items_ok: AtomicU64::new(0),
            durable: parking_lot::Mutex::new(durable),
        };
        let generator = IndexGenerator::new(GeneratorOptions {
            formats: self.options.formats,
            ..GeneratorOptions::paper_defaults()
        });
        let run = generator.run_supervised(
            fs,
            set,
            Implementation::ReplicateNoJoin,
            Configuration::new(self.options.extractors, 0, 0),
            &supervisor,
        )?;

        let interrupted = supervisor.stopped();
        let BuildRun { items_ok, durable, .. } = supervisor;
        let mut durable = durable.into_inner();
        if !interrupted {
            // Seal the replicas' tails as one segment, as `index` does, and
            // mark the build done.  An interrupted build skips this: it must
            // look exactly like a crash, so resume is exercised honestly.
            durable.seal(run.outcome.replicas())?;
            durable.checkpoint.complete = true;
            durable.checkpoint.save(durable.store.root())?;
        }
        Ok(BuildReport {
            files,
            skipped,
            bytes: run.stage2.bytes,
            counters: CounterSnapshot { items_ok: items_ok.into_inner(), ..durable.counters },
            segments: durable.store.segment_count(),
            dead_letters: durable.dlq.len(),
            complete: !interrupted,
            interrupted,
            elapsed_seconds: started.elapsed().as_secs_f64(),
            corpus_fingerprint: durable.checkpoint.corpus_fingerprint,
            index_heap_bytes: durable.peak_heap.max(run.outcome.heap_bytes()) as u64,
        })
    }
}

/// The store's checkpoint, if any, and DLQ, orphan segments dropped — refused
/// when the corpus is not the one the checkpoint fingerprinted.
fn resume(
    store: &mut IndexStore,
    fingerprint: u64,
) -> Result<Option<(BuildCheckpoint, DeadLetterQueue)>, PipelineError> {
    let Some(checkpoint) = BuildCheckpoint::load(store.root())? else {
        return Ok(None);
    };
    if checkpoint.corpus_fingerprint != fingerprint {
        return Err(PipelineError::ResumeRejected(format!(
            "corpus changed since the checkpoint was written \
             (fingerprint {:#018x} != {fingerprint:#018x}); run a fresh build",
            checkpoint.corpus_fingerprint
        )));
    }
    checkpoint.reconcile(store)?;
    Ok(Some((checkpoint, DeadLetterQueue::load(store.root())?)))
}

/// Whether an extraction error can never succeed on retry.
fn is_permanent(error: &PipelineError) -> bool {
    match error {
        PipelineError::Read { source, .. } => matches!(
            source,
            VfsError::NotFound(_) | VfsError::NotAFile(_) | VfsError::NotADirectory(_)
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{stored, TempDir};
    use dsearch_vfs::{FlakyFs, MemFs};

    fn corpus() -> MemFs {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("d1/a.txt"), b"alpha beta alpha".to_vec()).unwrap();
        fs.add_file(&VPath::new("d1/b.txt"), b"beta gamma".to_vec()).unwrap();
        fs.add_file(&VPath::new("d2/c.txt"), b"gamma delta epsilon".to_vec()).unwrap();
        fs.add_file(&VPath::new("top.txt"), b"alpha".to_vec()).unwrap();
        fs
    }

    fn fast_options() -> BuildOptions {
        BuildOptions { extractors: 2, checkpoint_every: Duration::ZERO, ..BuildOptions::default() }
    }

    #[test]
    fn fingerprint_tracks_paths_and_sizes() {
        let a = vec![WorkItem {
            file_id: dsearch_index::FileId(0),
            path: VPath::new("a.txt"),
            size: 5,
        }];
        let mut b = a.clone();
        assert_eq!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        b[0].size = 6;
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        b[0].size = 5;
        b[0].path = VPath::new("b.txt");
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&[]));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let d1 = backoff_delay(base, cap, 1, 42);
        assert_eq!(d1, backoff_delay(base, cap, 1, 42), "deterministic");
        assert!(d1 >= base / 2 && d1 <= base, "{d1:?} within the first window");
        let d9 = backoff_delay(base, cap, 9, 42);
        assert!(d9 <= cap, "{d9:?} capped");
        assert!(d9 >= cap / 2, "{d9:?} saturates near the cap");
        assert_ne!(
            backoff_delay(base, cap, 1, 1),
            backoff_delay(base, cap, 1, 2),
            "jitter separates items"
        );
    }

    #[test]
    fn build_then_query_matches_batch_pipeline() {
        let fs = corpus();
        let dir = TempDir::new("basic");
        let report = BuildPipeline::new(fast_options()).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.complete);
        assert!(!report.interrupted);
        assert_eq!(report.counters.items_ok, 4);
        assert_eq!(report.counters.items_dead, 0);
        assert_eq!(report.dead_letters, 0);
        assert!(report.segments >= 1);

        let (index, docs) = stored(&dir.0);
        let batch =
            crate::runner::IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
        assert_eq!(index, batch.index);
        assert_eq!(docs.len(), batch.docs.len());
        let ckpt = BuildCheckpoint::load(&dir.0).unwrap().unwrap();
        assert!(ckpt.complete);
        assert_eq!(ckpt.completed.len(), 4);
    }

    #[test]
    fn transient_failures_retry_to_success() {
        let fs = FlakyFs::new(corpus());
        fs.fail_reads("d1/a.txt", 1);
        let dir = TempDir::new("transient");
        let report = BuildPipeline::new(fast_options()).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.complete);
        assert_eq!(report.counters.items_ok, 4);
        assert_eq!(report.counters.items_retried, 1);
        assert_eq!(report.counters.items_dead, 0);
        assert_eq!(fs.read_attempts("d1/a.txt"), 2);
    }

    #[test]
    fn persistent_failure_lands_in_the_dlq_with_its_error() {
        let fs = FlakyFs::new(corpus());
        fs.always_fail("d1/b.txt");
        let dir = TempDir::new("dead");
        let report = BuildPipeline::new(fast_options()).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.complete, "a poison file must not fail the build");
        assert_eq!(report.counters.items_ok, 3);
        assert_eq!(report.counters.items_dead, 1);
        assert_eq!(report.dead_letters, 1);

        let dlq = DeadLetterQueue::load(&dir.0).unwrap();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq.entries[0].path, "d1/b.txt");
        assert_eq!(dlq.entries[0].attempts, 3);
        assert!(dlq.entries[0].error.contains("injected"), "{}", dlq.entries[0].error);
    }

    #[test]
    fn replay_recovers_healed_items() {
        let fs = FlakyFs::new(corpus());
        fs.always_fail("d1/b.txt");
        let dir = TempDir::new("replay");
        let pipeline = BuildPipeline::new(fast_options());
        pipeline.build(&fs, &VPath::root(), &dir.0).unwrap();
        assert_eq!(DeadLetterQueue::load(&dir.0).unwrap().len(), 1);

        fs.heal("d1/b.txt");
        let replay = pipeline.replay_dlq(&fs, &VPath::root(), &dir.0).unwrap();
        assert_eq!(replay.attempted, 1);
        assert_eq!(replay.recovered, 1);
        assert_eq!(replay.still_dead, 0);
        assert_eq!(replay.missing, 0);
        assert!(DeadLetterQueue::load(&dir.0).unwrap().is_empty());

        let (index, _) = stored(&dir.0);
        let batch =
            crate::runner::IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
        assert_eq!(index, batch.index, "replayed store matches a clean batch build");

        // Replaying an empty queue is a no-op.
        let replay = pipeline.replay_dlq(&fs, &VPath::root(), &dir.0).unwrap();
        assert_eq!(replay.attempted, 0);
    }

    #[test]
    fn interrupted_replay_keeps_the_recovered_file_quarantined_until_it_is_sealed() {
        let fs = FlakyFs::new(corpus());
        fs.always_fail("d1/b.txt");
        let dir = TempDir::new("replay-interrupted");
        let options = BuildOptions {
            extractors: 1,
            checkpoint_every: Duration::from_secs(3600),
            ..BuildOptions::default()
        };
        let report =
            BuildPipeline::new(options.clone()).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.complete);
        assert_eq!(report.dead_letters, 1);

        // The healed file is extracted, then the replay stops before any
        // seal: its postings are not durable, so it stays quarantined.
        fs.heal("d1/b.txt");
        let interrupted = BuildOptions { stop_after: Some(1), ..options.clone() };
        let replay =
            BuildPipeline::new(interrupted).replay_dlq(&fs, &VPath::root(), &dir.0).unwrap();
        assert_eq!(replay.attempted, 1);
        assert_eq!(replay.recovered, 0, "nothing was sealed");
        assert_eq!(replay.still_dead, 1);
        assert!(DeadLetterQueue::load(&dir.0).unwrap().contains("d1/b.txt"));

        // So the next replay still finds it, and this time it is sealed.
        let replay = BuildPipeline::new(options).replay_dlq(&fs, &VPath::root(), &dir.0).unwrap();
        assert_eq!(replay.attempted, 1);
        assert_eq!(replay.recovered, 1);
        assert!(DeadLetterQueue::load(&dir.0).unwrap().is_empty());
        let ckpt = BuildCheckpoint::load(&dir.0).unwrap().unwrap();
        assert_eq!(ckpt.completed.len(), 4);
        let (index, _) = stored(&dir.0);
        let batch =
            crate::runner::IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
        assert_eq!(index, batch.index);
    }

    #[test]
    fn interrupted_build_resumes_without_rework() {
        let fs = corpus();
        let dir = TempDir::new("resume");
        let mut options = fast_options();
        options.stop_after = Some(2);
        let report = BuildPipeline::new(options).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.interrupted);
        assert!(!report.complete);
        let done_first = report.counters.items_ok;
        assert!(done_first >= 2, "stopped after at least two items");

        let mut options = fast_options();
        options.resume = true;
        let report = BuildPipeline::new(options).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.complete);
        let ckpt = BuildCheckpoint::load(&dir.0).unwrap().unwrap();
        assert!(ckpt.complete);
        assert_eq!(ckpt.completed.len(), 4);
        // Checkpointed items were genuinely skipped, not re-extracted.
        assert_eq!(report.skipped + report.counters.items_ok, 4);
        assert!(report.skipped >= 2);

        let (index, _) = stored(&dir.0);
        let batch =
            crate::runner::IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
        assert_eq!(index, batch.index, "resumed store equals a batch build");
    }

    #[test]
    fn resume_refuses_a_changed_corpus() {
        let fs = corpus();
        let dir = TempDir::new("changed");
        let mut options = fast_options();
        options.stop_after = Some(1);
        BuildPipeline::new(options).build(&fs, &VPath::root(), &dir.0).unwrap();

        fs.add_file(&VPath::new("new.txt"), b"zeta".to_vec()).unwrap();
        let mut options = fast_options();
        options.resume = true;
        let err = BuildPipeline::new(options).build(&fs, &VPath::root(), &dir.0).unwrap_err();
        assert!(matches!(err, PipelineError::ResumeRejected(_)), "{err}");
        assert!(err.to_string().contains("corpus changed"));
    }

    #[test]
    fn cancel_token_stops_the_build_like_a_crash() {
        let fs = corpus();
        let dir = TempDir::new("cancel");
        let mut options = fast_options();
        options.extractors = 1;
        let pipeline = BuildPipeline::new(options);
        pipeline.cancel_token().cancel();
        let report = pipeline.build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.interrupted);
        assert_eq!(report.counters.items_ok, 0);
        assert!(BuildCheckpoint::load(&dir.0).unwrap().is_none(), "no checkpoint written");
    }

    #[test]
    fn panicking_read_retries_like_a_transient_failure() {
        let fs = FlakyFs::new(corpus());
        fs.panic_reads("top.txt", 1);
        let dir = TempDir::new("panic");
        let report = BuildPipeline::new(fast_options()).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.complete);
        assert_eq!(report.counters.items_ok, 4);
        assert_eq!(report.counters.items_retried, 1);
        assert_eq!(report.counters.items_dead, 0);
    }

    #[test]
    fn an_item_whose_every_attempt_panics_is_dead_lettered() {
        let fs = FlakyFs::new(corpus());
        let options = fast_options();
        fs.panic_reads("d2/c.txt", options.max_retries + 2);
        let dir = TempDir::new("panic-dead");
        let report =
            BuildPipeline::new(options.clone()).build(&fs, &VPath::root(), &dir.0).unwrap();
        assert!(report.complete);
        assert_eq!(report.counters.items_ok, 3);
        assert_eq!(report.counters.items_dead, 1);
        assert_eq!(fs.read_attempts("d2/c.txt"), options.max_retries);

        let dlq = DeadLetterQueue::load(&dir.0).unwrap();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq.entries[0].path, "d2/c.txt");
        assert_eq!(dlq.entries[0].attempts, options.max_retries);
        assert!(dlq.entries[0].error.contains("extraction panicked"), "{}", dlq.entries[0].error);

        // Every other file is in the store.
        let (index, docs) = stored(&dir.0);
        let mut paths: Vec<&str> = index.doc_lens().map(|(id, _)| docs.path(id).unwrap()).collect();
        paths.sort_unstable();
        assert_eq!(paths, ["d1/a.txt", "d1/b.txt", "top.txt"]);
    }

    #[test]
    fn an_uninterrupted_build_writes_the_segment_index_writes() {
        use crate::config::{Configuration, Implementation};
        use dsearch_corpus::{materialize_to_memfs, CorpusSpec};

        // One file fails once: its extractor retries it, so it lands in the
        // replica it was dealt to, as in `index`.
        let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 5);
        let first = generate_filenames(&fs, &VPath::root()).unwrap().items[0].path.clone();
        let fs = FlakyFs::new(fs);
        for extractors in 1..=4 {
            fs.fail_reads(first.as_str(), fs.read_attempts(first.as_str()) + 1);
            let built = TempDir::new(&format!("built-{extractors}"));
            let options = BuildOptions {
                extractors,
                checkpoint_every: Duration::from_secs(3600),
                ..BuildOptions::default()
            };
            let report = BuildPipeline::new(options).build(&fs, &VPath::root(), &built.0).unwrap();
            assert!(report.complete);
            assert_eq!(report.counters.items_retried, 1);
            assert_eq!(report.segments, 1, "{extractors} extractors");

            let indexed = TempDir::new(&format!("indexed-{extractors}"));
            let run = crate::runner::IndexGenerator::default()
                .run(
                    fs.inner(),
                    &VPath::root(),
                    Implementation::ReplicateNoJoin,
                    Configuration::new(extractors, 0, 0),
                )
                .unwrap();
            let mut store = IndexStore::open(&indexed.0).unwrap();
            store.replace_with(run.outcome.replicas(), run.outcome.docs()).unwrap();

            let segment = |root: &Path| {
                let store = IndexStore::open(root).unwrap();
                let [only] = &store.manifest().segments[..] else {
                    panic!("one segment in {}", root.display())
                };
                std::fs::read(root.join(&only.file_name)).unwrap()
            };
            assert!(
                segment(&built.0) == segment(&indexed.0),
                "{extractors} extractors: build and index seal other bytes"
            );
        }
    }

    #[test]
    fn zero_extractors_is_rejected() {
        let fs = corpus();
        let dir = TempDir::new("zero");
        let mut options = fast_options();
        options.extractors = 0;
        let err = BuildPipeline::new(options).build(&fs, &VPath::root(), &dir.0).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
    }
}
