//! Checkpointed, fault-tolerant index builds.
//!
//! The paper's pipeline assumes a perfect run: every file reads cleanly, no
//! worker dies, and a 90–220 second build that crashes at second 89 starts
//! over from zero.  This module wraps the same Stage 1 → Stage 2 machinery in
//! the reliability layer a deployed index generator needs:
//!
//! * **Leased work items** ([`LeaseQueue`]) — extractors *lease* a file
//!   instead of popping it.  A lease is acknowledged on success; if the
//!   holder panics or dies, the RAII guard returns the item to the queue, so
//!   no file is ever silently dropped.
//! * **Retry with backoff** — transient read failures reschedule the item
//!   with exponential backoff and deterministic jitter (no worker ever
//!   sleeps; delayed items sit in a timer set inside the queue).  Permanent
//!   failures and items that exhaust their retry budget are quarantined in
//!   the on-disk dead-letter queue instead of failing the build.
//! * **Checkpointing** — completed files accumulate in a partial in-memory
//!   index that is sealed into an ordinary store segment at a configurable
//!   interval; the durable [`BuildCheckpoint`] is written (atomically) only
//!   *after* its segment is on disk.  A build killed at any instant resumes
//!   with `resume: true`, re-extracting only the unsealed tail.
//! * **DLQ replay** ([`BuildPipeline::replay_dlq`]) — quarantined files are
//!   re-run through the same pipeline once the underlying fault is fixed;
//!   recovered items leave the queue and join the index.
//!
//! The sealed partial segments are ordinary segments — v7, the one version
//! the store reads — so a resumed build's store answers queries exactly like
//! a batch build's: the equivalence the resume proptest in
//! `tests/pipeline_resume.rs` pins down.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use dsearch_index::DocTable;
use dsearch_index::InMemoryIndex;
use dsearch_persist::{BuildCheckpoint, DeadLetter, DeadLetterQueue, IndexStore};
use dsearch_text::tokenizer::Tokenizer;
use dsearch_vfs::{FileSystem, VPath, VfsError};

use crate::distribute::{Lease, LeaseQueue, WorkItem};
use crate::error::PipelineError;
use crate::stage1::generate_filenames;
use crate::stage2::Extractor;

/// Options of a checkpointed build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Extractor worker threads.
    pub extractors: usize,
    /// Maximum extraction attempts per file before it is dead-lettered.
    pub max_retries: u32,
    /// Minimum interval between checkpoint writes.  [`Duration::ZERO`]
    /// checkpoints after every completed file (maximum durability, maximum
    /// overhead — the bench measures the trade-off).
    pub checkpoint_every: Duration,
    /// Resume from an existing checkpoint instead of starting fresh.
    pub resume: bool,
    /// Detect file formats and extract text before tokenising.
    pub formats: bool,
    /// Artificial per-file delay, used by tests and the CI kill–resume smoke
    /// to make a SIGKILL land mid-corpus deterministically.
    pub throttle: Duration,
    /// Base delay of the exponential retry backoff.
    pub retry_base: Duration,
    /// Upper bound on a single retry delay.
    pub retry_cap: Duration,
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
            retry_base: Duration::from_millis(10),
            retry_cap: Duration::from_secs(1),
            stop_after: None,
        }
    }
}

/// Shared atomic counters of one build, exported into the run report and the
/// metrics registry.
#[derive(Debug, Default)]
pub struct BuildCounters {
    /// Files extracted and sealed (or pending seal).
    pub items_ok: AtomicU64,
    /// Retries scheduled after transient failures (including caught panics).
    pub items_retried: AtomicU64,
    /// Files quarantined in the dead-letter queue.
    pub items_dead: AtomicU64,
    /// Durable checkpoint writes.
    pub checkpoint_writes: AtomicU64,
    /// Leases returned by the RAII guard after a holder died.
    pub lease_reclaims: AtomicU64,
}

impl BuildCounters {
    /// A plain-data copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            items_ok: self.items_ok.load(Ordering::Relaxed),
            items_retried: self.items_retried.load(Ordering::Relaxed),
            items_dead: self.items_dead.load(Ordering::Relaxed),
            checkpoint_writes: self.checkpoint_writes.load(Ordering::Relaxed),
            lease_reclaims: self.lease_reclaims.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`BuildCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Files extracted successfully.
    pub items_ok: u64,
    /// Retries scheduled.
    pub items_retried: u64,
    /// Files dead-lettered.
    pub items_dead: u64,
    /// Checkpoints written.
    pub checkpoint_writes: u64,
    /// Leases reclaimed from dead holders.
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
    /// The most heap the partial index held when it was sealed into a
    /// segment ([`InMemoryIndex::heap_bytes`]).
    pub index_heap_bytes: u64,
}

/// Outcome of a DLQ replay.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ReplayReport {
    /// Quarantined items matched against the current corpus and re-run.
    pub attempted: u64,
    /// Items that extracted successfully and left the queue.
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

/// Everything the workers write to: the partial index, the store, the
/// durable checkpoint and the DLQ, behind one lock.
struct SinkState {
    pending: InMemoryIndex,
    pending_ids: Vec<u32>,
    store: IndexStore,
    checkpoint: BuildCheckpoint,
    dlq: DeadLetterQueue,
    last_seal: Instant,
    ok_total: u64,
    bytes: u64,
    /// The most heap `pending` held at a seal.
    index_heap_bytes: usize,
}

struct Sink {
    state: parking_lot::Mutex<SinkState>,
    docs: DocTable,
    counters: Arc<BuildCounters>,
    checkpoint_every: Duration,
    stop_after: Option<u64>,
}

impl Sink {
    /// Records one successful extraction; seals a segment and checkpoints
    /// when the interval is due, and closes the queue at `stop_after`.
    fn complete(
        &self,
        item: &WorkItem,
        terms: crate::stage2::FileTerms,
        queue: &LeaseQueue,
    ) -> Result<(), PipelineError> {
        let mut s = self.state.lock();
        s.pending_ids.push(terms.file_id.as_u32());
        s.bytes += terms.bytes;
        s.pending.insert_file_counted(terms.file_id, terms.into_counted());
        s.ok_total += 1;
        self.counters.items_ok.fetch_add(1, Ordering::Relaxed);
        // A replayed item that recovers leaves the quarantine.
        let path = item.path.as_str();
        if s.dlq.contains(path) {
            s.dlq.entries.retain(|e| e.path != path);
            let root = s.store.root().to_path_buf();
            s.dlq.save(&root)?;
        }
        if self.checkpoint_every.is_zero() || s.last_seal.elapsed() >= self.checkpoint_every {
            self.seal_locked(&mut s)?;
        }
        if self.stop_after.is_some_and(|n| s.ok_total >= n) {
            queue.close();
        }
        Ok(())
    }

    /// Quarantines an item with its final error.
    fn dead(&self, item: &WorkItem, attempts: u32, error: String) -> Result<(), PipelineError> {
        self.counters.items_dead.fetch_add(1, Ordering::Relaxed);
        let mut s = self.state.lock();
        let path = item.path.as_str().to_owned();
        let file_id = item.file_id.as_u32();
        if let Some(existing) = s.dlq.entries.iter_mut().find(|e| e.path == path) {
            existing.attempts = existing.attempts.max(attempts);
            existing.error = error;
            existing.file_id = file_id;
        } else {
            s.dlq.entries.push(DeadLetter { path, file_id, attempts, error });
        }
        let root = s.store.root().to_path_buf();
        s.dlq.save(&root)?;
        Ok(())
    }

    /// Seals the pending partial index into a segment, then durably extends
    /// the checkpoint.  Ordering matters: the checkpoint is written only
    /// after its segment exists, so a crash between the two leaves an orphan
    /// segment that `reconcile` drops on resume — never a checkpoint that
    /// promises missing data.
    fn seal_locked(&self, s: &mut SinkState) -> Result<(), PipelineError> {
        if s.pending_ids.is_empty() {
            s.last_seal = Instant::now();
            return Ok(());
        }
        let index = std::mem::replace(&mut s.pending, InMemoryIndex::new());
        s.index_heap_bytes = s.index_heap_bytes.max(index.heap_bytes());
        let ids = std::mem::take(&mut s.pending_ids);
        let (name, _info) = s.store.commit_named(&index, &self.docs)?;
        s.checkpoint.segments.push(name);
        s.checkpoint.completed.extend(ids);
        let root = s.store.root().to_path_buf();
        s.checkpoint.save(&root)?;
        self.counters.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
        s.last_seal = Instant::now();
        Ok(())
    }
}

/// The checkpointed build pipeline.
#[derive(Debug, Clone)]
pub struct BuildPipeline {
    options: BuildOptions,
    cancel: CancelToken,
}

impl Default for BuildPipeline {
    fn default() -> Self {
        BuildPipeline::new(BuildOptions::default())
    }
}

impl BuildPipeline {
    /// Creates a pipeline with the given options.
    #[must_use]
    pub fn new(options: BuildOptions) -> Self {
        BuildPipeline { options, cancel: CancelToken::new() }
    }

    /// The pipeline's options.
    #[must_use]
    pub fn options(&self) -> &BuildOptions {
        &self.options
    }

    /// A handle that cancels a build running on another thread.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    fn extractor(&self) -> Extractor {
        Extractor::new(Tokenizer::default()).with_formats(self.options.formats)
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
    /// Fails on Stage 1 walk errors, persistence failures, or a rejected
    /// resume.  Per-file extraction failures do *not* fail the build — they
    /// retry and then dead-letter.
    pub fn build<F>(
        &self,
        fs: &F,
        root: &VPath,
        store_root: &Path,
    ) -> Result<BuildReport, PipelineError>
    where
        F: FileSystem + ?Sized,
    {
        let set = generate_filenames(fs, root)?;
        let fingerprint = corpus_fingerprint(&set.items);
        let mut store = IndexStore::open(store_root)?;
        let files = set.items.len() as u64;

        let (checkpoint, dlq, items, skipped) = if self.options.resume {
            match BuildCheckpoint::load(store.root())? {
                Some(mut existing) => {
                    if existing.corpus_fingerprint != fingerprint {
                        return Err(PipelineError::ResumeRejected(format!(
                            "corpus changed since the checkpoint was written \
                             (fingerprint {:#018x} != {fingerprint:#018x}); \
                             run a fresh build",
                            existing.corpus_fingerprint
                        )));
                    }
                    existing.reconcile(&mut store)?;
                    let dlq = DeadLetterQueue::load(store.root())?;
                    let done: HashSet<u32> = existing.completed.iter().copied().collect();
                    let total = set.items.len();
                    let items: Vec<WorkItem> = set
                        .items
                        .into_iter()
                        .filter(|i| {
                            !done.contains(&i.file_id.as_u32()) && !dlq.contains(i.path.as_str())
                        })
                        .collect();
                    let skipped = (total - items.len()) as u64;
                    existing.complete = false;
                    (existing, dlq, items, skipped)
                }
                // Resuming with no checkpoint on disk is a fresh build.
                None => self.fresh_state(&mut store, fingerprint, set.items)?,
            }
        } else {
            self.fresh_state(&mut store, fingerprint, set.items)?
        };

        self.run_items(fs, items, set.docs, store, checkpoint, dlq, files, skipped)
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
        let set = generate_filenames(fs, root)?;
        let fingerprint = corpus_fingerprint(&set.items);
        let mut store = IndexStore::open(store_root)?;
        let Some(checkpoint) = BuildCheckpoint::load(store.root())? else {
            return Err(PipelineError::ResumeRejected(
                "no checkpoint in the store; run `dsearch build` first".to_owned(),
            ));
        };
        if checkpoint.corpus_fingerprint != fingerprint {
            return Err(PipelineError::ResumeRejected(
                "corpus changed since the checkpoint was written; run a fresh build".to_owned(),
            ));
        }
        checkpoint.reconcile(&mut store)?;
        let dlq = DeadLetterQueue::load(store.root())?;
        if dlq.is_empty() {
            return Ok(ReplayReport::default());
        }
        let quarantined = dlq.len() as u64;
        let items: Vec<WorkItem> =
            set.items.iter().filter(|i| dlq.contains(i.path.as_str())).cloned().collect();
        let missing = quarantined - items.len() as u64;
        let attempted = items.len() as u64;
        let files = attempted;

        let report = self.run_items(fs, items, set.docs, store, checkpoint, dlq, files, 0)?;
        Ok(ReplayReport {
            attempted,
            recovered: report.counters.items_ok,
            still_dead: report.dead_letters as u64,
            missing,
        })
    }

    /// Resets the store for a build that starts from scratch.
    fn fresh_state(
        &self,
        store: &mut IndexStore,
        fingerprint: u64,
        items: Vec<WorkItem>,
    ) -> Result<(BuildCheckpoint, DeadLetterQueue, Vec<WorkItem>, u64), PipelineError> {
        BuildCheckpoint::remove(store.root())?;
        store.clear_segments()?;
        let dlq = DeadLetterQueue::default();
        dlq.save(store.root())?;
        Ok((BuildCheckpoint::new(fingerprint), dlq, items, 0))
    }

    /// The worker pool over a prepared item list and sink state — shared by
    /// `build` and `replay_dlq`.
    #[allow(clippy::too_many_arguments)]
    fn run_items<F>(
        &self,
        fs: &F,
        items: Vec<WorkItem>,
        docs: DocTable,
        store: IndexStore,
        checkpoint: BuildCheckpoint,
        dlq: DeadLetterQueue,
        files: u64,
        skipped: u64,
    ) -> Result<BuildReport, PipelineError>
    where
        F: FileSystem + ?Sized,
    {
        if self.options.extractors == 0 {
            return Err(PipelineError::InvalidConfiguration(
                "a build needs at least one extractor".to_owned(),
            ));
        }
        let started = Instant::now();
        let counters = Arc::new(BuildCounters::default());
        let queue = LeaseQueue::new(items, self.options.max_retries);
        let sink = Sink {
            state: parking_lot::Mutex::new(SinkState {
                pending: InMemoryIndex::new(),
                pending_ids: Vec::new(),
                store,
                checkpoint,
                dlq,
                last_seal: Instant::now(),
                ok_total: 0,
                bytes: 0,
                index_heap_bytes: 0,
            }),
            docs,
            counters: Arc::clone(&counters),
            checkpoint_every: self.options.checkpoint_every,
            stop_after: self.options.stop_after,
        };
        let extractor = self.extractor();
        let first_error: StdMutex<Option<PipelineError>> = StdMutex::new(None);
        let fail = |e: PipelineError| {
            let mut slot = first_error.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(e);
            }
            queue.close();
        };

        std::thread::scope(|scope| {
            for _ in 0..self.options.extractors {
                scope.spawn(|| {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        self.worker_loop(fs, &extractor, &queue, &sink, &fail);
                    }));
                    if run.is_err() {
                        fail(PipelineError::WorkerPanicked("build"));
                    }
                });
            }
        });

        // Items whose lease holders died repeatedly never reached the normal
        // retry path; quarantine them now.
        for (item, attempts) in queue.take_fallen() {
            sink.dead(&item, attempts, "lease holder died during extraction".to_owned())?;
        }
        counters.lease_reclaims.store(queue.reclaims(), Ordering::Relaxed);

        if let Some(e) = first_error.lock().unwrap_or_else(PoisonError::into_inner).take() {
            return Err(e);
        }

        let interrupted = self.cancel.is_cancelled()
            || self.options.stop_after.is_some_and(|_| queue.is_closed());
        let mut s = sink.state.lock();
        if !interrupted {
            // Seal the tail and mark the build done.  An interrupted build
            // deliberately skips this: it must look exactly like a crash so
            // resume paths get exercised honestly.
            sink.seal_locked(&mut s)?;
            s.checkpoint.complete = true;
            let root = s.store.root().to_path_buf();
            s.checkpoint.save(&root)?;
        }
        Ok(BuildReport {
            files,
            skipped,
            bytes: s.bytes,
            counters: counters.snapshot(),
            segments: s.store.segment_count(),
            dead_letters: s.dlq.len(),
            complete: !interrupted,
            interrupted,
            elapsed_seconds: started.elapsed().as_secs_f64(),
            corpus_fingerprint: s.checkpoint.corpus_fingerprint,
            index_heap_bytes: s.index_heap_bytes.max(s.pending.heap_bytes()) as u64,
        })
    }

    fn worker_loop<F>(
        &self,
        fs: &F,
        extractor: &Extractor,
        queue: &Arc<LeaseQueue>,
        sink: &Sink,
        fail: &dyn Fn(PipelineError),
    ) where
        F: FileSystem + ?Sized,
    {
        // Each worker interns the vocabulary in its own scratch.
        let mut extractor = extractor.clone();
        while let Some(lease) = queue.pop() {
            if self.cancel.is_cancelled() {
                queue.close();
                lease.release();
                return;
            }
            if !self.options.throttle.is_zero() {
                std::thread::sleep(self.options.throttle);
            }
            let outcome =
                catch_unwind(AssertUnwindSafe(|| extractor.extract_file(fs, lease.item())));
            match outcome {
                Ok(Ok(terms)) => {
                    let item = lease.ack();
                    if let Err(e) = sink.complete(&item, terms, queue) {
                        fail(e);
                        return;
                    }
                }
                Ok(Err(err)) => {
                    let permanent = is_permanent(&err);
                    if let Err(e) = self.handle_failure(lease, sink, permanent, err.to_string()) {
                        fail(e);
                        return;
                    }
                }
                Err(_) => {
                    let msg = format!("extraction panicked on {}", lease.item().path);
                    if let Err(e) = self.handle_failure(lease, sink, false, msg) {
                        fail(e);
                        return;
                    }
                }
            }
        }
    }

    /// Routes one failed attempt: retry with backoff while the budget and
    /// the error's nature allow, dead-letter otherwise.
    fn handle_failure(
        &self,
        lease: Lease,
        sink: &Sink,
        permanent: bool,
        error: String,
    ) -> Result<(), PipelineError> {
        let attempts = lease.attempts() + 1;
        if permanent || attempts >= self.options.max_retries.max(1) {
            let item = lease.ack();
            sink.dead(&item, attempts, error)
        } else {
            sink.counters.items_retried.fetch_add(1, Ordering::Relaxed);
            let delay = backoff_delay(
                self.options.retry_base,
                self.options.retry_cap,
                attempts,
                lease.item().file_id.as_u32(),
            );
            lease.retry_at(Instant::now() + delay);
            Ok(())
        }
    }
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
        BuildOptions {
            extractors: 2,
            retry_base: Duration::from_micros(100),
            retry_cap: Duration::from_millis(2),
            checkpoint_every: Duration::ZERO,
            ..BuildOptions::default()
        }
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
    fn zero_extractors_is_rejected() {
        let fs = corpus();
        let dir = TempDir::new("zero");
        let mut options = fast_options();
        options.extractors = 0;
        let err = BuildPipeline::new(options).build(&fs, &VPath::root(), &dir.0).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
    }
}
