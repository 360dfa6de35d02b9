//! Every call the traced run makes into the program's crates, and nothing
//! else.  A later benchmark issue that has to follow an API change re-points
//! this one file; the rest of the benchmark names no dsearch item.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dsearch::core::stage1::generate_filenames;
use dsearch::core::stage2::FileTerms;
use dsearch::core::stage3::{ReplicaSink, UpdateSink};
use dsearch::core::{
    BuildOptions, BuildPipeline, Configuration, GeneratorOptions, Implementation, IndexGenerator,
};
use dsearch::index::{join_all, DocTable, InMemoryIndex, SealedShard};
use dsearch::obs::QueryTrace;
use dsearch::persist::{BuildCheckpoint, IndexStore};
use dsearch::query::{merge_ranked, Query, RankedHit, SearchResults};
use dsearch::server::protocol::{parse_hit_line, parse_request, render_response, Request};
use dsearch::server::{
    split_request_meta, CacheKey, EngineConfig, IndexSnapshot, QueryCache, QueryEngine,
    QueryResponse, RemoteShard, Router, RouterConfig, Service, ShardBackend, TcpServer, WorkerPool,
};
use dsearch::text::wordlist::WordListBuilder;
use dsearch::text::Tokenizer;
use dsearch::vfs::{FileSystem, OsFs, VPath};

type AnyError = Box<dyn std::error::Error + Send + Sync>;

/// A loaded index image, and a result cache, as the engine holds them.
pub type Snapshot = IndexSnapshot;
pub type Cache = QueryCache;

/// One file of the walked tree.
pub struct WalkedFile {
    item: dsearch::core::distribute::WorkItem,
}

/// `vfs`: the tree under `root`, walked.
pub struct Tree {
    fs: OsFs,
    pub files: Vec<WalkedFile>,
    pub docs: DocTable,
}

/// `vfs` + `core::stage1`: walks the tree and assigns file ids.
pub fn walk(root: &Path) -> Result<Tree, AnyError> {
    let fs = OsFs::new(root.to_path_buf());
    let set = generate_filenames(&fs, &VPath::root())?;
    let files = set.items.into_iter().map(|item| WalkedFile { item }).collect();
    Ok(Tree { fs, files, docs: set.docs })
}

/// `vfs`: reads one file whole.
pub fn read(tree: &Tree, file: &WalkedFile) -> Result<Vec<u8>, AnyError> {
    Ok(tree.fs.read(&file.item.path)?)
}

/// `text`: the default tokenizer of the paper configuration.
pub fn tokenizer() -> Tokenizer {
    Tokenizer::new(GeneratorOptions::paper_defaults().tokenizer)
}

/// `text`: scans `data` into terms and condenses them into the per-file word
/// list the index takes.  Returns the list and the occurrences scanned.
pub fn tokenize(tokenizer: &Tokenizer, file: &WalkedFile, data: &[u8]) -> (FileTerms, u64) {
    let (raw_terms, stats) = tokenizer.tokenize(data);
    let mut builder = WordListBuilder::with_capacity(raw_terms.len() / 2 + 1);
    for term in raw_terms {
        builder.push(term);
    }
    let list = builder.finish();
    let counts = list.counts().to_vec();
    let file_terms = FileTerms {
        file_id: file.item.file_id,
        terms: list.into_terms(),
        counts,
        occurrences: stats.terms_emitted,
        bytes: data.len() as u64,
    };
    (file_terms, stats.terms_emitted)
}

/// `index`: a replica being built.
pub fn replica() -> ReplicaSink {
    ReplicaSink::new(GeneratorOptions::paper_defaults().granularity)
}

/// `index`: inserts one file's word list en bloc.
pub fn update(sink: &mut ReplicaSink, file_terms: FileTerms) {
    sink.apply(file_terms);
}

/// `index`: joins the replicas into one index (Implementation 2's stage).
pub fn join(replicas: Vec<ReplicaSink>) -> InMemoryIndex {
    join_all(replicas.into_iter().map(ReplicaSink::into_index).collect())
}

/// `index`: seals an index into its compressed, block-indexed form.
/// Returns `(postings, posting bytes)`.
pub fn seal(index: &InMemoryIndex) -> (u64, usize) {
    let shard = SealedShard::from_index(index);
    (shard.posting_count(), shard.posting_bytes())
}

/// `persist`: commits `index` as a segment of the store at `store`.
/// Returns the store's segment count.
pub fn persist(store: &Path, index: &InMemoryIndex, docs: &DocTable) -> Result<usize, AnyError> {
    let mut store = IndexStore::open(store)?;
    store.commit(index, docs)?;
    Ok(store.segment_count())
}

/// `persist`: rewrites the build checkpoint a finished resumable build left
/// in `store` (same content, so the write is as large as the real one).
pub fn rewrite_checkpoint(store: &Path) -> Result<(), AnyError> {
    let checkpoint = BuildCheckpoint::load(store)?.ok_or("the build left no checkpoint")?;
    Ok(checkpoint.save(store)?)
}

/// `persist` + `server::snapshot`: loads generation 1 from a store.
pub fn load_snapshot(store: &Path) -> Result<IndexSnapshot, AnyError> {
    Ok(IndexSnapshot::load(&IndexStore::open(store)?, 1)?)
}

/// What one whole-pipeline run reported about itself.
pub struct PipelineRun {
    pub total_s: f64,
    pub extraction_s: f64,
}

/// `core`: the parallel generator, default Implementation 3 with `threads`
/// extractors, as `dsearch index` runs it.
pub fn run_parallel(root: &Path, threads: usize) -> Result<PipelineRun, AnyError> {
    let fs = OsFs::new(root.to_path_buf());
    let run = IndexGenerator::default().run(
        &fs,
        &VPath::root(),
        Implementation::ReplicateNoJoin,
        Configuration::new(threads, 0, 0),
    )?;
    let report = run.report();
    Ok(PipelineRun { total_s: report.total_seconds, extraction_s: report.extraction_seconds })
}

/// `core`: the sequential baseline (Table 1); returns its total seconds.
pub fn run_sequential(root: &Path) -> Result<f64, AnyError> {
    let fs = OsFs::new(root.to_path_buf());
    let run = IndexGenerator::default().run_sequential(&fs, &VPath::root())?;
    Ok(run.timings.total().as_secs_f64())
}

/// Counters of one resumable build.
pub struct ResumableRun {
    pub elapsed_s: f64,
    pub items_ok: u64,
    pub items_retried: u64,
    pub lease_reclaims: u64,
    pub checkpoint_writes: u64,
    pub segments: usize,
    pub complete: bool,
}

/// `core::pipeline`: the checkpointed build `dsearch build` runs.
/// `stop_after` interrupts it after that many files, `resume` continues an
/// interrupted one.
pub fn build_resumable(
    root: &Path,
    store: &Path,
    threads: usize,
    checkpoint_every: Duration,
    stop_after: Option<u64>,
    resume: bool,
) -> Result<ResumableRun, AnyError> {
    let options = BuildOptions {
        extractors: threads,
        checkpoint_every,
        stop_after,
        resume,
        ..BuildOptions::default()
    };
    let fs = OsFs::new(root.to_path_buf());
    let report = BuildPipeline::new(options).build(&fs, &VPath::root(), store)?;
    Ok(ResumableRun {
        elapsed_s: report.elapsed_seconds,
        items_ok: report.counters.items_ok,
        items_retried: report.counters.items_retried,
        lease_reclaims: report.counters.lease_reclaims,
        checkpoint_writes: report.counters.checkpoint_writes,
        segments: report.segments,
        complete: report.complete,
    })
}

/// `protocol`: classifies a request line and splits its `@` prefixes.
/// Returns the query text when the line is a query.
pub fn protocol_parse(line: &str) -> Option<String> {
    match parse_request(line) {
        Request::Query(raw) => Some(split_request_meta(&raw).1.to_owned()),
        _ => None,
    }
}

/// `query`: parses and canonicalises.
pub fn query_parse(text: &str) -> Result<(Query, String), AnyError> {
    let query = Query::parse(text)?;
    let canonical = query.to_string();
    Ok((query, canonical))
}

/// How `dsearch serve --workers <n> [--cache <c>]` configures its engine.
pub struct EngineShape(EngineConfig);

pub fn engine_defaults(workers: usize, cache: Option<usize>) -> EngineShape {
    let mut config = EngineConfig { workers, ..EngineConfig::default() };
    if let Some(capacity) = cache {
        config.cache_capacity = capacity;
    }
    EngineShape(config)
}

/// `cache`: a result cache shaped like the engine's.
pub fn cache(shape: &EngineShape) -> QueryCache {
    let config = &shape.0;
    QueryCache::with_admission(config.cache_capacity, config.cache_shards, config.cache_admission)
}

pub fn cache_get(cache: &QueryCache, canonical: &str) -> Option<Arc<SearchResults>> {
    cache.get(&CacheKey { query: canonical.to_owned(), generation: 1 })
}

pub fn cache_insert(cache: &QueryCache, canonical: &str, results: Arc<SearchResults>) {
    cache.insert(CacheKey { query: canonical.to_owned(), generation: 1 }, results);
}

/// `query` + `index`: evaluates as the engine does — ranked top-k first,
/// the boolean path for shapes that cannot be scored — and truncates.
pub fn evaluate(snapshot: &IndexSnapshot, query: &Query, limit: usize) -> SearchResults {
    let mut results = match snapshot.search_topk(query, limit, &|| false) {
        Some((results, _prune)) => results,
        None => snapshot.search(query),
    };
    results.truncate(limit);
    results
}

/// `protocol`: renders an answer as it goes on the wire; returns its bytes.
pub fn render(canonical: &str, results: &Arc<SearchResults>, cached: bool) -> usize {
    let response = QueryResponse {
        query: canonical.to_owned(),
        results: Arc::clone(results),
        generation: 1,
        cached,
        latency: Duration::from_micros(1),
        trace: Arc::new(QueryTrace::default()),
    };
    render_response(&response).len()
}

/// `engine`: snapshot + cache + stats, without the worker pool.
pub fn engine(snapshot: IndexSnapshot, shape: &EngineShape) -> Result<Arc<QueryEngine>, AnyError> {
    Ok(QueryEngine::new(snapshot, shape.0.clone())?)
}

pub fn engine_execute(engine: &QueryEngine, raw: &str) -> Result<usize, AnyError> {
    Ok(engine.execute(raw)?.results.len())
}

/// `batch`: the admission queue and worker threads in front of an engine.
pub fn pool(engine: Arc<QueryEngine>) -> WorkerPool {
    WorkerPool::start(engine)
}

pub fn pool_execute(pool: &WorkerPool, raw: &str) -> Result<usize, AnyError> {
    Ok(pool.execute(raw)?.results.len())
}

/// `serve`: the TCP front end of `dsearch serve`, in this process, on an
/// ephemeral port.  Dropping the handle stops it.
pub struct InProcessServer {
    server: Option<TcpServer>,
    pub addr: std::net::SocketAddr,
}

pub fn serve(engine: Arc<QueryEngine>) -> Result<InProcessServer, AnyError> {
    let service = Arc::new(Service::start(engine, None));
    let server = TcpServer::bind(service, "127.0.0.1:0")?;
    let addr = server.local_addr();
    Ok(InProcessServer { server: Some(server), addr })
}

impl Drop for InProcessServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// `route`: a router in this process over remote shard servers.
pub fn router(
    shards: &[std::net::SocketAddr],
    workers: usize,
    cache: Option<usize>,
) -> Result<Arc<Router>, AnyError> {
    let backends: Vec<Box<dyn ShardBackend>> = shards
        .iter()
        .map(|addr| Box::new(RemoteShard::new(addr.to_string())) as Box<dyn ShardBackend>)
        .collect();
    let mut config = RouterConfig { workers, ..RouterConfig::default() };
    if let Some(capacity) = cache {
        config.cache_capacity = capacity;
    }
    Ok(Router::new(backends, config)?)
}

/// What the router said about one routed query.
pub struct Routed {
    pub hits: usize,
    pub partial: bool,
}

pub fn route(router: &Router, raw: &str) -> Result<Routed, AnyError> {
    let response = router.route(raw)?;
    Ok(Routed { hits: response.hits.len(), partial: response.partial() })
}

/// `route`: re-parses the hit lines a shard sent.
pub fn parse_hits(lines: &[String]) -> Vec<RankedHit> {
    lines.iter().filter_map(|line| parse_hit_line(line)).collect()
}

/// `route`: merges per-shard rankings into the answer's top `limit`.
pub fn merge(parts: Vec<Vec<RankedHit>>, limit: usize) -> usize {
    merge_ranked(parts, limit).len()
}
