//! Search over un-joined replica indices (Implementation 3) — the paper's
//! future-work item "parallelize the search query functionality ... by using
//! multiple indices".
//!
//! ```text
//! cargo run --example parallel_query
//! ```

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::persist::segment::{read_segment, write_segment};
use dsearch::query::{Query, Searcher};
use dsearch::vfs::VPath;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (fs, manifest) = materialize_to_memfs(&CorpusSpec::paper_scaled(0.002), 13);
    println!(
        "corpus: {} files, {:.1} MB",
        manifest.file_count(),
        manifest.total_bytes() as f64 / 1e6
    );

    // Implementation 3 leaves one replica per extractor thread.
    let run = IndexGenerator::default().run(
        &fs,
        &VPath::root(),
        Implementation::ReplicateNoJoin,
        Configuration::new(4, 0, 0),
    )?;
    let docs = run.outcome.docs().clone();
    let dsearch::core::IndexOutcome::Replicas { set, .. } = run.outcome else {
        unreachable!("Implementation 3 always produces replicas");
    };
    println!("built {} replica indices\n", set.replica_count());

    // Pick a couple of frequent terms to query for.
    let joined = set.clone().join();
    let mut by_frequency: Vec<_> = joined.iter().collect();
    by_frequency.sort_by_key(|(_, postings)| std::cmp::Reverse(postings.len()));
    let terms: Vec<String> = by_frequency.iter().take(3).map(|(t, _)| t.to_string()).collect();
    let query = Query::parse(&terms.join(" "))?;
    println!("query: {query}");

    // Search the replicas directly (sequential and parallel fan-out) and the
    // joined index; all three must agree.
    let multi = Searcher::new(set.replicas(), &docs);
    let multi_parallel = Searcher::new(set.replicas(), &docs).with_parallel_lookup(true);
    let single = Searcher::new([&joined], &docs);

    let from_multi = multi.search(&query);
    let from_parallel = multi_parallel.search(&query);
    let from_single = single.search(&query);
    assert_eq!(from_multi, from_single, "multi-index search must match the joined index");
    assert_eq!(from_parallel, from_single, "parallel fan-out must match too");

    println!(
        "{} matching files (identical results from all three search paths)",
        from_single.len()
    );
    for hit in from_single.hits().iter().take(5) {
        println!("  {} (matched {} terms)", hit.path, hit.matched_terms);
    }

    // Persist the joined index and load it back — the desktop-search engine
    // does this between indexing runs.
    let mut buffer = Vec::new();
    write_segment(&joined, &docs, std::io::Cursor::new(&mut buffer))?;
    let (restored_index, _) = read_segment(&buffer[..])?;
    assert_eq!(restored_index, joined);
    println!(
        "\nsegment round-trip OK ({} terms, {} bytes)",
        restored_index.term_count(),
        buffer.len()
    );
    Ok(())
}
