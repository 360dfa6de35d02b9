//! Index a real directory on this machine — the paper's actual use case.
//!
//! ```text
//! cargo run --example desktop_indexing -- /path/to/documents "search terms"
//! ```
//!
//! With no arguments it indexes this repository's own sources and searches
//! for "index".  The example compares all three of the paper's
//! implementations on the same directory and verifies they find the same
//! documents.

use std::env;

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::query::{Query, Searcher};
use dsearch::vfs::{OsFs, VPath};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = env::args().skip(1);
    let root_dir = args.next().unwrap_or_else(|| ".".to_string());
    let query_text = args.next().unwrap_or_else(|| "index".to_string());

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("indexing {root_dir:?} with {cores} extractor thread(s)\n");

    let fs = OsFs::new(&root_dir);
    let generator = IndexGenerator::default();

    let mut reference: Option<(dsearch::index::InMemoryIndex, dsearch::index::DocTable)> = None;
    for implementation in Implementation::ALL {
        let config = Configuration::new(cores, 0, if implementation.joins() { 1 } else { 0 });
        let run = generator.run(&fs, &VPath::root(), implementation, config)?;
        println!(
            "{:<18} {}  {:>8.3}s  {} files, {} replica(s)",
            implementation.paper_name(),
            config,
            run.timings.total.as_secs_f64(),
            run.outcome.file_count(),
            run.outcome.replica_count(),
        );
        let (index, docs) = run.outcome.into_single_index();
        if let Some((ref_index, _)) = &reference {
            assert_eq!(&index, ref_index, "all implementations must build the same index");
        } else {
            reference = Some((index, docs));
        }
    }

    let (index, docs) = reference.expect("at least one implementation ran");
    println!("\nindex: {}", index.stats());

    let query = Query::parse(&query_text)?;
    let searcher = Searcher::new([&index], &docs);
    let mut results = searcher.search(&query);
    results.truncate(10);
    println!("\ntop hits for {query_text:?}:");
    if results.is_empty() {
        println!("  (no matches)");
    }
    for hit in results.hits() {
        println!("  {} (matched {} terms)", hit.path, hit.matched_terms);
    }
    Ok(())
}
