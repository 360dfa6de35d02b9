//! Incremental re-indexing with a persistent on-disk store.
//!
//! A real desktop-search engine does not rebuild the index from scratch on
//! every run.  This example materialises a small corpus on disk, indexes it,
//! persists the index (binary segments + per-file signatures), then modifies
//! a few files and shows that the second run only re-scans the changes.
//!
//! ```text
//! cargo run --example incremental_reindex
//! ```

use std::fs;

use dsearch::index::{DocTable, InMemoryIndex};
use dsearch::persist::{IncrementalIndexer, IndexStore, SignatureDb};
use dsearch::query::{Query, Searcher};
use dsearch::vfs::{OsFs, VPath};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scratch area under the system temp directory.
    let base = std::env::temp_dir().join(format!("dsearch-incremental-{}", std::process::id()));
    let docs_dir = base.join("documents");
    let store_dir = base.join("index-store");
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(docs_dir.join("projects"))?;

    fs::write(docs_dir.join("projects/alpha.txt"), "alpha project kickoff notes")?;
    fs::write(docs_dir.join("projects/beta.txt"), "beta project budget review")?;
    fs::write(docs_dir.join("inbox.txt"), "remember to parallelize the index generator")?;

    // ---- first run: everything is new -----------------------------------
    let fs_view = OsFs::new(&docs_dir);
    let indexer = IncrementalIndexer::new();
    let mut index = InMemoryIndex::new();
    let mut docs = DocTable::new();
    let mut signatures = SignatureDb::new();

    let report =
        indexer.update(&fs_view, &VPath::root(), &mut index, &mut docs, &mut signatures)?;
    println!(
        "first run : added {} files, re-scanned {:.1} kB",
        report.added,
        report.bytes_scanned as f64 / 1e3
    );

    let mut store = IndexStore::open(&store_dir)?;
    store.replace_all(&index, &docs)?;
    signatures.save(&store_dir)?;
    println!("persisted  : {} segment(s) in {}", store.segment_count(), store_dir.display());

    // ---- some time later: one file edited, one added, one deleted --------
    fs::write(docs_dir.join("projects/beta.txt"), "beta project budget approved and archived")?;
    fs::write(docs_dir.join("projects/gamma.txt"), "gamma prototype uses the replicated index")?;
    fs::remove_file(docs_dir.join("inbox.txt"))?;

    // ---- second run: load the persisted state and update it --------------
    let mut store = IndexStore::open(&store_dir)?;
    let (mut index, mut docs) = store.load_joined()?;
    let mut signatures = SignatureDb::load(&store_dir)?;

    let changes = indexer.diff(&fs_view, &VPath::root(), &signatures)?;
    println!(
        "\nsecond run: {} added, {} modified, {} removed, {} unchanged (re-scanning {} of {} files)",
        changes.added.len(),
        changes.modified.len(),
        changes.removed.len(),
        changes.unchanged,
        changes.files_to_scan(),
        changes.files_to_scan() as u64 + changes.unchanged,
    );
    let report =
        indexer.update(&fs_view, &VPath::root(), &mut index, &mut docs, &mut signatures)?;
    println!(
        "            postings removed {}, postings added {}, rescan ratio {:.0}%",
        report.postings_removed,
        report.postings_added,
        report.rescan_ratio() * 100.0
    );
    store.replace_all(&index, &docs)?;
    signatures.save(&store_dir)?;

    // ---- the updated index answers queries about the new state -----------
    let (index, docs) = store.load_joined()?;
    let searcher = Searcher::new([&index], &docs);
    for raw in ["replicated", "budget approved", "parallelize"] {
        let results = searcher.search(&Query::parse(raw)?);
        println!("query {raw:?} → {} hit(s)", results.len());
        for hit in results.hits() {
            println!("  {}", hit.path);
        }
    }

    fs::remove_dir_all(&base)?;
    Ok(())
}
