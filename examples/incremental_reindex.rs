//! Incremental re-indexing with a persistent on-disk store.
//!
//! A real desktop-search engine does not rebuild the index from scratch on
//! every run.  This example materialises a small corpus on disk, indexes it
//! into a store (one binary segment + per-file signatures), then modifies a
//! few files and shows that the second run only extracts the changes — with
//! the same generator, implementation and thread counts as a full run.
//!
//! ```text
//! cargo run --example incremental_reindex
//! ```

use std::fs;

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::persist::{IndexStore, SignatureDb};
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
    let generator = IndexGenerator::default();
    let (implementation, configuration) =
        (Implementation::ReplicateNoJoin, Configuration::new(2, 0, 0));

    let mut store = IndexStore::open(&store_dir)?;
    let first = generator.update_store(
        &fs_view,
        &VPath::root(),
        &mut store,
        implementation,
        configuration,
    )?;
    println!(
        "first run : added {} files, extracted {:.1} kB",
        first.changes.added.len(),
        first.run.stage2.bytes as f64 / 1e3
    );
    println!("persisted  : {} segment(s) in {}", store.segment_count(), store_dir.display());

    // ---- some time later: one file edited, one added, one deleted --------
    fs::write(docs_dir.join("projects/beta.txt"), "beta project budget approved and archived")?;
    fs::write(docs_dir.join("projects/gamma.txt"), "gamma prototype uses the replicated index")?;
    fs::remove_file(docs_dir.join("inbox.txt"))?;

    // ---- second run: only the disk is shared with the first ---------------
    let mut store = IndexStore::open(&store_dir)?;
    let changes = SignatureDb::load(&store_dir)?.diff(&fs_view, &VPath::root())?;
    println!(
        "\nsecond run: {} added, {} modified, {} removed, {} unchanged (extracting {} of {} files)",
        changes.added.len(),
        changes.modified.len(),
        changes.removed.len(),
        changes.unchanged,
        changes.files_to_scan(),
        changes.walk.files,
    );
    let second = generator.update_store(
        &fs_view,
        &VPath::root(),
        &mut store,
        implementation,
        configuration,
    )?;
    println!(
        "            postings removed {}, postings added {}, rescan ratio {:.0}%",
        second.postings_removed,
        second.run.stage2.terms_emitted,
        second.rescan_ratio() * 100.0
    );

    // ---- the updated store answers queries about the new state -----------
    let (index, docs) = store.load_segment(0)?;
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
