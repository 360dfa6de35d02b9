//! `dsearch-cli index` — index a directory and persist the result.

use std::path::PathBuf;

use dsearch::core::{Configuration, FormatMode, GeneratorOptions, Implementation, IndexGenerator};
use dsearch::persist::{IncrementalIndexer, IndexStore, SignatureDb};
use dsearch::vfs::{OsFs, VPath};

use crate::args::ParsedArgs;
use crate::CliError;

fn implementation_from(args: &ParsedArgs) -> Result<Implementation, CliError> {
    match args.value_of("implementation").unwrap_or("3") {
        "1" => Ok(Implementation::SharedLocked),
        "2" => Ok(Implementation::ReplicateJoin),
        "3" => Ok(Implementation::ReplicateNoJoin),
        other => {
            Err(CliError::Usage(format!("--implementation must be 1, 2 or 3 (got {other:?})")))
        }
    }
}

fn configuration_from(
    args: &ParsedArgs,
    implementation: Implementation,
) -> Result<Configuration, CliError> {
    let default_threads = std::thread::available_parallelism().map_or(2, usize::from);
    let x = args.number_of::<usize>("extractors")?.unwrap_or(default_threads.max(1));
    let y = args.number_of::<usize>("updaters")?.unwrap_or(0);
    let z =
        args.number_of::<usize>("joiners")?.unwrap_or(if implementation.joins() { 1 } else { 0 });
    let configuration = Configuration::new(x, y, z);
    configuration.validate(implementation).map_err(CliError::Usage)?;
    Ok(configuration)
}

/// Runs the `index` command.
///
/// # Errors
///
/// Fails on usage errors, unreadable input directories and store I/O errors.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = args.require_positional(0, "directory to index")?;
    let store_path = args
        .value_of("store")
        .ok_or_else(|| CliError::Usage("index requires --store <path>".into()))?;
    let implementation = implementation_from(args)?;
    let configuration = configuration_from(args, implementation)?;

    let mut options = GeneratorOptions::paper_defaults();
    if args.flag("formats") {
        options.formats = FormatMode::DetectAndExtract;
    }

    let fs = OsFs::new(PathBuf::from(dir));
    let mut store = IndexStore::open(store_path).map_err(CliError::failed)?;
    let mut out = String::new();

    if args.flag("incremental") {
        // Load the previous state (joined index + signatures), update only
        // what changed, and replace the store contents.
        let (mut index, mut docs) = if store.segment_count() > 0 {
            store.load_joined().map_err(CliError::failed)?
        } else {
            (dsearch::index::InMemoryIndex::new(), dsearch::index::DocTable::new())
        };
        let mut signatures = SignatureDb::load(store.root()).map_err(CliError::failed)?;

        let indexer = IncrementalIndexer::new();
        let report = indexer
            .update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures)
            .map_err(CliError::failed)?;
        let index_heap = index.heap_bytes() as u64;
        let info = store.replace_all(&index, &docs).map_err(CliError::failed)?;
        // Index first, signatures second: see `SignatureDb::save`.
        signatures.save(store.root()).map_err(CliError::failed)?;

        out.push_str(&format!(
            "incremental update of {dir}\n  added {} / modified {} / removed {} / unchanged {}\n  \
             re-scanned {:.2} MB ({:.0}% of tracked files)\n  store now holds {} docs, {} terms, {} postings\n",
            report.added,
            report.modified,
            report.removed,
            report.unchanged,
            report.bytes_scanned as f64 / 1e6,
            report.rescan_ratio() * 100.0,
            info.doc_count,
            info.term_count,
            info.posting_count,
        ));
        out.push_str(&super::memory_lines(index_heap));
        return Ok(out);
    }

    // Full rebuild through the paper's parallel pipeline.
    let generator = IndexGenerator::new(options);
    let run = generator
        .run(&fs, &VPath::root(), implementation, configuration)
        .map_err(CliError::failed)?;
    let report = run.report();
    let index_heap = run.outcome.heap_bytes() as u64;

    // Persist: whatever the run built — one index, or Implementation 3's
    // un-joined replicas — is merged as it is sealed into one segment, which
    // takes the place of whatever the store held (a full rebuild owns it).
    let replaced = store.segment_count();
    let persist_started = std::time::Instant::now();
    store.replace_with(run.outcome.replicas(), run.outcome.docs()).map_err(CliError::failed)?;
    let persist_seconds = persist_started.elapsed().as_secs_f64();
    // The generator's total ends where persisting starts, so the stages
    // listed tile the total.
    out.push_str(&format!(
        "indexed {} files ({:.2} MB) from {dir}\n  {} with configuration {}\n  \
         total {:.3} s (stage 1 {:.3} s, extraction {:.3} s, join {:.3} s, persist {:.3} s)\n",
        report.files,
        report.bytes as f64 / 1e6,
        implementation.paper_name(),
        configuration,
        report.total_seconds + persist_seconds,
        report.filename_generation_seconds,
        report.extraction_seconds,
        report.join_seconds,
        persist_seconds,
    ));
    out.push_str(&format!(
        "  store {store_path}: {} segment(s) (replaced {replaced})\n",
        store.segment_count()
    ));
    let bytes = store.written();
    out.push_str(&format!(
        "  bytes: ids {} tfs {} skips {} scores {} dictionary {} docs {}\n",
        bytes.ids, bytes.tfs, bytes.skips, bytes.scores, bytes.dictionary, bytes.docs
    ));
    out.push_str(&super::memory_lines(index_heap));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementation_parsing_accepts_paper_numbers() {
        let args = ParsedArgs::parse(["index", "d", "--implementation", "1"]).unwrap();
        assert_eq!(implementation_from(&args).unwrap(), Implementation::SharedLocked);
        let args = ParsedArgs::parse(["index", "d"]).unwrap();
        assert_eq!(implementation_from(&args).unwrap(), Implementation::ReplicateNoJoin);
        let args = ParsedArgs::parse(["index", "d", "--implementation", "7"]).unwrap();
        assert!(implementation_from(&args).is_err());
    }

    #[test]
    fn configuration_defaults_and_validation() {
        let args =
            ParsedArgs::parse(["index", "d", "--extractors", "3", "--updaters", "2"]).unwrap();
        let cfg = configuration_from(&args, Implementation::ReplicateNoJoin).unwrap();
        assert_eq!(cfg, Configuration::new(3, 2, 0));
        // Joiners default to 1 for Implementation 2 and are rejected for 3.
        let cfg = configuration_from(&args, Implementation::ReplicateJoin).unwrap();
        assert_eq!(cfg.join_threads, 1);
        let bad = ParsedArgs::parse(["index", "d", "--joiners", "2"]).unwrap();
        assert!(configuration_from(&bad, Implementation::SharedLocked).is_err());
    }

    #[test]
    fn missing_store_is_a_usage_error() {
        let args = ParsedArgs::parse(["index", "/tmp/somewhere"]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let args = ParsedArgs::parse(["index"]).unwrap();
        assert!(run(&args).is_err());
    }
}
