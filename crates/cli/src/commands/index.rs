//! `dsearch-cli index` — index a directory and persist the result.

use std::path::PathBuf;

use dsearch::core::{Configuration, GeneratorOptions, Implementation, IndexGenerator};
use dsearch::persist::IndexStore;
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

    let options =
        GeneratorOptions { formats: args.flag("formats"), ..GeneratorOptions::paper_defaults() };

    let fs = OsFs::new(PathBuf::from(dir));
    let mut store = IndexStore::open(store_path).map_err(CliError::failed)?;
    let generator = IndexGenerator::new(options);
    let replaced = store.segment_count();

    // Either way the paper's pipeline runs and one segment takes the place
    // of whatever the store held.  A full run walks the tree and owns the
    // store; `--incremental` keeps what the store's signatures still vouch
    // for and runs the pipeline over the files that changed.
    let (headline, run, persist) = if args.flag("incremental") {
        let update = generator
            .update_store(&fs, &VPath::root(), &mut store, implementation, configuration)
            .map_err(CliError::failed)?;
        let headline = format!(
            "incremental update of {dir}\n  added {} / modified {} / removed {} / unchanged {}\n  \
             re-scanned {:.2} MB ({:.0}% of tracked files)\n  store now holds {} docs, {} terms, {} postings\n",
            update.changes.added.len(),
            update.changes.modified.len(),
            update.changes.removed.len(),
            update.changes.unchanged,
            update.run.stage2.bytes as f64 / 1e6,
            update.rescan_ratio() * 100.0,
            update.run.outcome.file_count(),
            update.info.term_count,
            update.info.posting_count,
        );
        (headline, update.run, update.persist)
    } else {
        let run = generator
            .run(&fs, &VPath::root(), implementation, configuration)
            .map_err(CliError::failed)?;
        // Whatever the run built — one index, or Implementation 3's
        // un-joined replicas — is merged as it is sealed.
        let persist_started = std::time::Instant::now();
        store.replace_with(run.outcome.replicas(), run.outcome.docs()).map_err(CliError::failed)?;
        let headline = format!(
            "indexed {} files ({:.2} MB) from {dir}\n",
            run.stage2.files,
            run.stage2.bytes as f64 / 1e6
        );
        (headline, run, persist_started.elapsed())
    };

    // The run's total ends where persisting starts, so the stages listed
    // tile the total.
    let (timings, persist_seconds) = (run.timings, persist.as_secs_f64());
    let bytes = store.written();
    let mut out = headline;
    out.push_str(&format!(
        "  {} with configuration {}\n  \
         total {:.3} s (stage 1 {:.3} s, extraction {:.3} s, join {:.3} s, persist {:.3} s)\n  \
         store {store_path}: {} segment(s) (replaced {replaced})\n  \
         bytes: ids {} (exceptions {}, short {}) tfs {} (exceptions {}, short {}) skips {} \
         scores {} dictionary {} docs {}\n",
        implementation.paper_name(),
        configuration,
        timings.total.as_secs_f64() + persist_seconds,
        timings.filename_generation.as_secs_f64(),
        timings.extraction.as_secs_f64(),
        timings.join.as_secs_f64(),
        persist_seconds,
        store.segment_count(),
        bytes.ids,
        bytes.id_exceptions,
        bytes.short_ids,
        bytes.tfs,
        bytes.tf_exceptions,
        bytes.short_tfs,
        bytes.skips,
        bytes.scores,
        bytes.dictionary,
        bytes.docs
    ));
    out.push_str(&super::memory_lines(run.outcome.heap_bytes() as u64));
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
