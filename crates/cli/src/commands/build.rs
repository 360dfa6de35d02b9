//! `dsearch-cli build` — the checkpointed, fault-tolerant index build.
//!
//! `build` runs the pipeline `index` runs — the files dealt round-robin to
//! the extractors, one replica each — and on top of it retries transient
//! failures with backoff, quarantines poison files in the dead-letter queue,
//! and seals each replica into a checkpointed segment as it goes, so a
//! killed build resumes with `--resume` instead of starting over.  With an
//! interval longer than the build, its one segment is `index`'s, byte for
//! byte.

use std::path::PathBuf;
use std::time::Duration;

use dsearch::core::{BuildOptions, BuildPipeline, BuildReport};
use dsearch::vfs::{OsFs, VPath};

use crate::args::ParsedArgs;
use crate::CliError;

/// Builds the pipeline options shared by `build` and `dlq replay`.
pub(crate) fn options_from(args: &ParsedArgs) -> Result<BuildOptions, CliError> {
    let default_threads = std::thread::available_parallelism().map_or(2, usize::from);
    let mut options = BuildOptions {
        extractors: args.number_of::<usize>("extractors")?.unwrap_or(default_threads.max(1)),
        resume: args.flag("resume"),
        formats: args.flag("formats"),
        ..BuildOptions::default()
    };
    if let Some(n) = args.number_of::<u32>("max-retries")? {
        if n == 0 {
            return Err(CliError::Usage("--max-retries must be at least 1".into()));
        }
        options.max_retries = n;
    }
    if let Some(secs) = args.number_of::<f64>("checkpoint-every")? {
        if !secs.is_finite() || secs < 0.0 {
            return Err(CliError::Usage("--checkpoint-every must be a non-negative number".into()));
        }
        options.checkpoint_every = Duration::from_secs_f64(secs);
    }
    if let Some(ms) = args.number_of::<u64>("throttle-ms")? {
        options.throttle = Duration::from_millis(ms);
    }
    Ok(options)
}

/// Renders the build summary, counters included — `items_ok`, `items_dead`
/// and friends are part of the command's contract (the CI kill–resume smoke
/// greps for them).
pub(crate) fn render_report(dir: &str, store: &str, report: &BuildReport) -> String {
    let status = if report.complete {
        "complete"
    } else if report.interrupted {
        "interrupted"
    } else {
        "incomplete"
    };
    format!(
        "build of {dir} -> {store}: {status}\n  \
         files {} (skipped {}) / {:.2} MB read in {:.3} s\n  \
         items_ok {}  items_retried {}  items_dead {}\n  \
         checkpoint_writes {}\n  \
         segments {}  dead_letters {}  corpus_fingerprint {:#018x}\n",
        report.files,
        report.skipped,
        report.bytes as f64 / 1e6,
        report.elapsed_seconds,
        report.counters.items_ok,
        report.counters.items_retried,
        report.counters.items_dead,
        report.counters.checkpoint_writes,
        report.segments,
        report.dead_letters,
        report.corpus_fingerprint,
    )
}

/// Runs the `build` command.
///
/// # Errors
///
/// Fails on usage errors, walk failures and store I/O errors; per-file
/// failures retry and then dead-letter instead of failing the build.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = args.require_positional(0, "directory to index")?;
    let store = args
        .value_of("store")
        .ok_or_else(|| CliError::Usage("build requires --store <path>".into()))?;
    let options = options_from(args)?;

    let fs = OsFs::new(PathBuf::from(dir));
    let pipeline = BuildPipeline::new(options);
    let report = pipeline.build(&fs, &VPath::root(), store.as_ref()).map_err(CliError::failed)?;
    let mut out = render_report(dir, store, &report);
    if report.dead_letters > 0 {
        out.push_str(&format!(
            "  {} file(s) quarantined; inspect with `dsearch dlq list --store {store}`\n",
            report.dead_letters
        ));
    }
    out.push_str(&super::memory_lines(report.index_heap_bytes));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_with_defaults_and_overrides() {
        let args = ParsedArgs::parse(["build", "d", "--store", "s"]).unwrap();
        let options = options_from(&args).unwrap();
        assert!(!options.resume);
        assert!(options.extractors >= 1);
        assert_eq!(options.max_retries, 3);

        let args = ParsedArgs::parse([
            "build",
            "d",
            "--store",
            "s",
            "--resume",
            "--extractors",
            "2",
            "--max-retries",
            "5",
            "--checkpoint-every",
            "0.5",
            "--throttle-ms",
            "7",
            "--formats",
        ])
        .unwrap();
        let options = options_from(&args).unwrap();
        assert!(options.resume);
        assert!(options.formats);
        assert_eq!(options.extractors, 2);
        assert_eq!(options.max_retries, 5);
        assert_eq!(options.checkpoint_every, Duration::from_millis(500));
        assert_eq!(options.throttle, Duration::from_millis(7));
    }

    #[test]
    fn invalid_options_are_usage_errors() {
        let args = ParsedArgs::parse(["build", "d", "--store", "s", "--max-retries", "0"]).unwrap();
        assert!(matches!(options_from(&args), Err(CliError::Usage(_))));
        let args =
            ParsedArgs::parse(["build", "d", "--store", "s", "--checkpoint-every", "-1"]).unwrap();
        assert!(matches!(options_from(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_store_or_directory_is_a_usage_error() {
        let args = ParsedArgs::parse(["build", "/tmp/somewhere"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args = ParsedArgs::parse(["build"]).unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn summary_names_every_counter() {
        let report = BuildReport {
            files: 10,
            skipped: 2,
            bytes: 1_000_000,
            counters: dsearch::core::CounterSnapshot::default(),
            segments: 3,
            dead_letters: 1,
            complete: true,
            interrupted: false,
            elapsed_seconds: 0.25,
            corpus_fingerprint: 0xabcd,
            index_heap_bytes: 1 << 20,
        };
        let out = render_report("docs", "/tmp/store", &report);
        for needle in [
            "items_ok",
            "items_retried",
            "items_dead",
            "checkpoint_writes",
            "dead_letters",
            "complete",
        ] {
            assert!(out.contains(needle), "summary missing {needle}: {out}");
        }
    }
}
