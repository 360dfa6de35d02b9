//! End-to-end tests of the CLI: corpus → index → search → incremental update,
//! through the library-level `run` entry point — and, where ranked answers
//! are compared, through the real `dsearch serve` on a pipe.

use std::fs;
use std::path::{Path, PathBuf};

use dsearch_cli::{run, CliError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dsearch-cli-e2e-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn sub(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn write_docs(dir: &Path) {
    fs::create_dir_all(dir.join("notes")).unwrap();
    fs::write(dir.join("notes/report.txt"), "quarterly revenue grew strongly").unwrap();
    fs::write(dir.join("notes/plan.md"), "# Roadmap\n\nParallel indexing milestones\n").unwrap();
    fs::write(dir.join("todo.txt"), "review the parallel index generator").unwrap();
}

#[test]
fn index_then_search_finds_documents() {
    let dir = TempDir::new("index-search");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");

    let out = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--extractors".to_owned(),
        "2".to_owned(),
        "--implementation".to_owned(),
        "2".to_owned(),
        "--formats".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("indexed 3 files"), "{out}");
    assert!(out.contains("Implementation 2"));

    let out =
        run(["search".to_owned(), "--store".to_owned(), store.clone(), "parallel".to_owned()])
            .unwrap();
    assert!(out.contains("2 result(s)"), "{out}");
    assert!(out.contains("todo.txt"));

    // NOT and prefix queries work through the CLI too.
    let out = run([
        "search".to_owned(),
        "--store".to_owned(),
        store.clone(),
        "parallel".to_owned(),
        "NOT".to_owned(),
        "roadmap".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("1 result(s)"), "{out}");
    let out =
        run(["search".to_owned(), "--store".to_owned(), store, "revenu*".to_owned()]).unwrap();
    assert!(out.contains("report.txt"), "{out}");
}

fn index_args(docs: &Path, store: &str, extra: &[&str]) -> Vec<String> {
    let mut args =
        vec!["index".to_owned(), docs.to_string_lossy().into_owned(), "--store".to_owned()];
    args.push(store.to_owned());
    args.extend(extra.iter().map(|&arg| arg.to_owned()));
    args
}

fn search(store: &str, query: &str) -> String {
    run(["search".to_owned(), "--store".to_owned(), store.to_owned(), query.to_owned()]).unwrap()
}

#[test]
fn a_store_does_not_say_how_it_was_built() {
    let dir = TempDir::new("replicas");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);

    // Implementation 3's replicas are merged into one segment as they are
    // persisted: the file one extractor writes, and Implementation 1.
    let segments: Vec<Vec<u8>> = [
        &["--extractors", "3", "--implementation", "3"][..],
        &["--extractors", "1"],
        &["--implementation", "1"],
    ]
    .iter()
    .enumerate()
    .map(|(i, how)| {
        let store = dir.sub(&format!("store{i}"));
        let out = run(index_args(&docs, &store, how)).unwrap();
        assert!(out.contains("1 segment(s) (replaced 0)"), "{out}");
        let out = search(&store, "index");
        assert!(out.contains("result(s)"), "{out}");
        assert!(out.contains("todo.txt"), "{out}");
        fs::read(Path::new(&store).join("segment-000001.dsg")).unwrap()
    })
    .collect();
    assert!(segments[0] == segments[1] && segments[0] == segments[2]);
}

#[test]
fn a_second_full_index_takes_the_store_over() {
    let dir = TempDir::new("reindex");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    fs::write(docs.join("a.txt"), "alpha beta").unwrap();
    fs::write(docs.join("b.txt"), "beta gamma").unwrap();
    let store = dir.sub("store");
    let first = run(index_args(&docs, &store, &["--extractors", "2"])).unwrap();
    assert!(first.starts_with("indexed 2 files"), "{first}");

    fs::remove_file(docs.join("a.txt")).unwrap();
    fs::write(docs.join("0.txt"), "delta beta").unwrap();
    let second = run(index_args(&docs, &store, &["--extractors", "2"])).unwrap();
    assert!(second.starts_with("indexed 2 files"), "{second}");
    assert!(second.contains("1 segment(s) (replaced 1)"), "{second}");

    // The store is the second run's: the deleted file is gone from every
    // answer, the new one is found, and one segment file is left.
    let beta = search(&store, "beta");
    assert!(beta.contains("2 result(s)"), "{beta}");
    assert!(beta.contains("0.txt") && beta.contains("b.txt") && !beta.contains("a.txt"), "{beta}");
    assert!(search(&store, "alpha").contains("0 result(s)"));
    assert!(search(&store, "delta").contains("0.txt"));
    let segments = fs::read_dir(&store)
        .unwrap()
        .filter(|entry| entry.as_ref().unwrap().file_name().to_string_lossy().ends_with(".dsg"))
        .count();
    assert_eq!(segments, 1);
}

#[test]
fn incremental_update_rescans_only_changes() {
    let dir = TempDir::new("incremental");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");

    let first = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--incremental".to_owned(),
    ])
    .unwrap();
    assert!(first.contains("added 3"), "{first}");

    // No changes: nothing is re-scanned.
    let second = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--incremental".to_owned(),
    ])
    .unwrap();
    assert!(second.contains("added 0 / modified 0 / removed 0 / unchanged 3"), "{second}");

    // Add one file, remove another.
    fs::write(docs.join("notes/new.txt"), "fresh incremental content").unwrap();
    fs::remove_file(docs.join("todo.txt")).unwrap();
    let third = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--incremental".to_owned(),
    ])
    .unwrap();
    assert!(third.contains("added 1"), "{third}");
    assert!(third.contains("removed 1"), "{third}");

    let out =
        run(["search".to_owned(), "--store".to_owned(), store.clone(), "incremental".to_owned()])
            .unwrap();
    assert!(out.contains("new.txt"), "{out}");
    let out =
        run(["search".to_owned(), "--store".to_owned(), store, "generator".to_owned()]).unwrap();
    assert!(out.contains("0 result(s)"), "removed file must not be found: {out}");
}

/// The hit lines — path, matched terms, `score=` — the real `dsearch serve`
/// answers `query` with, in rank order.
fn served(store: &str, query: &str) -> Vec<String> {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut serve = Command::new(env!("CARGO_BIN_EXE_dsearch"))
        .args(["serve", "--store", store])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    serve.stdin.take().unwrap().write_all(format!("{query}\n!quit\n").as_bytes()).unwrap();
    let output = serve.wait_with_output().unwrap();
    assert!(output.status.success());
    let answer = String::from_utf8(output.stdout).unwrap();
    let mut lines = answer.lines().skip_while(|line| !line.starts_with("OK "));
    assert!(lines.next().is_some(), "{answer}");
    lines.take_while(|&line| line != "END").map(str::to_owned).collect()
}

/// A cached answer is rendered once and copied after that: on the wire the
/// second asking of a query says `cached=true` and carries the very body the
/// first did.
#[test]
fn a_repeated_query_is_answered_from_cache_with_the_same_body() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let dir = TempDir::new("cached-body");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");
    run(index_args(&docs, &store, &[])).unwrap();

    let mut serve = Command::new(env!("CARGO_BIN_EXE_dsearch"))
        .args(["serve", "--store", &store])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let script = "parallel OR revenue\nparallel   OR REVENUE\n!quit\n";
    serve.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let output = serve.wait_with_output().unwrap();
    assert!(output.status.success());
    let answer = String::from_utf8(output.stdout).unwrap();
    let mut responses = answer.split_inclusive("END\n").map(|response| {
        let (status, body) = response.split_once('\n').unwrap();
        (status.to_owned(), body.to_owned())
    });
    let (first, first_body) = responses.next().unwrap();
    let (second, second_body) = responses.next().unwrap();
    assert!(first.starts_with("OK 3 generation=1 cached=false "), "{answer}");
    assert!(second.starts_with("OK 3 generation=1 cached=true "), "{answer}");
    assert_eq!(first_body, second_body);
    assert_eq!(first_body.lines().count(), 4, "three hits and END: {answer}");
}

/// Output to a reader that has gone away ends a command quietly: no panic,
/// no backtrace, not the exit code of one.
#[test]
fn a_closed_stdout_ends_a_command_quietly() {
    use std::process::{Command, Stdio};
    let dir = TempDir::new("closed-stdout");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");
    run(index_args(&docs, &store, &[])).unwrap();

    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_dsearch"))
        .args(["search", "--store", &store, "parallel"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
}

fn segment(store: &str) -> Vec<u8> {
    fs::read(Path::new(store).join("segment-000001.dsg")).unwrap()
}

/// An incremental run is the paper's pipeline behind a filter: into an empty
/// store it writes the file a full run writes — frequencies, lengths and
/// walk-order ids included — and ranks as a full run ranks.  (It used to
/// seal `tf = 1` and a length of the distinct terms: `c, b, a`.)
#[test]
fn an_incremental_run_stores_what_a_full_run_stores() {
    let dir = TempDir::new("incremental-equals-full");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    fs::write(docs.join("a.txt"), "apple apple apple apple banana").unwrap();
    fs::write(docs.join("b.txt"), "apple banana banana cherry durian elder fig grape").unwrap();
    fs::write(docs.join("c.txt"), "cherry cherry").unwrap();
    let (full, incremental) = (dir.sub("full"), dir.sub("incremental"));
    let first = run(index_args(&docs, &full, &[])).unwrap();
    let second = run(index_args(&docs, &incremental, &["--incremental"])).unwrap();
    assert!(segment(&full) == segment(&incremental));

    let hits = served(&full, "banana OR cherry");
    let paths: Vec<&str> = hits.iter().filter_map(|hit| hit.split_whitespace().next()).collect();
    assert_eq!(paths, ["b.txt", "c.txt", "a.txt"]);
    assert!(hits.iter().all(|hit| hit.contains("score=")), "{hits:?}");
    assert_eq!(served(&incremental, "banana OR cherry"), hits);

    // One report after the headline: the configuration, the stages that tile
    // the total, the store and the census of the bytes written.
    let line = |out: &str, with: &str| {
        out.lines().find(|line| line.contains(with)).unwrap_or_else(|| panic!("{with}: {out}"));
    };
    for with in [" with configuration (", "(stage 1 ", ", persist ", "1 segment(s) (replaced 0)"] {
        line(&first, with);
        line(&second, with);
    }
    let census = first.lines().find(|line| line.contains("bytes: ids")).unwrap();
    assert!(second.contains(census), "{second}");

    // The documents a store holds are the ones with a length — BM25's
    // population — not the table's tombstones.
    fs::remove_file(docs.join("c.txt")).unwrap();
    let third = run(index_args(&docs, &incremental, &["--incremental"])).unwrap();
    assert!(third.contains("removed 1 / unchanged 2"), "{third}");
    assert!(third.contains("store now holds 2 docs"), "{third}");
    run(index_args(&docs, &full, &[])).unwrap();
    assert_eq!(served(&incremental, "banana OR cherry"), served(&full, "banana OR cherry"));
}

/// `--formats`, `--implementation` and the thread counts mean under
/// `--incremental` what they mean without it.
#[test]
fn an_incremental_run_honours_the_format_and_thread_flags() {
    let dir = TempDir::new("incremental-flags");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    fs::write(docs.join("page.html"), "<html><body><p>inverted index</p></body></html>").unwrap();

    let full = dir.sub("full");
    run(index_args(&docs, &full, &["--formats"])).unwrap();
    assert!(search(&full, "body").contains("0 result(s)"));
    let plain = dir.sub("plain");
    run(index_args(&docs, &plain, &["--incremental"])).unwrap();
    assert!(search(&plain, "body").contains("page.html"), "without --formats tags are words");

    // One change set — everything, then one file rewritten and one removed —
    // through every implementation and thread count: one segment file.
    let rewrite = |contents: &str| fs::write(docs.join("todo.txt"), contents).unwrap();
    let mut stores = Vec::new();
    for implementation in ["1", "2", "3"] {
        for extractors in ["1", "2", "4"] {
            rewrite("review the parallel index generator");
            fs::write(docs.join("notes/report.txt"), "quarterly revenue grew strongly").unwrap();
            let store = dir.sub(&format!("store-{implementation}-{extractors}"));
            let flags =
                ["--incremental", "--formats", "--implementation", implementation, "--extractors"];
            let how: Vec<&str> = flags.into_iter().chain([extractors]).collect();
            let first = run(index_args(&docs, &store, &how)).unwrap();
            assert!(first.contains(&format!("Implementation {implementation} with")), "{first}");
            assert!(first.contains(&format!("({extractors}, 0, ")), "{first}");
            assert!(segment(&store) == segment(&full), "{how:?}");

            rewrite("rewrite the sequential baseline baseline");
            fs::remove_file(docs.join("notes/report.txt")).unwrap();
            let second = run(index_args(&docs, &store, &how)).unwrap();
            assert!(second.contains("added 0 / modified 1 / removed 1 / unchanged 2"), "{second}");
            assert!(search(&store, "body").contains("0 result(s)"));
            assert!(search(&store, "inverted").contains("page.html"));
            stores.push(fs::read(Path::new(&store).join("segment-000002.dsg")).unwrap());
        }
    }
    assert!(stores.windows(2).all(|pair| pair[0] == pair[1]));
    // Updaters and joiners reach the run too.
    let store = dir.sub("store-updaters");
    let how = ["--incremental", "--implementation", "2", "--updaters", "2", "--joiners", "2"];
    let out = run(index_args(&docs, &store, &how)).unwrap();
    assert!(out.contains(", 2, 2)"), "{out}");
    let err = run(index_args(&docs, &store, &["--incremental", "--joiners", "2"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
}

#[test]
fn a_full_index_retires_the_signatures_of_the_store_it_replaces() {
    let dir = TempDir::new("retire-signatures");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");
    let incremental = |store: &str| run(index_args(&docs, store, &["--incremental"])).unwrap();
    let signatures = Path::new(&store).join("signatures.json");

    // Signatures recorded over the first contents of `todo.txt` …
    assert!(incremental(&store).contains("added 3"));
    assert!(signatures.exists());
    // … a full index over its second contents …
    fs::write(docs.join("todo.txt"), "rewrite the sequential baseline").unwrap();
    let full = run(index_args(&docs, &store, &[])).unwrap();
    assert!(full.contains("1 segment(s) (replaced 1)"), "{full}");
    assert!(!signatures.exists(), "they describe the segment that went");
    // … and an incremental run once the file is back to what it first held:
    // with the old signatures still there it would read "unchanged" and keep
    // the postings of the contents in between.
    fs::write(docs.join("todo.txt"), "review the parallel index generator").unwrap();
    let third = incremental(&store);
    assert!(third.contains("unchanged 0"), "{third}");

    // The store answers as one built from scratch over the same files does.
    let fresh = dir.sub("fresh");
    run(index_args(&docs, &fresh, &[])).unwrap();
    let hits = |store: &str, query: &str| {
        let out = search(store, query);
        let mut paths: Vec<String> = out
            .lines()
            .filter(|line| line.starts_with("  "))
            .filter_map(|line| line.split_whitespace().next().map(str::to_owned))
            .collect();
        paths.sort();
        (out.lines().next().unwrap_or_default().to_owned(), paths)
    };
    for query in ["generator", "sequential", "baseline", "parallel", "revenue", "review"] {
        assert_eq!(hits(&store, query), hits(&fresh, query), "{query}");
    }
    assert!(search(&store, "generator").contains("todo.txt"));
    assert!(search(&store, "sequential").contains("0 result(s)"));
    // And the signatures are this run's again.
    assert!(incremental(&store).contains("added 0 / modified 0 / removed 0 / unchanged 3"));
}

#[test]
fn loadgen_reports_qps_and_percentiles() {
    let dir = TempDir::new("loadgen");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");

    run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
    ])
    .unwrap();

    let out = run([
        "loadgen".to_owned(),
        "--store".to_owned(),
        store.clone(),
        "--requests".to_owned(),
        "200".to_owned(),
        "--queries".to_owned(),
        "16".to_owned(),
        "--clients".to_owned(),
        "2".to_owned(),
        "--workers".to_owned(),
        "2".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("qps"), "{out}");
    assert!(out.contains("p50") && out.contains("p95") && out.contains("p99"), "{out}");
    assert!(out.contains("errors 0"), "{out}");
    assert!(out.contains("generations seen {1}"), "{out}");

    // Open-loop mode works through the CLI too.
    let out = run([
        "loadgen".to_owned(),
        "--store".to_owned(),
        store,
        "--requests".to_owned(),
        "50".to_owned(),
        "--mode".to_owned(),
        "open".to_owned(),
        "--rate".to_owned(),
        "5000".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("open-loop"), "{out}");
    assert!(out.contains("p99"), "{out}");
}

#[test]
fn searching_an_empty_store_fails_cleanly() {
    let dir = TempDir::new("empty-store");
    let store = dir.sub("store");
    // Opening the store lazily creates it, so the search sees zero segments.
    let err =
        run(["search".to_owned(), "--store".to_owned(), store, "anything".to_owned()]).unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
    assert!(err.to_string().contains("empty"));
}

#[test]
fn tables_and_curves_commands_run_without_a_corpus() {
    let out = run(["tables", "--table", "4"]).unwrap();
    assert!(out.contains("32-core"));
    let out = run(["curves", "--platform", "4", "--max-threads", "4"]).unwrap();
    assert!(out.contains("Implementation 3"));
}
