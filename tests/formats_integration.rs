//! Integration tests for format-aware indexing: a mixed-format corpus run
//! through the full three-stage pipeline (all three implementations) must
//! index document *content* rather than markup, skip binary files, and stay
//! consistent with the plain-text behaviour the paper's benchmark relies on.

use dsearch::core::{Configuration, GeneratorOptions, Implementation, IndexGenerator};
use dsearch::formats::{DocumentFormat, FormatRegistry, WpxWriter};
use dsearch::query::{Query, Searcher};
use dsearch::text::Term;
use dsearch::vfs::{FileSystem, MemFs, VPath};

fn mixed_corpus() -> MemFs {
    let fs = MemFs::new();
    fs.add_file(
        &VPath::new("text/notes.txt"),
        b"plain notes mentioning the manycore testbed".to_vec(),
    )
    .unwrap();
    fs.add_file(
        &VPath::new("text/guide.md"),
        b"# User guide\n\nHow to run the **index generator** quickly.\n- step one\n- step two\n"
            .to_vec(),
    )
    .unwrap();
    fs.add_file(
        &VPath::new("web/summary.html"),
        b"<html><body><h2>Evaluation summary</h2><p>spe&#101;dup on thirtytwo cores, caf&#233; break</p>\
          <script>var hidden = 'donotindexme';</script></body></html>"
            .to_vec(),
    )
    .unwrap();
    fs.add_file(
        &VPath::new("sheets/results.csv"),
        b"machine,threads,speedup\nquadcore,3,\"four point seven\"\noctocore,6,\"two point one\"\n"
            .to_vec(),
    )
    .unwrap();
    let mut wpx = WpxWriter::new("Design discussion");
    wpx.paragraph("Join forces pattern eliminates synchronization");
    wpx.paragraph("Round robin distribution was fastest");
    wpx.object();
    fs.add_file(&VPath::new("docs/design.wpx"), wpx.finish().into_bytes()).unwrap();
    fs.add_file(
        &VPath::new("code/runner.rs"),
        b"pub fn spawn_extractor_threads(pool: &ThreadPool) { pool.scoped_run(); }".to_vec(),
    )
    .unwrap();
    fs.add_file(&VPath::new("blobs/archive.zip"), vec![0u8; 64]).unwrap();
    fs
}

fn format_aware_generator() -> IndexGenerator {
    let options = GeneratorOptions { formats: true, ..GeneratorOptions::paper_defaults() };
    IndexGenerator::new(options)
}

#[test]
fn all_three_implementations_agree_on_a_mixed_format_corpus() {
    let fs = mixed_corpus();
    let generator = format_aware_generator();
    let reference = generator
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(1, 0, 0))
        .unwrap();
    let (reference_index, reference_docs) = reference.outcome.into_single_index();

    for implementation in [Implementation::ReplicateJoin, Implementation::ReplicateNoJoin] {
        let run = generator
            .run(
                &fs,
                &VPath::root(),
                implementation,
                Configuration::new(3, 1, if implementation.joins() { 1 } else { 0 }),
            )
            .unwrap();
        assert_eq!(run.outcome.file_count(), reference_index.file_count(), "{implementation}");
        let (index, docs) = run.outcome.into_single_index();
        assert_eq!(index, reference_index, "{implementation}");
        assert_eq!(docs, reference_docs, "{implementation}");
    }
}

#[test]
fn content_is_indexed_and_markup_binary_and_scripts_are_not() {
    let fs = mixed_corpus();
    let run = format_aware_generator()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();

    // Content words from every indexable format.
    for present in [
        "manycore",   // plain text
        "guide",      // markdown heading
        "generator",  // markdown body
        "evaluation", // html heading
        "speedup",    // html body with a numeric entity inside the word
        "cafe",       // an entity for an accented letter, folded by the scanner
        "quadcore",   // csv field
        "seven",      // csv quoted field
        "forces",     // wpx paragraph
        "discussion", // wpx title
        "extractor",  // split identifier from source code
    ] {
        assert!(index.contains_term(&Term::from(present)), "missing content term {present}");
    }
    // Markup, styling, scripts and binary bytes must not become terms.
    for absent in ["html", "body", "script", "donotindexme", "para", "style"] {
        assert!(!index.contains_term(&Term::from(absent)), "markup term {absent} leaked in");
    }

    // The binary file is walked (Stage 1 sees it) but contributes nothing.
    assert_eq!(run.stage2.files, 7);
    let searcher = Searcher::new([&index], &docs);
    assert!(searcher.search(&Query::parse("archive OR zip").unwrap()).is_empty());
}

#[test]
fn latin1_named_entities_are_read_as_their_letters() {
    let fs = MemFs::new();
    fs.add_file(&VPath::new("menu.html"), b"<p>caf&eacute; na&iuml;ve</p>".to_vec()).unwrap();
    fs.add_file(&VPath::new("other.txt"), b"plain words".to_vec()).unwrap();
    let run = format_aware_generator()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();
    let searcher = Searcher::new([&index], &docs);
    let found = |query: &str| searcher.search(&Query::parse(query).unwrap()).paths().len();
    for word in ["café", "cafe", "naïve", "naive", "CAFÉ"] {
        assert_eq!(found(word), 1, "{word}");
    }
    for word in ["eacute", "caf", "iuml", "na"] {
        assert_eq!(found(word), 0, "{word}");
    }
}

#[test]
fn queries_work_across_formats_and_replicas() {
    let fs = mixed_corpus();
    let run = format_aware_generator()
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(3, 0, 0))
        .unwrap();
    let docs = run.outcome.docs().clone();
    let set = match run.outcome {
        dsearch::core::IndexOutcome::Replicas { set, .. } => set,
        _ => panic!("Implementation 3 keeps replicas"),
    };
    let searcher = Searcher::new(set.replicas(), &docs).with_parallel_lookup(true);

    let hits = searcher.search(&Query::parse("speedup").unwrap());
    assert!(hits.paths().contains(&"web/summary.html"));
    let hits = searcher.search(&Query::parse("round robin").unwrap());
    assert_eq!(hits.paths(), vec!["docs/design.wpx"]);
    let hits = searcher.search(&Query::parse("spawn* NOT robin").unwrap());
    assert_eq!(hits.paths(), vec!["code/runner.rs"]);
}

#[test]
fn plain_text_only_mode_is_unchanged_by_the_formats_feature() {
    // The paper's configuration must behave exactly as before: every file
    // treated as text, markup indexed verbatim.
    let fs = mixed_corpus();
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .unwrap();
    let (index, _) = run.outcome.into_single_index();
    assert!(index.contains_term(&Term::from("html")));
    assert!(index.contains_term(&Term::from("script")));
}

#[test]
fn registry_detection_agrees_with_pipeline_results() {
    let fs = mixed_corpus();
    let registry = FormatRegistry::with_builtins();
    let mut binary_files = 0;
    for path in fs.all_files() {
        let bytes = fs.read(&path).unwrap();
        let extracted = registry.extract(path.as_str(), &bytes);
        if extracted.format == DocumentFormat::Binary {
            binary_files += 1;
            assert!(extracted.is_empty());
        } else {
            assert!(!extracted.is_empty(), "{path}");
        }
    }
    assert_eq!(binary_files, 1);
}
