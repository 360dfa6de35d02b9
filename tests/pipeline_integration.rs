//! Integration tests spanning corpus generation, the full parallel pipeline
//! and the resulting indices.

use dsearch::core::config::InsertGranularity;
use dsearch::core::{
    Configuration, GeneratorOptions, Implementation, IndexGenerator, IndexOutcome, PipelineError,
};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::{DocTable, InMemoryIndex};
use dsearch::persist::segment::{
    read_docs, read_segment, write_docs, write_segment, write_segment_merged,
};
use dsearch::text::Term;
use dsearch::vfs::{CountingFs, MemFs, VPath};

fn corpus() -> (MemFs, u64) {
    let (fs, manifest) = materialize_to_memfs(&CorpusSpec::tiny(), 99);
    (fs, manifest.file_count())
}

/// The doc file and the segment a store writes for what a run built: one
/// index, or the un-joined replicas of Implementation 3.
fn persisted(built: &[InMemoryIndex], docs: &DocTable) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_docs(docs, &mut bytes).unwrap();
    let mut cursor = std::io::Cursor::new(&mut bytes);
    cursor.set_position(cursor.get_ref().len() as u64);
    write_segment_merged(built, docs.len(), cursor).unwrap();
    bytes
}

#[test]
fn every_implementation_and_configuration_builds_the_same_index() {
    let (fs, file_count) = corpus();
    let generator = IndexGenerator::default();
    let sequential = generator.run_sequential(&fs, &VPath::root()).unwrap();
    assert_eq!(sequential.index.file_count(), file_count);
    let stored = persisted(std::slice::from_ref(&sequential.index), &sequential.docs);

    let configs = [
        Configuration::new(1, 0, 0),
        Configuration::new(2, 0, 0),
        Configuration::new(4, 0, 0),
        Configuration::new(2, 1, 0),
        Configuration::new(3, 2, 0),
        Configuration::new(2, 3, 0),
    ];
    for implementation in Implementation::ALL {
        for mut config in configs {
            if implementation.joins() {
                config.join_threads = config.extraction_threads % 3;
            }
            let run = generator.run(&fs, &VPath::root(), implementation, config).unwrap();
            assert_eq!(run.stage2.files, file_count, "{implementation} {config}");
            assert_eq!(run.stage1.files, file_count);
            // What is stored does not say how it was built, to the byte.
            assert!(
                persisted(run.outcome.replicas(), run.outcome.docs()) == stored,
                "{implementation} {config}"
            );
            let (index, docs) = run.outcome.into_single_index();
            assert_eq!(index, sequential.index, "{implementation} {config}");
            assert_eq!(docs, sequential.docs);
        }
    }
}

#[test]
fn parallel_run_reads_each_file_exactly_once() {
    let (inner, file_count) = corpus();
    let fs = CountingFs::new(inner);
    let generator = IndexGenerator::default();
    let run = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(3, 2, 0))
        .unwrap();
    assert_eq!(run.outcome.file_count(), file_count);
    let io = fs.counters();
    assert_eq!(io.file_reads, file_count, "each file must be opened exactly once");
    assert_eq!(io.bytes_read, run.stage2.bytes);
}

#[test]
fn sequential_baseline_reads_files_twice_for_the_measurement_passes() {
    // The instrumented sequential baseline performs the read-only pass and the
    // read-and-extract pass (Table 1 columns 2 and 3), so it reads every file
    // twice.
    let (inner, file_count) = corpus();
    let fs = CountingFs::new(inner);
    let run = IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
    assert_eq!(run.stage2.files, file_count);
    assert_eq!(fs.counters().file_reads, 2 * file_count);
}

#[test]
fn all_option_combinations_produce_the_reference_index() {
    let (fs, _) = corpus();
    let reference = IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
    let stored = persisted(std::slice::from_ref(&reference.index), &reference.docs);

    for granularity in [InsertGranularity::EnBloc, InsertGranularity::PerTerm] {
        let generator = IndexGenerator::new(GeneratorOptions {
            granularity,
            ..GeneratorOptions::paper_defaults()
        });
        for implementation in Implementation::ALL {
            let run = generator
                .run(&fs, &VPath::root(), implementation, Configuration::new(2, 1, 0))
                .unwrap();
            let what = format!("{implementation} granularity={granularity:?}");
            assert!(persisted(run.outcome.replicas(), run.outcome.docs()) == stored, "{what}");
            let (index, _) = run.outcome.into_single_index();
            assert_eq!(index, reference.index, "{what}");
        }
    }
}

#[test]
fn replicas_partition_the_corpus_without_overlap() {
    let (fs, file_count) = corpus();
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(4, 0, 0))
        .unwrap();
    let IndexOutcome::Replicas { set, .. } = &run.outcome else {
        panic!("implementation 3 must keep replicas");
    };
    assert_eq!(set.replica_count(), 4);
    // Each file lands in exactly one replica: the per-replica file counts sum
    // to the corpus size.
    let total: u64 = set.replicas().iter().map(|r| r.file_count()).sum();
    assert_eq!(total, file_count);
    // With round-robin distribution the partition is balanced to within one
    // file per extractor.
    let counts: Vec<u64> = set.replicas().iter().map(|r| r.file_count()).collect();
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(max - min <= 1, "unbalanced round-robin partition: {counts:?}");
}

#[test]
fn generated_index_matches_corpus_ground_truth() {
    // Hand-build a small corpus with known contents and check postings.
    let fs = MemFs::new();
    fs.add_file(&VPath::new("a/letter.txt"), b"alpha beta gamma alpha".to_vec()).unwrap();
    fs.add_file(&VPath::new("b/report.txt"), b"beta delta".to_vec()).unwrap();
    fs.add_file(&VPath::new("notes.txt"), b"gamma! GAMMA? delta, epsilon".to_vec()).unwrap();

    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 1))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();

    // By path: Stage 1 numbers the files smallest first.
    let paths_for = |term: &str| -> Vec<String> {
        let mut paths: Vec<String> = index
            .postings(&Term::from(term))
            .map(|p| p.iter().map(|id| docs.path(id).unwrap().to_string()).collect())
            .unwrap_or_default();
        paths.sort_unstable();
        paths
    };
    assert_eq!(paths_for("alpha"), vec!["a/letter.txt"]);
    assert_eq!(paths_for("beta"), vec!["a/letter.txt", "b/report.txt"]);
    assert_eq!(paths_for("gamma"), vec!["a/letter.txt", "notes.txt"]);
    assert_eq!(paths_for("delta"), vec!["b/report.txt", "notes.txt"]);
    assert_eq!(paths_for("epsilon"), vec!["notes.txt"]);
    assert!(paths_for("zeta").is_empty());
    assert_eq!(index.file_count(), 3);
}

#[test]
fn snapshot_of_parallel_run_round_trips() {
    let (fs, _) = corpus();
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(3, 0, 2))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();
    let (mut buffer, mut doc_file) = (Vec::new(), Vec::new());
    write_segment(&index, docs.len(), std::io::Cursor::new(&mut buffer)).unwrap();
    write_docs(&docs, &mut doc_file).unwrap();
    let (restored, doc_count) = read_segment(&buffer[..]).unwrap();
    assert_eq!(restored, index);
    assert_eq!(doc_count, docs.len() as u64);
    assert_eq!(read_docs(&doc_file[..]).unwrap(), docs);
}

#[test]
fn errors_surface_instead_of_panicking() {
    let fs = MemFs::new();
    let generator = IndexGenerator::default();
    // Missing root.
    let err = generator
        .run(&fs, &VPath::new("nope"), Implementation::SharedLocked, Configuration::new(1, 0, 0))
        .unwrap_err();
    assert!(matches!(err, PipelineError::Walk(_)));
    // Invalid configuration.
    let err = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(2, 0, 1))
        .unwrap_err();
    assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
    // Empty (but existing) root indexes zero files successfully.
    let run = generator
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(2, 0, 0))
        .unwrap();
    assert_eq!(run.outcome.file_count(), 0);
}

#[test]
fn file_deleted_between_stage1_and_stage2_reports_a_read_error() {
    let fs = MemFs::new();
    fs.add_file(&VPath::new("a.txt"), b"hello".to_vec()).unwrap();
    fs.add_file(&VPath::new("b.txt"), b"world".to_vec()).unwrap();

    // Wrap the file system so the second file disappears after Stage 1: we
    // simulate this by deleting it from the MemFs after the walker ran once.
    // The pipeline walks the tree itself, so instead we delete the file and
    // keep a stale work item by running Stage 1 manually.
    let set = dsearch::core::stage1::generate_filenames(&fs, &VPath::root()).unwrap();
    assert_eq!(set.items.len(), 2);
    fs.remove_file(&VPath::new("b.txt")).unwrap();

    let mut extractor = dsearch::core::stage2::Extractor::default();
    let err = extractor.extract_all(&fs, &set.items, |_| {}).unwrap_err();
    assert!(matches!(err, PipelineError::Read { .. }));
    assert!(err.to_string().contains("b.txt"));
}
