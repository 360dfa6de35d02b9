//! `checkpoint.json`, `dlq.json` and `signatures.json` cross a trust
//! boundary: whatever bytes a store directory holds, loading them yields a
//! value or an `Err` — never a panic, a stack overflow or a value that does
//! not survive its own save.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use dsearch_persist::{
    BuildCheckpoint, DeadLetter, DeadLetterQueue, FileSignature, PersistError, SignatureDb,
    CHECKPOINT_FILE, DLQ_FILE, SIGNATURES_FILE,
};

const FILES: [&str; 3] = [CHECKPOINT_FILE, DLQ_FILE, SIGNATURES_FILE];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dsearch-ckpt-props-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Loads all three files from `dir`.  Whatever loads must save and load back
/// equal; returns whether each load succeeded.
fn load_all(dir: &Path) -> (bool, bool, bool) {
    let checkpoint = BuildCheckpoint::load(dir);
    if let Ok(Some(checkpoint)) = &checkpoint {
        checkpoint.save(dir).unwrap();
        assert_eq!(BuildCheckpoint::load(dir).unwrap().as_ref(), Some(checkpoint));
    }
    let dlq = DeadLetterQueue::load(dir);
    if let Ok(dlq) = &dlq {
        dlq.save(dir).unwrap();
        assert_eq!(&DeadLetterQueue::load(dir).unwrap(), dlq);
    }
    let signatures = SignatureDb::load(dir);
    if let Ok(signatures) = &signatures {
        signatures.save(dir).unwrap();
        assert_eq!(&SignatureDb::load(dir).unwrap(), signatures);
    }
    (checkpoint.is_ok(), dlq.is_ok(), signatures.is_ok())
}

/// Fragments that steer a byte soup into the parser's deeper states.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "d83e",
    "-",
    "0",
    "9",
    "1e999",
    ".",
    " ",
    "null",
    "true",
    "version",
    "completed",
    "segments",
    "entries",
    "path",
    "file_id",
    "size",
    "content_hash",
    "\u{e9}",
    "18446744073709551616",
    "[[[[[[[[",
    "{\"a\":",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_are_an_error_never_a_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..60),
    ) {
        let dir = TempDir::new("bytes");
        let soup: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        for content in [bytes.as_slice(), soup.as_bytes()] {
            for name in FILES {
                fs::write(dir.0.join(name), content).unwrap();
            }
            load_all(&dir.0);
        }
    }

    #[test]
    fn bit_flipped_valid_files_are_an_error_or_a_valid_file(
        completed in proptest::collection::vec(any::<u32>(), 0..20),
        segments in proptest::collection::vec("[a-z0-9.-]{1,12}", 0..4),
        letters in proptest::collection::vec(("[ -~]{0,16}", any::<u32>(), "[ -~]{0,24}"), 1..4),
        signed in proptest::collection::vec(("[ -~]{0,16}", any::<u64>(), any::<u64>()), 0..4),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let dir = TempDir::new("flips");
        let mut checkpoint = BuildCheckpoint::new(0x5eed);
        checkpoint.completed = completed;
        checkpoint.segments = segments;
        checkpoint.save(&dir.0).unwrap();
        let entries = letters
            .into_iter()
            .map(|(path, file_id, error)| DeadLetter { path, file_id, attempts: 3, error })
            .collect();
        DeadLetterQueue { entries }.save(&dir.0).unwrap();
        let mut signatures = SignatureDb::new();
        for (path, size, content_hash) in signed {
            signatures.record(path, FileSignature { size, content_hash });
        }
        signatures.save(&dir.0).unwrap();
        prop_assert_eq!(load_all(&dir.0), (true, true, true));
        for name in FILES {
            let mut bytes = fs::read(dir.0.join(name)).unwrap();
            for &(position, bit) in &flips {
                let position = position % bytes.len();
                bytes[position] ^= 1 << bit;
            }
            fs::write(dir.0.join(name), &bytes).unwrap();
        }
        load_all(&dir.0);
    }
}

#[test]
fn hostile_shapes_are_errors() {
    let dir = TempDir::new("shapes");
    let deep = "[".repeat(500_000);
    let huge = format!("{{\"version\":1,\"completed\":[{}", "4294967296,".repeat(10));
    for content in
        [deep.as_str(), huge.as_str(), "", "null", "[]", "{}", "{\"entries\":7}", "\u{feff}{}"]
    {
        for name in FILES {
            fs::write(dir.0.join(name), content).unwrap();
        }
        assert!(
            matches!(SignatureDb::load(&dir.0), Err(PersistError::Corrupt(_))),
            "signatures accepted {:.40}",
            content
        );
        assert!(
            matches!(BuildCheckpoint::load(&dir.0), Err(PersistError::Corrupt(_))),
            "checkpoint accepted {:.40}",
            content
        );
        assert!(
            matches!(DeadLetterQueue::load(&dir.0), Err(PersistError::Corrupt(_))),
            "dlq accepted {:.40}",
            content
        );
    }
    // Not text at all: an I/O error, still not a panic.
    fs::write(dir.0.join(CHECKPOINT_FILE), [0xff, 0xfe, 0x00]).unwrap();
    assert!(BuildCheckpoint::load(&dir.0).is_err());
}

#[test]
fn signatures_save_whole_or_not_at_all_and_a_torn_file_is_an_error() {
    let dir = TempDir::new("signatures");
    // Absent: a first run, not an error.
    assert!(SignatureDb::load(&dir.0).unwrap().is_empty());
    let mut signatures = SignatureDb::new();
    signatures.record("notes/a.txt", FileSignature::from_bytes(b"alpha"));
    signatures.save(&dir.0).unwrap();
    assert_eq!(SignatureDb::load(&dir.0).unwrap(), signatures);
    // Written through a temporary file and a rename: nothing else is left.
    let names: Vec<_> = fs::read_dir(&dir.0).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names, [SIGNATURES_FILE]);
    // What a crash inside the old bare `fs::write` left behind: refused, so a
    // run never mistakes it for "nothing indexed yet".
    let json = fs::read(dir.0.join(SIGNATURES_FILE)).unwrap();
    fs::write(dir.0.join(SIGNATURES_FILE), &json[..json.len() / 2]).unwrap();
    assert!(matches!(SignatureDb::load(&dir.0), Err(PersistError::Corrupt(_))));
}
