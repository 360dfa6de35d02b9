//! Stage 2: term extraction.
//!
//! An extractor reads each file assigned to it, scans the bytes for terms and
//! produces a [`FileTerms`] record per file: the file's *condensed word list*
//! — each distinct term once, with the number of times it occurred — as in
//! Section 3 of the paper, so the index never sees a duplicate.
//!
//! # Allocation contract
//!
//! Each [`Extractor`] owns its scratch — a token buffer and a
//! [`WordListBuilder`] that lives as long as the extractor — which is why
//! [`Extractor::extract_file`] takes `&mut self` and every extractor thread
//! works on its own clone.  A file costs the buffer `FileSystem::read`
//! returns, the two vectors of its [`FileTerms`], and one `Arc<str>` per word
//! this extractor has never met before; a word seen in an earlier file costs
//! a reference-count bump, a repeat occurrence one hash lookup.  Those
//! `Arc<str>`s are handed to the index, so the replica's dictionary and the
//! extractor's builder share one copy of the vocabulary.

use serde::{Deserialize, Serialize};

use dsearch_formats::FormatRegistry;
use dsearch_index::FileId;
use dsearch_text::tokenizer::{Term, Tokenizer};
use dsearch_text::wordlist::WordListBuilder;
use dsearch_vfs::FileSystem;

use crate::distribute::WorkItem;
use crate::error::PipelineError;

/// The extracted terms of one file, ready for the index-update stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileTerms {
    /// The file the terms came from.
    pub file_id: FileId,
    /// The terms to insert: the file's distinct terms, in first-occurrence
    /// order.
    pub terms: Vec<Term>,
    /// Per-term occurrence counts, parallel to `terms`.  The extractor always
    /// fills it; a record built by hand may leave it empty, which means "each
    /// term occurred once".
    pub counts: Vec<u32>,
    /// Raw term occurrences seen in the file (before de-duplication).
    pub occurrences: u64,
    /// Bytes read from the file.
    pub bytes: u64,
}

impl FileTerms {
    /// The terms paired with their occurrence counts — 1 each where `counts`
    /// is empty.
    pub fn into_counted(self) -> impl Iterator<Item = (Term, u32)> {
        self.terms.into_iter().zip(self.counts.into_iter().chain(std::iter::repeat(1)))
    }
}

/// Counters of one extractor's work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage2Stats {
    /// Files scanned.
    pub files: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Term occurrences seen.
    pub occurrences: u64,
    /// Terms emitted to the update stage (distinct per file).
    pub terms_emitted: u64,
}

impl Stage2Stats {
    /// Counts one extracted file.
    pub(crate) fn record(&mut self, file: &FileTerms) {
        self.files += 1;
        self.bytes += file.bytes;
        self.occurrences += file.occurrences;
        self.terms_emitted += file.terms.len() as u64;
    }

    /// Merges another extractor's counters into this one.
    pub fn merge(&mut self, other: &Stage2Stats) {
        self.files += other.files;
        self.bytes += other.bytes;
        self.occurrences += other.occurrences;
        self.terms_emitted += other.terms_emitted;
    }
}

/// A term extractor bound to a tokenizer, plus the scratch it reuses from
/// file to file.
#[derive(Debug, Clone, Default)]
pub struct Extractor {
    tokenizer: Tokenizer,
    formats: Option<FormatRegistry>,
    /// The scanner's token buffer.
    token: String,
    /// Condenses each file's word list and interns the vocabulary across
    /// files.
    words: WordListBuilder,
}

impl Extractor {
    /// Creates an extractor that tokenises every file as plain text.
    #[must_use]
    pub fn new(tokenizer: Tokenizer) -> Self {
        Extractor { tokenizer, ..Extractor::default() }
    }

    /// With `formats`, makes the extractor format-aware: each file's format
    /// is detected and its plain text extracted by the built-in
    /// [`FormatRegistry`] before tokenisation, and binary files yield no
    /// terms.  Without, the extractor is returned as it is.
    #[must_use]
    pub fn with_formats(mut self, formats: bool) -> Self {
        if formats {
            self.formats = Some(FormatRegistry::with_builtins());
        }
        self
    }

    /// Whether this extractor performs format detection and extraction.
    #[must_use]
    pub fn is_format_aware(&self) -> bool {
        self.formats.is_some()
    }

    /// Scans a single file and produces its [`FileTerms`].
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be read.
    pub fn extract_file<F: FileSystem + ?Sized>(
        &mut self,
        fs: &F,
        item: &WorkItem,
    ) -> Result<FileTerms, PipelineError> {
        let data = fs.read(&item.path).map_err(|source| PipelineError::Read {
            path: item.path.as_str().to_owned(),
            source,
        })?;
        let bytes = data.len() as u64;
        let extracted =
            self.formats.as_ref().map(|registry| registry.extract(item.path.as_str(), &data));
        let text: &[u8] = match &extracted {
            Some(e) => e.text_bytes(),
            None => &data,
        };
        let mut scanner = self.tokenizer.scan(text);
        while let Some(token) = scanner.next_token(&mut self.token) {
            self.words.push_str(token);
        }
        let list = self.words.reset();
        let occurrences = list.occurrences();
        let (terms, counts) = list.into_parts();
        Ok(FileTerms { file_id: item.file_id, terms, counts, occurrences, bytes })
    }

    /// Scans every item in `work`, calling `sink` for each file's terms.
    ///
    /// This is the body of one extractor thread.
    ///
    /// # Errors
    ///
    /// Stops at the first unreadable file.
    pub fn extract_all<F, S>(
        &mut self,
        fs: &F,
        work: &[WorkItem],
        mut sink: S,
    ) -> Result<Stage2Stats, PipelineError>
    where
        F: FileSystem + ?Sized,
        S: FnMut(FileTerms),
    {
        let mut stats = Stage2Stats::default();
        for item in work {
            let file_terms = self.extract_file(fs, item)?;
            stats.record(&file_terms);
            sink(file_terms);
        }
        Ok(stats)
    }

    /// Reads every item without extracting terms — the paper's "empty
    /// scanner" used to measure pure read time (Table 1's "read files"
    /// column).
    ///
    /// # Errors
    ///
    /// Stops at the first unreadable file.
    pub fn scan_only<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        work: &[WorkItem],
    ) -> Result<Stage2Stats, PipelineError> {
        let mut stats = Stage2Stats::default();
        for item in work {
            let data = fs.read(&item.path).map_err(|source| PipelineError::Read {
                path: item.path.as_str().to_owned(),
                source,
            })?;
            stats.files += 1;
            stats.bytes += self.tokenizer.scan_only(&data);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_vfs::{MemFs, VPath};

    fn fixture() -> (MemFs, Vec<WorkItem>) {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("a.txt"), b"apple banana apple cherry".to_vec()).unwrap();
        fs.add_file(&VPath::new("b.txt"), b"banana date".to_vec()).unwrap();
        let items = vec![
            WorkItem { file_id: FileId(0), path: VPath::new("a.txt"), size: 25 },
            WorkItem { file_id: FileId(1), path: VPath::new("b.txt"), size: 11 },
        ];
        (fs, items)
    }

    #[test]
    fn extract_file_deduplicates_per_file() {
        let (fs, items) = fixture();
        let mut ex = Extractor::default();
        let ft = ex.extract_file(&fs, &items[0]).unwrap();
        assert_eq!(ft.file_id, FileId(0));
        assert_eq!(ft.occurrences, 4);
        let words: Vec<&str> = ft.terms.iter().map(|t| t.as_str()).collect();
        assert_eq!(words, ["apple", "banana", "cherry"]);
        assert_eq!(ft.bytes, 25);
    }

    #[test]
    fn extract_all_accumulates_stats_and_calls_sink() {
        let (fs, items) = fixture();
        let mut ex = Extractor::default();
        let mut collected = Vec::new();
        let stats = ex.extract_all(&fs, &items, |ft| collected.push(ft)).unwrap();
        assert_eq!(stats.files, 2);
        assert_eq!(stats.bytes, 36);
        assert_eq!(stats.occurrences, 6);
        assert_eq!(stats.terms_emitted, 5);
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1].file_id, FileId(1));
    }

    #[test]
    fn scan_only_reads_without_terms() {
        let (fs, items) = fixture();
        let ex = Extractor::default();
        let stats = ex.scan_only(&fs, &items).unwrap();
        assert_eq!(stats.files, 2);
        assert_eq!(stats.bytes, 36);
        assert_eq!(stats.terms_emitted, 0);
        assert_eq!(stats.occurrences, 0);
    }

    #[test]
    fn missing_file_reports_path() {
        let (fs, _) = fixture();
        let mut ex = Extractor::default();
        let bad = WorkItem { file_id: FileId(9), path: VPath::new("missing.txt"), size: 0 };
        let err = ex.extract_file(&fs, &bad).unwrap_err();
        assert!(err.to_string().contains("missing.txt"));
        let err = ex.scan_only(&fs, std::slice::from_ref(&bad)).unwrap_err();
        assert!(matches!(err, PipelineError::Read { .. }));
        let err = ex.extract_all(&fs, &[bad], |_| {}).unwrap_err();
        assert!(matches!(err, PipelineError::Read { .. }));
    }

    #[test]
    fn format_aware_extractor_handles_markup_and_binary() {
        let fs = MemFs::new();
        fs.add_file(
            &VPath::new("page.html"),
            b"<html><body><p>parallel &amp; fast</p><script>skip_me()</script></body></html>"
                .to_vec(),
        )
        .unwrap();
        fs.add_file(&VPath::new("blob.bin"), vec![0, 159, 146, 150]).unwrap();
        let items = [
            WorkItem { file_id: FileId(0), path: VPath::new("page.html"), size: 0 },
            WorkItem { file_id: FileId(1), path: VPath::new("blob.bin"), size: 4 },
        ];

        let mut plain = Extractor::default();
        assert!(!plain.is_format_aware());
        let ft = plain.extract_file(&fs, &items[0]).unwrap();
        let words: Vec<&str> = ft.terms.iter().map(|t| t.as_str()).collect();
        assert!(words.contains(&"html"), "raw mode indexes the markup itself");

        let mut aware = Extractor::default().with_formats(true);
        assert!(aware.is_format_aware());
        let ft = aware.extract_file(&fs, &items[0]).unwrap();
        let words: Vec<&str> = ft.terms.iter().map(|t| t.as_str()).collect();
        assert!(words.contains(&"parallel"));
        assert!(words.contains(&"fast"));
        assert!(!words.contains(&"html"));
        assert!(!words.iter().any(|w| w.contains("skip")));

        let ft = aware.extract_file(&fs, &items[1]).unwrap();
        assert!(ft.terms.is_empty(), "binary files produce no terms");
        assert_eq!(ft.bytes, 4, "bytes read still counts the raw file size");
    }

    #[test]
    fn stats_merge() {
        let mut a = Stage2Stats { files: 1, bytes: 2, occurrences: 3, terms_emitted: 4 };
        let b = Stage2Stats { files: 10, bytes: 20, occurrences: 30, terms_emitted: 40 };
        a.merge(&b);
        assert_eq!(a, Stage2Stats { files: 11, bytes: 22, occurrences: 33, terms_emitted: 44 });
    }
}
