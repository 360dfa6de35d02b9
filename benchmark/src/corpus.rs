//! The seeded corpus and its reference inverted index.
//!
//! The corpus has the shape of the paper's workload (tens of thousands of
//! small text files with log-normal sizes plus a handful of large ones, a
//! Zipf vocabulary) scaled down to what one benchmark run can index several
//! times.  Words are lowercase a–z only, so the program's tokenizer and this
//! file agree on what a term is and the reference index is exact term match.
//! Nothing here comes from `crates/corpus`: the load must not change when the
//! program does.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::rng::{Rng, Zipf};

const CONSONANTS: &[u8; 21] = b"bcdfghjklmnpqrstvwxyz";
const VOWELS: &[u8; 5] = b"aeiou";
const SYLLABLES: usize = CONSONANTS.len() * VOWELS.len();
/// Odd prime sharing no factor with 105 = 3·5·7, so `code -> code * M mod
/// 105^k` is a bijection: it decouples a word's spelling (and so its place in
/// a sorted dictionary) from its frequency rank.
const SCRAMBLE: usize = 7919;

/// Size and shape of a generated corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    pub small_files: usize,
    pub large_files: usize,
    pub vocabulary: usize,
    pub zipf_exponent: f64,
    /// Median and log-space sigma of the small files' log-normal sizes.
    pub small_median_bytes: f64,
    pub small_sigma: f64,
    pub large_bytes: usize,
    /// Directories per half of the tree.
    pub dirs_per_half: usize,
}

impl CorpusSpec {
    /// The corpus of a measured run: the paper's 51 000 files / 869 MB scaled
    /// to about 12 000 files / 45 MB so that a run can build it several times.
    #[must_use]
    pub fn standard() -> Self {
        CorpusSpec {
            small_files: 12_000,
            large_files: 5,
            vocabulary: 30_000,
            zipf_exponent: 1.05,
            small_median_bytes: 1800.0,
            small_sigma: 1.0,
            large_bytes: 2_000_000,
            dirs_per_half: 32,
        }
    }

    /// The `--quick` smoke corpus.
    #[must_use]
    pub fn quick() -> Self {
        CorpusSpec {
            small_files: 600,
            large_files: 2,
            vocabulary: 6000,
            zipf_exponent: 1.05,
            small_median_bytes: 1200.0,
            small_sigma: 0.9,
            large_bytes: 200_000,
            dirs_per_half: 4,
        }
    }

    fn files(&self) -> usize {
        self.small_files + self.large_files
    }
}

/// The word of frequency rank `rank`: one, two or three consonant–vowel
/// syllables, frequent words short, unique per rank.
#[must_use]
pub fn word_for_rank(rank: usize) -> String {
    let (syllables, index) = if rank < SYLLABLES {
        (1, rank)
    } else if rank < SYLLABLES + SYLLABLES * SYLLABLES {
        (2, rank - SYLLABLES)
    } else {
        (3, rank - SYLLABLES - SYLLABLES * SYLLABLES)
    };
    let modulus = SYLLABLES.pow(syllables);
    assert!(index < modulus, "vocabulary rank {rank} exceeds the word space");
    let mut code = index * SCRAMBLE % modulus;
    let mut word = vec![0u8; 2 * syllables as usize];
    for slot in (0..syllables as usize).rev() {
        let syllable = code % SYLLABLES;
        code /= SYLLABLES;
        word[2 * slot] = CONSONANTS[syllable / VOWELS.len()];
        word[2 * slot + 1] = VOWELS[syllable % VOWELS.len()];
    }
    String::from_utf8(word).expect("ascii")
}

/// The path of document `doc` relative to the corpus root.  Even documents
/// live under `h0/`, odd ones under `h1/`: the two disjoint halves the
/// `route_2shard` stores are built from.
#[must_use]
pub fn rel_path(doc: u32, dirs_per_half: usize) -> String {
    let half = doc % 2;
    let dir = (doc as usize / 2) % dirs_per_half;
    format!("h{half}/d{dir:02}/f{doc:06}.txt")
}

/// Recovers the document id from a path the program printed (any root).
#[must_use]
pub fn doc_of_path(path: &str) -> Option<u32> {
    let name = path.rsplit('/').next()?;
    name.strip_prefix('f')?.strip_suffix(".txt")?.parse().ok()
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A generated corpus: what was written, and the reference index over it.
#[derive(Debug)]
pub struct Corpus {
    pub spec: CorpusSpec,
    /// Word per frequency rank.
    pub words: Vec<String>,
    /// Sorted document ids per frequency rank.
    postings: Vec<Vec<u32>>,
    /// `(word, rank)` sorted by word, for prefix expansion.
    sorted_words: Vec<(String, u32)>,
    pub doc_bytes: Vec<u32>,
    pub total_bytes: u64,
    /// FNV-1a over every file's path, length and content, in document order.
    pub manifest_hash: u64,
}

impl Corpus {
    /// Generates the corpus for `seed`; with `root`, also writes the files
    /// under it (`root/h0/...`, `root/h1/...`).
    ///
    /// # Errors
    ///
    /// Fails when a file or directory cannot be written.
    pub fn generate(spec: &CorpusSpec, seed: u64, root: Option<&Path>) -> std::io::Result<Corpus> {
        let words: Vec<String> = (0..spec.vocabulary).map(word_for_rank).collect();
        let zipf = Zipf::new(spec.vocabulary, spec.zipf_exponent);
        let mut size_rng = Rng::new(seed, 1);
        let mut text_rng = Rng::new(seed, 2);

        if let Some(root) = root {
            for half in 0..2 {
                for dir in 0..spec.dirs_per_half {
                    std::fs::create_dir_all(root.join(format!("h{half}/d{dir:02}")))?;
                }
            }
        }

        let files = spec.files();
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); spec.vocabulary];
        let mut last_doc = vec![u32::MAX; spec.vocabulary];
        let mut doc_bytes = Vec::with_capacity(files);
        let mut manifest_hash = 0xcbf2_9ce4_8422_2325u64;
        let mut text = Vec::new();
        // Large files are spread evenly through the id space so both halves
        // of the tree get their share.
        let large_every = files.checked_div(spec.large_files).unwrap_or(usize::MAX).max(1);
        let mut large_left = spec.large_files;
        for doc in 0..files {
            let doc = u32::try_from(doc).expect("document count fits u32");
            let is_large = large_left > 0 && doc as usize % large_every == large_every / 2;
            let target = if is_large {
                large_left -= 1;
                spec.large_bytes
            } else {
                let size = spec.small_median_bytes * (spec.small_sigma * size_rng.normal()).exp();
                size.clamp(48.0, 262_144.0) as usize
            };
            text.clear();
            let mut column = 0usize;
            while text.len() < target {
                let rank = zipf.sample(&mut text_rng);
                text.extend_from_slice(words[rank].as_bytes());
                if last_doc[rank] != doc {
                    last_doc[rank] = doc;
                    postings[rank].push(doc);
                }
                column += 1;
                text.push(if column.is_multiple_of(12) { b'\n' } else { b' ' });
            }
            let path = rel_path(doc, spec.dirs_per_half);
            manifest_hash = fnv1a(manifest_hash, path.as_bytes());
            manifest_hash = fnv1a(manifest_hash, &(text.len() as u64).to_le_bytes());
            manifest_hash = fnv1a(manifest_hash, &text);
            doc_bytes.push(u32::try_from(text.len()).expect("file size fits u32"));
            if let Some(root) = root {
                let mut file = std::fs::File::create(root.join(&path))?;
                file.write_all(&text)?;
            }
        }

        let mut sorted_words: Vec<(String, u32)> =
            words.iter().enumerate().map(|(rank, w)| (w.clone(), rank as u32)).collect();
        sorted_words.sort();
        let total_bytes = doc_bytes.iter().map(|&b| u64::from(b)).sum();
        Ok(Corpus {
            spec: spec.clone(),
            words,
            postings,
            sorted_words,
            doc_bytes,
            total_bytes,
            manifest_hash,
        })
    }

    #[must_use]
    pub fn doc_count(&self) -> usize {
        self.doc_bytes.len()
    }

    /// The expected path of `doc` as printed by a server whose store was
    /// built from the whole tree (`Root::Whole`) or from one half of it.
    #[must_use]
    pub fn printed_path(&self, doc: u32, root: Root) -> String {
        let full = rel_path(doc, self.spec.dirs_per_half);
        match root {
            Root::Whole => full,
            Root::Halves => full[3..].to_owned(),
        }
    }

    /// Reference postings of the term at `rank`.
    #[must_use]
    pub fn postings(&self, rank: u32) -> &[u32] {
        &self.postings[rank as usize]
    }

    /// Ranks of every vocabulary word that starts with `prefix` and occurs
    /// in the corpus.
    #[must_use]
    pub fn prefix_ranks(&self, prefix: &str) -> Vec<u32> {
        let start = self.sorted_words.partition_point(|(w, _)| w.as_str() < prefix);
        self.sorted_words[start..]
            .iter()
            .take_while(|(w, _)| w.starts_with(prefix))
            .map(|&(_, rank)| rank)
            .filter(|&rank| !self.postings[rank as usize].is_empty())
            .collect()
    }

    /// Where the two disjoint halves live on disk.
    #[must_use]
    pub fn half_dirs(root: &Path) -> [PathBuf; 2] {
        [root.join("h0"), root.join("h1")]
    }
}

/// Which tree a store was built from, which decides how paths print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Root {
    /// `dsearch index <root>`: paths print as `h0/d00/f000000.txt`.
    Whole,
    /// One store per `<root>/h0` and `<root>/h1`: paths print as
    /// `d00/f000000.txt`.
    Halves,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_unique_lowercase_and_frequent_ones_short() {
        let mut seen = std::collections::HashSet::new();
        for rank in 0..40_000 {
            let word = word_for_rank(rank);
            assert!(word.bytes().all(|b| b.is_ascii_lowercase()), "{word}");
            assert!(seen.insert(word), "rank {rank} repeats a word");
        }
        assert_eq!(word_for_rank(3).len(), 2);
        assert_eq!(word_for_rank(200).len(), 4);
        assert_eq!(word_for_rank(20_000).len(), 6);
    }

    #[test]
    fn same_seed_gives_the_same_manifest_and_reference_index() {
        let spec = CorpusSpec { small_files: 120, large_files: 1, ..CorpusSpec::quick() };
        let a = Corpus::generate(&spec, 11, None).unwrap();
        let b = Corpus::generate(&spec, 11, None).unwrap();
        let c = Corpus::generate(&spec, 12, None).unwrap();
        assert_eq!(a.manifest_hash, b.manifest_hash);
        assert_eq!(a.postings, b.postings);
        assert_eq!(a.doc_bytes, b.doc_bytes);
        assert_ne!(a.manifest_hash, c.manifest_hash);
    }

    #[test]
    fn written_files_match_the_manifest_and_the_reference_index() {
        let spec = CorpusSpec { small_files: 40, large_files: 1, ..CorpusSpec::quick() };
        let dir = crate::procs::TempDir::new_in(&crate::test_dir(), "corpus").unwrap();
        let corpus = Corpus::generate(&spec, 5, Some(dir.path())).unwrap();
        assert_eq!(corpus.doc_count(), 41);
        let mut bytes = 0u64;
        for doc in 0..corpus.doc_count() as u32 {
            let text = std::fs::read_to_string(dir.path().join(rel_path(doc, spec.dirs_per_half)))
                .unwrap();
            bytes += text.len() as u64;
            // Every word of the file is posted for it, and a posted word is
            // in the file.
            let words: std::collections::HashSet<&str> = text.split_whitespace().collect();
            for word in &words {
                let rank = corpus.words.iter().position(|w| w == word).unwrap() as u32;
                assert!(corpus.postings(rank).binary_search(&doc).is_ok());
            }
            let posted =
                (0..spec.vocabulary as u32).filter(|&r| corpus.postings(r).contains(&doc)).count();
            assert_eq!(posted, words.len());
        }
        assert_eq!(bytes, corpus.total_bytes);
    }

    #[test]
    fn paths_round_trip_and_halves_are_disjoint() {
        assert_eq!(rel_path(7, 4), "h1/d03/f000007.txt");
        assert_eq!(doc_of_path("h1/d03/f000007.txt"), Some(7));
        assert_eq!(doc_of_path("d03/f000007.txt"), Some(7));
        assert_eq!(doc_of_path("d03/notes.txt"), None);
    }

    #[test]
    fn prefix_expansion_matches_a_linear_scan() {
        let spec = CorpusSpec { small_files: 200, large_files: 1, ..CorpusSpec::quick() };
        let corpus = Corpus::generate(&spec, 3, None).unwrap();
        for prefix in ["bab", "co", "zuz", "qqq"] {
            let mut scan: Vec<u32> = (0..spec.vocabulary as u32)
                .filter(|&r| {
                    corpus.words[r as usize].starts_with(prefix) && !corpus.postings(r).is_empty()
                })
                .collect();
            let mut fast = corpus.prefix_ranks(prefix);
            scan.sort_unstable();
            fast.sort_unstable();
            assert_eq!(fast, scan, "{prefix}");
        }
    }
}
