//! The seeded query sets and what the reference index says about them.
//!
//! Nothing here comes from the program (`Workload::from_snapshot` draws from
//! the served snapshot, so a change to the index could change the load):
//! terms are drawn from the generated corpus by document frequency.

use std::collections::HashSet;

use crate::corpus::Corpus;
use crate::rng::Rng;

/// The five query shapes of the cold mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    Term,
    And,
    Or,
    Prefix,
    AndNot,
}

impl Shape {
    pub const ALL: [Shape; 5] = [Shape::Term, Shape::And, Shape::Or, Shape::Prefix, Shape::AndNot];

    /// Share of the mix, in percent: 40 % one term, 25 % 2–3-term AND, 20 %
    /// 2–4-term OR (the ranked, block-max path), 10 % prefix of at least
    /// three letters, 5 % AND-NOT.
    fn percent(self) -> usize {
        match self {
            Shape::Term => 40,
            Shape::And => 25,
            Shape::Or => 20,
            Shape::Prefix => 10,
            Shape::AndNot => 5,
        }
    }
}

/// One query: the line sent, and its structure over vocabulary ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub text: String,
    pub shape: Shape,
    /// `Term`/`And`/`AndNot`: required terms; `Or`: the alternatives.
    terms: Vec<u32>,
    /// `AndNot`: the excluded term.
    excluded: Option<u32>,
    /// `Prefix`: the prefix (without the `*`).
    prefix: Option<String>,
    /// Documents the reference index says match.
    pub expected: u32,
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union_all<'a>(lists: impl Iterator<Item = &'a [u32]>, docs: usize) -> Vec<u32> {
    let mut seen = vec![false; docs];
    for list in lists {
        for &doc in list {
            seen[doc as usize] = true;
        }
    }
    (0..docs as u32).filter(|&d| seen[d as usize]).collect()
}

impl Query {
    /// The matching documents, sorted, by the reference index.
    #[must_use]
    pub fn matching(&self, corpus: &Corpus) -> Vec<u32> {
        match self.shape {
            Shape::Term => corpus.postings(self.terms[0]).to_vec(),
            Shape::And => {
                self.terms[1..].iter().fold(corpus.postings(self.terms[0]).to_vec(), |acc, &t| {
                    intersect(&acc, corpus.postings(t))
                })
            }
            Shape::Or => {
                union_all(self.terms.iter().map(|&t| corpus.postings(t)), corpus.doc_count())
            }
            Shape::Prefix => {
                let ranks = corpus.prefix_ranks(self.prefix.as_deref().expect("prefix shape"));
                union_all(ranks.iter().map(|&t| corpus.postings(t)), corpus.doc_count())
            }
            Shape::AndNot => {
                let excluded = corpus.postings(self.excluded.expect("and-not shape"));
                corpus
                    .postings(self.terms[0])
                    .iter()
                    .copied()
                    .filter(|doc| excluded.binary_search(doc).is_err())
                    .collect()
            }
        }
    }
}

/// Vocabulary ranks grouped by document frequency.  The bands sit high —
/// the median cold request must spend longer evaluating than crossing the
/// wire — and are as wide as the number of distinct queries demands.
#[derive(Debug)]
pub struct Bands {
    /// At least 10 % of the documents.
    pub high: Vec<u32>,
    /// 1 % to 10 %.
    pub mid: Vec<u32>,
    /// At least two documents, below 1 %.
    pub low: Vec<u32>,
}

impl Bands {
    #[must_use]
    pub fn of(corpus: &Corpus) -> Bands {
        let docs = corpus.doc_count() as f64;
        let mut bands = Bands { high: Vec::new(), mid: Vec::new(), low: Vec::new() };
        for rank in 0..corpus.words.len() as u32 {
            let df = corpus.postings(rank).len();
            let share = df as f64 / docs;
            if share >= 0.10 {
                bands.high.push(rank);
            } else if share >= 0.01 {
                bands.mid.push(rank);
            } else if df >= 2 {
                bands.low.push(rank);
            }
        }
        bands
    }

    /// A term for a multi-term query: half from the high band, the rest
    /// mostly mid.
    fn draw(&self, rng: &mut Rng) -> u32 {
        let band = match rng.below(10) {
            0..=4 => &self.high,
            5..=8 => &self.mid,
            _ => &self.low,
        };
        let band = if band.is_empty() { &self.high } else { band };
        band[rng.below(band.len())]
    }
}

fn distinct_terms(bands: &Bands, rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut terms: Vec<u32> = Vec::with_capacity(n);
    while terms.len() < n {
        let term = bands.draw(rng);
        if !terms.contains(&term) {
            terms.push(term);
        }
    }
    terms
}

/// Generates `count` distinct queries of the cold mix for `(seed, stream)`.
/// Single terms are taken from the most frequent words down, because there
/// are only so many words: the single-term share decides how far down the
/// frequency list the set reaches.
///
/// # Panics
///
/// Panics when the corpus has too few words for `count` distinct queries.
#[must_use]
pub fn generate(
    corpus: &Corpus,
    bands: &Bands,
    seed: u64,
    stream: u64,
    count: usize,
) -> Vec<Query> {
    let mut rng = Rng::new(seed, stream);
    let mut queries = Vec::with_capacity(count);
    let mut seen: HashSet<(Shape, Vec<u32>, Option<String>)> = HashSet::new();

    let mut by_df: Vec<u32> =
        bands.high.iter().chain(&bands.mid).chain(&bands.low).copied().collect();
    by_df.sort_by_key(|&rank| (std::cmp::Reverse(corpus.postings(rank).len()), rank));
    // Prefixes of three to five letters (one- and two-letter prefixes cost
    // the program tens of milliseconds each and would be the whole workload).
    let mut prefixes: Vec<String> = by_df
        .iter()
        .map(|&rank| &corpus.words[rank as usize])
        .flat_map(|word| (3..=word.len().min(5)).map(move |len| word[..len].to_owned()))
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    prefixes.sort();
    rng.shuffle(&mut prefixes);

    for shape in Shape::ALL {
        let want = count * shape.percent() / 100;
        let mut made = 0;
        let mut attempts = 0;
        while made < want {
            attempts += 1;
            assert!(attempts < want * 50 + 1000, "corpus too small for {want} {shape:?} queries");
            let (text, terms, excluded, prefix) = match shape {
                Shape::Term => {
                    assert!(made < by_df.len(), "vocabulary too small for {want} one-term queries");
                    let term = by_df[made];
                    (corpus.words[term as usize].clone(), vec![term], None, None)
                }
                Shape::And | Shape::Or => {
                    let n = rng.between(2, if shape == Shape::And { 3 } else { 4 });
                    let terms = distinct_terms(bands, &mut rng, n);
                    let joiner = if shape == Shape::And { " AND " } else { " OR " };
                    let words: Vec<&str> =
                        terms.iter().map(|&t| corpus.words[t as usize].as_str()).collect();
                    (words.join(joiner), terms, None, None)
                }
                Shape::Prefix => {
                    assert!(made < prefixes.len(), "too few prefixes for {want} prefix queries");
                    let prefix = prefixes[made].clone();
                    (format!("{prefix}*"), Vec::new(), None, Some(prefix))
                }
                Shape::AndNot => {
                    let terms = distinct_terms(bands, &mut rng, 2);
                    let text = format!(
                        "{} NOT {}",
                        corpus.words[terms[0] as usize], corpus.words[terms[1] as usize]
                    );
                    (text, vec![terms[0]], Some(terms[1]), None)
                }
            };
            // The server caches by canonical text; a reordered AND/OR may or
            // may not canonicalise to the same entry, so order is ignored
            // when judging two queries distinct.
            let mut key_terms = terms.clone();
            key_terms.extend(excluded);
            if shape != Shape::AndNot {
                key_terms.sort_unstable();
            }
            if !seen.insert((shape, key_terms, prefix.clone())) {
                continue;
            }
            let mut query = Query { text, shape, terms, excluded, prefix, expected: 0 };
            query.expected = query.matching(corpus).len() as u32;
            queries.push(query);
            made += 1;
        }
    }
    // Interleave the shapes: a fixed permutation, cycled in order.
    rng.shuffle(&mut queries);
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;

    fn corpus() -> Corpus {
        let spec = CorpusSpec { small_files: 300, large_files: 1, ..CorpusSpec::quick() };
        Corpus::generate(&spec, 9, None).unwrap()
    }

    #[test]
    fn same_seed_gives_the_same_query_list_and_the_mix_holds() {
        let corpus = corpus();
        let bands = Bands::of(&corpus);
        let a = generate(&corpus, &bands, 4, 10, 1000);
        let b = generate(&corpus, &bands, 4, 10, 1000);
        assert_eq!(a, b);
        assert_ne!(a, generate(&corpus, &bands, 5, 10, 1000));
        assert_ne!(a, generate(&corpus, &bands, 4, 11, 1000));
        let count = |shape| a.iter().filter(|q| q.shape == shape).count();
        assert_eq!(count(Shape::Term), 400);
        assert_eq!(count(Shape::And), 250);
        assert_eq!(count(Shape::Or), 200);
        assert_eq!(count(Shape::Prefix), 100);
        assert_eq!(count(Shape::AndNot), 50);
        let texts: HashSet<&str> = a.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(texts.len(), a.len(), "queries are distinct");
        assert!(a.iter().filter(|q| q.shape == Shape::Prefix).all(|q| q.text.len() >= 4));
    }

    #[test]
    fn expected_answers_agree_with_a_scan_of_the_documents() {
        let corpus = corpus();
        let bands = Bands::of(&corpus);
        let has = |doc: u32, rank: u32| corpus.postings(rank).binary_search(&doc).is_ok();
        for query in generate(&corpus, &bands, 1, 1, 200) {
            let scan: Vec<u32> = (0..corpus.doc_count() as u32)
                .filter(|&doc| match query.shape {
                    Shape::Term | Shape::And => query.terms.iter().all(|&t| has(doc, t)),
                    Shape::Or => query.terms.iter().any(|&t| has(doc, t)),
                    Shape::AndNot => has(doc, query.terms[0]) && !has(doc, query.excluded.unwrap()),
                    Shape::Prefix => corpus
                        .prefix_ranks(query.prefix.as_deref().unwrap())
                        .iter()
                        .any(|&t| has(doc, t)),
                })
                .collect();
            assert_eq!(query.matching(&corpus), scan, "{}", query.text);
            assert_eq!(query.expected as usize, scan.len());
        }
    }
}
