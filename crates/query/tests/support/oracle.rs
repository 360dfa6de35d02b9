//! A deliberately naive query oracle for tests: every document is a set of
//! words and a query is checked against each document in turn — no postings,
//! no cursors, no shards, nothing it could share a bug with.

use std::collections::BTreeSet;

use dsearch_index::FileId;
use dsearch_query::{Query, QueryTerm};

/// The documents, as `(id, path, words)`.
#[derive(Debug, Default)]
pub struct Oracle {
    docs: Vec<(FileId, String, BTreeSet<String>)>,
}

/// What the oracle expects of one matching document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub id: FileId,
    pub path: String,
    /// Longest matching group: the constant scorer's `matched_terms`.
    pub best_group: usize,
    /// Distinct exact query terms the document holds: BM25's `matched_terms`.
    pub terms_present: usize,
}

impl Oracle {
    pub fn add<'w>(&mut self, id: FileId, path: &str, words: impl IntoIterator<Item = &'w str>) {
        self.docs.push((id, path.to_owned(), words.into_iter().map(str::to_owned).collect()));
    }

    /// Every matching document, in the constant scorer's rank order: longest
    /// matching group first, then path, then id.
    pub fn search(&self, query: &Query) -> Vec<Expected> {
        let mut matches = Vec::new();
        for (id, path, words) in &self.docs {
            let holds = |term: &QueryTerm| match term {
                QueryTerm::Exact(term) => words.contains(term.as_str()),
                QueryTerm::Prefix(prefix) => words.iter().any(|w| w.starts_with(prefix.as_str())),
            };
            let matching = query.groups().iter().filter(|g| {
                g.required().iter().all(holds)
                    && !g.excluded().iter().any(|t| words.contains(t.as_str()))
            });
            if let Some(best_group) = matching.map(|g| g.len()).max() {
                let held = query.terms().into_iter().filter(|t| words.contains(t.as_str()));
                let (id, path, terms_present) = (*id, path.clone(), held.count());
                matches.push(Expected { id, path, best_group, terms_present });
            }
        }
        matches.sort_by(|a, b| {
            b.best_group.cmp(&a.best_group).then_with(|| a.path.cmp(&b.path)).then(a.id.cmp(&b.id))
        });
        matches
    }
}
