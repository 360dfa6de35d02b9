//! Index joining — the "Join Forces" pattern (Implementation 2).
//!
//! Each extractor thread builds a private replica index; at the end the
//! replicas are merged into one.  The paper asks whether a single joining
//! thread is enough or whether a *parallel reduction* with several joiner
//! threads pays off — the configuration tuple's third component *z* is the
//! number of joiner threads.  Both variants are provided here:
//!
//! * [`join_all`] — one thread folds every replica into an accumulator;
//! * [`parallel_join`] — a tree reduction: pairs of replicas are merged
//!   concurrently by up to *z* threads until one index remains.

use crate::memory_index::InMemoryIndex;

/// Merges `src` into `dst`.
///
/// Thin wrapper over [`InMemoryIndex::absorb`] kept as a free function so the
/// pipeline code reads like the paper's description ("join the indices").
pub fn join_into(dst: &mut InMemoryIndex, src: InMemoryIndex) {
    dst.absorb(src);
}

/// Joins all replicas with a single thread, returning the combined index.
#[must_use]
pub fn join_all(replicas: Vec<InMemoryIndex>) -> InMemoryIndex {
    let mut iter = replicas.into_iter();
    let Some(mut acc) = iter.next() else {
        return InMemoryIndex::new();
    };
    for replica in iter {
        acc.absorb(replica);
    }
    acc
}

/// Joins replicas with a parallel tree reduction using at most `threads`
/// worker threads.
///
/// With `threads == 1` (or one replica) this degenerates to [`join_all`].
/// The result is identical to the sequential join regardless of thread count.
#[must_use]
pub fn parallel_join(replicas: Vec<InMemoryIndex>, threads: usize) -> InMemoryIndex {
    let threads = threads.max(1);
    if threads == 1 || replicas.len() <= 2 {
        return join_all(replicas);
    }

    let mut current = replicas;
    while current.len() > 1 {
        // Pair up replicas for this round.
        let mut pairs: Vec<(InMemoryIndex, Option<InMemoryIndex>)> = Vec::new();
        let mut iter = current.drain(..);
        while let Some(a) = iter.next() {
            let b = iter.next();
            pairs.push((a, b));
        }
        drop(iter);

        // Merge each pair; spread the pairs over up to `threads` workers.
        let merged: Vec<InMemoryIndex> = if pairs.len() == 1 || threads == 1 {
            pairs
                .into_iter()
                .map(|(mut a, b)| {
                    if let Some(b) = b {
                        a.absorb(b);
                    }
                    a
                })
                .collect()
        } else {
            let worker_count = threads.min(pairs.len());
            let chunk_size = pairs.len().div_ceil(worker_count);
            let chunks: Vec<Vec<(InMemoryIndex, Option<InMemoryIndex>)>> = {
                let mut chunks = Vec::new();
                let mut it = pairs.into_iter().peekable();
                while it.peek().is_some() {
                    chunks.push(it.by_ref().take(chunk_size).collect());
                }
                chunks
            };
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk
                                .into_iter()
                                .map(|(mut a, b)| {
                                    if let Some(b) = b {
                                        a.absorb(b);
                                    }
                                    a
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("join worker panicked")).collect()
            })
        };
        current = merged;
    }
    current.into_iter().next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc_table::FileId;
    use dsearch_text::tokenizer::Term;
    use proptest::prelude::*;

    fn build_replicas(
        docs: &[(u32, Vec<String>)],
        replica_count: usize,
    ) -> (Vec<InMemoryIndex>, InMemoryIndex) {
        let mut sequential = InMemoryIndex::new();
        let mut replicas: Vec<InMemoryIndex> =
            (0..replica_count).map(|_| InMemoryIndex::new()).collect();
        for (i, (file, words)) in docs.iter().enumerate() {
            let mut uniq = words.clone();
            uniq.sort();
            uniq.dedup();
            let terms: Vec<Term> = uniq.iter().map(|w| Term::from(w.as_str())).collect();
            sequential.insert_file(FileId(*file), terms.clone());
            replicas[i % replica_count].insert_file(FileId(*file), terms);
        }
        (replicas, sequential)
    }

    #[test]
    fn join_all_of_nothing_is_empty() {
        let joined = join_all(Vec::new());
        assert!(joined.is_empty());
        let joined = parallel_join(Vec::new(), 4);
        assert!(joined.is_empty());
    }

    #[test]
    fn join_all_single_replica_is_identity() {
        let mut idx = InMemoryIndex::new();
        idx.insert_file(FileId(0), [Term::from("only")]);
        let joined = join_all(vec![idx.clone()]);
        assert_eq!(joined, idx);
    }

    #[test]
    fn join_into_absorbs() {
        let mut a = InMemoryIndex::new();
        a.insert_file(FileId(0), [Term::from("a")]);
        let mut b = InMemoryIndex::new();
        b.insert_file(FileId(1), [Term::from("a"), Term::from("b")]);
        join_into(&mut a, b);
        assert_eq!(a.term_count(), 2);
        assert_eq!(a.postings(&Term::from("a")).unwrap().len(), 2);
    }

    #[test]
    fn sequential_and_parallel_join_agree() {
        let docs: Vec<(u32, Vec<String>)> = (0..60)
            .map(|i| {
                (i, vec![format!("w{}", i % 7), "everywhere".to_string(), format!("unique{i}")])
            })
            .collect();
        for replica_count in [1, 2, 3, 5, 8] {
            let (replicas, sequential) = build_replicas(&docs, replica_count);
            let joined_seq = join_all(replicas.clone());
            assert_eq!(joined_seq, sequential, "sequential join, {replica_count} replicas");
            for threads in [1, 2, 4] {
                let joined_par = parallel_join(replicas.clone(), threads);
                assert_eq!(
                    joined_par, sequential,
                    "parallel join, {replica_count} replicas, {threads} threads"
                );
            }
        }
    }

    proptest! {
        /// Parallel join result never depends on the number of joiner threads
        /// or on how documents were distributed across replicas.
        #[test]
        fn parallel_join_deterministic(
            docs in proptest::collection::vec(
                (0u32..40, proptest::collection::vec("[a-c]{1,2}", 1..5)),
                1..30,
            ),
            replica_count in 1usize..6,
            threads in 1usize..5,
        ) {
            let (replicas, sequential) = build_replicas(&docs, replica_count);
            let joined = parallel_join(replicas, threads);
            prop_assert_eq!(joined, sequential);
        }
    }
}
