//! Work distribution for Stage 2.
//!
//! Section 2.1 of the paper weighs four ways of handing files to the term
//! extractors: a work queue, round-robin distribution, assignment by file
//! length and work stealing.  It keeps round-robin into *x* private vectors —
//! no synchronisation at all during extraction — and so does
//! [`IndexGenerator`](crate::runner::IndexGenerator), whose one work source
//! is `deal`.  On a 2-core host, over a `paper_scaled(0.005)` corpus at
//! `(2, 0, 0)`, neither a work queue, work stealing, contiguous chunks nor
//! size-balanced assignment ran faster by more than round-robin's own
//! run-to-run spread; the last was ~25 % slower.
//!
//! The checkpointed [`BuildPipeline`](crate::pipeline::BuildPipeline) runs
//! through the same generator, so it deals the same way: a file that fails
//! is retried by the extractor it was dealt to, from that extractor's own
//! delayed list.

use serde::{Deserialize, Serialize};

use dsearch_index::FileId;
use dsearch_vfs::VPath;

/// One unit of Stage 2 work: a file to scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// Id assigned by Stage 1.
    pub file_id: FileId,
    /// Path of the file.
    pub path: VPath,
    /// Size in bytes (from the directory walk).
    pub size: u64,
}

/// Deals `items` round-robin into `workers` private vectors: file *i* goes
/// to vector *i mod workers*, in walk order.
///
/// # Panics
///
/// Panics if `workers` is zero.
#[must_use]
pub(crate) fn deal(items: Vec<WorkItem>, workers: usize) -> Vec<Vec<WorkItem>> {
    assert!(workers > 0, "cannot deal work to zero workers");
    let mut parts: Vec<Vec<WorkItem>> =
        (0..workers).map(|_| Vec::with_capacity(items.len() / workers + 1)).collect();
    for (i, item) in items.into_iter().enumerate() {
        parts[i % workers].push(item);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn items(sizes: &[u64]) -> Vec<WorkItem> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| WorkItem {
                file_id: FileId(i as u32),
                path: VPath::new(format!("f{i}.txt")),
                size,
            })
            .collect()
    }

    #[test]
    fn round_robin_interleaves() {
        let parts = deal(items(&[1, 2, 3, 4, 5]), 2);
        assert_eq!(parts.len(), 2);
        let ids: Vec<Vec<u32>> =
            parts.iter().map(|p| p.iter().map(|w| w.file_id.as_u32()).collect()).collect();
        assert_eq!(ids, vec![vec![0, 2, 4], vec![1, 3]]);
    }

    #[test]
    fn single_worker_gets_everything() {
        let parts = deal(items(&[5, 6, 7]), 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 3);
    }

    #[test]
    fn more_workers_than_items_leaves_empty_parts() {
        let parts = deal(items(&[1, 2]), 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_workers_panics() {
        let _ = deal(items(&[1]), 0);
    }

    proptest! {
        /// Dealing is a partition: no item lost, none duplicated, exactly
        /// `workers` parts.
        #[test]
        fn partition_is_lossless(
            sizes in proptest::collection::vec(0u64..100_000, 0..200),
            workers in 1usize..9,
        ) {
            let parts = deal(items(&sizes), workers);
            prop_assert_eq!(parts.len(), workers);
            let mut recovered: Vec<u32> = parts
                .iter()
                .flat_map(|p| p.iter().map(|w| w.file_id.as_u32()))
                .collect();
            recovered.sort_unstable();
            let expected: Vec<u32> = (0..sizes.len() as u32).collect();
            prop_assert_eq!(recovered, expected);
        }
    }
}
