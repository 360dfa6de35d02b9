//! Shared parts of the dsearch benchmark: seeded inputs, the wire client,
//! process guards, load generators and statistics.  Nothing in this library
//! names a dsearch item; the traced run's calls into the program's crates
//! live in `src/bin/layers/facade.rs` alone.

pub mod cli;
pub mod corpus;
pub mod harness;
pub mod json;
pub mod loadgen;
pub mod procs;
pub mod queries;
pub mod report;
pub mod rng;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod wire;

/// Scratch space for this package's tests (ignored by git, inside the
/// package so nothing is written outside the repository).
#[cfg(test)]
pub(crate) fn test_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("test");
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    dir
}
