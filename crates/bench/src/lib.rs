//! The `dsearch` Criterion benches live in `benches/`; this empty library is
//! only the target Cargo needs to build them.  The paper's tables are
//! printed by `dsearch tables`.

#![forbid(unsafe_code)]
