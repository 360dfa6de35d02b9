//! `dsearch-cli search` — query a persisted index.

use dsearch::persist::IndexStore;
use dsearch::query::{evaluate, Query, Scorer};
use dsearch::server::IndexSnapshot;

use crate::args::ParsedArgs;
use crate::CliError;

/// Runs the `search` command.
///
/// # Errors
///
/// Fails on usage errors, an unreadable store, or an unparsable query.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let store_path = args
        .value_of("store")
        .ok_or_else(|| CliError::Usage("search requires --store <path>".into()))?;
    if args.positionals.is_empty() {
        return Err(CliError::Usage("search requires at least one query word".into()));
    }
    let raw_query = args.positionals.join(" ");
    let query = Query::parse(&raw_query)
        .map_err(|e| CliError::Usage(format!("invalid query {raw_query:?}: {e}")))?;
    let limit = args.number_of::<usize>("limit")?.unwrap_or(20);

    let store = IndexStore::open(store_path).map_err(CliError::failed)?;
    if store.segment_count() == 0 {
        return Err(CliError::Failed(format!(
            "index store {store_path} is empty; run `dsearch index` first"
        )));
    }

    // The image `dsearch serve` loads — every segment one sealed shard, the
    // un-joined replicas of Implementation 3 searched together — answered as
    // a boolean query.
    let snapshot = IndexSnapshot::load(&store, 0).map_err(CliError::failed)?;
    let (results, _) =
        evaluate(snapshot.shards(), snapshot.docs(), &query, Scorer::Constant, limit, &|| false);

    let mut out = format!("query: {query}\n{} result(s)\n", results.len());
    for hit in results.hits() {
        out.push_str(&format!("  {}  (matched {} terms)\n", hit.path, hit.matched_terms));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_store_or_query_is_a_usage_error() {
        let args = ParsedArgs::parse(["search", "hello"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
        let args = ParsedArgs::parse(["search", "--store", "/nonexistent"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn invalid_queries_are_reported_as_usage_errors() {
        let args = ParsedArgs::parse(["search", "--store", "/tmp/x", "rust", "OR"]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.to_string().contains("invalid query"));
    }
}
