//! A small, dependency-free command-line argument parser.
//!
//! The grammar is the common GNU-ish subset the `dsearch-cli` commands need:
//!
//! * the first non-option token is the subcommand;
//! * `--name value` and `--name=value` set an option;
//! * `--flag` with no value sets a boolean flag (a token starting with `--`
//!   following it is not consumed as its value);
//! * any other `--name` is a usage error;
//! * everything else is a positional argument.

use std::collections::{BTreeMap, BTreeSet};

use crate::CliError;

/// Option names that take a value.
const VALUE_OPTIONS: &[&str] = &[
    "store",
    "extractors",
    "updaters",
    "joiners",
    "implementation",
    "limit",
    "scale",
    "seed",
    "platform",
    "max-threads",
    "table",
    // serve / route
    "tcp",
    "idle-timeout-secs",
    "max-conns",
    "workers",
    "cache",
    "cache-shards",
    "cache-admission",
    "max-batch",
    "queue-bound",
    "shard",
    "shard-timeout-ms",
    "connect-timeout-ms",
    "trace-us",
    "hedge-ms",
    "probe-ms",
    "default-deadline-ms",
    "retry-budget-pct",
    // build / dlq
    "max-retries",
    "checkpoint-every",
    "throttle-ms",
];

/// Boolean flags: option names that take no value.
const FLAGS: &[&str] = &["incremental", "formats", "resume", "help"];

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional token), if any.
    pub command: Option<String>,
    /// Positional arguments after the subcommand.
    pub positionals: Vec<String>,
    /// Every value given for each option, in order — options like `--shard`
    /// repeat; single-valued options read the last occurrence.
    options: BTreeMap<String, Vec<String>>,
    flags: BTreeSet<String>,
}

impl ParsedArgs {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Fails on an unknown option, a flag given a value, and an option that
    /// requires a value but is missing one.
    pub fn parse<I, S>(raw: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = ParsedArgs::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if let Some((name, value)) = name.split_once('=') {
                    if !VALUE_OPTIONS.contains(&name) {
                        return Err(unknown_or_flag(name));
                    }
                    parsed.options.entry(name.to_owned()).or_default().push(value.to_owned());
                    continue;
                }
                if VALUE_OPTIONS.contains(&name) {
                    match iter.peek() {
                        Some(next) if !next.starts_with("--") => {
                            let value = iter.next().expect("peeked");
                            parsed.options.entry(name.to_owned()).or_default().push(value);
                        }
                        _ => {
                            return Err(CliError::Usage(format!(
                                "option --{name} requires a value"
                            )))
                        }
                    }
                } else if FLAGS.contains(&name) {
                    parsed.flags.insert(name.to_owned());
                } else {
                    return Err(unknown_or_flag(name));
                }
            } else if parsed.command.is_none() {
                parsed.command = Some(token);
            } else {
                parsed.positionals.push(token);
            }
        }
        Ok(parsed)
    }

    /// The value of `--name`, if given (the last occurrence when repeated).
    #[must_use]
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|values| values.last()).map(String::as_str)
    }

    /// Every value given for `--name`, in order (empty when absent) — for
    /// options like `--shard` that repeat.
    #[must_use]
    pub fn values_of(&self, name: &str) -> Vec<&str> {
        self.options
            .get(name)
            .map(|values| values.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Whether `--name` appeared as a boolean flag.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The value of `--name` parsed as a number.
    ///
    /// # Errors
    ///
    /// Fails when the value is present but does not parse.
    pub fn number_of<T>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.value_of(name) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|e| {
                CliError::Usage(format!("option --{name}: invalid value {raw:?} ({e})"))
            }),
        }
    }

    /// The `i`-th positional argument.
    ///
    /// # Errors
    ///
    /// Fails with a usage error naming `what` when the positional is missing.
    pub fn require_positional(&self, i: usize, what: &str) -> Result<&str, CliError> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required argument: {what}")))
    }
}

/// The usage error for `--name` given a value it cannot take.
fn unknown_or_flag(name: &str) -> CliError {
    CliError::Usage(if FLAGS.contains(&name) {
        format!("flag --{name} takes no value")
    } else {
        format!("unknown option --{name}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn subcommand_and_positionals_are_separated() {
        let args = parse(&["index", "/home/docs", "extra"]);
        assert_eq!(args.command.as_deref(), Some("index"));
        assert_eq!(args.positionals, ["/home/docs", "extra"]);
    }

    #[test]
    fn options_take_values_in_both_spellings() {
        let args = parse(&["index", "dir", "--store", "/tmp/s", "--extractors=4"]);
        assert_eq!(args.value_of("store"), Some("/tmp/s"));
        assert_eq!(args.value_of("extractors"), Some("4"));
        assert_eq!(args.number_of::<usize>("extractors").unwrap(), Some(4));
        assert_eq!(args.value_of("missing"), None);
        assert!(args.values_of("missing").is_empty());
    }

    #[test]
    fn repeated_options_keep_every_value_in_order() {
        let args = parse(&[
            "route",
            "--shard",
            "h1:7878",
            "--shard=h2:7878",
            "--shard",
            "h3:7878",
            "--workers",
            "2",
            "--workers",
            "4",
        ]);
        assert_eq!(args.values_of("shard"), ["h1:7878", "h2:7878", "h3:7878"]);
        // Single-valued reads see the last occurrence.
        assert_eq!(args.value_of("shard"), Some("h3:7878"));
        assert_eq!(args.number_of::<usize>("workers").unwrap(), Some(4));
    }

    #[test]
    fn flags_do_not_consume_the_next_token() {
        let args = parse(&["index", "dir", "--incremental", "--store", "s"]);
        assert!(args.flag("incremental"));
        assert!(!args.flag("formats"));
        assert_eq!(args.value_of("store"), Some("s"));
        assert_eq!(args.positionals, ["dir"]);
    }

    #[test]
    fn value_option_followed_by_option_is_an_error() {
        let err = ParsedArgs::parse(["index", "--store", "--incremental"]).unwrap_err();
        assert!(err.to_string().contains("--store"));
        let err = ParsedArgs::parse(["search", "--limit"]).unwrap_err();
        assert!(err.to_string().contains("--limit"));
        // An option no command knows is an error too, in either spelling,
        // never a flag that swallows nothing and leaves its value behind as
        // a positional.
        for (tokens, name) in [
            (&["serve", "--frobnicate"][..], "--frobnicate"),
            (&["serve", "--batch-wait-us", "200"][..], "--batch-wait-us"),
            (&["search", "--store", "s", "--overload=drop", "rust"][..], "--overload"),
            (&["index", "dir", "--incremental=yes"][..], "--incremental"),
        ] {
            let err = ParsedArgs::parse(tokens.iter().copied()).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains(name)),
                "{tokens:?}: {err}"
            );
        }
    }

    #[test]
    fn bad_numbers_are_reported() {
        let args = parse(&["search", "--limit", "many"]);
        let err = args.number_of::<usize>("limit").unwrap_err();
        assert!(err.to_string().contains("--limit"));
        assert!(err.to_string().contains("many"));
    }

    #[test]
    fn required_positionals_produce_usage_errors() {
        let args = parse(&["corpus"]);
        assert!(args.require_positional(0, "output directory").is_err());
        let args = parse(&["corpus", "/tmp/c"]);
        assert_eq!(args.require_positional(0, "output directory").unwrap(), "/tmp/c");
    }

    #[test]
    fn empty_input_parses_to_nothing() {
        let args = parse(&[]);
        assert!(args.command.is_none());
        assert!(args.positionals.is_empty());
    }
}
