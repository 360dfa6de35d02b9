//! Boolean query parsing.
//!
//! The query language is deliberately small — it matches what a desktop
//! search box needs:
//!
//! * words separated by whitespace are combined with an implicit `AND`;
//! * the keywords `AND` and `OR` (upper-case) combine terms explicitly;
//! * `OR` binds *looser* than `AND`, so `a b OR c` parses as `(a AND b) OR c`;
//! * `NOT word` (or `-word`) excludes documents containing `word` from the
//!   current group;
//! * a trailing `*` makes a word a prefix query: `index*` matches `index`,
//!   `indexes`, `indexing`, ….
//!
//! A query word is read by the build's own [`Scanner`](dsearch_text::tokenizer::Scanner)
//! under the build's rule, so its terms are exactly the terms the same text
//! has in a document: `"Rust"` finds `rust`, `naïve` is `naive`, `e-mail`
//! is `e AND mail`, `report.pd*` is `report AND pd*` (the `*` applies to the
//! word's last term; `-`/`NOT` to each of its terms), and a word with no
//! term in it is skipped.  The one difference is the length filter: a term
//! too long for the build is kept, so its group matches nothing — dropping
//! it would widen the query, and cutting it would match another word.

use serde::{Deserialize, Serialize};

use dsearch_text::tokenizer::{Tokenizer, TokenizerOptions};
use dsearch_text::Term;

/// Errors from [`Query::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The query contained no searchable terms.
    Empty,
    /// An `AND`/`OR`/`NOT` operator had a missing operand.
    DanglingOperator(String),
    /// A group consists only of exclusions (`NOT a NOT b`), which cannot be
    /// evaluated against an inverted index without a full document scan.
    ExclusionOnly,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => f.write_str("query contains no searchable terms"),
            ParseError::DanglingOperator(op) => {
                write!(f, "operator {op} is missing an operand")
            }
            ParseError::ExclusionOnly => {
                f.write_str("query group contains only NOT terms; add at least one required term")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// One required term of a query group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryTerm {
    /// Matches documents containing exactly this term.
    Exact(Term),
    /// Matches documents containing any term starting with this prefix.
    Prefix(String),
}

/// One `AND` group of a query: every required term must match and no excluded
/// term may match.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryGroup {
    required: Vec<QueryTerm>,
    excluded: Vec<Term>,
}

impl QueryGroup {
    /// Builds a group from required terms only.
    #[must_use]
    pub fn of_terms<I: IntoIterator<Item = Term>>(terms: I) -> Self {
        QueryGroup {
            required: terms.into_iter().map(QueryTerm::Exact).collect(),
            excluded: Vec::new(),
        }
    }

    /// The terms a matching document must contain.
    #[must_use]
    pub fn required(&self) -> &[QueryTerm] {
        &self.required
    }

    /// The terms a matching document must **not** contain.
    #[must_use]
    pub fn excluded(&self) -> &[Term] {
        &self.excluded
    }

    /// Number of required terms (the ranking weight of the group).
    #[must_use]
    pub fn len(&self) -> usize {
        self.required.len()
    }

    /// Returns `true` when the group has no required terms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.required.is_empty()
    }
}

/// A parsed boolean query in disjunctive normal form: an `OR` of `AND` groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Each group is a conjunction; a document matches the query when it
    /// matches at least one group.
    groups: Vec<QueryGroup>,
}

impl Query {
    /// Parses a query string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Empty`] when no word holds a term,
    /// [`ParseError::DanglingOperator`] when `AND`/`OR`/`NOT` has no operand,
    /// and [`ParseError::ExclusionOnly`] when a group has no required term.
    pub fn parse(raw: &str) -> Result<Self, ParseError> {
        let tokenizer = Tokenizer::new(TokenizerOptions { max_term_len: usize::MAX });
        // Holds a word's term only while it is being case-folded.
        let mut folded = String::new();
        let mut groups: Vec<QueryGroup> = Vec::new();
        let mut current = QueryGroup::default();
        let mut pending_operator: Option<&'static str> = None;
        let mut negate_next = false;

        let finish_group =
            |current: &mut QueryGroup, groups: &mut Vec<QueryGroup>| -> Result<(), ParseError> {
                if current.required.is_empty() && !current.excluded.is_empty() {
                    return Err(ParseError::ExclusionOnly);
                }
                if !current.required.is_empty() {
                    groups.push(std::mem::take(current));
                }
                Ok(())
            };

        for token in raw.split_whitespace() {
            match token {
                "OR" => {
                    if (current.required.is_empty() && current.excluded.is_empty())
                        || pending_operator.is_some()
                    {
                        return Err(ParseError::DanglingOperator("OR".into()));
                    }
                    finish_group(&mut current, &mut groups)?;
                    pending_operator = Some("OR");
                }
                "AND" => {
                    // Bare leading `AND`, and doubled operators (`a AND AND b`),
                    // are user errors rather than something to guess through.
                    if (current.required.is_empty() && current.excluded.is_empty())
                        || pending_operator.is_some()
                    {
                        return Err(ParseError::DanglingOperator("AND".into()));
                    }
                    pending_operator = Some("AND");
                }
                "NOT" => {
                    negate_next = true;
                    pending_operator = Some("NOT");
                }
                word => {
                    let mut negated = negate_next;
                    negate_next = false;
                    let mut text = word;
                    if let Some(rest) = text.strip_prefix('-') {
                        negated = true;
                        text = rest;
                    }
                    let prefix = text.ends_with('*') && !negated;
                    let mut scanner = tokenizer.scan(text.as_bytes());
                    let mut next = scanner.next_token(&mut folded).map(Term::from);
                    if next.is_none() {
                        continue;
                    }
                    while let Some(term) = next {
                        next = scanner.next_token(&mut folded).map(Term::from);
                        if negated {
                            current.excluded.push(term);
                        } else if prefix && next.is_none() {
                            current.required.push(QueryTerm::Prefix(term.into_string()));
                        } else {
                            current.required.push(QueryTerm::Exact(term));
                        }
                    }
                    pending_operator = None;
                }
            }
        }
        if negate_next {
            return Err(ParseError::DanglingOperator("NOT".into()));
        }
        if let Some(op) = pending_operator {
            return Err(ParseError::DanglingOperator(op.into()));
        }
        if !current.required.is_empty() || !current.excluded.is_empty() {
            finish_group(&mut current, &mut groups)?;
        }
        if groups.is_empty() {
            return Err(ParseError::Empty);
        }
        Ok(Query { groups })
    }

    /// Builds a conjunction-only query from terms (no parsing).
    #[must_use]
    pub fn all_of<I: IntoIterator<Item = Term>>(terms: I) -> Self {
        Query { groups: vec![QueryGroup::of_terms(terms)] }
    }

    /// Builds a disjunction-only query from terms.
    #[must_use]
    pub fn any_of<I: IntoIterator<Item = Term>>(terms: I) -> Self {
        Query { groups: terms.into_iter().map(|t| QueryGroup::of_terms([t])).collect() }
    }

    /// The OR-of-AND groups.
    #[must_use]
    pub fn groups(&self) -> &[QueryGroup] {
        &self.groups
    }

    /// Every distinct exact term mentioned anywhere in the query (required or
    /// excluded); prefix patterns are not included.
    #[must_use]
    pub fn terms(&self) -> Vec<&Term> {
        let mut all: Vec<&Term> = Vec::new();
        for group in &self.groups {
            for term in &group.required {
                if let QueryTerm::Exact(t) = term {
                    all.push(t);
                }
            }
            all.extend(group.excluded.iter());
        }
        all.sort();
        all.dedup();
        all
    }

    /// Returns `true` when any group uses a prefix pattern.
    #[must_use]
    pub fn has_prefix_terms(&self) -> bool {
        self.groups.iter().any(|g| g.required.iter().any(|t| matches!(t, QueryTerm::Prefix(_))))
    }

    /// Returns `true` when any group excludes terms.
    #[must_use]
    pub fn has_exclusions(&self) -> bool {
        self.groups.iter().any(|g| !g.excluded.is_empty())
    }

    /// The canonical text (the [`Display`](std::fmt::Display) form) in a
    /// string allocated once, at its exact length: the serving cache keys
    /// every request by it.
    #[must_use]
    pub fn canonical(&self) -> String {
        use std::fmt::Write;
        struct Length(usize);
        impl Write for Length {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut length = Length(0);
        let _ = write!(length, "{self}");
        let mut text = String::with_capacity(length.0);
        let _ = write!(text, "{self}");
        text
    }
}

/// Groups joined by ` OR `, a group's terms by ` AND `, its exclusions last
/// as `NOT <term>`, prefixes with their `*`.
impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (g, group) in self.groups.iter().enumerate() {
            if g > 0 {
                f.write_str(" OR ")?;
            }
            let excluded = group.excluded.iter().map(|term| ("NOT ", term.as_str(), ""));
            let required = group.required.iter().map(|term| match term {
                QueryTerm::Exact(term) => ("", term.as_str(), ""),
                QueryTerm::Prefix(prefix) => ("", prefix.as_str(), "*"),
            });
            for (i, (before, text, after)) in required.chain(excluded).enumerate() {
                if i > 0 {
                    f.write_str(" AND ")?;
                }
                f.write_str(before)?;
                f.write_str(text)?;
                f.write_str(after)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_and_between_words() {
        let q = Query::parse("rust search engine").unwrap();
        assert_eq!(q.groups().len(), 1);
        assert_eq!(q.groups()[0].len(), 3);
        assert_eq!(q.to_string(), "rust AND search AND engine");
    }

    #[test]
    fn or_splits_groups() {
        let q = Query::parse("rust search OR java").unwrap();
        assert_eq!(q.groups().len(), 2);
        assert_eq!(q.to_string(), "rust AND search OR java");
    }

    #[test]
    fn explicit_and_is_allowed() {
        let q = Query::parse("rust AND search").unwrap();
        assert_eq!(q.groups().len(), 1);
        assert_eq!(q.groups()[0].len(), 2);
    }

    #[test]
    fn words_are_normalised() {
        let q = Query::parse("RuSt, (Search)").unwrap();
        assert_eq!(q.to_string(), "rust AND search");
    }

    #[test]
    fn a_word_holds_the_terms_the_build_reads_in_it() {
        let parsed = |raw: &str| Query::parse(raw).unwrap().to_string();
        assert_eq!(parsed("e-mail"), "e AND mail");
        assert_eq!(parsed("report.pdf"), "report AND pdf");
        assert_eq!(parsed("Don't"), "don AND t");
        assert_eq!(parsed("r2d2 ÉTÉ"), "r2d2 AND ete");
        // Accents fold and other characters separate terms, as in a document.
        assert_eq!(parsed("naïve"), "naive");
        assert_eq!(parsed("Straße→café*"), "strasse AND cafe*");
        // A word with no term is skipped, its operator still pending.
        assert_eq!(parsed("idea ... -- *"), "idea");
        assert_eq!(
            Query::parse("idea NOT ...").unwrap_err(),
            ParseError::DanglingOperator("NOT".into())
        );
    }

    #[test]
    fn not_and_dash_exclude_every_term_of_a_word() {
        let q = Query::parse("idea -e-mail").unwrap();
        assert_eq!(q.groups()[0].excluded(), &[Term::from("e"), Term::from("mail")]);
        assert_eq!(q.to_string(), "idea AND NOT e AND NOT mail");
        assert_eq!(Query::parse("idea NOT e-mail").unwrap(), q);
        // A negated word is never a prefix: its terms are excluded whole.
        assert_eq!(Query::parse("idea -mail*").unwrap().to_string(), "idea AND NOT mail");
    }

    #[test]
    fn a_star_makes_the_last_term_of_a_word_a_prefix() {
        let q = Query::parse("report.pd*").unwrap();
        assert_eq!(
            q.groups()[0].required(),
            &[QueryTerm::Exact(Term::from("report")), QueryTerm::Prefix("pd".to_owned())]
        );
        assert_eq!(Query::parse("café*").unwrap().to_string(), "cafe*");
        assert_eq!(Query::parse("report.*").unwrap().to_string(), "report*");
    }

    #[test]
    fn a_term_too_long_for_the_build_is_kept_whole() {
        let long = "x".repeat(70);
        let q = Query::parse(&format!("{long} idea")).unwrap();
        assert_eq!(q.groups()[0].required()[0], QueryTerm::Exact(Term::from(long.as_str())));
        assert_eq!(q.to_string(), format!("{long} AND idea"));
        let q = Query::parse(&format!("{}*", long.to_uppercase())).unwrap();
        assert_eq!(q.to_string(), format!("{long}*"));
    }

    #[test]
    fn not_keyword_and_dash_exclude_terms() {
        let q = Query::parse("rust NOT java").unwrap();
        assert_eq!(q.groups().len(), 1);
        assert_eq!(q.groups()[0].len(), 1);
        assert_eq!(q.groups()[0].excluded(), &[Term::from("java")]);
        assert!(q.has_exclusions());
        assert_eq!(q.to_string(), "rust AND NOT java");

        let dash = Query::parse("rust -java").unwrap();
        assert_eq!(dash, q);
    }

    #[test]
    fn exclusions_attach_to_their_group() {
        let q = Query::parse("rust NOT java OR python").unwrap();
        assert_eq!(q.groups().len(), 2);
        assert_eq!(q.groups()[0].excluded().len(), 1);
        assert!(q.groups()[1].excluded().is_empty());
    }

    #[test]
    fn prefix_star_is_recognised() {
        let q = Query::parse("index* generator").unwrap();
        assert!(q.has_prefix_terms());
        assert_eq!(q.groups()[0].required().len(), 2);
        assert!(matches!(&q.groups()[0].required()[0], QueryTerm::Prefix(p) if p == "index"));
        assert_eq!(q.to_string(), "index* AND generator");
        assert!(!Query::parse("plain words").unwrap().has_prefix_terms());
    }

    #[test]
    fn exclusion_only_queries_are_rejected() {
        assert_eq!(Query::parse("NOT rust").unwrap_err(), ParseError::ExclusionOnly);
        assert_eq!(Query::parse("-rust -java").unwrap_err(), ParseError::ExclusionOnly);
        assert!(ParseError::ExclusionOnly.to_string().contains("NOT"));
    }

    #[test]
    fn empty_and_punctuation_only_queries_error() {
        assert_eq!(Query::parse("").unwrap_err(), ParseError::Empty);
        assert_eq!(Query::parse("!!! ...").unwrap_err(), ParseError::Empty);
        assert!(Query::parse("").unwrap_err().to_string().contains("no searchable"));
    }

    #[test]
    fn dangling_operators_error() {
        assert!(matches!(Query::parse("rust OR"), Err(ParseError::DanglingOperator(_))));
        assert!(matches!(Query::parse("OR rust"), Err(ParseError::DanglingOperator(_))));
        assert!(matches!(Query::parse("rust AND"), Err(ParseError::DanglingOperator(_))));
        assert!(matches!(Query::parse("AND rust"), Err(ParseError::DanglingOperator(_))));
        assert!(matches!(Query::parse("rust NOT"), Err(ParseError::DanglingOperator(_))));
    }

    #[test]
    fn bare_operators_are_rejected() {
        for raw in ["AND", "OR", "NOT", "AND OR", "NOT AND"] {
            assert!(
                matches!(Query::parse(raw), Err(ParseError::DanglingOperator(_))),
                "{raw:?} must be rejected as a dangling operator"
            );
        }
        // `NOT foo` with no left side cannot be evaluated against an
        // inverted index; it is rejected (not mis-parsed as a match-all).
        assert_eq!(Query::parse("NOT foo").unwrap_err(), ParseError::ExclusionOnly);
    }

    #[test]
    fn doubled_operators_are_rejected() {
        for raw in
            ["rust AND AND search", "rust AND OR search", "rust OR OR search", "rust OR AND search"]
        {
            let err = Query::parse(raw).unwrap_err();
            assert!(
                matches!(err, ParseError::DanglingOperator(_)),
                "{raw:?} must be rejected, got {err:?}"
            );
        }
        // The error message names the offending operator.
        let err = Query::parse("rust AND AND search").unwrap_err();
        assert!(err.to_string().contains("AND"));
    }

    #[test]
    fn operator_after_not_still_parses() {
        // Hardening must not break legitimate combinations.
        let q = Query::parse("rust AND NOT java OR go").unwrap();
        assert_eq!(q.groups().len(), 2);
        assert_eq!(q.groups()[0].excluded(), &[Term::from("java")]);
    }

    #[test]
    fn constructors_and_terms() {
        let q = Query::all_of([Term::from("a"), Term::from("b")]);
        assert_eq!(q.groups().len(), 1);
        let q = Query::any_of([Term::from("a"), Term::from("b"), Term::from("a")]);
        assert_eq!(q.groups().len(), 3);
        assert_eq!(q.terms().len(), 2);
        let q = Query::parse("alpha NOT beta gamma*").unwrap();
        // terms() lists exact terms (required and excluded), not prefixes.
        let names: Vec<&str> = q.terms().iter().map(|t| t.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn canonical_text_is_the_display_form() {
        for raw in ["rust", "a b OR c", "rust NOT java NOT go OR py*", "-x y*", "a OR b OR c"] {
            let q = Query::parse(raw).unwrap();
            let canonical = q.canonical();
            assert_eq!(canonical, q.to_string(), "{raw}");
            assert_eq!(canonical.capacity(), canonical.len(), "{raw}");
            assert_eq!(Query::parse(&canonical).unwrap(), q, "{raw}");
        }
        assert_eq!(
            Query::parse("rust NOT java NOT go OR py*").unwrap().to_string(),
            "rust AND NOT java AND NOT go OR py*"
        );
    }

    proptest::proptest! {
        /// The canonical text is a query string that parses back to the
        /// query it came from.
        #[test]
        fn canonical_text_parses_back_to_the_query(
            words in proptest::collection::vec(
                "(AND|OR|NOT|-?[a-zA-Z0-9.,'_/éï-]{1,10}[*]?)",
                1..8,
            ),
        ) {
            if let Ok(q) = Query::parse(&words.join(" ")) {
                proptest::prop_assert_eq!(Query::parse(&q.canonical()), Ok(q));
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let q = Query::parse("alpha beta OR gamma NOT delta OR pre*").unwrap();
        let json = serde_json::to_string(&q).unwrap();
        assert_eq!(serde_json::from_str::<Query>(&json).unwrap(), q);
    }
}
