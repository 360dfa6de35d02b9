//! Property tests for the line protocol: arbitrary bytes never panic the
//! parsers, and every rendered response round-trips through
//! encode → `read_response` unchanged.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use dsearch_index::FileId;
use dsearch_query::{Hit, SearchResults};
use dsearch_server::protocol::{
    parse_request, read_response, render_error, render_error_text, render_info, render_response,
    Request, END,
};
use dsearch_server::{QueryResponse, ServerError};

/// Arbitrary (possibly non-UTF-8) bytes, decoded the way a front end would.
fn arbitrary_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..80)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Paths that are representable in a line protocol (no newlines; the server
/// only ever emits paths produced by the indexer, which are line-safe).
fn path_strategy() -> impl Strategy<Value = String> {
    "[a-z0-9/._-]{1,20}"
}

/// Hit scores: zero (the unranked wire form, no `score=` field) or a
/// positive BM25-like value.
fn score_strategy() -> impl Strategy<Value = f32> {
    (0u32..10_000).prop_map(|n| if n % 4 == 0 { 0.0 } else { n as f32 / 64.0 })
}

fn response_strategy() -> impl Strategy<Value = QueryResponse> {
    (
        proptest::collection::vec((path_strategy(), 1usize..5, score_strategy()), 0..8),
        1u64..100,
        any::<bool>(),
        0u64..1_000_000,
    )
        .prop_map(|(raw_hits, generation, cached, micros)| {
            let hits = raw_hits
                .into_iter()
                .enumerate()
                .map(|(i, (path, matched_terms, score))| Hit {
                    file_id: FileId(i as u32),
                    path: path.into(),
                    matched_terms,
                    score,
                })
                .collect();
            QueryResponse {
                query: "canonical query".into(),
                results: Arc::new(SearchResults::new(hits)),
                generation,
                cached,
                latency: Duration::from_micros(micros),
                trace: Arc::new(dsearch_obs::QueryTrace::new(micros)),
            }
        })
}

/// Line-safe paths with spaces, brackets and characters beyond ASCII.
fn tricky_path_strategy() -> impl Strategy<Value = String> {
    "[a-z0-9 ./()_éüß漢字-]{1,24}"
}

/// Every kind of score a hit can carry: zero (no `score=` field), a
/// subnormal, the largest finite value, any positive finite value, and a
/// BM25-sized one.
fn tricky_score_strategy() -> impl Strategy<Value = f32> {
    (0u32..5, any::<u32>()).prop_map(|(kind, bits)| match kind {
        0 => 0.0,
        1 => f32::from_bits(bits % 0x0080_0000),
        2 => f32::MAX,
        3 => f32::from_bits(bits & 0x7f7f_ffff),
        _ => (bits % 10_000) as f32 / 64.0,
    })
}

/// The body as it was rendered before answers were memoized: one `format!`
/// per hit line.
fn per_line_body(results: &SearchResults) -> String {
    let line = |hit: &Hit| {
        if hit.score == 0.0 {
            format!("{} ({} terms)\n", hit.path, hit.matched_terms)
        } else {
            format!("{} ({} terms) score={}\n", hit.path, hit.matched_terms, hit.score)
        }
    };
    results.hits().iter().map(line).collect()
}

fn response_over(results: SearchResults, cached: bool) -> QueryResponse {
    QueryResponse {
        query: "canonical query".into(),
        results: Arc::new(results),
        generation: 1,
        cached,
        latency: Duration::from_micros(7),
        trace: Arc::new(dsearch_obs::QueryTrace::default()),
    }
}

/// The body lines of a rendered response (between the status line and END).
fn body_of(text: &str) -> &str {
    let (_, rest) = text.split_once('\n').unwrap();
    rest.strip_suffix(&format!("{END}\n")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The body a response carries is rendered once into its results and
    /// reused: it equals, byte for byte, what rendering every line afresh
    /// gives, every line parses back to its hit's exact score, and cutting
    /// the results drops the rendering of the longer list.
    #[test]
    fn a_memoized_body_is_the_per_line_rendering_byte_for_byte(
        raw_hits in proptest::collection::vec(
            (tricky_path_strategy(), 1usize..10, tricky_score_strategy()),
            0..25,
        ),
        cut in 0usize..30,
    ) {
        let hits: Vec<Hit> = raw_hits
            .into_iter()
            .enumerate()
            .map(|(i, (path, matched_terms, score))| Hit {
                file_id: FileId(i as u32),
                path: path.into(),
                matched_terms,
                score,
            })
            .collect();
        let response = response_over(SearchResults::new(hits), false);
        let expected = per_line_body(&response.results);
        let first = render_response(&response);
        prop_assert_eq!(body_of(&first), expected.as_str());
        prop_assert!(first.starts_with(&format!("OK {} generation=1 ", response.results.len())));
        // The second answer copies the stored rendering: nothing renders it
        // again, and the bytes are the same.
        prop_assert_eq!(response.results.render_once(|_| unreachable!()), expected.as_str());
        let again = response_over((*response.results).clone(), true);
        prop_assert_eq!(body_of(&render_response(&again)), expected.as_str());
        for (line, hit) in expected.lines().zip(response.results.hits()) {
            let back = dsearch_server::protocol::parse_hit_line(line).unwrap();
            prop_assert_eq!(&*back.path, &*hit.path);
            prop_assert_eq!(back.matched_terms, hit.matched_terms);
            prop_assert_eq!(back.score.to_bits(), hit.score.to_bits());
        }
        let mut shorter = (*response.results).clone();
        shorter.truncate(cut);
        let cut_body = per_line_body(&shorter);
        prop_assert_eq!(body_of(&render_response(&response_over(shorter, true))), cut_body.as_str());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any byte salad fed to the request parser and the response reader is
    /// classified without panicking, and the classification is total:
    /// every line is exactly one of the request kinds.
    #[test]
    fn arbitrary_lines_never_panic_the_parsers(
        lines in proptest::collection::vec(arbitrary_line(), 0..12),
    ) {
        for line in &lines {
            match parse_request(line) {
                Request::Empty => prop_assert!(line.trim().is_empty()),
                Request::Stats => prop_assert_eq!(line.trim(), "!stats"),
                Request::Reload => prop_assert_eq!(line.trim(), "!reload"),
                Request::Quit => prop_assert_eq!(line.trim(), "!quit"),
                Request::Metrics => prop_assert_eq!(line.trim(), "!metrics"),
                Request::Slow => prop_assert_eq!(line.trim(), "!slow"),
                Request::Trace(arg) => {
                    prop_assert!(line.trim().starts_with("!trace"));
                    prop_assert_eq!(arg, line.trim().strip_prefix("!trace").unwrap().trim());
                }
                Request::Query(q) => prop_assert_eq!(q, line.trim()),
            }
        }
        // The response reader consumes any line stream without panicking,
        // and always makes progress (each call eats at least one line).
        let mut iter = lines.iter().cloned().map(Ok::<_, std::io::Error>);
        let mut responses = 0;
        while let Some(result) = read_response(&mut iter) {
            prop_assert!(result.is_ok());
            responses += 1;
            prop_assert!(responses <= lines.len(), "reader stopped making progress");
        }
    }

    /// Every rendered query response parses back to exactly the hits,
    /// generation and cached flag it was rendered from.
    #[test]
    fn responses_round_trip_through_the_protocol(response in response_strategy()) {
        let text = render_response(&response);
        prop_assert!(text.ends_with(&format!("{END}\n")));

        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        prop_assert!(lines.next().is_none(), "exactly one response per render");

        prop_assert!(parsed.ok);
        prop_assert_eq!(parsed.hit_count(), response.results.len());
        prop_assert_eq!(parsed.generation(), Some(response.generation));
        prop_assert_eq!(parsed.cached(), Some(response.cached));
        let expected_body: Vec<String> = response
            .results
            .hits()
            .iter()
            .map(|hit| if hit.score == 0.0 {
                format!("{} ({} terms)", hit.path, hit.matched_terms)
            } else {
                format!("{} ({} terms) score={}", hit.path, hit.matched_terms, hit.score)
            })
            .collect();
        prop_assert_eq!(&parsed.body, &expected_body);
        // And every scored body line parses back to the exact score.
        for (line, hit) in parsed.body.iter().zip(response.results.hits()) {
            let back = dsearch_server::protocol::parse_hit_line(line).unwrap();
            prop_assert_eq!(&*back.path, &*hit.path);
            prop_assert_eq!(back.matched_terms, hit.matched_terms);
            prop_assert_eq!(back.score.to_bits(), hit.score.to_bits());
        }
    }

    /// Errors and info lines keep the same framing invariants: one status
    /// line, no body, an END terminator, and a lossless status payload.
    #[test]
    fn errors_and_info_round_trip(message in "[ -~]{0,40}", which in any::<bool>()) {
        let text = if which {
            render_error_text(&message)
        } else {
            render_info(&message)
        };
        prop_assert!(text.ends_with(&format!("{END}\n")));
        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        prop_assert_eq!(parsed.ok, !which);
        prop_assert_eq!(parsed.status, message.trim());
        prop_assert!(parsed.body.is_empty());
    }
}

#[test]
fn server_errors_render_with_end_framing() {
    for error in [
        ServerError::Overloaded,
        ServerError::ShuttingDown,
        ServerError::Parse(dsearch_query::ParseError::Empty),
    ] {
        let text = render_error(&error);
        assert!(text.starts_with("ERR "), "{text}");
        assert!(text.ends_with(&format!("{END}\n")), "{text}");
        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        assert!(!parsed.ok);
        assert_eq!(parsed.status, error.to_string());
    }
}
