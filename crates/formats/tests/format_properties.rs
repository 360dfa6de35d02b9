//! Property-based tests for the format-extraction substrate.
//!
//! The invariants that matter for the index generator:
//!
//! * extraction never panics, whatever bytes it is fed, and the tokenizer
//!   reads the extracted text into `[a-z0-9]` terms of at most 64 bytes;
//! * markup characters never survive extraction for the markup formats;
//! * binary detection is stable under prefixing with text.

use proptest::prelude::*;

use dsearch_formats::{detect_format, DocumentFormat, FormatRegistry};
use dsearch_text::Tokenizer;

proptest! {
    /// Any byte soup, or accented text, can be run through the registry
    /// without panicking, and what the scanner reads out of the extracted
    /// text is ASCII: `[a-z0-9]` terms of at most 64 bytes.
    #[test]
    fn extraction_never_panics_and_is_ascii(
        path in "[a-z]{1,8}(\\.(txt|html|md|csv|wpx|rs|[a-z]{1,4}))?",
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        accented in "[a-zA-Z <>&;/*_\\[\\]()!`|,\"\u{80}-\u{24f}→]{0,300}",
    ) {
        let registry = FormatRegistry::with_builtins();
        let tokenizer = Tokenizer::default();
        for input in [&bytes[..], accented.as_bytes()] {
            let extracted = registry.extract(&path, input);
            for term in tokenizer.terms(extracted.text_bytes()) {
                prop_assert!(!term.is_empty() && term.len() <= 64, "{:?}", term);
                prop_assert!(
                    term.as_str().bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()),
                    "{:?}", term
                );
            }
        }
    }

    /// Detection is deterministic: the same inputs give the same answer.
    #[test]
    fn detection_is_deterministic(
        path in "[a-z]{1,8}\\.[a-z]{1,4}",
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let first = detect_format(&path, &bytes);
        let second = detect_format(&path, &bytes);
        prop_assert_eq!(first, second);
    }

    /// ASCII text round-trips through plain-text extraction unchanged.
    #[test]
    fn plain_ascii_round_trips(text in "[ -~]{0,512}") {
        let registry = FormatRegistry::with_builtins();
        let extracted = registry.extract("file.txt", text.as_bytes());
        prop_assert_eq!(extracted.format, DocumentFormat::PlainText);
        prop_assert_eq!(extracted.text_str(), text.as_str());
    }

    /// HTML extraction removes every tag delimiter, regardless of the markup
    /// being well formed.
    #[test]
    fn html_extraction_strips_angle_brackets(
        words in proptest::collection::vec("[a-z]{1,10}", 1..20),
        tag in "[a-z]{1,6}",
    ) {
        // <script> and <style> bodies are intentionally dropped; use any
        // other element name here.
        prop_assume!(tag != "script" && tag != "style");
        let html = format!("<{tag}>{}</{tag}>", words.join(" "));
        let registry = FormatRegistry::with_builtins();
        let extracted = registry.extract("page.html", html.as_bytes());
        prop_assert!(!extracted.text_str().contains('<'));
        prop_assert!(!extracted.text_str().contains('>'));
        for word in &words {
            prop_assert!(extracted.text_str().contains(word.as_str()));
        }
    }

    /// CSV extraction preserves every field's text.
    #[test]
    fn csv_extraction_preserves_fields(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-z]{1,8}", 2..5),
            1..10,
        ),
    ) {
        let csv: String = rows
            .iter()
            .map(|fields| fields.join(","))
            .collect::<Vec<_>>()
            .join("\n");
        let registry = FormatRegistry::with_builtins();
        let extracted = registry.extract("table.csv", csv.as_bytes());
        for row in &rows {
            for field in row {
                prop_assert!(extracted.text_str().contains(field.as_str()));
            }
        }
        prop_assert!(!extracted.text_str().contains(','));
    }

    /// WPX documents produced by the writer always surface their title and
    /// paragraph text, and never leak container markup.
    #[test]
    fn wpx_writer_round_trips_paragraph_text(
        title in "[a-z ]{1,30}",
        paragraphs in proptest::collection::vec("[a-z ]{1,60}", 1..8),
    ) {
        let mut writer = dsearch_formats::WpxWriter::new(title.clone());
        for p in &paragraphs {
            writer.paragraph(p.clone());
        }
        let registry = FormatRegistry::with_builtins();
        let extracted = registry.extract("doc.wpx", writer.finish().as_bytes());
        prop_assert_eq!(extracted.format, DocumentFormat::Wpx);
        prop_assert!(!extracted.text_str().contains('<'));
        prop_assert!(extracted.text_str().contains(title.trim()));
        for p in &paragraphs {
            prop_assert!(
                extracted.text_str().contains(p.trim()),
                "paragraph {:?} missing from {:?}", p, extracted.text_str()
            );
        }
    }

    /// Identifier splitting produces fragments of the original identifier
    /// only (never invents characters).
    #[test]
    fn identifier_splitting_uses_original_characters(ident in "[A-Za-z_]{1,24}") {
        let words = dsearch_formats::source::split_identifier(&ident);
        let lower = ident.to_lowercase();
        for word in words {
            prop_assert!(lower.contains(&word.to_lowercase()));
        }
    }
}
