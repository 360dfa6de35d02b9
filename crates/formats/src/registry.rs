//! The format registry: one entry point mapping raw file bytes to plain text.
//!
//! [`FormatRegistry::extract`] is what a format-aware term extractor calls per
//! file: it detects the format, reads the bytes as text, runs the matching
//! [`TextExtractor`] and returns an [`ExtractedText`] ready for the
//! tokenizer.  Custom extractors can be registered to override or extend
//! the built-ins.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use dsearch_text::utf8_or_latin1;

use crate::detect::{detect_format, FormatHint};
use crate::format::DocumentFormat;
use crate::{csv, html, markdown, source, wpx};

/// Converts one document format's raw text into plain searchable text.
pub trait TextExtractor: Send + Sync {
    /// Extracts plain text from the (already character-decoded) document.
    fn extract(&self, text: &str) -> String;

    /// A short name for diagnostics.
    fn name(&self) -> &'static str {
        "custom"
    }
}

impl<F> TextExtractor for F
where
    F: Fn(&str) -> String + Send + Sync,
{
    fn extract(&self, text: &str) -> String {
        self(text)
    }
}

/// The result of extracting one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedText {
    /// Detected document format.
    pub format: DocumentFormat,
    /// Which signal (extension / content / default) decided the format.
    pub hint: FormatHint,
    /// The plain text to tokenize (empty for binary files).
    pub text: String,
}

impl ExtractedText {
    /// The extracted text as a string slice.
    #[must_use]
    pub fn text_str(&self) -> &str {
        &self.text
    }

    /// The extracted text as bytes (UTF-8), ready for the tokenizer.
    #[must_use]
    pub fn text_bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    /// Whether any text was produced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

struct PassThrough;

impl TextExtractor for PassThrough {
    fn extract(&self, text: &str) -> String {
        text.to_owned()
    }

    fn name(&self) -> &'static str {
        "plain-text"
    }
}

struct HtmlExtractor;

impl TextExtractor for HtmlExtractor {
    fn extract(&self, text: &str) -> String {
        html::extract_text(text)
    }

    fn name(&self) -> &'static str {
        "html"
    }
}

struct MarkdownExtractor;

impl TextExtractor for MarkdownExtractor {
    fn extract(&self, text: &str) -> String {
        markdown::extract_text(text)
    }

    fn name(&self) -> &'static str {
        "markdown"
    }
}

struct CsvExtractor;

impl TextExtractor for CsvExtractor {
    fn extract(&self, text: &str) -> String {
        csv::extract_text_auto(text)
    }

    fn name(&self) -> &'static str {
        "csv"
    }
}

struct WpxExtractor;

impl TextExtractor for WpxExtractor {
    fn extract(&self, text: &str) -> String {
        // The WPX container escapes &, < and > in text content; undo that so
        // the index sees what the author typed.
        wpx::extract_text(text).replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
    }

    fn name(&self) -> &'static str {
        "wpx"
    }
}

struct SourceExtractor;

impl TextExtractor for SourceExtractor {
    fn extract(&self, text: &str) -> String {
        source::extract_text(text)
    }

    fn name(&self) -> &'static str {
        "source-code"
    }
}

/// Maps document formats to text extractors.
#[derive(Clone)]
pub struct FormatRegistry {
    extractors: HashMap<DocumentFormat, Arc<dyn TextExtractor>>,
}

impl fmt::Debug for FormatRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<(String, &'static str)> =
            self.extractors.iter().map(|(format, ex)| (format.to_string(), ex.name())).collect();
        names.sort();
        f.debug_struct("FormatRegistry").field("extractors", &names).finish()
    }
}

impl FormatRegistry {
    /// Creates an empty registry (every format falls back to pass-through).
    #[must_use]
    pub fn new() -> Self {
        FormatRegistry { extractors: HashMap::new() }
    }

    /// Creates a registry with all built-in extractors registered.
    #[must_use]
    pub fn with_builtins() -> Self {
        let mut registry = FormatRegistry::new();
        registry.register(DocumentFormat::PlainText, Arc::new(PassThrough));
        registry.register(DocumentFormat::Html, Arc::new(HtmlExtractor));
        registry.register(DocumentFormat::Markdown, Arc::new(MarkdownExtractor));
        registry.register(DocumentFormat::Csv, Arc::new(CsvExtractor));
        registry.register(DocumentFormat::Wpx, Arc::new(WpxExtractor));
        registry.register(DocumentFormat::SourceCode, Arc::new(SourceExtractor));
        registry
    }

    /// Registers (or replaces) the extractor for a format.
    pub fn register(&mut self, format: DocumentFormat, extractor: Arc<dyn TextExtractor>) {
        self.extractors.insert(format, extractor);
    }

    /// Number of registered extractors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.extractors.len()
    }

    /// Returns `true` when no extractor is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.extractors.is_empty()
    }

    /// Returns `true` when a dedicated extractor is registered for `format`.
    #[must_use]
    pub fn supports(&self, format: DocumentFormat) -> bool {
        self.extractors.contains_key(&format)
    }

    /// Detects the format of `bytes` (using `path` as a hint) and extracts
    /// its plain text.
    ///
    /// Binary files produce an empty text; unknown formats fall back to
    /// pass-through plain text.
    #[must_use]
    pub fn extract(&self, path: &str, bytes: &[u8]) -> ExtractedText {
        let (format, hint) = detect_format(path, bytes);
        self.extract_as(format, hint, bytes)
    }

    /// Extracts text assuming a known format (skips detection).
    #[must_use]
    pub fn extract_as(
        &self,
        format: DocumentFormat,
        hint: FormatHint,
        bytes: &[u8],
    ) -> ExtractedText {
        if format == DocumentFormat::Binary {
            return ExtractedText { format, hint, text: String::new() };
        }
        let decoded = utf8_or_latin1(bytes);
        let text = match self.extractors.get(&format) {
            Some(extractor) => extractor.extract(&decoded),
            None => decoded.into_owned(),
        };
        ExtractedText { format, hint, text }
    }
}

impl Default for FormatRegistry {
    fn default() -> Self {
        FormatRegistry::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_all_indexable_formats() {
        let registry = FormatRegistry::with_builtins();
        for format in DocumentFormat::ALL {
            if format.is_indexable() {
                assert!(registry.supports(format), "missing extractor for {format}");
            }
        }
        assert!(!registry.supports(DocumentFormat::Binary));
        assert_eq!(registry.len(), 6);
        assert!(!registry.is_empty());
    }

    #[test]
    fn binary_files_produce_no_text() {
        let registry = FormatRegistry::with_builtins();
        let extracted = registry.extract("archive.zip", &[0u8, 1, 2, 3]);
        assert_eq!(extracted.format, DocumentFormat::Binary);
        assert!(extracted.is_empty());
    }

    #[test]
    fn html_extraction_end_to_end() {
        let registry = FormatRegistry::with_builtins();
        let extracted = registry
            .extract("page.html", b"<html><body><p>caf\xc3\xa9 &amp; bar</p></body></html>");
        assert_eq!(extracted.format, DocumentFormat::Html);
        assert!(extracted.text_str().contains("caf\u{e9} & bar"));
        // Not UTF-8: the same page in Latin-1 extracts the same text.
        let latin1 = registry.extract("page.html", b"<p>caf\xe9 &amp; bar</p>");
        assert_eq!(latin1.text_str().trim(), "caf\u{e9} & bar");
    }

    #[test]
    fn wpx_entities_are_decoded() {
        let registry = FormatRegistry::with_builtins();
        let wpx = crate::wpx::WpxWriter::new("R&D plan").paragraph("profit &  loss").finish();
        let extracted = registry.extract("plan.wpx", wpx.as_bytes());
        assert_eq!(extracted.format, DocumentFormat::Wpx);
        assert!(extracted.text_str().contains("R&D plan"));
    }

    #[test]
    fn unknown_format_without_registration_passes_through() {
        let registry = FormatRegistry::new();
        let extracted = registry.extract("notes.txt", b"plain words");
        assert_eq!(extracted.format, DocumentFormat::PlainText);
        assert_eq!(extracted.text_str(), "plain words");
    }

    #[test]
    fn custom_extractor_overrides_builtin() {
        let mut registry = FormatRegistry::with_builtins();
        registry.register(DocumentFormat::Markdown, Arc::new(|_: &str| "overridden".to_owned()));
        let extracted = registry.extract("x.md", b"# heading");
        assert_eq!(extracted.text_str(), "overridden");
    }

    #[test]
    fn extract_as_skips_detection() {
        let registry = FormatRegistry::with_builtins();
        let extracted =
            registry.extract_as(DocumentFormat::Csv, FormatHint::Extension, b"a,b\n1,2\n");
        assert_eq!(extracted.text_str(), "a b\n1 2\n");
    }

    #[test]
    fn text_bytes_matches_text_str() {
        let registry = FormatRegistry::with_builtins();
        let extracted = registry.extract("a.txt", b"hello");
        assert_eq!(extracted.text_bytes(), extracted.text_str().as_bytes());
    }

    #[test]
    fn debug_output_lists_extractors() {
        let registry = FormatRegistry::with_builtins();
        let debug = format!("{registry:?}");
        assert!(debug.contains("html"));
        assert!(debug.contains("wpx"));
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FormatRegistry>();
    }
}
