//! File-format handling for the `dsearch` index generator.
//!
//! The paper deliberately restricted its benchmark to plain ASCII text
//! ("handling complex word processor formats directly in the term extractor
//! would have been too distracting at the time, even though it would be an
//! interesting extension now") and lists *more file formats* as future work.
//! This crate is that extension: it detects a file's format and converts the
//! raw bytes into the plain text the tokenizer scans, so the three-stage
//! pipeline stays exactly as the paper describes while the term extractor
//! becomes format-aware.
//!
//! Supported formats:
//!
//! * [`DocumentFormat::PlainText`] — passed through unchanged;
//! * [`DocumentFormat::Markdown`] — heading/emphasis/link syntax stripped,
//!   link and image text kept;
//! * [`DocumentFormat::Html`] — tags removed, `<script>`/`<style>` bodies
//!   dropped, character entities decoded;
//! * [`DocumentFormat::Csv`] — quoted fields unwrapped, separators replaced by
//!   spaces;
//! * [`DocumentFormat::Wpx`] — a small tagged word-processor container (the
//!   stand-in for the proprietary formats the paper's corpus was converted
//!   from); body text kept, style runs and embedded metadata dropped;
//! * [`DocumentFormat::SourceCode`] — comments and string literals kept,
//!   `camelCase` / `snake_case` identifiers split into their component words;
//! * [`DocumentFormat::Binary`] — skipped entirely (no terms).
//!
//! A file's bytes reach the extractors as UTF-8, or as Latin-1 when they are
//! not valid UTF-8 ([`dsearch_text::utf8_or_latin1`]).  The extracted text
//! keeps every character; folding accented letters is the tokenizer's one
//! rule, the same with and without this crate.
//!
//! # Example
//!
//! ```
//! use dsearch_formats::{DocumentFormat, FormatRegistry};
//!
//! let registry = FormatRegistry::with_builtins();
//! let html = b"<html><body><h1>Quarterly report</h1><p>Revenue &amp; costs</p></body></html>";
//! let extracted = registry.extract("report.html", html);
//! assert_eq!(extracted.format, DocumentFormat::Html);
//! let text = extracted.text_str();
//! assert!(text.contains("Quarterly report"));
//! assert!(text.contains("Revenue & costs"));
//! assert!(!text.contains("<h1>"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod detect;
pub mod format;
pub mod html;
pub mod markdown;
pub mod registry;
pub mod source;
pub mod wpx;

pub use detect::{detect_format, sniff_content, FormatHint};
pub use format::DocumentFormat;
pub use registry::{ExtractedText, FormatRegistry, TextExtractor};
pub use wpx::{WpxDocument, WpxWriter};
