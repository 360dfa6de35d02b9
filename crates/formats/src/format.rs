//! The set of document formats the extractor understands.

use serde::{Deserialize, Serialize};

/// A document format recognised by the format-aware term extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DocumentFormat {
    /// Plain ASCII / UTF-8 text (the paper's benchmark format).
    #[default]
    PlainText,
    /// Markdown markup.
    Markdown,
    /// HTML or XHTML markup.
    Html,
    /// Comma-separated values.
    Csv,
    /// The `dsearch` word-processor container format (a stand-in for the
    /// proprietary word-processor documents the paper's corpus was converted
    /// from).
    Wpx,
    /// Program source code (identifiers are split into their component words).
    SourceCode,
    /// Binary data; no text is extracted.
    Binary,
}

impl DocumentFormat {
    /// Every recognised format, in a stable order.
    pub const ALL: [DocumentFormat; 7] = [
        DocumentFormat::PlainText,
        DocumentFormat::Markdown,
        DocumentFormat::Html,
        DocumentFormat::Csv,
        DocumentFormat::Wpx,
        DocumentFormat::SourceCode,
        DocumentFormat::Binary,
    ];

    /// Maps a file extension (lowercase, without the dot) to a format.
    ///
    /// Returns `None` for extensions this crate has no special handling for;
    /// callers usually fall back to content sniffing and finally to
    /// [`DocumentFormat::PlainText`].
    #[must_use]
    pub fn from_extension(ext: &str) -> Option<DocumentFormat> {
        let format = match ext {
            "txt" | "text" | "log" | "readme" => DocumentFormat::PlainText,
            "md" | "markdown" | "mdown" => DocumentFormat::Markdown,
            "html" | "htm" | "xhtml" | "xml" => DocumentFormat::Html,
            "csv" | "tsv" => DocumentFormat::Csv,
            "wpx" => DocumentFormat::Wpx,
            "rs" | "c" | "h" | "cpp" | "hpp" | "cc" | "java" | "cs" | "py" | "js" | "ts" | "go"
            | "rb" | "sh" => DocumentFormat::SourceCode,
            "bin" | "exe" | "dll" | "so" | "o" | "a" | "png" | "jpg" | "jpeg" | "gif" | "zip"
            | "gz" | "pdf" => DocumentFormat::Binary,
            _ => return None,
        };
        Some(format)
    }

    /// Whether any text at all can be extracted from the format.
    #[must_use]
    pub fn is_indexable(self) -> bool {
        !matches!(self, DocumentFormat::Binary)
    }

    /// Whether the format needs a conversion pass before tokenisation
    /// (everything except plain text and binary).
    #[must_use]
    pub fn needs_extraction(self) -> bool {
        !matches!(self, DocumentFormat::PlainText | DocumentFormat::Binary)
    }
}

impl std::fmt::Display for DocumentFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DocumentFormat::PlainText => "plain text",
            DocumentFormat::Markdown => "markdown",
            DocumentFormat::Html => "html",
            DocumentFormat::Csv => "csv",
            DocumentFormat::Wpx => "wpx",
            DocumentFormat::SourceCode => "source code",
            DocumentFormat::Binary => "binary",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_round_trips_for_canonical_extensions() {
        let canonical = [
            ("txt", DocumentFormat::PlainText),
            ("md", DocumentFormat::Markdown),
            ("html", DocumentFormat::Html),
            ("csv", DocumentFormat::Csv),
            ("wpx", DocumentFormat::Wpx),
            ("rs", DocumentFormat::SourceCode),
            ("bin", DocumentFormat::Binary),
        ];
        for format in DocumentFormat::ALL {
            let (ext, _) = canonical.iter().find(|(_, f)| *f == format).unwrap();
            assert_eq!(DocumentFormat::from_extension(ext), Some(format), "{ext}");
        }
    }

    #[test]
    fn common_aliases_are_recognised() {
        assert_eq!(DocumentFormat::from_extension("htm"), Some(DocumentFormat::Html));
        assert_eq!(DocumentFormat::from_extension("markdown"), Some(DocumentFormat::Markdown));
        assert_eq!(DocumentFormat::from_extension("tsv"), Some(DocumentFormat::Csv));
        assert_eq!(DocumentFormat::from_extension("cpp"), Some(DocumentFormat::SourceCode));
        assert_eq!(DocumentFormat::from_extension("pdf"), Some(DocumentFormat::Binary));
        assert_eq!(DocumentFormat::from_extension("docx"), None);
    }

    #[test]
    fn indexability_and_extraction_flags() {
        assert!(DocumentFormat::PlainText.is_indexable());
        assert!(!DocumentFormat::PlainText.needs_extraction());
        assert!(DocumentFormat::Html.needs_extraction());
        assert!(!DocumentFormat::Binary.is_indexable());
        assert!(!DocumentFormat::Binary.needs_extraction());
    }

    #[test]
    fn display_names_are_lowercase() {
        for format in DocumentFormat::ALL {
            let name = format.to_string();
            assert_eq!(name, name.to_lowercase());
            assert!(!name.is_empty());
        }
    }

    #[test]
    fn serde_round_trip() {
        for format in DocumentFormat::ALL {
            let json = serde_json::to_string(&format).unwrap();
            let back: DocumentFormat = serde_json::from_str(&json).unwrap();
            assert_eq!(back, format);
        }
    }
}
