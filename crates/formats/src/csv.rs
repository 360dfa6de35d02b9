//! CSV / TSV text extraction.
//!
//! Spreadsheet-style exports are a large share of real desktop corpora.  The
//! extractor unwraps quoted fields (including escaped quotes), replaces field
//! separators with spaces so cell contents stay separate terms, and keeps the
//! header row — column names are things users search for.

/// Extracts the searchable text of a CSV document.
///
/// `separator` is usually `,` but `\t` handles TSV files; a byte that is not
/// ASCII separates nothing, since it is only ever part of a character.
///
/// # Example
///
/// ```
/// use dsearch_formats::csv::extract_text;
///
/// let csv = "name,note\nreport,\"quarterly, final\"\n";
/// let text = extract_text(csv, b',');
/// assert!(text.contains("quarterly, final"));
/// assert!(text.contains("report"));
/// ```
#[must_use]
pub fn extract_text(csv: &str, separator: u8) -> String {
    let mut out = String::with_capacity(csv.len());
    let mut in_quotes = false;
    let bytes = csv.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'"' => {
                if in_quotes && i + 1 < bytes.len() && bytes[i + 1] == b'"' {
                    // Escaped quote inside a quoted field.
                    out.push('"');
                    i += 2;
                    continue;
                }
                in_quotes = !in_quotes;
                i += 1;
            }
            _ if b == separator && b.is_ascii() && !in_quotes => {
                out.push(' ');
                i += 1;
            }
            b'\r' => {
                i += 1;
            }
            _ => {
                let c = csv[i..].chars().next().expect("i is on a character boundary");
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
    out
}

/// Extracts text from a CSV document, guessing the separator.
///
/// Tab-separated files are recognised by a tab in the first line; everything
/// else is treated as comma-separated.
#[must_use]
pub fn extract_text_auto(csv: &str) -> String {
    let first_line = csv.lines().next().unwrap_or("");
    let separator = if first_line.contains('\t') { b'\t' } else { b',' };
    extract_text(csv, separator)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separators_become_spaces() {
        let text = extract_text("a,b,c\n1,2,3\n", b',');
        assert_eq!(text, "a b c\n1 2 3\n");
        // 0xA9 is the second byte of "é": it splits no character.
        assert_eq!(extract_text("café,x", 0xA9), "café,x");
    }

    #[test]
    fn quoted_fields_are_unwrapped() {
        let text = extract_text("id,comment\n1,\"hello, world\"\n", b',');
        assert!(text.contains("hello, world"));
        assert!(!text.contains('"'));
    }

    #[test]
    fn escaped_quotes_are_preserved() {
        let text = extract_text("say,\"he said \"\"hi\"\" loudly\"\n", b',');
        assert!(text.contains("he said \"hi\" loudly"));
    }

    #[test]
    fn newlines_inside_quotes_are_kept() {
        let text = extract_text("note\n\"line one\nline two\"\n", b',');
        assert!(text.contains("line one\nline two"));
    }

    #[test]
    fn carriage_returns_are_dropped() {
        let text = extract_text("a,b\r\nc,d\r\n", b',');
        assert_eq!(text, "a b\nc d\n");
    }

    #[test]
    fn auto_detects_tsv() {
        let text = extract_text_auto("col1\tcol2\nval1\tval2\n");
        assert_eq!(text, "col1 col2\nval1 val2\n");
        // Commas in a TSV stay literal.
        let text = extract_text_auto("a\tb,c\n");
        assert_eq!(text, "a b,c\n");
    }

    #[test]
    fn auto_defaults_to_comma() {
        assert_eq!(extract_text_auto("a,b\n"), "a b\n");
        assert_eq!(extract_text_auto(""), "");
    }
}
