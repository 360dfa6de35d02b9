//! Markdown text extraction.
//!
//! Strips the structural syntax (heading markers, emphasis, list bullets,
//! block quotes, code fences, tables) while keeping the prose, the link text
//! and the contents of inline and fenced code — code in documentation is
//! something people search for.

/// Extracts the searchable text of a Markdown document.
///
/// # Example
///
/// ```
/// use dsearch_formats::markdown::extract_text;
///
/// let md = "# Heading\n\nSome *emphasised* text with a [link](https://example.com).\n";
/// let text = extract_text(md);
/// assert!(text.contains("Heading"));
/// assert!(text.contains("emphasised"));
/// assert!(text.contains("link"));
/// assert!(!text.contains("https://example.com"));
/// ```
#[must_use]
pub fn extract_text(markdown: &str) -> String {
    let mut out = String::with_capacity(markdown.len());
    let mut in_code_fence = false;
    for line in markdown.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_code_fence = !in_code_fence;
            // The info string ("```rust") names a language worth indexing.
            let info = trimmed.trim_start_matches(['`', '~']).trim();
            if !info.is_empty() {
                out.push_str(info);
                out.push('\n');
            }
            continue;
        }
        if in_code_fence {
            // Keep fenced code verbatim; identifiers in examples are useful terms.
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let stripped = strip_line(trimmed);
        out.push_str(&stripped);
        out.push('\n');
    }
    out
}

/// Strips inline Markdown syntax from one line.
fn strip_line(line: &str) -> String {
    // Leading block syntax: headings, quotes, list bullets, numbered lists.
    let mut rest = line;
    rest = rest.trim_start_matches('#').trim_start();
    rest = rest.trim_start_matches('>').trim_start();
    if let Some(r) = rest
        .strip_prefix("- ")
        .or_else(|| rest.strip_prefix("* "))
        .or_else(|| rest.strip_prefix("+ "))
    {
        rest = r;
    } else {
        // Numbered list: "12. item".
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 {
            if let Some(r) = rest[digits..].strip_prefix(". ") {
                rest = r;
            }
        }
    }
    // Table rows and horizontal rules.
    if rest.chars().all(|c| matches!(c, '-' | '=' | '|' | ':' | ' ' | '*' | '_')) {
        return String::new();
    }

    let mut out = String::with_capacity(rest.len());
    let bytes = rest.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            // Emphasis / inline-code markers are dropped, their content kept.
            b'*' | b'`' | b'|' => i += 1,
            // Underscore emphasis only counts at word boundaries; an interior
            // underscore (`inline_code`) is part of an identifier and kept.
            b'_' => {
                let at_start = i == 0 || bytes[i - 1].is_ascii_whitespace();
                let at_end = i + 1 >= bytes.len() || bytes[i + 1].is_ascii_whitespace();
                if !(at_start || at_end) {
                    out.push('_');
                }
                i += 1;
            }
            b'!' if rest[i..].starts_with("![") => i += 1,
            b'[' => {
                // [text](url) — keep text, drop url.
                if let Some(close) = rest[i..].find(']') {
                    out.push_str(&rest[i + 1..i + close]);
                    i += close + 1;
                    if rest[i..].starts_with('(') {
                        if let Some(end) = rest[i..].find(')') {
                            i += end + 1;
                        } else {
                            i = bytes.len();
                        }
                    }
                } else {
                    out.push('[');
                    i += 1;
                }
            }
            _ => {
                let c = rest[i..].chars().next().expect("i is on a character boundary");
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headings_keep_their_text() {
        let text = extract_text("# Top level\n## Second level\nbody\n");
        assert!(text.contains("Top level"));
        assert!(text.contains("Second level"));
        assert!(!text.contains('#'));
    }

    #[test]
    fn emphasis_and_inline_code_markers_are_removed() {
        let text = extract_text("Some *bold* and _italic_ and `inline_code` here\n");
        assert!(text.contains("bold"));
        assert!(text.contains("italic"));
        assert!(text.contains("inline_code"));
        assert!(!text.contains('*'));
        assert!(!text.contains('`'));
    }

    #[test]
    fn links_keep_text_and_drop_urls() {
        let text = extract_text("See [the docs](https://docs.example.com/page) for details\n");
        assert!(text.contains("the docs"));
        assert!(text.contains("details"));
        assert!(!text.contains("https"));
    }

    #[test]
    fn images_keep_alt_text() {
        let text = extract_text("![speedup chart](img/speedup.png)\n");
        assert!(text.contains("speedup chart"));
        assert!(!text.contains("img/speedup.png"));
    }

    #[test]
    fn list_bullets_and_numbers_are_stripped() {
        let text = extract_text("- first item\n* second item\n+ third item\n12. twelfth item\n");
        for needle in ["first item", "second item", "third item", "twelfth item"] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert!(!text.contains("12."));
    }

    #[test]
    fn fenced_code_content_is_kept_language_included() {
        let md = "```rust\nfn index_generator() {}\n```\nprose\n";
        let text = extract_text(md);
        assert!(text.contains("rust"));
        assert!(text.contains("index_generator"));
        assert!(text.contains("prose"));
        assert!(!text.contains("```"));
    }

    #[test]
    fn tables_and_rules_do_not_leave_markup() {
        let md = "| col a | col b |\n|---|---|\n| one | two |\n\n---\n";
        let text = extract_text(md);
        assert!(text.contains("col a"));
        assert!(text.contains("one"));
        assert!(!text.contains('|'));
        assert!(!text.contains("---"));
    }

    #[test]
    fn block_quotes_keep_content() {
        let text = extract_text("> quoted wisdom\n");
        assert!(text.contains("quoted wisdom"));
        assert!(!text.contains('>'));
    }

    #[test]
    fn unclosed_link_bracket_is_kept_literally() {
        let text = extract_text("array[index out of range\n");
        assert!(text.contains("array[index out of range"));
    }
}
