//! HTML / XML text extraction.
//!
//! A single-pass tag stripper: element markup is removed, the bodies of
//! `<script>` and `<style>` elements are dropped entirely, comments are
//! skipped and the common character entities are decoded.  The goal is not a
//! conforming HTML parser but the text a desktop-search user would expect to
//! find terms from — exactly the trade-off real desktop indexers make.

/// The HTML 4 names of the Latin-1 characters U+00A0 to U+00FF, in code
/// point order: `&eacute;` is `é`, which the scanner reads as `e`.
const LATIN1: [&str; 96] = [
    "nbsp", "iexcl", "cent", "pound", "curren", "yen", "brvbar", "sect", "uml", "copy", "ordf",
    "laquo", "not", "shy", "reg", "macr", "deg", "plusmn", "sup2", "sup3", "acute", "micro",
    "para", "middot", "cedil", "sup1", "ordm", "raquo", "frac14", "frac12", "frac34", "iquest",
    "Agrave", "Aacute", "Acirc", "Atilde", "Auml", "Aring", "AElig", "Ccedil", "Egrave", "Eacute",
    "Ecirc", "Euml", "Igrave", "Iacute", "Icirc", "Iuml", "ETH", "Ntilde", "Ograve", "Oacute",
    "Ocirc", "Otilde", "Ouml", "times", "Oslash", "Ugrave", "Uacute", "Ucirc", "Uuml", "Yacute",
    "THORN", "szlig", "agrave", "aacute", "acirc", "atilde", "auml", "aring", "aelig", "ccedil",
    "egrave", "eacute", "ecirc", "euml", "igrave", "iacute", "icirc", "iuml", "eth", "ntilde",
    "ograve", "oacute", "ocirc", "otilde", "ouml", "divide", "oslash", "ugrave", "uacute", "ucirc",
    "uuml", "yacute", "thorn", "yuml",
];

/// Decodes a character entity body (the part between `&` and `;`).
fn decode_entity(entity: &str) -> Option<String> {
    let named = match entity {
        "amp" => "&",
        "lt" => "<",
        "gt" => ">",
        "quot" => "\"",
        "apos" => "'",
        "nbsp" => " ",
        "mdash" | "ndash" => "-",
        "hellip" => "...",
        _ => "",
    };
    if !named.is_empty() {
        return Some(named.to_owned());
    }
    if let Some(at) = LATIN1.iter().position(|&name| name == entity) {
        return char::from_u32(0xa0 + at as u32).map(|c| c.to_string());
    }
    if let Some(num) = entity.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            num.parse::<u32>().ok()?
        };
        return char::from_u32(code).map(|c| c.to_string());
    }
    None
}

/// Extracts the visible text of an HTML or XML document.
///
/// # Example
///
/// ```
/// use dsearch_formats::html::extract_text;
///
/// let html = "<p>Tom &amp; Jerry<script>var x = 1;</script></p>";
/// assert_eq!(extract_text(html).trim(), "Tom & Jerry");
/// ```
#[must_use]
pub fn extract_text(html: &str) -> String {
    let mut out = String::with_capacity(html.len() / 2);
    let bytes = html.as_bytes();
    let mut i = 0usize;
    let mut skip_until_close: Option<&'static str> = None;

    while i < bytes.len() {
        let rest = &html[i..];
        if let Some(close_tag) = skip_until_close {
            // Inside <script> or <style>: drop everything until its close tag.
            if let Some(pos) = rest.to_ascii_lowercase().find(close_tag) {
                i += pos + close_tag.len();
                skip_until_close = None;
            } else {
                break;
            }
            continue;
        }
        match bytes[i] {
            b'<' => {
                if rest.starts_with("<!--") {
                    match rest.find("-->") {
                        Some(pos) => i += pos + 3,
                        None => break,
                    }
                    continue;
                }
                let lower = rest.to_ascii_lowercase();
                if lower.starts_with("<script") {
                    skip_until_close = Some("</script>");
                } else if lower.starts_with("<style") {
                    skip_until_close = Some("</style>");
                }
                match rest.find('>') {
                    Some(pos) => {
                        // Block-level markup should not glue adjacent words.
                        out.push(' ');
                        i += pos + 1;
                    }
                    None => break,
                }
            }
            b'&' => {
                if let Some(end) = rest[1..].find(';') {
                    if end <= 10 {
                        if let Some(decoded) = decode_entity(&rest[1..=end]) {
                            out.push_str(&decoded);
                            i += end + 2;
                            continue;
                        }
                    }
                }
                out.push('&');
                i += 1;
            }
            _ => {
                let c = rest.chars().next().expect("i is on a character boundary");
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
    fn tags_are_stripped_and_text_kept() {
        let html = "<html><body><h1>Title</h1><p>Body <b>bold</b> text.</p></body></html>";
        let text = extract_text(html);
        for word in ["Title", "Body", "bold", "text"] {
            assert!(text.contains(word), "missing {word} in {text:?}");
        }
        assert!(!text.contains('<'));
    }

    #[test]
    fn adjacent_elements_do_not_merge_words() {
        let text = extract_text("<td>alpha</td><td>beta</td>");
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(!text.contains("alphabeta"));
    }

    #[test]
    fn script_and_style_bodies_are_dropped() {
        let html = "before<script type=\"text/javascript\">var secret = 42;</script>\
                    <style>.cls { color: red; }</style>after";
        let text = extract_text(html);
        assert!(text.contains("before"));
        assert!(text.contains("after"));
        assert!(!text.contains("secret"));
        assert!(!text.contains("color"));
    }

    #[test]
    fn script_close_tag_case_insensitive() {
        let text = extract_text("a<SCRIPT>hidden()</ScRiPt>b");
        assert!(text.contains('a') && text.contains('b'));
        assert!(!text.contains("hidden"));
    }

    #[test]
    fn comments_are_skipped() {
        let text = extract_text("keep <!-- drop this completely --> this");
        assert!(text.contains("keep"));
        assert!(text.contains("this"));
        assert!(!text.contains("drop"));
    }

    #[test]
    fn entities_are_decoded() {
        assert_eq!(extract_text("a &amp; b").trim(), "a & b");
        assert_eq!(extract_text("x &lt; y &gt; z").trim(), "x < y > z");
        assert_eq!(extract_text("&quot;quoted&quot;").trim(), "\"quoted\"");
        assert_eq!(extract_text("caf&#233;").trim(), "café");
        assert_eq!(extract_text("caf&#xE9;").trim(), "café");
        // The HTML 4 Latin-1 names, U+00A0 to U+00FF, case-sensitive.
        assert_eq!(extract_text("caf&eacute; na&iuml;ve").trim(), "café naïve");
        assert_eq!(extract_text("&Eacute;t&eacute; &ccedil;a &yuml;").trim(), "Été ça ÿ");
        assert_eq!(extract_text("&iexcl;&szlig;&AElig;&thorn;").trim(), "¡ßÆþ");
        assert_eq!(extract_text("a&nbsp;b").trim(), "a b");
        assert_eq!(extract_text("&EACUTE;").trim(), "&EACUTE;");
        for (at, name) in LATIN1.iter().enumerate() {
            let decoded = decode_entity(name).unwrap();
            assert_eq!(decoded.chars().count(), 1, "{name}");
            assert!(
                *name == "nbsp" || decoded == char::from_u32(0xa0 + at as u32).unwrap().to_string()
            );
        }
    }

    #[test]
    fn malformed_entities_are_left_alone() {
        assert_eq!(extract_text("AT&T works").trim(), "AT&T works");
        assert_eq!(extract_text("&notarealentityname;x").trim(), "&notarealentityname;x");
        assert_eq!(extract_text("dangling &").trim(), "dangling &");
    }

    #[test]
    fn unterminated_tag_or_script_truncates_gracefully() {
        assert_eq!(extract_text("text <unterminated").trim(), "text");
        assert_eq!(extract_text("text <script>never closed").trim(), "text");
        assert_eq!(extract_text("text <!-- never closed").trim(), "text");
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert_eq!(extract_text(""), "");
    }
}
