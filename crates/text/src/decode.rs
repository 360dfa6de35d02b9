//! How bytes read as letters: the one rule the scanner applies to a
//! buffer's non-ASCII bytes, shared with the format extractors.
//!
//! A buffer reads as UTF-8 when all of it is valid UTF-8, else as Latin-1
//! ([`utf8_or_latin1`]).  An accented Latin letter then folds to its ASCII
//! spelling by one table ([`fold`]), and any other character separates
//! terms.

use std::borrow::Cow;

/// The one folding table: the lower-case ASCII spelling of an accented
/// Latin letter (the Latin-1 Supplement's letters and the common Latin
/// Extended-A ones; `ß`, `æ`, `œ` and `þ` spell out as two letters), or
/// `None` for any other character, which then separates terms.
#[must_use]
pub fn fold(c: char) -> Option<&'static str> {
    let folded = match c {
        'à' | 'á' | 'â' | 'ã' | 'ä' | 'å' | 'ā' | 'ă' | 'À' | 'Á' | 'Â' | 'Ã' | 'Ä' | 'Å' | 'Ā'
        | 'Ă' => "a",
        'è' | 'é' | 'ê' | 'ë' | 'ē' | 'ĕ' | 'ė' | 'ę' | 'È' | 'É' | 'Ê' | 'Ë' | 'Ē' | 'Ĕ' | 'Ė'
        | 'Ę' => "e",
        'ì' | 'í' | 'î' | 'ï' | 'ī' | 'Ì' | 'Í' | 'Î' | 'Ï' | 'Ī' => "i",
        'ò' | 'ó' | 'ô' | 'õ' | 'ö' | 'ø' | 'ō' | 'Ò' | 'Ó' | 'Ô' | 'Õ' | 'Ö' | 'Ø' | 'Ō' => {
            "o"
        }
        'ù' | 'ú' | 'û' | 'ü' | 'ū' | 'Ù' | 'Ú' | 'Û' | 'Ü' | 'Ū' => "u",
        'ý' | 'ÿ' | 'Ý' | 'Ÿ' => "y",
        'ñ' | 'ń' | 'Ñ' | 'Ń' => "n",
        'ç' | 'ć' | 'č' | 'Ç' | 'Ć' | 'Č' => "c",
        'š' | 'ś' | 'Š' | 'Ś' => "s",
        'ž' | 'ź' | 'ż' | 'Ž' | 'Ź' | 'Ż' => "z",
        'ð' | 'đ' | 'Ð' | 'Đ' => "d",
        'ł' | 'Ł' => "l",
        'ß' => "ss",
        'æ' | 'Æ' => "ae",
        'œ' | 'Œ' => "oe",
        'þ' | 'Þ' => "th",
        _ => return None,
    };
    Some(folded)
}

/// Reads a byte buffer as the scanner does: as UTF-8 when all of it is
/// valid UTF-8 (borrowed), else as Latin-1, each byte the character of that
/// code point.
#[must_use]
pub fn utf8_or_latin1(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => Cow::Owned(bytes.iter().map(|&b| char::from(b)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{Term, Tokenizer};

    fn words(text: &[u8]) -> Vec<String> {
        Tokenizer::default().terms(text).map(Term::into_string).collect()
    }

    #[test]
    fn ascii_passes_through_unchanged() {
        assert_eq!(words(b"plain ascii text 123"), ["plain", "ascii", "text", "123"]);
        assert!(matches!(utf8_or_latin1(b"plain"), Cow::Borrowed("plain")));
    }

    #[test]
    fn utf8_accents_are_transliterated() {
        assert_eq!(words("résumé naïve São Paulo".as_bytes()), ["resume", "naive", "sao", "paulo"]);
        assert_eq!(words("ÉCOLE École école".as_bytes()), ["ecole", "ecole", "ecole"]);
    }

    #[test]
    fn latin1_bytes_are_transliterated() {
        // "Müller" in ISO-8859-1: 0xFC is ü.
        let latin1 = [b'M', 0xFC, b'l', b'l', b'e', b'r'];
        assert_eq!(words(&latin1), ["muller"]);
        assert_eq!(utf8_or_latin1(&latin1), "Müller");
        // One stray byte anywhere makes the whole buffer Latin-1: the UTF-8
        // "é" (0xC3 0xA9) before it then reads as "Ã©", a letter and a
        // separator.
        assert_eq!(words(b"caf\xC3\xA9 \xFC"), ["cafa", "u"]);
    }

    #[test]
    fn ligatures_expand_to_multiple_letters() {
        assert_eq!(
            words("straße cœur Æsir þing".as_bytes()),
            ["strasse", "coeur", "aesir", "thing"]
        );
    }

    #[test]
    fn unmapped_characters_become_spaces() {
        assert_eq!(words("data → index 漢字".as_bytes()), ["data", "index"]);
        let (_, stats) = Tokenizer::default().tokenize("→ 漢字 ×".as_bytes());
        assert_eq!(stats.terms_emitted, 0);
    }

    #[test]
    fn term_boundaries_are_preserved_for_tokenisation() {
        // An unmapped character must never glue two words together.
        assert_eq!(words("alpha→beta".as_bytes()), ["alpha", "beta"]);
        assert_eq!(words(&[b'a', 0xD7, b'b']), ["a", "b"], "Latin-1 × is no letter");
    }

    #[test]
    fn a_letter_folds_alike_in_either_case() {
        for c in '\u{80}'..='\u{24f}' {
            let mut lower = c.to_lowercase();
            if let (Some(l), None) = (lower.next(), lower.next()) {
                assert_eq!(fold(c), fold(l), "{c} and {l}");
            }
            if let Some(letters) = fold(c) {
                assert!(!letters.is_empty() && letters.bytes().all(|b| b.is_ascii_lowercase()));
            }
        }
    }

    #[test]
    fn the_scanner_reads_a_buffer_as_utf8_or_latin1_does() {
        for text in [&b"caf\xC3\xA9 \xFC"[..], "naïve → x".as_bytes(), b"\x80\xFF plain"] {
            assert_eq!(words(utf8_or_latin1(text).as_bytes()), words(text), "{text:?}");
        }
    }
}
