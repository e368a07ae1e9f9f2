//! Entity escaping and unescaping for XML character data.

/// Escapes text content: `&`, `<`, `>` become entity references.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(s, &mut out);
    out
}

/// Escapes text content, appending to an existing buffer (avoids an
/// allocation per call on hot serialization paths).
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_runs_into(s, out, &TEXT_ESCAPES, &TEXT_SPECIAL);
}

/// Escapes an attribute value (double-quote delimited).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(s, &mut out);
    out
}

/// Escapes an attribute value, appending to an existing buffer.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_runs_into(s, out, &ATTR_ESCAPES, &ATTR_SPECIAL);
}

/// Entity references, indexed by the non-zero entries of the escape
/// tables.
const ENTITIES: [&str; 9] = [
    "", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#13;", "&#10;", "&#9;",
];

/// Builds a byte → [`ENTITIES`] index table for the listed bytes.
const fn escape_table(escaped: &[(u8, u8)]) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < escaped.len() {
        t[escaped[i].0 as usize] = escaped[i].1;
        i += 1;
    }
    t
}

/// Text content: `&`, `<`, `>`, and CR — a literal CR would be folded to
/// LF by the reader's §2.11 normalization; the reference survives,
/// keeping parse ∘ serialize an identity.
const TEXT_SPECIAL: [(u8, u8); 4] = [(b'&', 1), (b'<', 2), (b'>', 3), (b'\r', 6)];
static TEXT_ESCAPES: [u8; 256] = escape_table(&TEXT_SPECIAL);

/// Attribute values add both quotes, LF and tab: literal whitespace
/// would be normalized to spaces by the reader (§3.3.3); character
/// references survive, keeping parse ∘ serialize an identity.
const ATTR_SPECIAL: [(u8, u8); 8] = [
    (b'&', 1),
    (b'<', 2),
    (b'>', 3),
    (b'"', 4),
    (b'\'', 5),
    (b'\r', 6),
    (b'\n', 7),
    (b'\t', 8),
];
static ATTR_ESCAPES: [u8; 256] = escape_table(&ATTR_SPECIAL);

/// True if any byte of the little-endian word `w` is one of `special`'s
/// bytes: per needle, the classic "has a zero byte" test on `w` XOR the
/// needle repeated. Exact — a borrow can only flag a byte above a true
/// match.
#[inline]
fn word_has_special<const N: usize>(w: u64, special: &[(u8, u8); N]) -> bool {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    special.iter().any(|&(b, _)| {
        let x = w ^ (LO * u64::from(b));
        x.wrapping_sub(LO) & !x & HI != 0
    })
}

/// Appends `s` to `out` with every byte `table` marks replaced by its
/// entity reference, copying each unescaped run with one `push_str`.
/// Every escaped character is ASCII, so run boundaries always fall on
/// UTF-8 character boundaries. `special` lists the bytes `table` marks;
/// eight bytes that hold none of them are skipped in one step.
#[inline]
fn escape_runs_into<const N: usize>(
    s: &str,
    out: &mut String,
    table: &[u8; 256],
    special: &[(u8, u8); N],
) {
    let bytes = s.as_bytes();
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        if let Some(word) = bytes.get(i..i + 8) {
            let w = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
            if !word_has_special(w, special) {
                i += 8;
                continue;
            }
        }
        let e = table[bytes[i] as usize];
        if e != 0 {
            out.push_str(&s[run..i]);
            out.push_str(ENTITIES[e as usize]);
            run = i + 1;
        }
        i += 1;
    }
    out.push_str(&s[run..]);
}

/// Resolves the five predefined entities and numeric character references.
///
/// Unknown entities are left verbatim (lenient mode), matching the
/// behaviour of most streaming parsers when no DTD is available.
pub fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            if let Some(semi) = s[i..].find(';').map(|p| i + p) {
                let entity = &s[i + 1..semi];
                if let Some(c) = resolve_entity(entity) {
                    out.push(c);
                    i = semi + 1;
                    continue;
                }
            }
            out.push('&');
            i += 1;
        } else {
            // Copy the full UTF-8 character.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&s[i..i + ch_len]);
            i += ch_len;
        }
    }
    out
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn resolve_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = entity.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or(rest.strip_prefix('X')) {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_basic() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(
            escape_attr(r#"he said "hi"'s"#),
            "he said &quot;hi&quot;&apos;s"
        );
    }

    #[test]
    fn word_skipping_finds_specials_at_every_offset() {
        // A byte-at-a-time reference; the fast path skips eight clean
        // bytes at a time, so plant each special at every position of
        // a multi-word string mixing ASCII and multi-byte characters.
        fn reference(s: &str, attr: bool) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '&' => out.push_str("&amp;"),
                    '<' => out.push_str("&lt;"),
                    '>' => out.push_str("&gt;"),
                    '\r' => out.push_str("&#13;"),
                    '"' if attr => out.push_str("&quot;"),
                    '\'' if attr => out.push_str("&apos;"),
                    '\n' if attr => out.push_str("&#10;"),
                    '\t' if attr => out.push_str("&#9;"),
                    c => out.push(c),
                }
            }
            out
        }
        let base: Vec<char> = "plain téxt ünd 日本 words, spaced out".chars().collect();
        for special in ['&', '<', '>', '\r', '"', '\'', '\n', '\t', '='] {
            for at in 0..base.len() {
                let mut chars = base.clone();
                chars[at] = special;
                let s: String = chars.iter().collect();
                assert_eq!(escape_text(&s), reference(&s, false), "text {s:?}");
                assert_eq!(escape_attr(&s), reference(&s, true), "attr {s:?}");
            }
        }
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(unescape("a&lt;b&amp;c&gt;d&quot;&apos;"), "a<b&c>d\"'");
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
    }

    #[test]
    fn unescape_unknown_entity_left_verbatim() {
        assert_eq!(unescape("&nbsp;x"), "&nbsp;x");
        assert_eq!(unescape("a & b"), "a & b");
    }

    #[test]
    fn unescape_no_amp_fast_path() {
        assert_eq!(unescape("nothing here"), "nothing here");
    }

    #[test]
    fn unescape_multibyte_passthrough() {
        assert_eq!(unescape("héllo&amp;wörld"), "héllo&wörld");
    }

    #[test]
    fn escaping_keeps_multibyte_runs_intact() {
        assert_eq!(escape_text("é<中\r😀&"), "é&lt;中&#13;😀&amp;");
        assert_eq!(escape_attr("\t'é\n\""), "&#9;&apos;é&#10;&quot;");
        assert_eq!(escape_text(""), "");
    }

    #[test]
    fn roundtrip() {
        let original = "x < y && z > \"w\" 'v'";
        assert_eq!(unescape(&escape_attr(original)), original);
        assert_eq!(unescape(&escape_text(original)), original);
    }
}
