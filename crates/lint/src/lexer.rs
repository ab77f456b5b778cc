//! A comment- and string-aware Rust lexer.
//!
//! The lint rules only need a token stream, not a syntax tree: every rule
//! in the registry is expressible as a pattern over identifier/punctuation
//! sequences plus the comments attached to nearby lines. The lexer's one
//! hard job is to *never* mistake string or comment contents for code —
//! `"from_entropy("` in a doc string must not trip R001 — so it handles the full
//! Rust literal surface: nested block comments, raw strings with hash
//! fences, byte strings, char literals, and the char-vs-lifetime
//! ambiguity.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`Relaxed`, `fn`, `stream_rng`, ...).
    Ident,
    /// A single punctuation character (`.`, `(`, `:`, `{`, ...).
    Punct,
    /// String, byte-string or raw-string literal (contents dropped).
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`) — kept distinct so `'a` is never a char literal.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// The text for idents, puncts, and numeric literals (the semantic
    /// rules need number payloads: stream labels for R003, float literals
    /// for F001); empty for string/char literals, whose contents must
    /// never look like code.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// The lexed view of one source file: code tokens plus per-line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comment bodies keyed by the 1-based line they *start* on. A line
    /// holding several comments concatenates them.
    pub comments: Vec<(u32, String)>,
}

impl Lexed {
    /// All comment text attached to `line`, concatenated.
    pub fn comment_on(&self, line: u32) -> Option<&str> {
        self.comments
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, c)| c.as_str())
    }
}

/// Tokenize Rust source. Invalid UTF-8 must be filtered by the caller;
/// lexically invalid code degrades gracefully (unknown bytes become
/// single-character punct tokens) rather than failing the whole file.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    // Push a comment body, merging with an existing entry for the line.
    fn push_comment(out: &mut Lexed, line: u32, text: &str) {
        if let Some((_, existing)) = out.comments.iter_mut().find(|(l, _)| *l == line) {
            existing.push(' ');
            existing.push_str(text);
        } else {
            out.comments.push((line, text.to_string()));
        }
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                push_comment(&mut out, line, src[start..j].trim());
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                push_comment(&mut out, start_line, src[start..end].trim());
                i = j;
            }
            b'"' => {
                let start_line = line;
                i = skip_string(b, i + 1, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                });
            }
            b'r' | b'b' if starts_special_literal(b, i) => {
                let start_line = line;
                i = skip_special_literal(b, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime; everything else is a char.
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let is_lifetime = j > i + 1 && (j >= b.len() || b[j] != b'\'');
                if is_lifetime {
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: String::new(),
                        line,
                    });
                    i = j;
                } else {
                    // Char literal: handle escapes; at most a few bytes.
                    let mut k = i + 1;
                    if k < b.len() && b[k] == b'\\' {
                        k += 2;
                        // \u{...}
                        while k < b.len() && b[k] != b'\'' {
                            k += 1;
                        }
                    } else {
                        // One (possibly multi-byte) character.
                        k += 1;
                        while k < b.len() && b[k] != b'\'' && k - i < 8 {
                            k += 1;
                        }
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                    i = (k + 1).min(b.len());
                }
            }
            c if c.is_ascii_digit() => {
                let start_line = line;
                let start = i;
                i = skip_number(b, i);
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text: src[start..i].to_string(),
                    line: start_line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..j].to_string(),
                    line,
                });
                i = j;
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Does the `r`/`b` at `i` open a raw/byte literal (vs. a plain ident)?
fn starts_special_literal(b: &[u8], i: usize) -> bool {
    match b[i] {
        b'r' => matches!(b.get(i + 1), Some(b'"') | Some(b'#')) && raw_fence_follows(b, i + 1),
        b'b' => match b.get(i + 1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => raw_fence_follows(b, i + 2),
            _ => false,
        },
        _ => false,
    }
}

/// After an `r`, is the next run `#*"` (a raw-string fence)?
fn raw_fence_follows(b: &[u8], mut j: usize) -> bool {
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Skip a normal `"..."` body starting *after* the opening quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, or `b'.'` starting at
/// the prefix character.
fn skip_special_literal(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    if b[i] == b'b' {
        i += 1;
        if i < b.len() && b[i] == b'\'' {
            // Byte literal b'x' / b'\n'.
            i += 1;
            if i < b.len() && b[i] == b'\\' {
                i += 2;
            } else {
                i += 1;
            }
            while i < b.len() && b[i] != b'\'' {
                i += 1;
            }
            return (i + 1).min(b.len());
        }
    }
    if i < b.len() && b[i] == b'r' {
        i += 1;
    }
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
        if hashes == 0 {
            // A raw string with no fence still ignores backslash escapes.
            while i < b.len() {
                match b[i] {
                    b'"' => return i + 1,
                    b'\n' => {
                        *line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            return i;
        }
        // Scan for `"` followed by `hashes` hash marks.
        while i < b.len() {
            if b[i] == b'\n' {
                *line += 1;
                i += 1;
                continue;
            }
            if b[i] == b'"' {
                let mut k = i + 1;
                let mut seen = 0usize;
                while k < b.len() && b[k] == b'#' && seen < hashes {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return k;
                }
            }
            i += 1;
        }
        return i;
    }
    // Plain normal string after a stray prefix (b"..."): the caller only
    // reaches here with b[i] == b'"' handled above, but stay safe.
    skip_string(b, i, line)
}

/// Skip a numeric literal starting at a digit: decimal/hex/octal/binary,
/// underscores, one fractional part, exponents, and type suffixes — while
/// *not* consuming a method call after the literal (`0.5f64.powf`).
fn skip_number(b: &[u8], mut i: usize) -> usize {
    if b[i] == b'0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return i;
    }
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    // One fraction, only when a digit follows the dot (so `1.max(2)` and
    // range `1..n` keep their dots).
    if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
        i += 1;
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
    }
    // Exponent.
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let mut j = i + 1;
        if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            i = j;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (f64, u32, usize...): consume ident chars, but stop at a
    // dot so the following method call lexes as its own tokens.
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code_words() {
        let src = r##"
            let x = "HashMap::new()"; // HashMap in a comment
            /* Instant::now() in a block comment */
            let r = r#"SystemTime::now()"#;
            let b = b"unsafe";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn comments_are_captured_per_line() {
        let src = "let a = 1; // first\nlet b = 2; /* second */\n";
        let lexed = lex(src);
        assert_eq!(lexed.comment_on(1), Some("first"));
        assert_eq!(lexed.comment_on(2), Some("second"));
        assert_eq!(lexed.comment_on(3), None);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x'; let esc = '\\'';";
        let lexed = lex(src);
        let lifetimes = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 2);
        // The fn body survived the literal handling.
        assert!(lexed.toks.iter().any(|t| t.text == "str"));
    }

    #[test]
    fn float_suffix_does_not_swallow_method_calls() {
        let ids = idents("let y = 0.5f64.powf(2.0);");
        assert!(ids.contains(&"powf".to_string()), "{ids:?}");
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nlet t = 1;";
        let lexed = lex(src);
        let t_tok = lexed.toks.iter().find(|t| t.text == "t").unwrap();
        assert_eq!(t_tok.line, 4);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let ids = idents("/* outer /* inner */ still comment */ let x = 1;");
        assert_eq!(ids, vec!["let", "x"]);
    }

    #[test]
    fn numeric_literals_keep_their_text() {
        let lexed = lex("let a = 0x5e5e; let b = 1_000u64; let c = 2.5;");
        let nums: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0x5e5e", "1_000u64", "2.5"]);
    }

    #[test]
    fn hex_and_underscore_literals_lex() {
        let lexed = lex("let m = 0xFF_u64; let n = 1_000_000; let r = 1..n;");
        assert_eq!(
            lexed.toks.iter().filter(|t| t.kind == TokKind::Num).count(),
            3
        );
        // The range dots survive as puncts.
        assert_eq!(lexed.toks.iter().filter(|t| t.text == ".").count(), 2);
    }
}
