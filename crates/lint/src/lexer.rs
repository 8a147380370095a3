//! A hand-rolled Rust lexer — just enough tokenization for the rules, in
//! the same no-new-dependencies discipline as the repo's hand-rolled HTTP
//! and JSON layers (no `syn`, no `proc-macro2`).
//!
//! It produces a flat token stream with `line:col` positions and a
//! separate comment list (annotations are read out of the comments), and
//! understands what would make a text scan lie about code: line, nested
//! block and doc comments; strings with escapes, byte strings, raw strings
//! with any `#` fencing; char literals vs lifetimes (`'a'` vs `'a`);
//! numbers with underscores, base prefixes, suffixes and exponents.
//! `with_capacity` inside a string or a comment is *not* a token, so a
//! rule never fires on prose.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (the rules do not distinguish).
    Ident,
    /// A lifetime such as `'a` (without the quote in [`Tok::text`]).
    Lifetime,
    /// A numeric literal, verbatim (any base, suffix, fraction, exponent).
    Num,
    /// A string / raw string / byte string literal (contents dropped).
    Str,
    /// A char or byte-char literal (contents dropped).
    Char,
    /// A single punctuation character (`.`, `:`, `!`, `[`, …).
    Punct,
}

/// One token with its 1-based source position, columns counted in chars.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token kind.
    pub kind: TokKind,
    /// The token text; empty for [`TokKind::Str`] and [`TokKind::Char`].
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Tok {
    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.chars().eq([c])
    }

    /// Whether this token is exactly the given identifier.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// A comment with its position; `text` excludes the delimiters.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based source line the comment starts on.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Comment body without `//`, `/*` or `*/`.
    pub text: String,
    /// `true` when no token precedes the comment on its starting line: an
    /// annotation there applies to the next code line, not its own.
    pub own_line: bool,
}

/// Why lexing failed. Scanned files already compile, so in practice this
/// only fires on hand-broken fixtures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line of the failure.
    pub line: u32,
    /// 1-based column of the failure.
    pub col: u32,
    /// What was malformed.
    pub message: &'static str,
}

/// The lexed file: code tokens and comments, separately, in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens.
    pub toks: Vec<Tok>,
    /// All comments.
    pub comments: Vec<Comment>,
}

/// Tokenizes Rust source text.
pub fn lex(src: &str) -> Result<Lexed, LexError> {
    let chars: Vec<char> = src.chars().collect();
    let mut lx = Lexer {
        chars: &chars,
        pos: 0,
        line: 1,
        col: 1,
        out: Lexed::default(),
    };
    lx.run()?;
    Ok(lx.out)
}

struct Lexer<'a> {
    chars: &'a [char],
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn peek(&self) -> Option<char> {
        self.peek_at(0)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes and returns the longest run of chars satisfying `keep`.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek().filter(|&c| keep(c)) {
            text.push(c);
            self.bump();
        }
        text
    }

    fn err(&self, message: &'static str) -> LexError {
        LexError {
            line: self.line,
            col: self.col,
            message,
        }
    }

    fn push(&mut self, kind: TokKind, text: String, (line, col): (u32, u32)) {
        self.out.toks.push(Tok {
            kind,
            text,
            line,
            col,
        });
    }

    fn push_comment(&mut self, text: String, (line, col): (u32, u32)) {
        let own_line = self.out.toks.last().map_or(true, |t| t.line != line);
        self.out.comments.push(Comment {
            line,
            col,
            text,
            own_line,
        });
    }

    fn run(&mut self) -> Result<(), LexError> {
        while let Some(c) = self.peek() {
            let at = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => {
                    self.bump();
                    self.bump();
                    let text = self.take_while(|c| c != '\n');
                    self.push_comment(text, at);
                }
                '/' if self.peek_at(1) == Some('*') => self.block_comment(at)?,
                '"' => self.string(at)?,
                'r' | 'b' if self.raw_or_byte_literal(at)? => {}
                '\'' => self.char_or_lifetime(at)?,
                c if is_ident_start(c) => {
                    let text = self.take_while(is_ident_continue);
                    self.push(TokKind::Ident, text, at);
                }
                c if c.is_ascii_digit() => self.number(at),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), at);
                }
            }
        }
        Ok(())
    }

    fn block_comment(&mut self, at: (u32, u32)) -> Result<(), LexError> {
        self.bump();
        self.bump(); // `/*`
        let mut depth = 1usize;
        let mut text = String::new();
        loop {
            match (self.peek(), self.peek_at(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push_str("/*");
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth == 0 {
                        break;
                    }
                    text.push_str("*/");
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => return Err(self.err("unterminated block comment")),
            }
        }
        self.push_comment(text, at);
        Ok(())
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` — returns
    /// `false` (consuming nothing) when the `r`/`b` merely starts an
    /// identifier such as `row` or `break_cycles`.
    fn raw_or_byte_literal(&mut self, at: (u32, u32)) -> Result<bool, LexError> {
        let mut ahead = 1; // past the leading r / b
        if self.peek() == Some('b') {
            match self.peek_at(1) {
                Some('\'') => {
                    self.bump();
                    self.bump();
                    self.char_body()?;
                    self.push(TokKind::Char, String::new(), at);
                    return Ok(true);
                }
                Some('"') => {
                    self.bump();
                    self.string(at)?;
                    return Ok(true);
                }
                Some('r') => ahead = 2,
                _ => return Ok(false),
            }
        }
        // `r` (or `br`): a raw string only if followed by `#`* then `"`.
        let mut hashes = 0usize;
        while self.peek_at(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek_at(ahead + hashes) != Some('"') {
            return Ok(false);
        }
        for _ in 0..ahead + hashes + 1 {
            self.bump();
        }
        // Scan to `"` followed by `hashes` hashes.
        loop {
            match self.bump() {
                Some('"') if self.take_hashes(hashes) => break,
                Some(_) => {}
                None => return Err(self.err("unterminated raw string")),
            }
        }
        self.push(TokKind::Str, String::new(), at);
        Ok(true)
    }

    /// Consumes up to `want` `#`s; whether all of them were there.
    fn take_hashes(&mut self, want: usize) -> bool {
        let mut n = 0;
        while n < want && self.peek() == Some('#') {
            self.bump();
            n += 1;
        }
        n == want
    }

    fn string(&mut self, at: (u32, u32)) -> Result<(), LexError> {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => {
                    self.bump(); // the escaped char, whatever it is
                }
                Some(_) => {}
                None => return Err(self.err("unterminated string")),
            }
        }
        self.push(TokKind::Str, String::new(), at);
        Ok(())
    }

    /// After the opening `'` of a char literal: consumes the body and the
    /// closing quote.
    fn char_body(&mut self) -> Result<(), LexError> {
        if self.bump() == Some('\\') {
            self.bump();
            // Multi-char escapes (\u{…}, \x41): consume to the quote.
            self.take_while(|c| c != '\'');
        }
        match self.bump() {
            Some('\'') => Ok(()),
            _ => Err(self.err("unterminated char literal")),
        }
    }

    /// `'a'` and `'\n'` are chars; `'a` with no closing quote after one
    /// char is a lifetime.
    fn char_or_lifetime(&mut self, at: (u32, u32)) -> Result<(), LexError> {
        let lifetime = self.peek_at(1).is_some_and(is_ident_start) && self.peek_at(2) != Some('\'');
        self.bump(); // the quote
        if lifetime {
            let name = self.take_while(is_ident_continue);
            self.push(TokKind::Lifetime, name, at);
        } else {
            self.char_body()?;
            self.push(TokKind::Char, String::new(), at);
        }
        Ok(())
    }

    /// Digits, `_`, base prefix and type suffix are all identifier chars;
    /// on top of those a number takes one `.` when a digit follows it (so
    /// `0..n` and `x.0.min(…)` keep their dots as punctuation) and a sign
    /// right after a decimal exponent's `e`.
    fn number(&mut self, at: (u32, u32)) {
        let mut text = self.take_while(is_ident_continue);
        if self.peek() == Some('.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            text.extend(self.bump());
            text += &self.take_while(is_ident_continue);
        }
        let mantissa = text.strip_suffix(['e', 'E']).unwrap_or_default();
        if matches!(self.peek(), Some('+' | '-'))
            && mantissa.starts_with(|c: char| c.is_ascii_digit())
            && mantissa.chars().all(|c| matches!(c, '0'..='9' | '_' | '.'))
        {
            text.extend(self.bump());
            text += &self.take_while(is_ident_continue);
        }
        self.push(TokKind::Num, text, at);
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        let toks = lex(src).expect("lex").toks;
        toks.into_iter().map(|t| t.text).collect()
    }

    fn count(src: &str, kind: TokKind) -> usize {
        let toks = lex(src).expect("lex").toks;
        toks.iter().filter(|t| t.kind == kind).count()
    }

    #[test]
    fn idents_punct_numbers() {
        let toks = lex("let x = a.unwrap() + 0x1F_u32;").expect("lex").toks;
        let kinds: Vec<_> = toks.iter().map(|t| (t.kind, t.text.as_str())).collect();
        assert!(kinds.contains(&(TokKind::Ident, "unwrap")));
        assert!(kinds.contains(&(TokKind::Num, "0x1F_u32")));
        assert!(kinds.contains(&(TokKind::Punct, ";")));
        assert_eq!(
            texts("1_000.5e-3f64 - 2usize-1"),
            ["1_000.5e-3f64", "-", "2usize", "-", "1"]
        );
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = "// unwrap in a comment\n\
                   /* unwrap /* nested */ still comment */\n\
                   let s = \"calls .unwrap() inside\";\n\
                   let r = r#\"raw \"unwrap\"\"#;\n";
        let lexed = lex(src).expect("lex");
        assert!(
            !lexed.toks.iter().any(|t| t.text == "unwrap"),
            "unwrap leaked out of a string or comment: {:?}",
            lexed.toks
        );
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].text, " unwrap in a comment");
        assert_eq!(
            lexed.comments[1].text,
            " unwrap /* nested */ still comment "
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        assert_eq!(count(src, TokKind::Lifetime), 2);
        assert_eq!(count(src, TokKind::Char), 1);
        assert_eq!(texts(src).iter().filter(|t| *t == "a").count(), 2);
    }

    #[test]
    fn byte_and_escape_literals() {
        let src = r"let a = b'\n'; let b = b(); let c = '\u{1F600}'; let d = r;";
        assert_eq!(count(src, TokKind::Char), 2);
        // `b` and `r` survive as plain identifiers when not literal prefixes.
        assert_eq!(texts("b r br").len(), 3);
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let toks = lex("a\n  bc\n").expect("lex").toks;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn own_line_comment_flag() {
        let lexed = lex("let x = 1; // trailing\n// own line\nlet y = 2;").expect("lex");
        assert!(!lexed.comments[0].own_line);
        assert!(lexed.comments[1].own_line);
        assert_eq!((lexed.comments[0].line, lexed.comments[0].col), (1, 12));
    }

    #[test]
    fn range_and_method_on_int_are_not_floats() {
        assert_eq!(
            texts("for i in 0..10 { x.0.min(1); }"),
            [
                "for", "i", "in", "0", ".", ".", "10", "{", "x", ".", "0", ".", "min", "(", "1",
                ")", ";", "}"
            ]
        );
    }

    #[test]
    fn unterminated_inputs_error_cleanly() {
        for bad in ["\"abc", "/* never closed", "'", "r#\"open"] {
            assert!(lex(bad).is_err(), "accepted {bad:?}");
        }
    }
}
