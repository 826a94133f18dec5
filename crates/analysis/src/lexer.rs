//! A from-scratch Rust lexer producing a line-numbered token stream
//! plus a per-line comment map.
//!
//! The lexer exists so analysis rules can never fire on prose: string
//! literals (including raw/byte strings), character literals, and
//! comments (including nested block comments) are each one token or a
//! comment-map entry, so `"std::sync::Mutex"` in a string and `unsafe`
//! in a doc comment are invisible to pattern matching. It is *not* a
//! full Rust front-end — it only needs to be exact about token
//! boundaries, which is what the golden-file tests under
//! `tests/fixtures/lexer/` pin.

/// What a token is. `text` on [`Tok`] carries the exact slice (for
/// string-like kinds, the *content* without quotes/prefix so passes can
//  compare names directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `atomically`, `r#fn`).
    Ident,
    /// Lifetime (`'a`, `'static`, `'_`) — distinguished from char
    /// literals by the missing closing quote after the ident run.
    Lifetime,
    /// Character or byte literal (`'x'`, `'\n'`, `b'a'`).
    Char,
    /// String literal of any form (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Numeric literal (`42`, `0xFF`, `1.5e-3`, `1_000u64`).
    Num,
    /// Punctuation / operator, longest-munch (`::`, `->`, `+=`, `(`).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// Lexer output: the token stream and every comment, attributed to each
/// line it touches (block comments spanning lines get one entry per
/// line) so justification-window rules see exactly what a human sees.
#[derive(Debug, Default)]
pub struct LexOut {
    pub tokens: Vec<Tok>,
    /// line -> concatenated comment text appearing on that line.
    pub comments: std::collections::BTreeMap<u32, String>,
}

impl LexOut {
    /// The comment text on `line`, if any.
    #[must_use]
    pub fn comment_on(&self, line: u32) -> Option<&str> {
        self.comments.get(&line).map(String::as_str)
    }

    /// True when any comment within `window` lines ending at `line`
    /// (inclusive) contains `needle` — the justification-comment rule
    /// shared by R2/R5 and the purity escape.
    #[must_use]
    pub fn comment_nearby(&self, line: u32, needle: &str, window: u32) -> bool {
        let lo = line.saturating_sub(window);
        self.comments
            .range(lo..=line)
            .any(|(_, text)| text.contains(needle))
    }
}

/// Multi-character operators, longest first (maximal munch).
const PUNCTS: [&str; 21] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes `src` into tokens + comments. Never fails: unterminated
/// literals are closed at end-of-file (analysis must degrade, not
/// panic, on in-progress code).
#[must_use]
pub fn lex(src: &str) -> LexOut {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: LexOut::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexOut,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Tok { kind, text, line });
    }

    fn add_comment(&mut self, line: u32, text: &str) {
        let slot = self.out.comments.entry(line).or_default();
        if !slot.is_empty() {
            slot.push(' ');
        }
        slot.push_str(text);
    }

    fn run(mut self) -> LexOut {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line, String::new()),
                '\'' => self.quote(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ if c == '_' || c.is_alphabetic() => self.ident_or_prefixed(line),
                _ => self.punct(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.add_comment(line, &text);
    }

    /// Block comments nest (`/* /* */ */` is one comment in Rust); each
    /// line the comment touches gets its text attributed so a
    /// justification inside a block comment still lands in the window.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        let mut cur_line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                if c == '\n' {
                    self.add_comment(cur_line, &text);
                    text.clear();
                    cur_line = self.line + 1;
                }
                text.push(c);
                self.bump();
            }
        }
        if !text.trim().is_empty() || cur_line == self.line {
            self.add_comment(cur_line, text.trim_end_matches('\n'));
        }
    }

    /// A plain (escaped) string body; the opening `"` is at `pos`.
    /// `content` may carry nothing — the prefix (`b`, `c`) was already
    /// consumed by the caller and is not part of the content.
    fn string(&mut self, line: u32, mut content: String) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    content.push('\\');
                    if let Some(e) = self.bump() {
                        content.push(e);
                    }
                }
                _ => content.push(c),
            }
        }
        self.push(TokKind::Str, content, line);
    }

    /// Raw string starting at the current `r`/`br` position *after* the
    /// prefix letters: `#…#"…"#…#`. No escapes; terminated by `"` plus
    /// the same number of hashes.
    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut content = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                // A candidate terminator: need `hashes` hashes.
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == Some('#') {
                    seen += 1;
                    self.bump();
                }
                if seen == hashes {
                    break 'outer;
                }
                content.push('"');
                for _ in 0..seen {
                    content.push('#');
                }
            } else {
                content.push(c);
            }
        }
        self.push(TokKind::Str, content, line);
    }

    /// After a `'`: lifetime or char literal. The disambiguator is the
    /// closing quote: `'a'` has one right after the ident run, `'a` (a
    /// lifetime) does not. Escapes (`'\n'`) are always char literals.
    fn quote(&mut self, line: u32) {
        self.bump(); // the opening '
        let start = self.pos;
        match self.peek(0) {
            Some(c) if c == '_' || c.is_alphabetic() => {
                let mut len = 0usize;
                while self
                    .peek(len)
                    .is_some_and(|c| c == '_' || c.is_alphanumeric())
                {
                    len += 1;
                }
                if self.peek(len) == Some('\'') {
                    // 'x' — char literal.
                    for _ in 0..=len {
                        self.bump();
                    }
                    let text: String = self.chars[start..start + len].iter().collect();
                    self.push(TokKind::Char, text, line);
                } else {
                    // 'ident — lifetime.
                    for _ in 0..len {
                        self.bump();
                    }
                    let text: String = self.chars[start..start + len].iter().collect();
                    self.push(TokKind::Lifetime, format!("'{text}"), line);
                }
            }
            _ => {
                // Escape, punctuation, digit, or quote: a char literal.
                let mut content = String::new();
                while let Some(c) = self.bump() {
                    match c {
                        '\'' => break,
                        '\\' => {
                            content.push('\\');
                            if let Some(e) = self.bump() {
                                content.push(e);
                            }
                        }
                        _ => content.push(c),
                    }
                }
                self.push(TokKind::Char, content, line);
            }
        }
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !text.contains('.')
            {
                // `1.5` consumes the dot; `1..5` / `1.method()` do not.
                text.push(c);
                self.bump();
            } else if (c == '+' || c == '-') && text.ends_with(['e', 'E']) {
                // `1e-5` exponent sign.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }

    /// Identifier — or a string with a `b`/`r`/`br` prefix, or a raw
    /// identifier `r#name`.
    fn ident_or_prefixed(&mut self, line: u32) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c == '_' || c.is_alphanumeric())
        {
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let next = self.peek(0);
        match (text.as_str(), next) {
            ("r" | "br" | "b" | "c", Some('"')) => {
                if text.starts_with('r') || text == "br" {
                    self.raw_string(line);
                } else {
                    self.string(line, String::new());
                }
            }
            ("r" | "br", Some('#')) if self.raw_hash_leads_to_quote() => self.raw_string(line),
            ("r", Some('#')) => {
                // Raw identifier r#name. The prefix is kept in the
                // token text: `r#unsafe` is an ordinary identifier and
                // must never match a keyword-based rule pattern.
                self.bump(); // #
                let istart = self.pos;
                while self
                    .peek(0)
                    .is_some_and(|c| c == '_' || c.is_alphanumeric())
                {
                    self.bump();
                }
                let name: String = self.chars[istart..self.pos].iter().collect();
                self.push(TokKind::Ident, format!("r#{name}"), line);
            }
            ("b", Some('\'')) => {
                // Byte char b'x'.
                self.quote(line);
            }
            _ => self.push(TokKind::Ident, text, line),
        }
    }

    /// After an `r`/`br` at a `#`: raw string iff the hash run ends in
    /// a quote (otherwise it's `r#ident`).
    fn raw_hash_leads_to_quote(&self) -> bool {
        let mut ahead = 0usize;
        while self.peek(ahead) == Some('#') {
            ahead += 1;
        }
        self.peek(ahead) == Some('"')
    }

    fn punct(&mut self, line: u32) {
        for p in PUNCTS {
            if self
                .chars
                .get(self.pos..self.pos + p.chars().count())
                .is_some_and(|w| w.iter().collect::<String>() == p)
            {
                for _ in 0..p.chars().count() {
                    self.bump();
                }
                self.push(TokKind::Punct, p.to_string(), line);
                return;
            }
        }
        let c = self.bump().expect("punct called with a char available");
        self.push(TokKind::Punct, c.to_string(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_are_single_tokens() {
        let toks = kinds(r#"let s = "std::sync::Mutex";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t == "std::sync::Mutex"));
        // The path inside the string must NOT appear as idents.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "Mutex"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"a "quoted" b"#;"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t == r#"a "quoted" b"#));
    }

    #[test]
    fn lifetime_vs_char() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "x"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "\\n"));
    }

    #[test]
    fn nested_block_comments_do_not_leak_tokens() {
        let out = lex("/* outer /* unsafe */ still comment */ fn f() {}");
        assert!(!out
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "unsafe"));
        assert!(out.comment_on(1).is_some_and(|c| c.contains("unsafe")));
    }

    #[test]
    fn comment_map_lines() {
        let out = lex("// one\nfn f() {}\n// ordering: because\nx;\n");
        assert!(out.comment_nearby(4, "ordering:", 1));
        assert!(!out.comment_nearby(2, "ordering:", 1));
    }

    #[test]
    fn maximal_munch_operators() {
        let toks = kinds("a += b; c => d; e.f(1..=2);");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(puncts.contains(&"+="));
        assert!(puncts.contains(&"=>"));
        assert!(puncts.contains(&"..="));
    }

    #[test]
    fn numbers() {
        let toks = kinds("1.5 1..2 1e-5 0xFF_u32 3.main()");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, ["1.5", "1", "2", "1e-5", "0xFF_u32", "3"]);
    }

    #[test]
    fn raw_ident_and_byte_literals() {
        let toks = kinds(r#"let r#fn = b"bytes"; let c = b'z';"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#fn"));
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "fn"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t == "bytes"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "z"));
    }
}
