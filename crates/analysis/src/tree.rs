//! Token-tree parser: groups the flat token stream into nested
//! delimiter groups (`()`, `[]`, `{}`), which is exactly the structure
//! the passes need — closure boundaries, fn bodies, call argument
//! lists — without committing to a full AST.

use crate::lexer::{Tok, TokKind};

/// One node of the token tree.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A non-delimiter token.
    Leaf(Tok),
    /// A balanced delimiter group.
    Group(Group),
}

/// A `(…)`, `[…]`, or `{…}` group.
#[derive(Debug, Clone)]
pub struct Group {
    /// `(`, `[`, or `{`.
    pub delim: char,
    pub open_line: u32,
    pub close_line: u32,
    pub children: Vec<Tree>,
}

impl Tree {
    /// The leaf token, if this is one.
    #[must_use]
    pub fn leaf(&self) -> Option<&Tok> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this is one.
    #[must_use]
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Leaf(_) => None,
            Tree::Group(g) => Some(g),
        }
    }

    /// True when this leaf is an identifier with text `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    }

    /// True when this leaf is punctuation `p`.
    #[must_use]
    pub fn is_punct(&self, p: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    }

    /// The source line this node starts on.
    #[must_use]
    pub fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.open_line,
        }
    }
}

/// Parses tokens into a tree. Robust against unbalanced input: a stray
/// closer becomes a leaf, an unclosed group closes at end-of-file —
/// analysis over in-progress code must degrade, never panic.
#[must_use]
pub fn parse(tokens: &[Tok]) -> Vec<Tree> {
    let mut pos = 0usize;
    parse_until(tokens, &mut pos, None)
}

fn closer(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

fn parse_until(tokens: &[Tok], pos: &mut usize, until: Option<char>) -> Vec<Tree> {
    let mut out = Vec::new();
    while let Some(tok) = tokens.get(*pos) {
        if tok.kind == TokKind::Punct {
            let c = tok.text.chars().next().unwrap_or(' ');
            if Some(c) == until {
                return out;
            }
            if matches!(c, '(' | '[' | '{') && tok.text.len() == 1 {
                let open_line = tok.line;
                *pos += 1;
                let children = parse_until(tokens, pos, Some(closer(c)));
                let close_line = tokens
                    .get(*pos)
                    .map_or_else(|| tokens.last().map_or(open_line, |t| t.line), |t| t.line);
                *pos += 1; // consume the closer (or step past EOF)
                out.push(Tree::Group(Group {
                    delim: c,
                    open_line,
                    close_line,
                    children,
                }));
                continue;
            }
        }
        out.push(Tree::Leaf(tok.clone()));
        *pos += 1;
    }
    out
}

/// Collects every leaf in the forest depth-first into `out`.
pub fn flatten<'a>(trees: &'a [Tree], out: &mut Vec<&'a Tok>) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => out.push(tok),
            Tree::Group(g) => flatten(&g.children, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn groups_nest() {
        let out = lex("fn f(a: u8) { g(a, [1, 2]); }");
        let trees = parse(&out.tokens);
        // fn, f, (…), {…}
        assert_eq!(trees.len(), 4);
        let body = trees[3].group().expect("body group");
        assert_eq!(body.delim, '{');
        let call_args = body.children[1].group().expect("call args");
        assert_eq!(call_args.delim, '(');
        assert_eq!(
            call_args.children.last().unwrap().group().unwrap().delim,
            '['
        );
    }

    #[test]
    fn unbalanced_inputs_do_not_panic() {
        for src in ["fn f( {", ") } ]", "{ ( }"] {
            let out = lex(src);
            let _ = parse(&out.tokens);
        }
    }

    #[test]
    fn group_lines_recorded() {
        let out = lex("f(\n  a,\n  b,\n)");
        let trees = parse(&out.tokens);
        let g = trees[1].group().unwrap();
        assert_eq!(g.open_line, 1);
        assert_eq!(g.close_line, 4);
    }
}
