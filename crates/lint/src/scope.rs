//! Test-region detection over the token stream.
//!
//! The rules govern *non-test* code: a test may size a buffer by whatever
//! it likes and walk a hash map in any order. This module finds every
//! `#[test]` / `#[cfg(test)]`-guarded item (functions, `mod tests {…}`
//! blocks, impls) by brace matching on the lexed token stream and returns
//! the line ranges they span, so rules can skip findings inside them.

use crate::lexer::{Tok, TokKind};

/// Inclusive line ranges that belong to test-gated items.
#[derive(Debug, Default)]
pub struct TestRegions {
    ranges: Vec<(u32, u32)>,
}

impl TestRegions {
    /// Whether `line` falls inside any test-gated item.
    pub fn contains(&self, line: u32) -> bool {
        self.ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Scans the token stream for test-gated items.
pub fn find_test_regions(toks: &[Tok]) -> TestRegions {
    let is_punct = |i: usize, c| toks.get(i).is_some_and(|t: &Tok| t.is_punct(c));
    let is_attr = |i: usize| is_punct(i, '#') && is_punct(i + 1, '[');
    let mut regions = TestRegions::default();
    let mut i = 0;
    while let Some(t) = toks.get(i) {
        if !is_attr(i) {
            i += 1;
            continue;
        }
        let Some(close) = matching(toks, i + 1, '[', ']') else {
            break; // malformed attribute; nothing more to find
        };
        let inner = toks.get(i + 2..close).unwrap_or_default();
        i = close + 1;
        if attr_is_test(inner) {
            // Skip any further attributes stacked on the same item.
            while is_attr(i) {
                match matching(toks, i + 1, '[', ']') {
                    Some(close) => i = close + 1,
                    None => return regions,
                }
            }
            regions.ranges.push((t.line, item_end(toks, i)));
        }
    }
    regions
}

/// Whether the tokens inside `#[…]` gate a test: the attribute is `test`
/// itself (incl. path-qualified variants ending in `test`), or any `cfg`
/// whose predicate mentions `test`.
fn attr_is_test(inner: &[Tok]) -> bool {
    let Some(first) = inner.first() else {
        return false;
    };
    if first.is_ident("cfg") || first.is_ident("cfg_attr") {
        return inner
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test");
    }
    // `#[test]`, `#[tokio::test]`, `#[test_case(…)]`…
    let mut last_ident = None;
    for t in inner {
        if t.is_punct('(') {
            break;
        }
        if t.kind == TokKind::Ident {
            last_ident = Some(t.text.as_str());
        }
    }
    matches!(last_ident, Some(name) if name == "test" || name.starts_with("test_"))
}

/// Index of the token closing the group opened at `open_idx` (which must
/// hold the `open` punct), or `None` when unbalanced.
pub(crate) fn matching(toks: &[Tok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The last line of the item starting at `start`: scans to the first
/// top-level `;` (item without a body, e.g. `use` under `cfg(test)`) or
/// the close of the first top-level `{…}` block (fn / mod / impl body).
fn item_end(toks: &[Tok], start: usize) -> u32 {
    let mut i = start;
    let mut angle = 0i32; // generics can contain neither `;` nor `{…}` we care about, but track anyway
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.is_punct(';') && angle == 0 {
            return t.line;
        } else if t.is_punct('{') {
            match matching(toks, i, '{', '}') {
                Some(close) => return toks[close].line,
                None => break,
            }
        }
        i += 1;
    }
    toks.last().map_or(0, |t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions(src: &str) -> TestRegions {
        find_test_regions(&lex(src).expect("lex").toks)
    }

    #[test]
    fn cfg_test_mod_is_one_region() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn also_live() {}\n";
        let r = regions(src);
        assert!(!r.contains(1));
        assert!(r.contains(2));
        assert!(r.contains(5));
        assert!(r.contains(6));
        assert!(!r.contains(7));
    }

    #[test]
    fn test_fn_with_stacked_attributes() {
        let src = "#[test]\n#[ignore]\nfn t() {\n  body();\n}\nfn live() {}\n";
        let r = regions(src);
        assert!(r.contains(1));
        assert!(r.contains(4));
        assert!(!r.contains(6));
    }

    #[test]
    fn non_test_attributes_do_not_gate() {
        let src = "#[derive(Debug)]\nstruct S { x: u32 }\n#[inline]\nfn f() {}\n";
        let r = regions(src);
        assert!(r.ranges.is_empty());
    }

    #[test]
    fn cfg_any_test_counts_and_bodyless_items_end_at_semicolon() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nuse std::thread;\nfn live() {}\n";
        let r = regions(src);
        assert!(r.contains(2));
        assert!(!r.contains(3));
    }

    #[test]
    fn braces_inside_strings_do_not_confuse_matching() {
        let src = "#[test]\nfn t() { let s = \"}}}\"; inner(); }\nfn live() {}\n";
        let r = regions(src);
        assert!(r.contains(2));
        assert!(!r.contains(3));
    }
}
