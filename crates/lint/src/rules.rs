//! The two invariants the toolchain cannot hold, as named, testable rules.
//!
//! Each rule pairs a *path scope* (which first-party files it governs)
//! with a *token pattern* (what violates it). Both skip test-gated regions
//! and honor the suppression grammar of [`crate::allow`].
//!
//! * [`CAPPED_DECODE`] — in the hostile-input decoders, `with_capacity` /
//!   `reserve` / `vec![x; n]` must be clamped by the remaining input or a
//!   constant cap. No clippy lint knows which sizes came off a wire.
//! * [`DETERMINISM`] — in pipeline-stage, tagger and freeze code, no
//!   *method-chain* iteration (`.iter()`, `.keys()`, `.into_iter()`, …)
//!   over a hash container bound in the same file. `for` loops over hash
//!   types are `clippy::iter_over_hash_type`'s (denied at the same
//!   scope's crate roots and file heads, and type-aware, so it also sees
//!   closure parameters); it does not look at method chains, so this half
//!   stays here. The clock and RNG halves are `clippy.toml`'s
//!   `disallowed-methods` and the vendored `rand`'s API.

use crate::allow::{parse_allows, Allows};
use crate::diag::Finding;
use crate::lexer::{lex, LexError, Tok, TokKind};
use crate::scope::{find_test_regions, matching, TestRegions};

/// Decoder allocations must be clamped by remaining input.
pub const CAPPED_DECODE: &str = "capped-decode";
/// No method-chain iteration over hash containers in deterministic code.
pub const DETERMINISM: &str = "determinism-contract";
/// Meta rule: malformed / stale suppression annotations.
pub const BAD_ANNOTATION: &str = "bad-annotation";
/// Meta rule: a scanned file the lexer could not tokenize.
pub const LEX_ERROR: &str = "lex-error";

/// The rules an annotation may name (meta rules cannot be allowed away).
pub const RULES: &[&str] = &[CAPPED_DECODE, DETERMINISM];

fn capped_decode_scope(rel: &str) -> bool {
    matches!(
        rel,
        "crates/taxonomy/src/persist.rs"
            | "crates/taxonomy/src/view.rs"
            | "crates/taxonomy/src/varint.rs"
            | "crates/serve/src/wire.rs"
            | "crates/serve/src/json.rs"
            | "crates/server/src/http.rs"
    )
}

fn determinism_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        // Tag responses are part of the byte-identical-across-backends
        // contract, so scoring must be a pure function of its input.
        || rel.starts_with("crates/tag/src/")
        || rel == "crates/taxonomy/src/frozen.rs"
        || rel == "crates/taxonomy/src/topo.rs"
}

/// Lints one file's source. `rel` is the workspace-relative path (forward
/// slashes) that decides which rules apply. Returns sorted findings.
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    let lexed = match lex(src) {
        Ok(lexed) => lexed,
        Err(LexError { line, col, message }) => {
            return vec![Finding::new(
                rel,
                (line, col),
                LEX_ERROR,
                format!("cannot tokenize file: {message}"),
                "fix the malformed source; the invariant scan cannot vouch for this file",
            )]
        }
    };
    let toks = &lexed.toks;
    let allows = parse_allows(rel, &lexed.comments, |line| {
        toks.iter().map(|t| t.line).find(|&l| l > line)
    });
    let mut ctx = Ctx {
        rel,
        toks,
        tests: find_test_regions(toks),
        allows: &allows,
        findings: Vec::new(),
    };
    if capped_decode_scope(rel) {
        ctx.rule_capped_decode();
    }
    if determinism_scope(rel) {
        ctx.rule_determinism();
    }

    let mut findings = ctx.findings;
    findings.extend(allows.errors.iter().cloned());
    findings.extend(allows.unused(rel));
    findings.sort_by_key(Finding::sort_key);
    findings
}

struct Ctx<'a> {
    rel: &'a str,
    toks: &'a [Tok],
    tests: TestRegions,
    allows: &'a Allows,
    findings: Vec<Finding>,
}

impl<'a> Ctx<'a> {
    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// The tokens strictly inside the `open`…`close` group at `toks[at]`.
    fn group_inner(&self, at: usize, open: char, close: char) -> &'a [Tok] {
        let end = matching(self.toks, at, open, close);
        end.and_then(|end| self.toks.get(at + 1..end))
            .unwrap_or_default()
    }

    /// Emits a finding at `at` unless the position is test-gated or
    /// suppressed by an annotation.
    fn emit(&mut self, at: &Tok, rule: &'static str, message: String, suggestion: &'static str) {
        if !self.tests.contains(at.line) && !self.allows.suppresses(rule, at.line) {
            let pos = (at.line, at.col);
            self.findings
                .push(Finding::new(self.rel, pos, rule, message, suggestion));
        }
    }

    fn rule_capped_decode(&mut self) {
        let toks = self.toks;
        let varint_names = varint_bindings(toks);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            // What allocates at `t`, and the tokens of its size expression.
            let (what, size) = match t.text.as_str() {
                "with_capacity" | "reserve" | "reserve_exact" if self.is_punct(i + 1, '(') => {
                    (format!("`{}`", t.text), self.group_inner(i + 1, '(', ')'))
                }
                // Only the `vec![elem; len]` repeat form allocates by a
                // length expression.
                "vec" if self.is_punct(i + 1, '!') && self.is_punct(i + 2, '[') => {
                    let inner = self.group_inner(i + 2, '[', ']');
                    let Some(semi) = top_level(inner, ';') else {
                        continue;
                    };
                    let len = inner.get(semi + 1..).unwrap_or_default();
                    ("`vec![…; n]`".to_string(), len)
                }
                _ => continue,
            };
            if args_are_capped(size) {
                continue;
            }
            let idents = size.iter().filter(|a| a.kind == TokKind::Ident);
            let varint = idents
                .map(|a| a.text.as_str())
                .find(|a| varint_names.contains(a));
            let message = match varint {
                Some(name) => format!(
                    "{what} sized by the varint-decoded count `{name}` — a raw wire value — can \
                     allocate unboundedly"
                ),
                None => format!("{what} sized by untrusted input can allocate unboundedly"),
            };
            self.emit(
                t,
                CAPPED_DECODE,
                message,
                "clamp by remaining input bytes (`n.min(buf.remaining() / elem_size)`) or a named \
                 constant cap",
            );
        }
    }

    fn rule_determinism(&mut self) {
        const ITERATORS: [&str; 9] = [
            "iter",
            "iter_mut",
            "keys",
            "values",
            "values_mut",
            "into_iter",
            "into_keys",
            "into_values",
            "drain",
        ];
        let toks = self.toks;
        let hash_names = hash_bindings(toks);
        for (i, t) in toks.iter().enumerate() {
            let method = toks.get(i + 2).filter(|m| m.kind == TokKind::Ident);
            if t.kind == TokKind::Ident
                && hash_names.contains(&t.text.as_str())
                && self.is_punct(i + 1, '.')
                && method.is_some_and(|m| ITERATORS.contains(&m.text.as_str()))
                && self.is_punct(i + 3, '(')
            {
                let message = format!(
                    "iterating hash container `{}` feeds nondeterministic order into \
                     pipeline/freeze output",
                    t.text
                );
                self.emit(t, DETERMINISM, message, "collect and sort before emitting");
            }
        }
    }
}

/// Index of the first `stop` punct in `toks` outside any bracket group.
fn top_level(toks: &[Tok], stop: char) -> Option<usize> {
    let mut depth = 0i32;
    toks.iter().position(|t| {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        }
        depth <= 0 && t.is_punct(stop)
    })
}

/// Every `let` statement of the file as `(pattern, initializer)` token
/// runs, split before its `=` (the initializer is empty without one).
fn let_statements(toks: &[Tok]) -> impl Iterator<Item = (&[Tok], &[Tok])> {
    let lets = toks.iter().enumerate().filter(|(_, t)| t.is_ident("let"));
    lets.map(|(i, _)| {
        let rest = toks.get(i + 1..).unwrap_or_default();
        let stmt = rest.get(..top_level(rest, ';').unwrap_or(rest.len()));
        let stmt = stmt.unwrap_or_default();
        stmt.split_at(top_level(stmt, '=').unwrap_or(stmt.len()))
    })
}

fn mentions(toks: &[Tok], names: &[&str]) -> bool {
    let mut idents = toks.iter().filter(|t| t.kind == TokKind::Ident);
    idents.any(|t| names.contains(&t.text.as_str()))
}

/// Names bound to hash containers in this file: `let [mut] NAME … =
/// FxHashMap::…;` bindings and `NAME: HashMap<…>` fields / ascriptions.
fn hash_bindings(toks: &[Tok]) -> Vec<&str> {
    const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
    let mut names = Vec::new();
    for (pattern, init) in let_statements(toks) {
        let name = pattern.iter().find(|t| !t.is_ident("mut"));
        if let Some(name) = name.filter(|t| t.kind == TokKind::Ident) {
            if mentions(pattern, &HASH_TYPES) || mentions(init, &HASH_TYPES) {
                names.push(name.text.as_str());
            }
        }
    }
    for w in toks.windows(3) {
        if let [name, colon, ty] = w {
            let hash_ty = ty.kind == TokKind::Ident && HASH_TYPES.contains(&ty.text.as_str());
            if name.kind == TokKind::Ident && colon.is_punct(':') && hash_ty {
                names.push(name.text.as_str());
            }
        }
    }
    names
}

/// Names bound by statements that decode through the varint readers:
/// `let n = read_varint(…)?`, `let (v, next) = varint_at(…)` — every
/// identifier of the pattern, since a tuple pattern binds all its names.
fn varint_bindings(toks: &[Tok]) -> Vec<&str> {
    let mut names = Vec::new();
    for (pattern, init) in let_statements(toks) {
        if mentions(init, &["read_varint", "varint_at"]) {
            let idents = pattern.iter().filter(|t| t.kind == TokKind::Ident);
            names.extend(idents.map(|t| t.text.as_str()).filter(|&t| t != "mut"));
        }
    }
    names
}

/// An allocation-size argument is considered capped when it is clamped
/// (`.min(…)` / anything mentioning the remaining input) or when it is a
/// compile-time constant (only literals and SCREAMING_CASE idents).
fn args_are_capped(args: &[Tok]) -> bool {
    let clamped = |t: &Tok| t.text == "min" || t.text.contains("remaining");
    args.iter().all(|t| match t.kind {
        TokKind::Num | TokKind::Punct => true,
        TokKind::Ident => is_const_ident(&t.text),
        _ => false,
    }) || args.iter().any(|t| t.kind == TokKind::Ident && clamped(t))
}

/// `MAX_BODY_BYTES`-style constant names (and the `as usize` of a cast
/// such as `1 << 16 as usize`).
fn is_const_ident(name: &str) -> bool {
    name.chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        || matches!(name, "usize" | "u64" | "u32" | "u16" | "u8" | "as")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, src).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn allow_annotation_suppresses_and_must_be_used() {
        let src = "fn f(n: usize) {\n  v.reserve(n); // cnp-lint: allow(capped-decode) reason=\"n is checked by the caller\"\n}\n";
        assert!(rules("crates/serve/src/json.rs", src).is_empty());
        let stale =
            "fn f() {\n  // cnp-lint: allow(capped-decode) reason=\"nothing\"\n  clean();\n}\n";
        assert_eq!(rules("crates/serve/src/json.rs", stale), [BAD_ANNOTATION]);
    }

    #[test]
    fn capped_decode_distinguishes_clamped_from_raw() {
        let flagged = "fn d(n: usize, len: usize) {\n  let mut v = Vec::with_capacity(n);\n  let b = vec![0u8; len];\n}\n";
        let f = check_file("crates/taxonomy/src/persist.rs", flagged);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert_eq!((f[0].line, f[0].col, f[0].rule), (2, 20, CAPPED_DECODE));
        let ok = "fn d(n: usize, buf: &B) {\n  let mut v = Vec::with_capacity(n.min(buf.remaining() / 4));\n  let mut w = BytesMut::with_capacity(1 << 16);\n  let c = Vec::with_capacity(MAX_HEADERS);\n  let list = vec![1, 2, 3];\n  v.reserve();\n}\n";
        assert!(rules("crates/taxonomy/src/persist.rs", ok).is_empty());
    }

    #[test]
    fn capped_decode_only_governs_decode_files() {
        let src = "fn f(n: usize) { let v = Vec::with_capacity(n); }";
        assert!(rules("crates/serve/src/exec.rs", src).is_empty());
        for rel in [
            "serve/src/json.rs",
            "taxonomy/src/view.rs",
            "taxonomy/src/varint.rs",
        ] {
            assert_eq!(rules(&format!("crates/{rel}"), src), [CAPPED_DECODE]);
        }
        let gated = format!("#[cfg(test)]\nmod tests {{\n  {src}\n}}\n");
        assert!(rules("crates/serve/src/json.rs", &gated).is_empty());
    }

    #[test]
    fn varint_decoded_counts_are_called_out_by_name() {
        let flagged = "fn d(buf: &mut &[u8]) -> Result<(), E> {\n  let rows = read_varint(buf, \"rows\")? as usize;\n  let mut v = Vec::with_capacity(rows);\n  let bits = vec![0u8; rows];\n  Ok(())\n}\n";
        let f = check_file("crates/taxonomy/src/view.rs", flagged);
        assert_eq!(f.len(), 2, "{f:#?}");
        for finding in &f {
            let named = finding.message.contains("varint-decoded count `rows`");
            assert!(named, "{f:#?}");
        }
        // Tuple patterns bind every name: `varint_at` results count too.
        let tuple = "fn d(buf: &[u8]) {\n  let (n, next) = varint_at(buf, 0).unwrap_or((0, 0));\n  let v = Vec::with_capacity(n as usize);\n}\n";
        let f = check_file("crates/taxonomy/src/persist.rs", tuple);
        assert!(f[0].message.contains("varint-decoded count `n`"), "{f:#?}");
    }

    #[test]
    fn capped_varint_counts_are_clean() {
        let ok = "fn d(buf: &mut &[u8]) -> Result<(), E> {\n  let rows = read_varint(buf, \"rows\")? as usize;\n  let mut v = Vec::with_capacity(rows.min(buf.remaining()));\n  Ok(())\n}\n";
        assert!(rules("crates/taxonomy/src/view.rs", ok).is_empty());
    }

    #[test]
    fn determinism_catches_hash_method_chains_and_leaves_loops_to_clippy() {
        let src = "struct S { seen: HashSet<u32> }\nfn f(s: &S) {\n  let mut m = FxHashMap::default();\n  for (k, v) in &m { emit(k); }\n  m.keys().for_each(drop);\n  s.seen.iter().count();\n  let v: Vec<u32> = Vec::new();\n  v.iter().count();\n}\n";
        let f = check_file("crates/core/src/generation/x.rs", src);
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [5, 6], "{f:#?}");
        assert!(f.iter().all(|x| x.rule == DETERMINISM));
        for rel in ["crates/tag/src/score.rs", "crates/taxonomy/src/frozen.rs"] {
            assert_eq!(rules(rel, src), [DETERMINISM; 2]);
        }
        assert!(rules("crates/serve/src/exec.rs", src).is_empty());
    }

    #[test]
    fn lex_error_is_a_finding_not_a_crash() {
        let f = rules("crates/serve/src/x.rs", "fn f() { \"unterminated }");
        assert_eq!(f, [LEX_ERROR]);
    }

    #[test]
    fn findings_come_out_sorted() {
        let src = "fn f(n: usize) {\n  b.reserve(n);\n  let a = vec![0; n];\n}\n";
        let f = check_file("crates/serve/src/wire.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }
}
