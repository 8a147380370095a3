//! The suppression grammar: `// cnp-lint: allow(<rule>) reason="…"`.
//!
//! An annotation on the same line as the offending code suppresses that
//! rule on that line; an annotation alone on its own line suppresses the
//! rule on the next code line (the rustfmt-friendly placement).
//!
//! The `reason` is **mandatory and non-empty**: a suppression without a
//! recorded justification is itself a finding, as is a reference to a
//! rule that does not exist and an allow that suppresses nothing (stale
//! annotations rot the invariant they were cut into). For the invariants
//! clippy holds, `#[expect(…, reason = "…")]` gives the same three
//! guarantees.

use crate::diag::Finding;
use crate::lexer::Comment;
use crate::rules::{BAD_ANNOTATION, RULES};
use std::cell::Cell;

/// One parsed, well-formed allow annotation.
#[derive(Debug)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// The line the suppression applies to.
    pub reach: u32,
    /// Line the annotation itself sits on (for unused-allow reporting).
    pub at_line: u32,
    /// Set when a suppressed finding consumed this allow.
    pub used: Cell<bool>,
}

/// All annotations of one file plus the findings produced by malformed
/// ones.
#[derive(Debug, Default)]
pub struct Allows {
    /// Well-formed annotations.
    pub allows: Vec<Allow>,
    /// Malformed-annotation findings (missing reason, unknown rule…).
    pub errors: Vec<Finding>,
}

impl Allows {
    /// Whether `rule` is suppressed at `line`, marking the matching
    /// annotation used.
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        let mut hits = self.allows.iter();
        let hit = hits.find(|a| a.rule == rule && a.reach == line);
        if let Some(allow) = hit {
            allow.used.set(true);
        }
        hit.is_some()
    }

    /// Findings for annotations that suppressed nothing.
    pub fn unused(&self, file: &str) -> Vec<Finding> {
        let stale = self.allows.iter().filter(|a| !a.used.get());
        let finding = |a: &Allow| {
            let message = format!("allow({}) suppresses nothing", a.rule);
            let fix =
                "remove the stale annotation (it would mask a future regression at this line)";
            Finding::new(file, (a.at_line, 1), BAD_ANNOTATION, message, fix)
        };
        stale.map(finding).collect()
    }
}

const MARKER: &str = "cnp-lint:";

/// Extracts annotations from a file's comments. `code_line_after` maps an
/// own-line comment to the next line holding code (so a comment directly
/// above the offending statement suppresses it).
pub fn parse_allows(
    file: &str,
    comments: &[Comment],
    mut code_line_after: impl FnMut(u32) -> Option<u32>,
) -> Allows {
    let mut out = Allows::default();
    for c in comments {
        // The marker must LEAD the comment (after doc-comment `/`/`!`
        // sigils) — prose that merely *mentions* `cnp-lint:` mid-sentence,
        // like this module's own docs, is not an annotation.
        let lead = c.text.trim_start_matches(['/', '!', ' ', '\t']);
        let Some(body) = lead.strip_prefix(MARKER) else {
            continue;
        };
        let mut error = |message: String, suggestion| {
            let at = (c.line, c.col);
            out.errors
                .push(Finding::new(file, at, BAD_ANNOTATION, message, suggestion));
        };
        match parse_one(body.trim()) {
            Ok(rule) if !RULES.contains(&rule) => error(
                format!("unknown rule {rule:?} in cnp-lint allow"),
                "the rules are capped-decode and determinism-contract",
            ),
            Ok(rule) => {
                let next_code = if c.own_line {
                    code_line_after(c.line)
                } else {
                    None
                };
                out.allows.push(Allow {
                    rule: rule.to_string(),
                    reach: next_code.unwrap_or(c.line),
                    at_line: c.line,
                    used: Cell::new(false),
                });
            }
            Err(why) => error(
                why.to_string(),
                "write `// cnp-lint: allow(<rule>) reason=\"non-empty justification\"`",
            ),
        }
    }
    out
}

/// Parses the annotation body after the `cnp-lint:` marker into the rule
/// name it allows.
fn parse_one(body: &str) -> Result<&str, &'static str> {
    let Some(rest) = body.strip_prefix("allow(") else {
        return Err("expected allow(<rule>) after cnp-lint:");
    };
    let Some((rule, tail)) = rest.split_once(')') else {
        return Err("unclosed rule name parenthesis");
    };
    let rule = rule.trim();
    if rule.is_empty() || rule.contains(',') {
        return Err("exactly one rule name per annotation");
    }
    let Some(reason) = tail.trim().strip_prefix("reason=") else {
        return Err("missing mandatory reason=\"…\"");
    };
    let quoted = reason.trim().strip_prefix('"');
    match quoted.and_then(|r| r.split_once('"')) {
        Some((text, _)) if !text.trim().is_empty() => Ok(rule),
        Some(_) => Err("reason must not be empty"),
        None => Err("reason must be a double-quoted string"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Allows {
        let lexed = lex(src).expect("lex");
        let toks = lexed.toks;
        parse_allows("f.rs", &lexed.comments, move |line| {
            toks.iter().map(|t| t.line).find(|&l| l > line)
        })
    }

    #[test]
    fn trailing_allow_reaches_its_own_line() {
        let a = parse("x.iter(); // cnp-lint: allow(determinism-contract) reason=\"test rig\"\n");
        assert_eq!(a.errors.len(), 0);
        assert_eq!(a.allows.len(), 1);
        assert_eq!(a.allows[0].reach, 1);
        assert!(!a.suppresses("capped-decode", 1));
        assert!(!a.suppresses("determinism-contract", 2));
        assert!(a.suppresses("determinism-contract", 1));
    }

    #[test]
    fn own_line_allow_reaches_next_code_line() {
        let a = parse(
            "// cnp-lint: allow(capped-decode) reason=\"len checked above\"\n\nlet v = vec![0; n];\n",
        );
        assert_eq!((a.allows[0].reach, a.allows[0].at_line), (3, 1));
    }

    #[test]
    fn missing_or_empty_reason_is_a_finding() {
        for bad in [
            "x(); // cnp-lint: allow(capped-decode)",
            "x(); // cnp-lint: allow(capped-decode) reason=\"\"",
            "x(); // cnp-lint: allow(capped-decode) reason=none",
            "x(); // cnp-lint: deny(capped-decode) reason=\"x\"",
            "x(); // cnp-lint: allow-file(capped-decode) reason=\"x\"",
        ] {
            let a = parse(bad);
            assert_eq!(a.errors.len(), 1, "no finding for {bad:?}");
            assert_eq!(a.allows.len(), 0);
        }
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        // Including the four rules the toolchain took over.
        for rule in ["no-such-rule", "no-panic-serving-path"] {
            let a = parse(&format!("x(); // cnp-lint: allow({rule}) reason=\"hm\""));
            assert_eq!(a.errors.len(), 1);
            assert!(a.errors[0].message.contains("unknown rule"));
        }
    }

    #[test]
    fn unused_allows_are_reported() {
        let a = parse("x(); // cnp-lint: allow(capped-decode) reason=\"nothing here\"");
        let unused = a.unused("f.rs");
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("suppresses nothing"));
    }
}
