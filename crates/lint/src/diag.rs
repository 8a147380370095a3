//! Diagnostics: the [`Finding`] type and its one-line text rendering.

use std::fmt;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The rule name (kebab-case).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix (or legitimately suppress) it.
    pub suggestion: &'static str,
}

impl Finding {
    /// Builds a finding at `(line, col)`.
    pub fn new(
        file: &str,
        (line, col): (u32, u32),
        rule: &'static str,
        message: String,
        suggestion: &'static str,
    ) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            col,
            rule,
            message,
            suggestion,
        }
    }

    /// The stable sort key diagnostics are emitted in.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str) {
        (self.file.clone(), self.line, self.col, self.rule)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} · {} · {} — {}",
            self.file, self.line, self.col, self.rule, self.message, self.suggestion
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_has_the_documented_shape() {
        let f = Finding::new(
            "crates/serve/src/json.rs",
            (449, 13),
            "capped-decode",
            "`reserve` sized by untrusted input".to_string(),
            "clamp by remaining input bytes",
        );
        let text = f.to_string();
        assert!(text.starts_with("crates/serve/src/json.rs:449:13 · capped-decode · "));
        assert!(text.contains("— clamp by remaining"));
    }
}
