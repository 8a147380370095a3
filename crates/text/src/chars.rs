//! Character-class utilities for Chinese text.
//!
//! Chinese has no word spaces, so tokenization decisions start at the
//! character level: which characters are Han ideographs (candidates for
//! dictionary words), which are punctuation (hard segment boundaries), and
//! which are Latin/digit runs (kept as single tokens).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// Returns `true` for characters in the main CJK unified ideograph blocks.
pub fn is_han(c: char) -> bool {
    matches!(c,
        '\u{4E00}'..='\u{9FFF}'        // CJK Unified Ideographs
        | '\u{3400}'..='\u{4DBF}'      // Extension A
        | '\u{F900}'..='\u{FAFF}'      // Compatibility Ideographs
    )
}

/// Returns `true` for CJK and general punctuation that terminates a segment.
pub fn is_punct(c: char) -> bool {
    matches!(
        c,
        '，' | '。'
            | '、'
            | '；'
            | '：'
            | '？'
            | '！'
            | '（'
            | '）'
            | '《'
            | '》'
            | '“'
            | '”'
            | '‘'
            | '’'
            | '—'
            | '…'
            | '·'
            | '【'
            | '】'
            | '「'
            | '」'
    ) || c.is_ascii_punctuation()
        || c.is_whitespace()
}

/// Returns `true` for ASCII alphanumeric characters (kept as atomic runs).
pub fn is_alnum(c: char) -> bool {
    c.is_ascii_alphanumeric()
}

/// A maximal run of characters sharing one coarse class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Run<'a> {
    /// A run of Han ideographs, to be segmented by the dictionary DAG.
    Han(&'a str),
    /// A run of ASCII letters/digits, kept as one token (e.g. `iPhone`, `63KG`).
    Alnum(&'a str),
    /// A run of punctuation / whitespace; a hard boundary.
    Punct(&'a str),
}

/// Splits text into maximal runs of one character class.
///
/// This is the pre-pass of the segmenter: dictionary segmentation only ever
/// happens inside a single [`Run::Han`].
pub fn class_runs(text: &str) -> Vec<Run<'_>> {
    #[derive(PartialEq, Clone, Copy)]
    enum Class {
        Han,
        Alnum,
        Punct,
    }
    fn class_of(c: char) -> Class {
        if is_han(c) {
            Class::Han
        } else if is_alnum(c) {
            Class::Alnum
        } else {
            Class::Punct
        }
    }

    let mut runs = Vec::new();
    let mut start = 0usize;
    let mut cur: Option<Class> = None;
    for (idx, ch) in text.char_indices() {
        let cl = class_of(ch);
        match cur {
            None => {
                cur = Some(cl);
                start = idx;
            }
            Some(prev) if prev == cl => {}
            Some(prev) => {
                runs.push(make_run(prev, &text[start..idx]));
                cur = Some(cl);
                start = idx;
            }
        }
    }
    if let Some(prev) = cur {
        runs.push(make_run(prev, &text[start..]));
    }
    return runs;

    fn make_run(class: Class, s: &str) -> Run<'_> {
        match class {
            Class::Han => Run::Han(s),
            Class::Alnum => Run::Alnum(s),
            Class::Punct => Run::Punct(s),
        }
    }
}

/// Number of `char`s in a string (CJK-safe length).
pub fn char_len(s: &str) -> usize {
    s.chars().count()
}

/// Substring by `char` offsets (inclusive start, exclusive end).
///
/// Panics if the offsets are out of range or reversed, mirroring slice
/// indexing semantics.
pub fn char_slice(s: &str, start: usize, end: usize) -> &str {
    assert!(start <= end, "char_slice: start {start} > end {end}");
    let mut iter = s.char_indices();
    let byte_start = iter.nth(start).map(|(b, _)| b).unwrap_or_else(|| s.len());
    if start == end {
        return &s[byte_start..byte_start];
    }
    let byte_end = s.char_indices().nth(end).map(|(b, _)| b).unwrap_or(s.len());
    &s[byte_start..byte_end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn han_detection() {
        assert!(is_han('中'));
        assert!(is_han('龙'));
        assert!(!is_han('a'));
        assert!(!is_han('，'));
        assert!(!is_han('1'));
    }

    #[test]
    fn punct_detection() {
        assert!(is_punct('，'));
        assert!(is_punct('。'));
        assert!(is_punct('('));
        assert!(is_punct(' '));
        assert!(!is_punct('中'));
    }

    #[test]
    fn runs_split_mixed_text() {
        let runs = class_runs("刘德华Andy，1961年");
        assert_eq!(
            runs,
            vec![
                Run::Han("刘德华"),
                Run::Alnum("Andy"),
                Run::Punct("，"),
                Run::Alnum("1961"),
                Run::Han("年"),
            ]
        );
    }

    #[test]
    fn runs_empty_input() {
        assert!(class_runs("").is_empty());
    }

    #[test]
    fn runs_single_class() {
        assert_eq!(class_runs("测试文本"), vec![Run::Han("测试文本")]);
    }

    #[test]
    fn char_len_counts_chars_not_bytes() {
        assert_eq!(char_len("蚂蚁金服"), 4);
        assert_eq!("蚂蚁金服".len(), 12);
    }

    #[test]
    fn char_slice_cjk() {
        assert_eq!(char_slice("蚂蚁金服首席", 2, 4), "金服");
        assert_eq!(char_slice("蚂蚁", 0, 2), "蚂蚁");
        assert_eq!(char_slice("蚂蚁", 1, 1), "");
        assert_eq!(char_slice("蚂蚁", 2, 2), "");
    }
}
