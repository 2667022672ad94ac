//! A minimal hand-rolled Rust lexer for line-oriented static analysis.
//!
//! The workspace is built fully offline with no `syn`/`proc-macro2`
//! available, so the lint engine works on a *cleaned* view of each source
//! file: comments and the contents of string/char literals are blanked out
//! (replaced by spaces, preserving columns), while `// lint: allow(...)`
//! escape-hatch directives found in line comments are extracted and attached
//! to the lines they govern. Rules then pattern-match on the cleaned text
//! without tripping over occurrences inside strings or docs.

/// One source line after cleaning.
#[derive(Debug, Clone)]
pub struct CleanLine {
    /// 1-based line number in the original file.
    pub number: usize,
    /// The line with comments and literal contents blanked to spaces.
    /// Columns line up with the raw text (multi-byte chars become one
    /// space each, which is fine for matching purposes).
    pub code: String,
    /// The raw line, for finding snippets.
    pub raw: String,
    /// Rules allowed on this line via `// lint: allow(rule, ...)` — either
    /// trailing on the line or in a standalone comment directly above.
    pub allows: Vec<String>,
}

/// A whole file after cleaning.
#[derive(Debug, Clone)]
pub struct CleanFile {
    /// Cleaned lines, in order.
    pub lines: Vec<CleanLine>,
    /// Rules allowed for the entire file via `// lint: allow-file(rule)`.
    pub file_allows: Vec<String>,
}

impl CleanFile {
    /// `true` if `rule` is suppressed on `line` (0-based index into
    /// [`CleanFile::lines`]) by a line or file directive.
    pub fn is_allowed(&self, line_index: usize, rule: &str) -> bool {
        self.file_allows.iter().any(|r| r == rule)
            || self
                .lines
                .get(line_index)
                .is_some_and(|l| l.allows.iter().any(|r| r == rule))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Lexes `source` into its cleaned representation.
pub fn clean(source: &str) -> CleanFile {
    let mut lines: Vec<CleanLine> = Vec::new();
    let mut file_allows: Vec<String> = Vec::new();

    let mut state = State::Code;
    let mut code = String::new();
    let mut raw_line = String::new();
    let mut comment = String::new();
    let mut line_allows: Vec<String> = Vec::new();
    // Directives from a standalone comment line apply to the next code line.
    let mut pending_allows: Vec<String> = Vec::new();
    let mut number = 1usize;

    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    while i <= chars.len() {
        let c = if i < chars.len() { chars[i] } else { '\n' };
        let at_eof = i == chars.len();
        if c != '\n' {
            raw_line.push(c);
        }
        if c == '\n' {
            // Finish the line: parse any comment directive gathered on it.
            if state == State::LineComment {
                state = State::Code;
            }
            let (allows, allow_file) = parse_directives(&comment);
            file_allows.extend(allow_file);
            let line_only_comment = code.trim().is_empty() && !comment.is_empty();
            line_allows.extend(allows.iter().cloned());
            let mut effective = std::mem::take(&mut line_allows);
            if !code.trim().is_empty() {
                effective.extend(std::mem::take(&mut pending_allows));
            }
            if line_only_comment {
                // A standalone directive comment suppresses on the next
                // code line instead.
                pending_allows.append(&mut effective);
            }
            lines.push(CleanLine {
                number,
                code: std::mem::take(&mut code),
                raw: std::mem::take(&mut raw_line),
                allows: effective,
            });
            comment.clear();
            number += 1;
            if at_eof {
                break;
            }
            i += 1;
            continue;
        }

        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push(' ');
                    code.push(' ');
                    raw_line.push('/');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push(' ');
                    code.push(' ');
                    raw_line.push('*');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str;
                    code.push('"');
                    i += 1;
                    continue;
                }
                // Raw (and byte/raw-byte) string starts: r"", r#""#, br"".
                if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    if let Some((hashes, consumed)) = raw_string_start(&chars, i) {
                        state = State::RawStr(hashes);
                        for k in 0..consumed {
                            code.push(chars[i + k]);
                            if k > 0 {
                                raw_line.push(chars[i + k]);
                            }
                        }
                        i += consumed;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal vs lifetime.
                    if let Some(consumed) = char_literal_len(&chars, i) {
                        code.push('\'');
                        for k in 1..consumed {
                            code.push(' ');
                            raw_line.push(chars[i + k]);
                        }
                        i += consumed;
                        continue;
                    }
                    code.push('\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Code
                    };
                    code.push(' ');
                    code.push(' ');
                    raw_line.push('/');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push(' ');
                    code.push(' ');
                    raw_line.push('*');
                    i += 2;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    code.push(' ');
                    if let Some(&n) = chars.get(i + 1) {
                        if n != '\n' {
                            code.push(' ');
                            raw_line.push(n);
                            i += 2;
                            continue;
                        }
                    }
                    i += 1;
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    state = State::Code;
                    code.push('"');
                    for k in 0..hashes as usize {
                        code.push('#');
                        raw_line.push(chars[i + 1 + k]);
                    }
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }

    CleanFile { lines, file_allows }
}

/// `true` if the char before position `i` continues an identifier, which
/// rules out a raw-string prefix (e.g. the final `r` of `for`).
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If a raw/raw-byte string literal (`r"…"`, `r#"…"#`, `br"…"`) starts at
/// `i`, returns `(hash_count, chars_consumed_through_opening_quote)`.
///
/// Plain byte strings `b"…"` are *not* raw: they process `\"` escapes, so
/// they must go through the escape-aware [`State::Str`] path (the `b` is
/// left in the code stream and the following quote enters `Str`).
/// Routing them here once made `b"\""` terminate at the escaped quote and
/// leak the rest of the literal into analysis.
fn raw_string_start(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j - i + 1))
    } else {
        None
    }
}

/// `true` if the quote at `i` is followed by `hashes` pound signs.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a char literal starts at `i`, returns its length in chars; `None`
/// for lifetimes.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escape: the char after the backslash is consumed
            // unconditionally (so `'\''` measures 4, not 3 — scanning
            // from the escaped char itself once mistook it for the
            // terminator), then scan to the closing quote (bounded).
            let mut j = i + 3;
            while j < chars.len() && j - i < 12 {
                if chars[j] == '\'' {
                    return Some(j - i + 1);
                }
                j += 1;
            }
            None
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(3),
        _ => None,
    }
}

/// Extracts `lint: allow(...)` / `lint: allow-file(...)` directives from a
/// line comment's text. Returns `(line_allows, file_allows)`.
fn parse_directives(comment: &str) -> (Vec<String>, Vec<String>) {
    let mut line = Vec::new();
    let mut file = Vec::new();
    let text = comment.trim();
    let Some(pos) = text.find("lint:") else {
        return (line, file);
    };
    let rest = text[pos + 5..].trim_start();
    for (prefix, out) in [("allow-file(", &mut file), ("allow(", &mut line)] {
        if let Some(body) = rest.strip_prefix(prefix) {
            if let Some(end) = body.find(')') {
                for rule in body[..end].split(',') {
                    let rule = rule.trim().trim_matches('"');
                    if !rule.is_empty() {
                        out.push(rule.to_owned());
                    }
                }
            }
            break;
        }
    }
    (line, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = clean("let x = \"Instant::now\"; // Instant::now\nInstant::now();\n");
        assert!(!f.lines[0].code.contains("Instant"));
        assert!(f.lines[1].code.contains("Instant::now"));
        assert_eq!(f.lines[0].raw, "let x = \"Instant::now\"; // Instant::now");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = clean("a /* x /* y */ z\nstill comment */ b\n");
        assert_eq!(f.lines[0].code.trim_start().chars().next(), Some('a'));
        assert!(!f.lines[1].code.contains("still"));
        assert!(f.lines[1].code.contains('b'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = clean("let s = r#\"Instant::now \"quoted\" \"#; call();\n");
        assert!(!f.lines[0].code.contains("Instant"));
        assert!(f.lines[0].code.contains("call()"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let f = clean("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }\n");
        assert!(f.lines[0].code.contains("<'a>"));
        assert!(!f.lines[0].code.contains('x') || f.lines[0].code.contains("x:"));
    }

    #[test]
    fn trailing_directive_attaches_to_its_line() {
        let f = clean("foo(); // lint: allow(wall-clock)\nbar();\n");
        assert!(f.is_allowed(0, "wall-clock"));
        assert!(!f.is_allowed(1, "wall-clock"));
    }

    #[test]
    fn standalone_directive_attaches_to_next_code_line() {
        let f = clean("// lint: allow(unwrap, hot-alloc): checked above\nfoo();\n");
        assert!(f.is_allowed(1, "unwrap"));
        assert!(f.is_allowed(1, "hot-alloc"));
        assert!(!f.is_allowed(0, "unwrap"));
    }

    #[test]
    fn file_directive_covers_every_line() {
        let f = clean("// lint: allow-file(float-eq)\na[0];\nb[1];\n");
        assert!(f.is_allowed(1, "float-eq"));
        assert!(f.is_allowed(2, "float-eq"));
    }

    #[test]
    fn byte_strings_process_escapes() {
        // Regression: `b"\""` once entered the raw-string state, so the
        // escaped quote closed the literal early and the tail — here a
        // banned call — leaked into the cleaned code stream.
        let f = clean("let s = b\"\\\" Instant::now() \"; call();\n");
        assert!(!f.lines[0].code.contains("Instant"), "{:?}", f.lines[0]);
        assert!(f.lines[0].code.contains("call()"));
    }

    #[test]
    fn escaped_quote_char_literal_measures_correctly() {
        // Regression: `'\''` once measured 3 chars instead of 4, leaving
        // a stray quote that swallowed the rest of the line as a string.
        let f = clean("let q = '\\''; let bad = banned_call();\n");
        assert!(
            f.lines[0].code.contains("banned_call()"),
            "{:?}",
            f.lines[0]
        );
        let f = clean("let n = '\\n'; keep();\n");
        assert!(f.lines[0].code.contains("keep()"));
        let f = clean("let u = '\\u{1F600}'; keep();\n");
        assert!(f.lines[0].code.contains("keep()"));
    }

    #[test]
    fn raw_byte_strings_and_raw_identifiers() {
        let f = clean("let s = br#\"Instant::now\"#; call();\n");
        assert!(!f.lines[0].code.contains("Instant"));
        assert!(f.lines[0].code.contains("call()"));
        // A raw identifier `r#loop` is not a raw string.
        let f = clean("let r#loop = 1; call();\n");
        assert!(f.lines[0].code.contains("call()"));
        assert!(f.lines[0].code.contains("r#loop"));
    }

    #[test]
    fn columns_are_preserved_through_literals() {
        let raw = "let s = \"abc\"; x()";
        let f = clean(&format!("{raw}\n"));
        assert_eq!(f.lines[0].code.len(), raw.len());
        assert_eq!(f.lines[0].code.find("x()"), raw.find("x()"));
    }
}
