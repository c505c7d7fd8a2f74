//! Workspace automation tool. Three subcommands: `lint`,
//! `check-telemetry` and `loc`.
//!
//! `cargo run -p gpnm-xtask -- lint` runs the source-level concurrency
//! lint described in the workspace README ("Correctness tooling"): a
//! purely lexical pass (no rustc plumbing, no external parser) that
//! enforces the `SAFETY:` / `RELAXED:` commenting discipline, each crate
//! root's unsafe policy and no ad-hoc printing in library crates, and that
//! no README line or source comment cites a `BENCH_*.json` result file or
//! an upper-case `*.md` document missing from the repository root
//! (deleting either fails the lint until its citations go too).
//! Diagnostics are `path:line: message`; any finding exits nonzero.
//!
//! `cargo run -p gpnm-xtask -- check-telemetry [--metrics FILE]
//! [--trace FILE]` validates the replay exporters' output: the Prometheus
//! text dump (`--metrics-out`) and the Chrome trace-event JSON
//! (`--trace-out`). CI runs a replay with both exporters and feeds the
//! files through this check.
//!
//! `cargo run -p gpnm-xtask -- loc` prints, per crate, the code-line and
//! `pub`-item counts ROADMAP aim 2 tracks per PR. It only prints: there is
//! no threshold to fail and no flag to pass.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let findings = lint::run(Path::new("."));
            if findings.is_empty() {
                eprintln!("lint: ok");
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("lint: {} finding(s)", findings.len());
                std::process::exit(1);
            }
        }
        Some("check-telemetry") => {
            let findings = match telemetry_check::run(&args[1..]) {
                Ok(findings) => findings,
                Err(e) => {
                    eprintln!("check-telemetry: {e}");
                    std::process::exit(2);
                }
            };
            if findings.is_empty() {
                eprintln!("check-telemetry: ok");
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("check-telemetry: {} finding(s)", findings.len());
                std::process::exit(1);
            }
        }
        Some("loc") => print!("{}", loc::report(Path::new("."))),
        _ => {
            eprintln!(
                "usage: cargo run -p gpnm-xtask -- lint\n\
                 \x20      cargo run -p gpnm-xtask -- check-telemetry [--metrics FILE] [--trace FILE]\n\
                 \x20      cargo run -p gpnm-xtask -- loc"
            );
            std::process::exit(2);
        }
    }
}

mod lint {
    use super::*;

    /// Directories walked for `.rs` files, relative to the workspace root.
    const ROOTS: &[&str] = &["crates", "shims", "src", "tests"];

    /// How far above a `Relaxed` site its `// RELAXED:` justification may
    /// sit (a comment often covers a short block of related atomics).
    const RELAXED_LOOKBACK: usize = 6;

    pub fn run(root: &Path) -> Vec<String> {
        let mut findings = Vec::new();
        let mut files = Vec::new();
        for top in ROOTS {
            walk(&root.join(top), &mut files);
        }
        files.sort();
        for path in &files {
            let Ok(src) = std::fs::read_to_string(path) else {
                findings.push(format!("{}: unreadable", rel(path, root)));
                continue;
            };
            let lines = split_code_comments(&src);
            let name = rel(path, root);
            check_safety_comments(&name, &lines, &mut findings);
            check_relaxed_comments(&name, &lines, &mut findings);
            if !print_exempt(&name) {
                check_no_adhoc_printing(&name, &lines, &mut findings);
            }
            for (i, line) in lines.iter().enumerate() {
                check_cited_root_files(root, &name, i, &line.comment, &mut findings);
            }
        }
        if let Ok(readme) = std::fs::read_to_string(root.join("README.md")) {
            for (i, line) in readme.lines().enumerate() {
                check_cited_root_files(root, "README.md", i, line, &mut findings);
            }
        }
        check_crate_attrs(root, &files, &mut findings);
        findings
    }

    fn rel(path: &Path, root: &Path) -> String {
        path.strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/")
    }

    pub fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// One source line split into its code part and its comment part
    /// (string/char-literal contents blanked out of the code part).
    pub struct Line {
        pub code: String,
        pub comment: String,
    }

    impl Line {
        fn is_blank(&self) -> bool {
            self.code.trim().is_empty() && self.comment.trim().is_empty()
        }
        fn is_pure_comment(&self) -> bool {
            self.code.trim().is_empty() && !self.comment.trim().is_empty()
        }
    }

    /// Lexical splitter: walks the file once, routing every character to
    /// either the code stream or the comment stream of its line. Handles
    /// line comments, nested block comments, string/raw-string/byte
    /// literals, and char literals vs. lifetimes. String contents are
    /// replaced by a single `"` pair so token boundaries survive.
    pub fn split_code_comments(src: &str) -> Vec<Line> {
        enum St {
            Code,
            Line,
            Block(u32),
            Str { raw_hashes: Option<u32> },
        }
        let mut st = St::Code;
        let mut out = Vec::new();
        let mut code = String::new();
        let mut comment = String::new();
        let chars: Vec<char> = src.chars().collect();
        let mut i = 0;
        let n = chars.len();
        let mut prev_ident = false; // was the previous code char ident-like?
        while i < n {
            let c = chars[i];
            if c == '\n' {
                out.push(Line {
                    code: std::mem::take(&mut code),
                    comment: std::mem::take(&mut comment),
                });
                if matches!(st, St::Line) {
                    st = St::Code;
                }
                prev_ident = false;
                i += 1;
                continue;
            }
            match st {
                St::Code => {
                    if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                        st = St::Line;
                        i += 2;
                        continue;
                    }
                    if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                        st = St::Block(1);
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        code.push('"');
                        st = St::Str { raw_hashes: None };
                        i += 1;
                        prev_ident = false;
                        continue;
                    }
                    // Raw / byte-string openers: r"…", r#"…"#, br"…", b"…".
                    if (c == 'r' || c == 'b') && !prev_ident {
                        let mut j = i + 1;
                        if c == 'b' && j < n && chars[j] == 'r' {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while j < n && chars[j] == '#' {
                            hashes += 1;
                            j += 1;
                        }
                        let rawish = j > i + 1 || c == 'r';
                        if rawish && j < n && chars[j] == '"' {
                            code.push('"');
                            st = St::Str {
                                raw_hashes: Some(hashes),
                            };
                            i = j + 1;
                            prev_ident = false;
                            continue;
                        }
                        if c == 'b' && i + 1 < n && chars[i + 1] == '\'' {
                            // Byte-char literal b'…': skip like a char.
                            code.push('\'');
                            i = skip_char_literal(&chars, i + 1);
                            prev_ident = false;
                            continue;
                        }
                    }
                    if c == '\'' && !prev_ident {
                        // Char literal or lifetime. A literal closes with a
                        // quote right after one (possibly escaped) char; a
                        // lifetime never closes.
                        let after = skip_char_literal(&chars, i);
                        if after > i {
                            code.push('\'');
                            i = after;
                            prev_ident = false;
                            continue;
                        }
                    }
                    code.push(c);
                    prev_ident = c.is_alphanumeric() || c == '_';
                    i += 1;
                }
                St::Line => {
                    comment.push(c);
                    i += 1;
                }
                St::Block(depth) => {
                    if c == '*' && i + 1 < n && chars[i + 1] == '/' {
                        st = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                        st = St::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                St::Str { raw_hashes } => match raw_hashes {
                    None => {
                        if c == '\\' {
                            i += 2;
                        } else if c == '"' {
                            code.push('"');
                            st = St::Code;
                            i += 1;
                        } else {
                            i += 1;
                        }
                    }
                    Some(hashes) => {
                        if c == '"' {
                            let mut j = i + 1;
                            let mut seen = 0u32;
                            while j < n && seen < hashes && chars[j] == '#' {
                                seen += 1;
                                j += 1;
                            }
                            if seen == hashes {
                                code.push('"');
                                st = St::Code;
                                i = j;
                                continue;
                            }
                        }
                        i += 1;
                    }
                },
            }
        }
        if !code.is_empty() || !comment.is_empty() {
            out.push(Line { code, comment });
        }
        out
    }

    /// Index just past a char literal starting at the `'` in `chars[at]`,
    /// or `at` if it is a lifetime rather than a literal.
    fn skip_char_literal(chars: &[char], at: usize) -> usize {
        let n = chars.len();
        let mut j = at + 1;
        if j >= n {
            return at;
        }
        if chars[j] == '\\' {
            j += 1;
            if j < n && (chars[j] == 'x' || chars[j] == 'u') {
                // \xNN or \u{…}: scan to the closing quote, bounded.
                let mut k = j + 1;
                while k < n && k < j + 10 && chars[k] != '\'' {
                    k += 1;
                }
                return if k < n && chars[k] == '\'' { k + 1 } else { at };
            }
            j += 1;
            return if j < n && chars[j] == '\'' { j + 1 } else { at };
        }
        if chars[j] == '\'' {
            // '' is not a char literal.
            return at;
        }
        j += 1;
        if j < n && chars[j] == '\'' {
            j + 1
        } else {
            at
        }
    }

    /// `word` as a whole token inside `code`.
    fn has_word(code: &str, word: &str) -> bool {
        let bytes = code.as_bytes();
        let mut from = 0;
        while let Some(pos) = code[from..].find(word) {
            let start = from + pos;
            let end = start + word.len();
            let before_ok = start == 0 || {
                let b = bytes[start - 1];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            let after_ok = end == bytes.len() || {
                let b = bytes[end];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            if before_ok && after_ok {
                return true;
            }
            from = end;
        }
        false
    }

    /// Rule 1: every `unsafe` token is covered by a `SAFETY:` comment —
    /// trailing on the same line, or in the contiguous pure-comment block
    /// immediately above it.
    fn check_safety_comments(name: &str, lines: &[Line], findings: &mut Vec<String>) {
        for (i, line) in lines.iter().enumerate() {
            if !has_word(&line.code, "unsafe") {
                continue;
            }
            // `unsafe_op_in_unsafe_fn` / `unsafe_code` in attributes are
            // lint names, not unsafe code.
            if line.code.trim_start().starts_with("#!") || line.code.trim_start().starts_with("#[")
            {
                continue;
            }
            let mut ok = line.comment.contains("SAFETY:");
            let mut j = i;
            while !ok && j > 0 && lines[j - 1].is_pure_comment() {
                j -= 1;
                ok = lines[j].comment.contains("SAFETY:");
            }
            if !ok {
                push(findings, name, i, "`unsafe` without a `// SAFETY:` comment (same line or the comment block directly above)");
            }
        }
    }

    /// Rule 2: every `Relaxed` ordering carries a `RELAXED:`
    /// justification — same line, or a comment within the
    /// lookback window above (stopping at a blank line).
    fn check_relaxed_comments(name: &str, lines: &[Line], findings: &mut Vec<String>) {
        for (i, line) in lines.iter().enumerate() {
            if !has_word(&line.code, "Relaxed") {
                continue;
            }
            let mut ok = line.comment.contains("RELAXED:");
            let mut j = i;
            let mut steps = 0;
            while !ok && j > 0 && steps < RELAXED_LOOKBACK {
                j -= 1;
                steps += 1;
                if lines[j].is_blank() {
                    break;
                }
                ok = lines[j].comment.contains("RELAXED:");
            }
            if !ok {
                push(findings, name, i, "`Relaxed` ordering without a `// RELAXED:` justification (same line or a comment within the 6 lines above)");
            }
        }
    }

    /// Files where direct stdout/stderr printing is the *product*: CLI
    /// binaries, examples, tests, the shims, and this tool itself.
    fn print_exempt(name: &str) -> bool {
        name.starts_with("shims/")
            || name.starts_with("tests/")
            || name.starts_with("crates/xtask/")
            || name.contains("/bin/")
            || name.contains("/tests/")
            || name.contains("/examples/")
    }

    /// Rule 4: library crates report through the telemetry layer (spans,
    /// events, metrics) — not ad-hoc console printing a service embedder
    /// cannot intercept.
    fn check_no_adhoc_printing(name: &str, lines: &[Line], findings: &mut Vec<String>) {
        for (i, line) in lines.iter().enumerate() {
            for mac in ["println!", "eprintln!"] {
                if line.code.contains(mac) {
                    push(
                        findings,
                        name,
                        i,
                        &format!("`{mac}` in a library crate — emit a `tracing` event or a metric instead (binaries, tests, examples, and shims are exempt)"),
                    );
                }
            }
        }
    }

    /// The repository-root files `text` names: `BENCH_<name>.json` result
    /// files and upper-case `<NAME>.md` documents. A name inside a path
    /// (`gpnm-bench/README.md`), a glob or a longer name is not one.
    pub fn cited_root_files(text: &str) -> Vec<&str> {
        let is_stem = |stem: &str, ok: fn(char) -> bool| !stem.is_empty() && stem.chars().all(ok);
        text.split(|c: char| !(c.is_ascii_alphanumeric() || "_./*-".contains(c)))
            .map(|token| token.trim_end_matches('.'))
            .filter(|token| {
                if let Some(stem) = token.strip_suffix(".md") {
                    stem.starts_with(|c: char| c.is_ascii_uppercase())
                        && is_stem(stem, |c| {
                            c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
                        })
                } else if let Some(stem) = token.strip_suffix(".json") {
                    stem.strip_prefix("BENCH_").is_some_and(|name| {
                        is_stem(name, |c| c.is_ascii_alphanumeric() || c == '_')
                    })
                } else {
                    false
                }
            })
            .collect()
    }

    /// Rule 5: a result file or document that `README.md` or a source
    /// comment cites exists at the repository root.
    fn check_cited_root_files(
        root: &Path,
        name: &str,
        line_idx: usize,
        text: &str,
        findings: &mut Vec<String>,
    ) {
        for file in cited_root_files(text) {
            if !root.join(file).is_file() {
                push(
                    findings,
                    name,
                    line_idx,
                    &format!("cites `{file}`, which is not at the repository root"),
                );
            }
        }
    }

    /// Rule 3: crates that use `unsafe` declare
    /// `#![deny(unsafe_op_in_unsafe_fn)]`; all others declare
    /// `#![forbid(unsafe_code)]`.
    fn check_crate_attrs(root: &Path, files: &[PathBuf], findings: &mut Vec<String>) {
        let mut roots: Vec<PathBuf> = Vec::new();
        for pat in ["crates", "shims"] {
            let Ok(entries) = std::fs::read_dir(root.join(pat)) else {
                continue;
            };
            for entry in entries.flatten() {
                let lib = entry.path().join("src/lib.rs");
                let main = entry.path().join("src/main.rs");
                if lib.is_file() {
                    roots.push(lib);
                } else if main.is_file() {
                    roots.push(main);
                }
            }
        }
        let ws_lib = root.join("src/lib.rs");
        if ws_lib.is_file() {
            roots.push(ws_lib);
        }
        roots.sort();
        for crate_root in &roots {
            let crate_dir = crate_root.parent().unwrap_or(Path::new("."));
            let uses_unsafe = files
                .iter()
                .filter(|f| f.starts_with(crate_dir))
                .any(|f| file_uses_unsafe(f));
            let Ok(src) = std::fs::read_to_string(crate_root) else {
                continue;
            };
            let name = rel(crate_root, root);
            let lines = split_code_comments(&src);
            let has = |attr: &str| lines.iter().any(|l| l.code.contains(attr));
            if uses_unsafe {
                if !has("#![deny(unsafe_op_in_unsafe_fn)]") {
                    push(
                        findings,
                        &name,
                        0,
                        "crate uses `unsafe` but its root does not declare `#![deny(unsafe_op_in_unsafe_fn)]`",
                    );
                }
            } else if !has("#![forbid(unsafe_code)]") {
                push(
                    findings,
                    &name,
                    0,
                    "unsafe-free crate root does not declare `#![forbid(unsafe_code)]`",
                );
            }
        }
    }

    fn file_uses_unsafe(path: &Path) -> bool {
        let Ok(src) = std::fs::read_to_string(path) else {
            return false;
        };
        split_code_comments(&src).iter().any(|l| {
            has_word(&l.code, "unsafe")
                && !l.code.trim_start().starts_with("#!")
                && !l.code.trim_start().starts_with("#[")
        })
    }

    fn push(findings: &mut Vec<String>, name: &str, line_idx: usize, msg: &str) {
        let mut s = String::new();
        let _ = write!(s, "{name}:{}: {msg}", line_idx + 1);
        findings.push(s);
    }
}

mod loc {
    use super::lint::{split_code_comments, walk, Line};
    use super::*;

    /// Item keywords that make a `pub` line a public item. `use` is left
    /// out (a re-export would count its item twice) and so are fields.
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "unsafe", "async",
        "union", "macro",
    ];

    /// `(code lines, pub items)` of one file: lines with code on them —
    /// not blank, not comment-only — outside `#[cfg(test)]` modules, and
    /// among those the ones opening a plain-`pub` item. Lexical, like the
    /// lint: `pub(crate)` does not count, and a `pub` item in a private
    /// module does.
    pub fn count(lines: &[Line]) -> (usize, usize) {
        let codes: Vec<&str> = lines
            .iter()
            .map(|l| l.code.trim())
            .filter(|code| !code.is_empty())
            .collect();
        let is_mod = |code: &str| code.starts_with("mod ") || code.contains(" mod ");
        let (mut code_lines, mut pub_items) = (0, 0);
        let mut i = 0;
        while i < codes.len() {
            if codes[i] == "#[cfg(test)]" && codes.get(i + 1).is_some_and(|next| is_mod(next)) {
                // Skip the attribute and the module through its closing
                // brace (`mod tests;` has none and ends at once).
                i += 1;
                let mut depth = 0usize;
                while i < codes.len() {
                    for c in codes[i].chars() {
                        match c {
                            '{' => depth += 1,
                            '}' => depth = depth.saturating_sub(1),
                            _ => {}
                        }
                    }
                    i += 1;
                    if depth == 0 {
                        break;
                    }
                }
                continue;
            }
            code_lines += 1;
            let is_item = codes[i].strip_prefix("pub ").is_some_and(|rest| {
                let word = rest.split(|c: char| !c.is_alphanumeric()).next();
                word.is_some_and(|w| ITEM_KEYWORDS.contains(&w))
            });
            pub_items += usize::from(is_item);
            i += 1;
        }
        (code_lines, pub_items)
    }

    /// One row per crate under `crates/` and `shims/`, plus the facade
    /// (`src/`), over each crate's `src` tree.
    pub fn report(root: &Path) -> String {
        let mut crates: Vec<(String, PathBuf)> = vec![("(facade)".to_owned(), root.join("src"))];
        for group in ["crates", "shims"] {
            let Ok(entries) = std::fs::read_dir(root.join(group)) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                crates.push((format!("{group}/{name}"), entry.path().join("src")));
            }
        }
        crates.sort();
        let mut out = format!("{:<24}{:>12}{:>12}\n", "crate", "code lines", "pub items");
        let (mut all_lines, mut all_pub) = (0, 0);
        for (name, src_dir) in crates {
            let mut files = Vec::new();
            walk(&src_dir, &mut files);
            let (mut lines, mut items) = (0, 0);
            for file in files {
                let src = std::fs::read_to_string(&file).unwrap_or_default();
                let (l, p) = count(&split_code_comments(&src));
                lines += l;
                items += p;
            }
            let _ = writeln!(out, "{name:<24}{lines:>12}{items:>12}");
            all_lines += lines;
            all_pub += items;
        }
        let _ = writeln!(out, "{:<24}{all_lines:>12}{all_pub:>12}", "total");
        out
    }
}

mod telemetry_check {
    use std::collections::HashMap;

    /// Parse `--metrics FILE` / `--trace FILE` and validate whichever
    /// files were named (at least one required).
    pub fn run(args: &[String]) -> Result<Vec<String>, String> {
        let mut metrics = None;
        let mut trace = None;
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"));
            match flag {
                "--metrics" => metrics = Some(value?.clone()),
                "--trace" => trace = Some(value?.clone()),
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        if metrics.is_none() && trace.is_none() {
            return Err("nothing to check: pass --metrics FILE and/or --trace FILE".to_owned());
        }
        let mut findings = Vec::new();
        if let Some(path) = metrics {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read --metrics {path}: {e}"))?;
            check_prometheus(&path, &text, &mut findings);
        }
        if let Some(path) = trace {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read --trace {path}: {e}"))?;
            check_chrome_trace(&path, &text, &mut findings);
        }
        Ok(findings)
    }

    fn finding(findings: &mut Vec<String>, path: &str, line: usize, msg: &str) {
        findings.push(format!("{path}:{}: {msg}", line + 1));
    }

    /// Prometheus text exposition sanity: every sample line parses as
    /// `name[{labels}] value`, values are finite (no NaN), cumulative
    /// metrics (`_total`/`_bucket`/`_count`/`_sum` over nanoseconds) are
    /// non-negative, every sample's base name is covered by a `# TYPE`
    /// line, and each histogram's buckets are cumulative-monotone with
    /// `+Inf` equal to its `_count`.
    fn check_prometheus(path: &str, text: &str, findings: &mut Vec<String>) {
        let mut types: HashMap<String, String> = HashMap::new();
        // (series base, le, count, line) per histogram bucket sample.
        let mut buckets: HashMap<String, Vec<(f64, f64, usize)>> = HashMap::new();
        let mut counts: HashMap<String, f64> = HashMap::new();
        let mut samples = 0usize;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                match (parts.next(), parts.next()) {
                    (Some(name), Some(kind)) => {
                        types.insert(name.to_owned(), kind.to_owned());
                    }
                    _ => finding(findings, path, i, "malformed `# TYPE` line"),
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value_str)) = line.rsplit_once(' ') else {
                finding(findings, path, i, "sample line without a value");
                continue;
            };
            let Ok(value) = value_str.parse::<f64>() else {
                finding(findings, path, i, "sample value does not parse as a number");
                continue;
            };
            samples += 1;
            if value.is_nan() || value.is_infinite() {
                finding(findings, path, i, "sample value is NaN/infinite");
                continue;
            }
            let name = series.split('{').next().unwrap_or(series);
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_count"))
                .or_else(|| name.strip_suffix("_sum"))
                .unwrap_or(name);
            if !types.contains_key(base) {
                finding(
                    findings,
                    path,
                    i,
                    "sample without a preceding `# TYPE` line",
                );
            }
            let cumulative = name.ends_with("_total")
                || name.ends_with("_bucket")
                || name.ends_with("_count")
                || name.ends_with("_sum");
            if cumulative && value < 0.0 {
                finding(findings, path, i, "cumulative metric went negative");
            }
            if let Some(hist) = name.strip_suffix("_bucket") {
                let le = series
                    .split("le=\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .map(|s| {
                        if s == "+Inf" {
                            f64::INFINITY
                        } else {
                            s.parse::<f64>().unwrap_or(f64::NAN)
                        }
                    });
                match le {
                    Some(le) if !le.is_nan() => {
                        buckets
                            .entry(hist.to_owned())
                            .or_default()
                            .push((le, value, i));
                    }
                    _ => finding(findings, path, i, "bucket without a numeric `le` label"),
                }
            } else if let Some(hist) = name.strip_suffix("_count") {
                counts.insert(hist.to_owned(), value);
            }
        }
        if samples == 0 {
            finding(findings, path, 0, "no samples at all");
        }
        for (hist, series) in &buckets {
            // The renderer emits buckets in ascending `le` order; rely on
            // file order so an out-of-order dump also fails.
            let mut prev = f64::NEG_INFINITY;
            for &(_le, cum, line) in series {
                if cum < prev {
                    finding(
                        findings,
                        path,
                        line,
                        &format!("{hist}: bucket counts must be cumulative-monotone"),
                    );
                }
                prev = cum;
            }
            match (series.last(), counts.get(hist)) {
                (Some(&(le, cum, line)), Some(&count)) => {
                    if le != f64::INFINITY {
                        finding(
                            findings,
                            path,
                            line,
                            &format!("{hist}: last bucket must be +Inf"),
                        );
                    } else if cum != count {
                        finding(
                            findings,
                            path,
                            line,
                            &format!("{hist}: +Inf bucket ({cum}) disagrees with _count ({count})"),
                        );
                    }
                }
                (Some(&(_, _, line)), None) => {
                    finding(
                        findings,
                        path,
                        line,
                        &format!("{hist}: buckets without a _count"),
                    );
                }
                (None, _) => {}
            }
        }
    }

    /// Chrome trace-event JSON sanity, specialized to the exporter's
    /// one-event-per-line layout: the envelope declares `traceEvents`,
    /// every event carries name/ph/ts/pid/tid, complete (`"X"`) events
    /// carry a non-negative `dur`, and no bare (unquoted) NaN token
    /// appears anywhere — which would make the file unparseable in a
    /// strict viewer.
    fn check_chrome_trace(path: &str, text: &str, findings: &mut Vec<String>) {
        if !text.starts_with('{') || !text.contains("\"traceEvents\":[") {
            finding(findings, path, 0, "missing the `traceEvents` envelope");
            return;
        }
        if !text.trim_end().ends_with("]}") {
            finding(findings, path, 0, "envelope never closes with `]}`");
        }
        let mut events = 0usize;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end().trim_end_matches(',');
            if !line.starts_with("{\"name\":") {
                continue; // envelope / closing lines
            }
            events += 1;
            for key in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
                if !line.contains(key) {
                    finding(findings, path, i, &format!("event missing {key}"));
                }
            }
            for (key, allow_missing) in [("\"ts\":", false), ("\"dur\":", true)] {
                match num_after(line, key) {
                    Some(v) if v.is_nan() || v < 0.0 => {
                        finding(findings, path, i, &format!("event {key} negative or NaN"));
                    }
                    Some(_) => {}
                    None if allow_missing => {}
                    None => finding(findings, path, i, &format!("event {key} unparseable")),
                }
            }
            if line.contains("\"ph\":\"X\"") && !line.contains("\"dur\":") {
                finding(findings, path, i, "complete (`X`) event without a `dur`");
            }
            // A bare NaN (outside a string) is invalid JSON. The shim
            // quotes non-finite field values, so `:NaN` must not appear.
            if line.contains(":NaN") || line.contains(": NaN") {
                finding(findings, path, i, "bare NaN token (invalid JSON)");
            }
        }
        if events == 0 {
            finding(findings, path, 0, "no trace events recorded");
        }
    }

    /// The number immediately following `key` in `line`, if any.
    fn num_after(line: &str, key: &str) -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::lint::split_code_comments;

    #[test]
    fn splitter_separates_comments_strings_and_chars() {
        let src = r##"let s = "unsafe // not code"; // SAFETY: trailing
let r = r#"Relaxed"#; /* block
unsafe in block */ let c = 'x'; let lt: &'static str = "";
"##;
        let lines = split_code_comments(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("SAFETY: trailing"));
        assert!(!lines[1].code.contains("Relaxed"));
        assert!(lines[1].comment.contains("block"));
        assert!(lines[2].comment.contains("unsafe in block"));
        assert!(lines[2].code.contains("&'static str"));
    }

    #[test]
    fn cited_bench_files_are_found_lexically() {
        let text = "`BENCH_k16.json` (k = 16) and (BENCH_read_10.json); not the CI copy \
                    `BENCH_k4.ci.json`, a glob `BENCH_k*.json` or `BENCH_k4/16.json`";
        assert_eq!(
            super::lint::cited_root_files(text),
            ["BENCH_k16.json", "BENCH_read_10.json"]
        );
        let text = "ROADMAP.md's item (see DESIGN.md §2); not `gpnm-bench/README.md`, \
                    `notes.md`, `Design.md` or `FOO.md.bak`";
        assert_eq!(
            super::lint::cited_root_files(text),
            ["ROADMAP.md", "DESIGN.md"]
        );
    }

    #[test]
    fn lint_reports_a_readme_citation_of_a_missing_result_file() {
        let root = std::env::temp_dir().join(format!("gpnm-xtask-lint-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("BENCH_kept.json"), "{}").unwrap();
        std::fs::write(
            root.join("README.md"),
            "# Title\n\nKept: `BENCH_kept.json`.\nGone: `BENCH_gone.json`.\n",
        )
        .unwrap();
        let findings = super::lint::run(&root);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            findings,
            ["README.md:4: cites `BENCH_gone.json`, which is not at the repository root"]
        );
    }

    #[test]
    fn lint_reports_a_citation_of_a_missing_root_document() {
        let root = std::env::temp_dir().join(format!("gpnm-xtask-docs-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/x/src")).unwrap();
        std::fs::write(root.join("ROADMAP.md"), "# Roadmap\n").unwrap();
        std::fs::write(
            root.join("README.md"),
            "# Title\n\nSee ROADMAP.md and `sub/NOTES.md`.\nGone: DESIGN.md §5.\n",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/x/src/lib.rs"),
            "//! Crate docs (ROADMAP.md).\n#![forbid(unsafe_code)]\n\n\
             /// Why (DESIGN.md §2).\npub fn f() {}\n",
        )
        .unwrap();
        let findings = super::lint::run(&root);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            findings,
            [
                "crates/x/src/lib.rs:4: cites `DESIGN.md`, which is not at the repository root",
                "README.md:4: cites `DESIGN.md`, which is not at the repository root",
            ]
        );
    }

    #[test]
    fn loc_counts_code_and_pub_items_outside_cfg_test() {
        let src = r#"//! docs are not code
pub struct A; // trailing comments do not hide code

pub(crate) fn b() {}
pub fn c() {
    let s = "pub fn not_an_item() {";
}
pub use x::Y;
#[cfg(test)]
pub(crate) fn fixture() {}
#[cfg(test)]
mod tests {
    pub fn helper() {
        if true {}
    }
}
pub const D: u32 = 0;
"#;
        let (code_lines, pub_items) = super::loc::count(&split_code_comments(src));
        assert_eq!(code_lines, 9, "a `#[cfg(test)]` fn is outside the rule");
        assert_eq!(pub_items, 3, "A, c, D");
    }
}
