//! A minimal JSON emitter for the machine-readable benchmark artifacts.
//!
//! The suite has no external dependencies, so the `BENCH_hotpaths.json`
//! and `BENCH_sweeps.json` files are produced by this hand-rolled value
//! tree. It emits strictly valid JSON (string escaping, `null` for
//! non-finite numbers) but is an *emitter only* — consumers are `jq`, CI
//! checks and plotting scripts, which never round-trip through it.
//!
//! `BENCH_hotpaths.json` is one document on one line. `BENCH_sweeps.json`
//! is JSON-lines — one object per line, keyed by a `"bench"` field — so
//! independent sweep binaries can each [`upsert_line`] their own row
//! without parsing the others.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| < 2^53).
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Renders compactly (single line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Upserts one JSON-lines row keyed by the object's `"bench"` field
/// (`BENCH_sweeps.json` style): an existing line for the same bench is
/// replaced, other lines are preserved verbatim, and a missing file is
/// created. `row` must contain a `"bench"` string.
pub fn upsert_line(path: impl AsRef<Path>, row: &Json) -> io::Result<()> {
    let bench = match row {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == "bench")
            .and_then(|(_, v)| match v {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            }),
        _ => None,
    }
    .expect("upsert_line row must be an object with a \"bench\" string");
    let marker = format!("\"bench\":{}", Json::str(&bench).render());
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.contains(&marker))
        .map(str::to_string)
        .collect();
    lines.push(row.render());
    std::fs::write(path, lines.join("\n") + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escapes() {
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::int(42).render(), "42");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn renders_nested_structures() {
        let doc = Json::obj([
            ("name", Json::str("x")),
            ("xs", Json::Arr(vec![Json::int(1), Json::int(2)])),
        ]);
        assert_eq!(doc.render(), r#"{"name":"x","xs":[1,2]}"#);
    }

    #[test]
    fn upsert_replaces_only_the_matching_row() {
        let dir = std::env::temp_dir().join(format!("rapilog-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweeps.json");
        let _ = std::fs::remove_file(&path);
        let row =
            |name: &str, v: u64| Json::obj([("bench", Json::str(name)), ("value", Json::int(v))]);
        upsert_line(&path, &row("a", 1)).unwrap();
        upsert_line(&path, &row("b", 2)).unwrap();
        upsert_line(&path, &row("a", 3)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.contains(r#""bench":"b""#)));
        assert!(lines.iter().any(|l| l.contains(r#""value":3"#)));
        assert!(!text.contains(r#""value":1"#), "old row replaced");
        let _ = std::fs::remove_file(&path);
    }
}
