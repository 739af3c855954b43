//! Sanity checker for the repo's recorded bench artifacts
//! (`BENCH_*.json` at the repo root).
//!
//! Every bench target hand-rolls its JSON with `format!` (the workspace
//! deliberately has no serde), which makes two failure modes easy to
//! ship silently: structurally broken output (a missing comma or brace
//! after an edit) and non-finite floats (`NaN`/`inf` format as bare
//! words, which are not JSON). This module is a strict recursive-descent
//! JSON parser — no dependencies — plus the repo's artifact contract:
//! the top level must be an object carrying a `"bench"` string key, and
//! that string must name a `[[bench]]` target of `crates/bench` — so a
//! deleted bench cannot leave its numbers behind.

use std::path::Path;

/// Validate one artifact's bytes. Returns the bench name on success.
pub fn check_artifact(source: &str) -> Result<String, String> {
    let mut p = Parser {
        s: source.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let name = p.top_level_object()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes after the JSON value at {}", p.i));
    }
    name.ok_or_else(|| "top-level object has no \"bench\" string key".into())
}

/// Validate that `source` is one strict JSON object, without the
/// `"bench"`-key artifact contract. Used to check the `analyze --json`
/// findings document, which carries a `"tool"` key instead.
pub fn check_json(source: &str) -> Result<(), String> {
    let mut p = Parser {
        s: source.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.top_level_object()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes after the JSON value at {}", p.i));
    }
    Ok(())
}

/// Where the bench targets that write the artifacts are declared.
const BENCH_MANIFEST: &str = "crates/bench/Cargo.toml";

/// The `name` of every `[[bench]]` table in a Cargo manifest.
fn bench_targets(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(name) = line
            .strip_prefix("name")
            .filter(|_| in_bench)
            .and_then(|rest| rest.trim_start().strip_prefix('='))
        {
            names.push(name.trim().trim_matches('"').to_string());
        }
    }
    names
}

/// An artifact must be the record of a bench target that still exists.
fn check_owner(bench: &str, targets: &[String]) -> Result<(), String> {
    if targets.iter().any(|t| t == bench) {
        Ok(())
    } else {
        Err(format!(
            "orphaned artifact: \"bench\": \"{bench}\" names no [[bench]] target in {BENCH_MANIFEST}"
        ))
    }
}

/// Validate every `BENCH_*.json` directly under `root`. Returns
/// human-readable `(file, error)` pairs; empty means all artifacts parse
/// and each belongs to a bench target declared under `root`.
pub fn check_dir(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let targets = match std::fs::read_to_string(root.join(BENCH_MANIFEST)) {
        Ok(manifest) => bench_targets(&manifest),
        Err(e) => return vec![(BENCH_MANIFEST.into(), format!("unreadable: {e}"))],
    };
    let mut names: Vec<std::path::PathBuf> = match std::fs::read_dir(root) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => return vec![("<root>".into(), format!("cannot list repo root: {e}"))],
    };
    names.sort();
    if names.is_empty() {
        return vec![("<root>".into(), "no BENCH_*.json artifacts found".into())];
    }
    for path in names {
        let file = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<non-utf8>")
            .to_string();
        match std::fs::read_to_string(&path) {
            Ok(src) => {
                if let Err(e) = check_artifact(&src).and_then(|b| check_owner(&b, &targets)) {
                    out.push((file, e));
                }
            }
            Err(e) => out.push((file, format!("unreadable: {e}"))),
        }
    }
    out
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.i,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// Parse the top-level object, returning the value of its `"bench"`
    /// key if that key is present with a string value.
    fn top_level_object(&mut self) -> Result<Option<String>, String> {
        if self.peek() != Some(b'{') {
            return Err("artifact top level is not a JSON object".into());
        }
        let mut bench = None;
        self.object(&mut |key, val| {
            if key == "bench" {
                if let Scalar::Str(s) = val {
                    bench = Some(s);
                }
            }
        })?;
        Ok(bench)
    }

    /// Parse an object; `on_pair` sees each top-of-this-object scalar pair.
    fn object(&mut self, on_pair: &mut dyn FnMut(String, Scalar)) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            on_pair(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.i,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.i,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'{') => {
                self.object(&mut |_, _| {})?;
                Ok(Scalar::Composite)
            }
            Some(b'[') => {
                self.array()?;
                Ok(Scalar::Composite)
            }
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.i
            )),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<Scalar, String> {
        if self.s.get(self.i..self.i + word.len()) == Some(word) {
            self.i += word.len();
            Ok(Scalar::Composite)
        } else {
            Err(format!(
                "bare word at byte {} is not a JSON literal (NaN/inf from a float format?)",
                self.i
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b' | b'f') => out.push(' '),
                        Some(b'u') => {
                            // \uXXXX — validate the hex, keep a placeholder.
                            for k in 1..=4 {
                                if !self
                                    .s
                                    .get(self.i + k)
                                    .is_some_and(|c| c.is_ascii_hexdigit())
                                {
                                    return Err(format!("bad \\u escape at byte {}", self.i));
                                }
                            }
                            self.i += 4;
                            out.push('?');
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.i
                            ))
                        }
                    }
                    self.i += 1;
                }
                Some(c) if c >= 0x20 => {
                    // Copy the raw byte; artifacts are ASCII in practice
                    // and multi-byte UTF-8 passes through unmodified.
                    out.push(c as char);
                    self.i += 1;
                }
                _ => return Err(format!("unterminated string at byte {}", self.i)),
            }
        }
    }

    fn number(&mut self) -> Result<Scalar, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.i;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > from
        };
        if !digits(self) {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        Ok(Scalar::Composite)
    }
}

/// What an object callback needs to distinguish: strings vs everything
/// else (the contract only inspects the `"bench"` key's string).
pub enum Scalar {
    /// A JSON string value.
    Str(String),
    /// Any other well-formed value (number, bool, null, object, array).
    Composite,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_artifact_shape() {
        let src = r#"{
  "bench": "parallel_scan",
  "n": 20000,
  "speedup": 3.125,
  "neg": -0.5,
  "exp": 1.2e-3,
  "phases": [
    {"phase": "cold", "ms": 1.0, "zero": 0},
    {"phase": "warm", "ms": 0.3, "note": "a \"quoted\" word"}
  ],
  "ok": true,
  "nothing": null
}"#;
        assert_eq!(check_artifact(src).unwrap(), "parallel_scan");
    }

    #[test]
    fn rejects_structural_breakage() {
        // Missing comma, unbalanced brace, trailing garbage, no object.
        for bad in [
            r#"{"bench": "x" "n": 1}"#,
            r#"{"bench": "x", "n": 1"#,
            r#"{"bench": "x"} tail"#,
            r#"[1, 2]"#,
            r#"{"bench": "x", }"#,
        ] {
            assert!(check_artifact(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_non_finite_float_formatting() {
        // `format!("{}", f64::NAN)` produces bare `NaN` — not JSON. The
        // same goes for `inf`. These are exactly the silent-writer bugs
        // the CI check exists to catch.
        for bad in [
            r#"{"bench": "x", "v": NaN}"#,
            r#"{"bench": "x", "v": inf}"#,
            r#"{"bench": "x", "v": -inf}"#,
        ] {
            assert!(check_artifact(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_an_artifact_whose_bench_target_is_gone() {
        let manifest = r#"
[package]
name = "iva-bench"

[[bench]]
name = "parallel_scan"
harness = false

[[bench]]
name="update_path"
harness = false

[[test]]
name = "retired"
"#;
        let targets = bench_targets(manifest);
        assert_eq!(targets, ["parallel_scan", "update_path"]);
        let owned = check_artifact(r#"{"bench": "update_path", "n": 1}"#).unwrap();
        assert!(check_owner(&owned, &targets).is_ok());
        let orphan = check_artifact(r#"{"bench": "retired", "n": 1}"#).unwrap();
        let err = check_owner(&orphan, &targets).unwrap_err();
        assert!(err.contains("orphaned") && err.contains("retired"), "{err}");
    }

    #[test]
    fn requires_the_bench_key() {
        assert!(check_artifact(r#"{"name": "x"}"#).is_err());
        assert!(check_artifact(r#"{"bench": 3}"#).is_err());
    }
}
