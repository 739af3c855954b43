//! A JSON value and its writer (the workspace has no serde), plus the one
//! reader the parent modes need: pulling metric values back out of a
//! child's result line.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer, written without a fraction.
    Int(u64),
    /// A float, written with Rust's shortest round-trip digits;
    /// non-finite values become `null` (they are not JSON).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The `(name, value)` pairs of a result line's `"metrics"` object, as
/// [`crate::report::result_line`] writes it. `None` if the line is not
/// one.
pub fn metrics_of_result_line(line: &str) -> Option<Vec<(String, f64)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for entry in body.split("\"value\": ").skip(1) {
        let value: f64 = entry.split([',', '}']).next()?.trim().parse().ok()?;
        out.push(value);
    }
    let names = body
        .split(": {\"value\"")
        .filter_map(|head| head.rsplit('"').nth(1))
        .map(str::to_string);
    let pairs: Vec<(String, f64)> = names.zip(out).collect();
    (!pairs.is_empty()).then_some(pairs)
}

/// The value of a top-level scalar field (`"correct"`, `"failed"`, …) of
/// a result line, as written.
pub fn scalar_of_result_line<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\": "))?.1;
    rest.split([',', '}']).next().map(str::trim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = Json::obj([
            ("a", Json::Int(3)),
            ("b", Json::Num(1.25)),
            ("c", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("d", Json::str("x\"y\n")),
            ("e", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 3, "b": 1.25, "c": [null, true], "d": "x\"y\n", "e": null}"#
        );
    }

    #[test]
    fn floats_keep_all_their_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(2.0).render(), "2.0");
    }

    #[test]
    fn reads_back_a_result_line() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"query_p50_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        assert_eq!(
            metrics_of_result_line(line),
            Some(vec![
                ("query_p50_ms".to_string(), 1.2034),
                ("setup_s".to_string(), 0.8127)
            ])
        );
        assert_eq!(scalar_of_result_line(line, "correct"), Some("true"));
        assert_eq!(scalar_of_result_line(line, "failed"), Some("0"));
        assert_eq!(metrics_of_result_line("not a result"), None);
    }
}
