//! Allowlist files, in-code `lint:allow` markers, and `lint:scope`
//! module attributes.
//!
//! Two escape hatches, both requiring a written justification:
//!
//! 1. **Allowlist files** — `xtask/allowlists/<lint>.allow`, one entry per
//!    line: `path :: substring :: justification`. The entry suppresses a
//!    violation when the violation is in `path` and the violating source
//!    line contains `substring`. Capped at 40 entries per lint; an entry
//!    that suppresses nothing is *stale* and fails the run.
//!
//! 2. **In-code markers** — a comment `lint:allow(<lint>, "justification")`
//!    on the violating line or the line directly above it. A marker with a
//!    missing or empty justification is an error; a marker that suppresses
//!    nothing is stale and fails the run.
//!
//! Plus one opt-in mechanism: a **scope attribute** — a module-doc line
//! `//! lint:scope(<lint>)` — declares the module subject to a lint whose
//! scope is attribute-driven (today: `panic-reachability`). The attribute
//! lives in the file it scopes, so a new decode module carries its lint
//! obligations from birth instead of waiting for someone to grow a list
//! inside the lint tool.

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Repo-relative path the entry applies to.
    pub path: String,
    /// Substring that must appear on the violating source line.
    pub substring: String,
    /// Why this violation is acceptable (display only, must be non-empty).
    pub justification: String,
    /// 1-based line in the allowlist file (for stale-entry reporting).
    pub defined_at: u32,
    /// How many violations this entry suppressed this run.
    pub hits: u32,
}

/// Hard cap on entries per allowlist: an allowlist this long is a policy
/// failure, not an escape hatch.
pub const MAX_ENTRIES: usize = 40;

/// Parse `<lint>.allow` content. Returns entries or a list of syntax
/// errors (`file:line: message`).
pub fn parse_allowlist(name: &str, content: &str) -> Result<Vec<AllowEntry>, Vec<String>> {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(3, " :: ").collect();
        match parts.as_slice() {
            [path, substring, justification]
                if !path.is_empty() && !substring.is_empty() && !justification.trim().is_empty() =>
            {
                entries.push(AllowEntry {
                    path: path.trim().to_string(),
                    substring: substring.to_string(),
                    justification: justification.trim().to_string(),
                    defined_at: line_no,
                    hits: 0,
                });
            }
            _ => errors.push(format!(
                "{name}.allow:{line_no}: malformed entry (want `path :: substring :: justification`, justification non-empty)"
            )),
        }
    }
    if entries.len() > MAX_ENTRIES {
        errors.push(format!(
            "{name}.allow: {} entries exceeds the {MAX_ENTRIES}-entry cap — fix the code instead of growing the allowlist",
            entries.len()
        ));
    }
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

/// One in-code `lint:allow(...)` marker.
#[derive(Debug, Clone)]
pub struct Marker {
    /// Lint the marker addresses.
    pub lint: String,
    /// 1-based line the marker sits on; it covers this line and the next.
    pub line: u32,
    /// Non-empty justification string.
    pub justification: String,
    /// How many violations it suppressed this run.
    pub hits: u32,
}

/// Extract `lint:allow(<lint>, "justification")` markers from a source
/// file. Malformed markers (no closing paren, missing or empty
/// justification) are reported as errors — an unexplained allow is
/// indistinguishable from a suppressed bug.
pub fn parse_markers(file: &str, source: &str) -> (Vec<Marker>, Vec<String>) {
    let mut markers = Vec::new();
    let mut errors = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let Some(start) = line.find("lint:allow(") else {
            continue;
        };
        let rest = &line[start + "lint:allow(".len()..];
        let parsed = (|| {
            let comma = rest.find(',')?;
            let lint = rest.get(..comma)?.trim().to_string();
            let after = rest.get(comma + 1..)?;
            let q1 = after.find('"')?;
            let after_q1 = after.get(q1 + 1..)?;
            let q2 = after_q1.find('"')?;
            let justification = after_q1.get(..q2)?.to_string();
            after_q1.get(q2 + 1..)?.trim_start().strip_prefix(')')?;
            if lint.is_empty() || justification.trim().is_empty() {
                return None;
            }
            Some(Marker {
                lint,
                line: line_no,
                justification,
                hits: 0,
            })
        })();
        match parsed {
            Some(m) => markers.push(m),
            None => errors.push(format!(
                "{file}:{line_no}: malformed lint:allow marker — want `lint:allow(<lint>, \"non-empty justification\")`"
            )),
        }
    }
    (markers, errors)
}

/// Extract `lint:scope(<lint>)` attributes from a source file. Returns
/// the scoped lint names plus errors for malformed attributes (no closing
/// paren, empty lint name). Attribute placement is free-form — any line
/// containing the token counts — but by convention it sits in the module
/// doc comment at the top of the file.
pub fn parse_scopes(file: &str, source: &str) -> (Vec<String>, Vec<String>) {
    let mut scopes = Vec::new();
    let mut errors = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let Some(start) = line.find("lint:scope(") else {
            continue;
        };
        let rest = &line[start + "lint:scope(".len()..];
        match rest.find(')') {
            Some(end) => {
                let lint = rest[..end].trim();
                if lint.is_empty() {
                    errors.push(format!(
                        "{file}:{line_no}: malformed lint:scope attribute — want `lint:scope(<lint>)`"
                    ));
                } else {
                    scopes.push(lint.to_string());
                }
            }
            None => errors.push(format!(
                "{file}:{line_no}: malformed lint:scope attribute — missing `)`"
            )),
        }
    }
    (scopes, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_parse_and_reject() {
        let (s, e) = parse_scopes("f.rs", "//! lint:scope(panic-reachability)\nfn f() {}\n");
        assert_eq!(s, vec!["panic-reachability".to_string()]);
        assert!(e.is_empty());

        let (s, e) = parse_scopes("f.rs", "//! lint:scope(panic-reachability\n");
        assert!(s.is_empty());
        assert_eq!(e.len(), 1);

        let (s, e) = parse_scopes("f.rs", "//! lint:scope()\n");
        assert!(s.is_empty());
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn allowlist_round_trip() {
        let src = "# c\n\ncrates/a.rs :: foo[i] :: bounded by loop\n";
        let e = parse_allowlist("x", src).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].path, "crates/a.rs");
        assert_eq!(e[0].substring, "foo[i]");
    }

    #[test]
    fn allowlist_rejects_empty_justification() {
        assert!(parse_allowlist("x", "a.rs :: foo ::  \n").is_err());
        assert!(parse_allowlist("x", "a.rs :: foo\n").is_err());
    }

    #[test]
    fn markers_parse_and_reject() {
        let (m, e) = parse_markers("f.rs", "// lint:allow(vfs-seam, \"test fixture\")\nx\n");
        assert_eq!(m.len(), 1);
        assert!(e.is_empty());
        assert_eq!(m[0].lint, "vfs-seam");

        let (m, e) = parse_markers("f.rs", "// lint:allow(vfs-seam, \"\")\n");
        assert!(m.is_empty());
        assert_eq!(e.len(), 1);

        let (m, e) = parse_markers("f.rs", "// lint:allow(vfs-seam)\n");
        assert!(m.is_empty());
        assert_eq!(e.len(), 1);
    }
}
