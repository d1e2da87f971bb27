//! A small JSON writer for the result line, the provenance block and the
//! trace file. The workspace's serde is a no-op offline shim, so nothing
//! here can lean on it.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quotes included).
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str(&mut out, s);
    out
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives; `None` for NaN and infinities, which JSON
/// cannot carry.
pub fn number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// True for a metric name the result line accepts: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Reported name, e.g. `batch_s` or `btb.airbtb.lookups`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with the given name, value and unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the result line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}`. A metric whose name is not
/// valid or whose value is not finite is an error, not a silently
/// dropped key.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("duplicate metric name {:?}", m.name));
        }
        let value = number(m.value)
            .ok_or_else(|| format!("metric {} is not finite: {}", m.name, m.value))?;
        if i > 0 {
            out.push_str(", ");
        }
        push_str(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        out.push_str(&value);
        out.push_str(", \"unit\": ");
        push_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
        assert_eq!(string("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(string("\u{2028}"), "\"\\u2028\"");
        assert_eq!(string("Intel® Xeon"), "\"Intel® Xeon\"");
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "btb.airbtb.lookups",
            "timing.job_s.cores16",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "ümlaut",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn numbers_keep_all_digits_and_reject_non_finite() {
        assert_eq!(number(1.2034).as_deref(), Some("1.2034"));
        assert_eq!(number(0.1 + 0.2).as_deref(), Some("0.30000000000000004"));
        assert_eq!(number(3.0).as_deref(), Some("3"));
        assert_eq!(number(f64::NAN), None);
        assert_eq!(number(f64::INFINITY), None);
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("batch_s", 1.5, "s"),
                Metric::new("x.y", 2.0, "count"),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"batch_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"x.y\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(result_line(true, 1, 0, &[Metric::new("bad name", 1.0, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("a", f64::NAN, "s")]).is_err());
        let dup = [Metric::new("a", 1.0, "s"), Metric::new("a", 2.0, "s")];
        assert!(result_line(true, 1, 0, &dup).is_err());
    }
}
