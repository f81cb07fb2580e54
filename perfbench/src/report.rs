//! A minimal JSON writer for the benchmark's output lines (the workspace has
//! no JSON crate).

use std::fmt::Write as _;

/// A JSON object under construction.
#[derive(Default)]
pub struct Obj {
    body: String,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON, with every digit Rust's shortest round-trip form gives;
/// non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field whose value is already JSON.
    pub fn raw(mut self, key: &str, json: impl Into<String>) -> Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "{}:{}", escape(key), json.into());
        self
    }

    /// Adds a number.
    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, num(v))
    }

    /// Adds an integer.
    pub fn int(self, key: &str, v: u64) -> Self {
        self.raw(key, v.to_string())
    }

    /// Adds a string.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, escape(v))
    }

    /// Adds a boolean.
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    /// Adds a list of strings.
    pub fn strs(self, key: &str, v: &[String]) -> Self {
        let items: Vec<String> = v.iter().map(|s| escape(s)).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// The finished object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .fold(Obj::new(), |o, m| {
            o.raw(
                &m.name,
                Obj::new().num("value", m.value).str("unit", m.unit).build(),
            )
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_escape_and_keep_every_digit() {
        let json = Obj::new()
            .str("a\"b", "x\ny")
            .num("v", 0.1 + 0.2)
            .num("bad", f64::NAN)
            .int("n", 3)
            .bool("ok", true)
            .strs("l", &["p".to_string()])
            .build();
        assert_eq!(
            json,
            r#"{"a\"b":"x\u000ay","v":0.30000000000000004,"bad":null,"n":3,"ok":true,"l":["p"]}"#
        );
        assert_eq!(
            metrics_json(&[metric("setup_s", "s", 1.5)]),
            r#"{"setup_s":{"value":1.5,"unit":"s"}}"#
        );
    }
}
