//! A tiny JSON writer for experiment artifacts.
//!
//! The workspace builds offline, so instead of serde the scenario
//! reports are serialised through this insertion-ordered object builder.
//! Only what artifacts need is supported: numbers, integers, booleans,
//! strings, nested objects and arrays thereof.

use std::fmt::Write as _;

/// One JSON value, already rendered to text.
#[derive(Clone, Debug)]
struct Rendered(String);

/// An insertion-ordered JSON object under construction.
#[derive(Clone, Debug, Default)]
pub struct Object {
    fields: Vec<(String, Rendered)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip representation Rust offers.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        "null".into()
    }
}

impl Object {
    /// Fresh empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), Rendered(value)));
        self
    }

    /// Add a float field.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.push(key, fmt_f64(v))
    }

    /// Add an integer field.
    pub fn int(&mut self, key: &str, v: i64) -> &mut Self {
        self.push(key, v.to_string())
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.push(key, v.to_string())
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.push(key, format!("\"{}\"", escape(v)))
    }

    /// Add a float-or-null field.
    pub fn opt_num(&mut self, key: &str, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.num(key, v),
            None => self.push(key, "null".into()),
        }
    }

    /// Add a nested object.
    pub fn obj(&mut self, key: &str, v: Object) -> &mut Self {
        self.push(key, v.pretty())
    }

    /// Add an array of floats.
    pub fn num_array(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|&v| fmt_f64(v)).collect();
        self.push(key, format!("[{}]", items.join(", ")))
    }

    /// Add an array of strings.
    pub fn str_array(&mut self, key: &str, vs: &[&str]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| format!("\"{}\"", escape(v))).collect();
        self.push(key, format!("[{}]", items.join(", ")))
    }

    /// Add an array of nested objects.
    pub fn obj_array(&mut self, key: &str, vs: Vec<Object>) -> &mut Self {
        let items: Vec<String> = vs.into_iter().map(|o| o.pretty()).collect();
        self.push(key, format!("[{}]", items.join(", ")))
    }

    /// Render with two-space indentation.
    pub fn pretty(&self) -> String {
        if self.fields.is_empty() {
            return "{}".into();
        }
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let value = v.0.replace('\n', "\n  ");
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            let _ = writeln!(out, "  \"{}\": {}{}", escape(k), value, comma);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_pretty_json() {
        let mut inner = Object::new();
        inner.num("x", 1.5).int("n", 7);
        let mut o = Object::new();
        o.str("name", "run \"a\"")
            .bool("ok", true)
            .opt_num("missing", None)
            .obj("inner", inner)
            .num_array("xs", &[1.0, 2.5])
            .str_array("names", &["a", "b\"c"]);
        let s = o.pretty();
        assert!(s.contains("\"names\": [\"a\", \"b\\\"c\"]"));
        assert!(s.contains("\"name\": \"run \\\"a\\\"\""));
        assert!(s.contains("\"missing\": null"));
        assert!(s.contains("\"x\": 1.5"));
        assert!(s.contains("\"xs\": [1.0, 2.5]"));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(super::fmt_f64(3.0), "3.0");
        assert_eq!(super::fmt_f64(f64::NAN), "null");
    }
}
