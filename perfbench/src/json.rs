//! A minimal JSON object writer (the benchmark has no serialization
//! dependency). Fields keep insertion order.

/// A JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

/// Escapes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (Rust's shortest round-trip
/// form); non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a number field.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        self.raw(key, number(v))
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        self.raw(key, quote(v))
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, v: &Obj) -> &mut Obj {
        self.raw(key, v.render())
    }

    /// Adds an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, rendered: String) -> &mut Obj {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_with_escapes() {
        let mut inner = Obj::new();
        inner.num("value", 1.25).str("unit", "µs");
        let mut o = Obj::new();
        o.bool("correct", true).num("n", 3.0).str("s", "a\"b\\c\n").obj("m", &inner);
        assert_eq!(
            o.render(),
            r#"{"correct": true, "n": 3, "s": "a\"b\\c\n", "m": {"value": 1.25, "unit": "µs"}}"#
        );
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(0.000123), "0.000123");
    }
}
