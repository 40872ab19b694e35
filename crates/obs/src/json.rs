//! The workspace's one JSON writer (the offline build has no serde).
//!
//! [`ToJson`] values append straight into a caller's `String`. [`object`]
//! and [`array()`] place the commas and brackets,
//! [`crate::impl_to_json!`] turns a field list into an object,
//! [`write_str`] is the one string-escape routine and [`Fixed`] writes a
//! float with a fixed precision.
//!
//! ```
//! use secbranch_obs::json::{self, Fixed};
//!
//! struct Cell { model: String, args: Vec<u32>, rate: f64 }
//! secbranch_obs::impl_to_json! { Cell |c| model, args, rate: Fixed(c.rate, 3), none: None::<u32> }
//!
//! let cell = Cell { model: "skip".into(), args: vec![3, 4], rate: 0.5 };
//! assert_eq!(
//!     json::to_string(&cell),
//!     r#"{"model":"skip","args":[3,4],"rate":0.500,"none":null}"#
//! );
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A value that appends itself to a JSON document.
pub trait ToJson {
    /// Appends `self` as one JSON value to `out`.
    fn write_json(&self, out: &mut String);
}

/// Implements [`ToJson`] for a type as an object of the listed fields, in
/// order, and gives the type a `to_json` method. `|x|` names the value; a
/// bare `field` writes `x.field` under its own name, and `key: expr` writes
/// `expr` under `key`.
#[macro_export]
macro_rules! impl_to_json {
    ($type:ty |$this:ident| $($key:ident $(: $value:expr)?),* $(,)?) => {
        impl $crate::json::ToJson for $type {
            fn write_json(&self, out: &mut String) {
                let $this = self;
                $crate::json::object(out, |o| {
                    $(o.quoted_field(
                        concat!("\"", stringify!($key), "\":"),
                        &$crate::impl_to_json!(@value $this $key $($value)?),
                    );)*
                });
            }
        }

        impl $type {
            /// Serialises the value as a JSON document.
            #[must_use]
            #[allow(dead_code)] // generated for every listed type, used by some
            pub fn to_json(&self) -> String {
                $crate::json::to_string(self)
            }
        }
    };
    (@value $this:ident $key:ident) => { $this.$key };
    (@value $this:ident $key:ident $value:expr) => { $value };
}

/// `value` as a JSON document of its own.
#[must_use]
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Appends `s` to `out` as a JSON string literal: `"`, `\`, newline, tab
/// and carriage return get short escapes, the other chars below U+0020
/// `\u00XX`, and everything else is copied verbatim.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A float with a fixed number of decimals, as `{:.N}` formats it; JSON has
/// no NaN or infinity, so a non-finite value writes `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// Writes one JSON object to `out`; `fill` adds the fields in order.
pub fn object(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    fill(&mut Object(Array { out, first: true }));
    out.push('}');
}

/// Writes one JSON array to `out`; `fill` adds the items in order.
pub fn array(out: &mut String, fill: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    fill(&mut Array { out, first: true });
    out.push(']');
}

/// The fields of an object being written by [`object`].
#[derive(Debug)]
pub struct Object<'a>(Array<'a>);

impl Object<'_> {
    /// Adds the field `key` holding `value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.field_with(key, |out| value.write_json(out))
    }

    /// Adds the field `key`, whose value `write` appends.
    pub fn field_with(&mut self, key: &str, write: impl FnOnce(&mut String)) -> &mut Self {
        self.0.item_with(|out| {
            write_str(out, key);
            out.push(':');
            write(out);
        });
        self
    }

    /// Adds a field whose key is already quoted, `"key":` — the fast path
    /// of [`impl_to_json!`], whose keys are identifiers.
    #[doc(hidden)]
    pub fn quoted_field<T: ToJson + ?Sized>(&mut self, quoted_key: &str, value: &T) -> &mut Self {
        self.0.item_with(|out| {
            out.push_str(quoted_key);
            value.write_json(out);
        });
        self
    }

    /// Adds the field `key` holding a nested object.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.field_with(key, |out| object(out, fill))
    }

    /// Adds the field `key` holding a nested array.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        self.field_with(key, |out| array(out, fill))
    }
}

/// The items of an array being written by [`array()`].
#[derive(Debug)]
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

impl Array<'_> {
    /// Adds `value` as the next item.
    pub fn item<T: ToJson + ?Sized>(&mut self, value: &T) -> &mut Self {
        self.item_with(|out| value.write_json(out))
    }

    /// Adds a nested object as the next item.
    pub fn object(&mut self, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.item_with(|out| object(out, fill))
    }

    /// Writes the separator, then the item `write` appends.
    fn item_with(&mut self, write: impl FnOnce(&mut String)) -> &mut Self {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        write(self.out);
        self
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integers_to_json {
    ($($int:ty),*) => {$(
        impl ToJson for $int {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integers_to_json!(u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        array(out, |a| {
            for value in self {
                a.item(value);
            }
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<K: AsRef<str>, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            for (key, value) in self {
                o.field(key.as_ref(), value);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn strings_are_escaped() {
        // Every ASCII char against the escapes the serialisers have always
        // produced: short escapes for quote, backslash, newline, tab and
        // carriage return, `\u00XX` for the other control chars, everything
        // else verbatim.
        for code in 0u8..=0x7f {
            let c = char::from(code);
            let expected = match c {
                '"' => r#"\""#.to_string(),
                '\\' => r"\\".to_string(),
                '\n' => r"\n".to_string(),
                '\t' => r"\t".to_string(),
                '\r' => r"\r".to_string(),
                _ if code < 0x20 => format!(r"\u{code:04x}"),
                c => c.to_string(),
            };
            assert_eq!(
                escaped(&c.to_string()),
                format!("\"{expected}\""),
                "{code:#04x}"
            );
        }
        assert_eq!(escaped("\u{1}\u{1f}\u{7f}"), "\"\\u0001\\u001f\u{7f}\"");
        assert_eq!(escaped("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(escaped("tab\there"), r#""tab\there""#);
        for wide in ["é", "…", "\u{2028}", "\u{1f600}"] {
            assert_eq!(escaped(wide), format!("\"{wide}\""), "verbatim");
            assert_eq!(
                escaped(&format!("{wide}\n{wide}")),
                format!("\"{wide}\\n{wide}\""),
                "escapes between multi-byte chars"
            );
        }
        assert_eq!(
            to_string(&vec!["a\"b".to_string(), "c".to_string()]),
            r#"["a\"b","c"]"#
        );
    }

    #[test]
    fn builders_place_separators_and_nulls() {
        let mut out = String::from("prefix ");
        object(&mut out, |o| {
            o.field("n", &7u64)
                .field("zero", &0usize)
                .field("max", &u64::MAX)
                .field("flag", &false)
                .field("none", &None::<u32>)
                .field("some", &Some(Fixed(2.0 / 3.0, 3)))
                .field("nan", &Fixed(f64::NAN, 2))
                .object("empty", |_| {})
                .array("rows", |a| {
                    a.item(&1u32).object(|row| {
                        row.field("k\"", "v");
                    });
                })
                .field_with("raw", |out| out.push_str("[]"));
        });
        assert_eq!(
            out,
            concat!(
                r#"prefix {"n":7,"zero":0,"max":18446744073709551615,"flag":false,"#,
                r#""none":null,"some":0.667,"nan":null,"#,
                r#""empty":{},"rows":[1,{"k\"":"v"}],"raw":[]}"#,
            )
        );
        let map: BTreeMap<&str, Vec<u32>> = [("b", vec![1, 2]), ("a", Vec::new())].into();
        assert_eq!(to_string(&map), r#"{"a":[],"b":[1,2]}"#);
    }

    struct Row {
        name: &'static str,
        hits: u64,
    }

    impl_to_json! { Row |row| hits, name, rate: Fixed(row.hits as f64 / 3.0, 2), }

    #[test]
    fn field_lists_write_fields_in_the_listed_order() {
        let row = Row { name: "a", hits: 2 };
        assert_eq!(row.to_json(), r#"{"hits":2,"name":"a","rate":0.67}"#);
        assert_eq!(
            to_string(&vec![&row]),
            r#"[{"hits":2,"name":"a","rate":0.67}]"#
        );
    }
}
