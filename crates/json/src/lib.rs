//! Self-contained JSON support: a value type, a strict parser, compact and
//! pretty printers, and `ToJson`/`FromJson` conversion traits.
//!
//! The workspace runs in environments without a crates registry, so the
//! serialization layer is hand-rolled. Numbers are 64-bit integers — the
//! transaction language is integer-valued, so floats are rejected at parse
//! time rather than silently truncated.
//!
//! Enum payloads follow the externally-tagged convention: a unit variant
//! prints as a bare string `"Name"`, and a variant with data prints as a
//! single-key object `{"Name": payload}` — the payload itself for one
//! field, an array for a tuple, an object for named fields. A struct is
//! an object with its fields in declaration order. [`codec!`] generates
//! both directions of this encoding from one list of a type's fields or
//! variants; its documentation lists the forms.
//!
//! Documents nest at most [`MAX_DEPTH`] arrays and objects deep, so every
//! recursion over a parsed value is bounded.

mod codec;
mod parse;
mod print;
mod traits;

pub use parse::{from_str_value, MAX_DEPTH};
pub use traits::{FromJson, ToJson};

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order (serialization is
/// deterministic because writers emit fields in a fixed order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by `FromJson` conversions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// Convenience for "expected X, got Y" conversion failures.
    pub fn expected(what: &str, got: &Json) -> Self {
        JsonError::new(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The externally-tagged encoding of an enum variant with payload.
    pub fn tagged(tag: &str, payload: Json) -> Json {
        Json::Obj(vec![(tag.to_string(), payload)])
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// If the value is a single-key object, its `(tag, payload)`; if it is
    /// a bare string, `(tag, Null)`. This is how tagged enums decode.
    pub fn as_tagged(&self) -> Result<(&str, &Json), JsonError> {
        match self {
            Json::Str(s) => Ok((s.as_str(), &Json::Null)),
            Json::Obj(fields) if fields.len() == 1 => Ok((fields[0].0.as_str(), &fields[0].1)),
            other => Err(JsonError::expected("enum tag (string or 1-key object)", other)),
        }
    }

    /// Typed field lookup; errors mention the key.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| JsonError::new(format!("field `{key}`: {e}"))),
            None => Err(JsonError::new(format!("missing field `{key}`"))),
        }
    }

    /// Typed optional field lookup: missing and `null` both map to `None`.
    pub fn opt_field<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => {
                T::from_json(v).map(Some).map_err(|e| JsonError::new(format!("field `{key}`: {e}")))
            }
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        print::compact(self, &mut out);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline
    /// suppressed (matches what the CLI writes to files + println).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        print::pretty(self, 0, &mut out);
        out
    }
}

/// Serialize `value` compactly.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Serialize `value` with two-space indentation.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Parse and convert in one step.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse::from_str_value(s)?)
}

/// Map keyed by strings — used for schema maps.
pub type JsonMap = BTreeMap<String, Json>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Json::obj([
            ("name", Json::str("W_sav")),
            ("n", Json::Int(-12)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(from_str_value(&text).unwrap(), v);
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::str("a\"b\\c\nd\te\u{1}f");
        assert_eq!(from_str_value(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn floats_are_rejected() {
        assert!(from_str_value("1.5").is_err());
        assert!(from_str_value("1e3").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(from_str_value("{} x").is_err());
        assert!(from_str_value("[1,]").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str_value(&nest(MAX_DEPTH)).is_ok());
        let too_deep = from_str_value(&nest(MAX_DEPTH + 1)).expect_err("one past the bound");
        assert!(too_deep.to_string().contains("nesting deeper than"), "{too_deep}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(from_str_value(&objects).is_err());
        // Unterminated, far past the bound: an error, not a stack overflow.
        assert!(from_str_value(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn tagged_decoding() {
        let unit = Json::str("True");
        assert_eq!(unit.as_tagged().unwrap(), ("True", &Json::Null));
        let data = Json::tagged("Const", Json::Int(3));
        let (tag, payload) = data.as_tagged().unwrap();
        assert_eq!(tag, "Const");
        assert_eq!(payload.as_int(), Some(3));
    }

    #[derive(Debug, PartialEq)]
    enum Form {
        Unit,
        One(u64),
        Two(i64, String),
        Rec { a: i64, b: bool },
        Bare { name: String },
    }
    crate::codec! {
        enum Form { Unit, One(x), Two(a, b), Rec { a, b }, #[bare] Bare { name } }
    }

    #[test]
    fn codec_decodes_only_its_own_shapes() {
        for (text, want) in [
            (r#""Unit""#, Ok(Form::Unit)),
            (r#"{"One":7}"#, Ok(Form::One(7))),
            (r#"{"Two":[-1,"s"]}"#, Ok(Form::Two(-1, "s".into()))),
            (r#"{"Rec":{"b":true,"a":2,"extra":0}}"#, Ok(Form::Rec { a: 2, b: true })),
            (r#"{"Bare":"n"}"#, Ok(Form::Bare { name: "n".into() })),
            (r#"{"Unit":null}"#, Err("Form variant `Unit` takes no payload")),
            (r#""One""#, Err("Form variant `One` needs a payload")),
            (r#"{"One":-7}"#, Err("integer -7 out of range")),
            (r#"{"Two":[1]}"#, Err("expected 2-element array, got array")),
            (r#"{"Rec":{"a":2}}"#, Err("missing field `b`")),
            (r#"{"Bare":{"name":"n"}}"#, Err("expected string, got object")),
            (r#""Nope""#, Err("unknown Form variant `Nope`")),
            (r#"{"One":1,"Two":2}"#, Err("expected enum tag (string or 1-key object), got object")),
        ] {
            let got = from_str::<Form>(text).map_err(|e| e.to_string());
            assert_eq!(got, want.map_err(str::to_string), "{text}");
            if let Ok(v) = got {
                assert_eq!(from_str::<Form>(&to_string(&v)), Ok(v), "{text} round trip");
            }
        }
    }

    #[test]
    fn typed_roundtrip() {
        let xs: Vec<(String, i64)> = vec![("a".into(), 1), ("b".into(), 2)];
        let text = to_string_pretty(&xs);
        let back: Vec<(String, i64)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}
