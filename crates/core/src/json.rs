//! Minimal JSON support shared by the workspace: the [`ToJson`] writer
//! (implemented below for the std types results use, derived for the
//! workspace's own types with `#[derive(ToJson)]`), and a small
//! recursive-descent parser into [`JsonValue`] for reading results back
//! (e.g. the autotuner's persistent result cache).
//!
//! Only the constructs our results use — objects, arrays, strings,
//! numbers, bools, null — are supported. The output is compact and its
//! bytes are a contract: trial keys, store records and benchmark digests
//! are hashes of it. The rules:
//!
//! * a struct with named fields is `{"f":v,…}` in declaration order; a
//!   one-field tuple struct is its inner value; wider tuple structs,
//!   tuples, slices, `Vec`s and arrays are `[…]`; unit structs and `()`
//!   are `null`, as is `None` (`Some(v)` is `v`);
//! * a unit variant is `"V"`, a one-field variant `{"V":v}`, a wider tuple
//!   variant `{"V":[…]}` and a struct variant `{"V":{…}}`;
//! * integers and finite floats use `Display` (`f32` widened to `f64`
//!   first); non-finite floats are `null`;
//! * strings escape `"` and `\` with a backslash, newline, tab and
//!   carriage return as `\n`, `\t`, `\r`, and other control characters
//!   as `\u00xx`;
//! * a map key that does not render as a JSON string (an integer, say) is
//!   quoted as one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

pub use t2opt_json_derive::ToJson;

/// A value that writes itself as compact JSON (see the module docs for the
/// exact bytes). Derive it with `#[derive(ToJson)]`.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Serializes `data` as JSON into `path`.
pub fn write_json<T: ToJson + ?Sized>(path: &str, data: &T) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json_string(data).as_bytes())
}

/// Serializes `data` to a compact JSON string.
pub fn to_json_string<T: ToJson + ?Sized>(data: &T) -> String {
    let mut out = String::new();
    data.write_json(&mut out);
    out
}

/// Error of the JSON parser.
#[derive(Debug)]
pub struct JsonErr(String);

impl std::fmt::Display for JsonErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for JsonErr {}

/// Writes `s` as a quoted, escaped JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Writes `key` as an object key: its JSON text, quoted as a string if it
/// is not one already (an integer key, say; no workspace type has one).
fn write_key<K: ToJson + ?Sized>(out: &mut String, key: &K) {
    let start = out.len();
    key.write_json(out);
    if !out[start..].starts_with('"') {
        let raw = out.split_off(start);
        write_str(out, &raw);
    }
}

macro_rules! display_impls {
    ($($ty:ty),*) => {
        $(impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })*
    };
}

display_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for f32 {
    fn write_json(&self, out: &mut String) {
        f64::from(*self).write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for char {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.encode_utf8(&mut [0; 4]));
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

impl ToJson for () {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_key(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

macro_rules! tuple_impls {
    ($(($first:ident . $fi:tt $(, $name:ident . $idx:tt)*))*) => {
        $(impl<$first: ToJson $(, $name: ToJson)*> ToJson for ($first, $($name,)*) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                self.$fi.write_json(out);
                $(
                    out.push(',');
                    self.$idx.write_json(out);
                )*
                out.push(']');
            }
        })*
    };
}

tuple_impls! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64, which covers every value this
    /// workspace writes).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, with keys in sorted order.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object map, if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The numeric value, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses a JSON document.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonErr> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonErr(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonErr> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonErr(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonErr> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(JsonErr(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonErr> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => {
                    return Err(JsonErr(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonErr> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonErr(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonErr> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonErr("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonErr("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| JsonErr("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| JsonErr("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonErr("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(JsonErr(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8 by
                    // construction of &str).
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    out.push_str(std::str::from_utf8(&s[..ch_len]).unwrap());
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonErr> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| JsonErr(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(ToJson)]
    struct Row {
        n: usize,
        gbs: f64,
        label: String,
        flag: bool,
        opt: Option<u32>,
    }

    #[test]
    fn json_round_trippable_shape() {
        let row = Row {
            n: 42,
            gbs: 12.5,
            label: "tri\"ad".into(),
            flag: true,
            opt: None,
        };
        let json = to_json_string(&row);
        assert_eq!(
            json,
            r#"{"n":42,"gbs":12.5,"label":"tri\"ad","flag":true,"opt":null}"#
        );
    }

    #[test]
    fn json_vec_of_structs() {
        #[derive(ToJson)]
        struct P {
            x: u32,
        }
        let json = to_json_string(&vec![P { x: 1 }, P { x: 2 }]);
        assert_eq!(json, r#"[{"x":1},{"x":2}]"#);
    }

    #[test]
    fn json_enum_variants() {
        #[derive(ToJson)]
        enum E {
            Unit,
            Tuple(u32, u32),
            Struct { a: u32 },
        }
        assert_eq!(to_json_string(&E::Unit), r#""Unit""#);
        assert_eq!(to_json_string(&E::Tuple(1, 2)), r#"{"Tuple":[1,2]}"#);
        assert_eq!(to_json_string(&E::Struct { a: 3 }), r#"{"Struct":{"a":3}}"#);
    }

    #[test]
    fn json_nested_map() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert("a", vec![1u32, 2]);
        m.insert("b", vec![]);
        assert_eq!(to_json_string(&m), r#"{"a":[1,2],"b":[]}"#);
    }

    #[test]
    fn json_bytes_of_every_shape() {
        use std::collections::BTreeMap;
        #[derive(ToJson)]
        struct Newtype(u32);
        #[derive(ToJson)]
        struct Pair(i8, String);
        #[derive(ToJson)]
        struct Unit;
        #[derive(ToJson)]
        enum V {
            Unit,
            One(f64),
            Two(u8, bool),
            Named { x: Option<Option<u32>>, y: () },
        }
        #[derive(ToJson)]
        struct All {
            newtype: Newtype,
            pair: Pair,
            unit: Unit,
            variants: Vec<V>,
            floats: [f64; 7],
            single: f32,
            ints: (i64, u64, isize, usize),
            text: String,
            ch: char,
            by_int: BTreeMap<i32, &'static str>,
            by_str: BTreeMap<String, u8>,
            nested: Vec<Option<Option<u32>>>,
            tuple: (u8, String, ()),
            boxed: Box<[u16]>,
        }
        let all = All {
            newtype: Newtype(7),
            pair: Pair(-3, "p".into()),
            unit: Unit,
            variants: vec![
                V::Unit,
                V::One(0.5),
                V::Two(1, false),
                V::Named {
                    x: Some(None),
                    y: (),
                },
            ],
            floats: [
                1.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                1e21,
                0.1 + 0.2,
            ],
            single: 0.1,
            ints: (i64::MIN, u64::MAX, -1, 0),
            text: "a\u{1}\"\\\n\t\r\u{1f}é/".into(),
            ch: '\n',
            by_int: BTreeMap::from([(-2, "neg"), (10, "ten")]),
            by_str: BTreeMap::from([("k\"q".to_string(), 1)]),
            nested: vec![None, Some(None), Some(Some(4))],
            tuple: (9, "t".into(), ()),
            boxed: vec![1, 2].into_boxed_slice(),
        };
        let expected = concat!(
            r#"{"newtype":7,"pair":[-3,"p"],"unit":null,"#,
            r#""variants":["Unit",{"One":0.5},{"Two":[1,false]},{"Named":{"x":null,"y":null}}],"#,
            r#""floats":[1.5,null,null,null,-0,1000000000000000000000,0.30000000000000004],"#,
            r#""single":0.10000000149011612,"#,
            r#""ints":[-9223372036854775808,18446744073709551615,-1,0],"#,
            r#""text":"a\u0001\"\\\n\t\r\u001fé/","ch":"\n","#,
            r#""by_int":{"-2":"neg","10":"ten"},"by_str":{"k\"q":1},"#,
            r#""nested":[null,null,4],"tuple":[9,"t",null],"boxed":[1,2]}"#,
        );
        assert_eq!(to_json_string(&all), expected);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse_json(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".into())
        );
    }

    #[test]
    fn parse_nested() {
        let v = parse_json(r#"{"a": [1, 2, {"b": "x"}], "c": {}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].as_object().unwrap()["b"].as_str(), Some("x"));
        assert!(obj["c"].as_object().unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn serializer_output_parses_back() {
        let row = Row {
            n: 7,
            gbs: 3.25,
            label: "stream \"x\"\n".into(),
            flag: false,
            opt: Some(9),
        };
        let parsed = parse_json(&to_json_string(&row)).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj["n"].as_f64(), Some(7.0));
        assert_eq!(obj["gbs"].as_f64(), Some(3.25));
        assert_eq!(obj["label"].as_str(), Some("stream \"x\"\n"));
        assert_eq!(obj["flag"], JsonValue::Bool(false));
        assert_eq!(obj["opt"].as_f64(), Some(9.0));
    }
}
