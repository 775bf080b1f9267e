//! A minimal JSON reader/writer — wire framing for the service.
//!
//! The workspace vendors no serde; the wire protocol only needs small
//! documents with flat numeric/string fields, so a small
//! recursive-descent parser plus a direct serializer suffice. The
//! parser accepts standard JSON (objects, arrays, strings with the
//! common escapes, numbers, booleans, null) and rejects everything else
//! with a position-tagged error; [`render`] emits compact standard JSON
//! that [`parse`] round-trips.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number (all JSON numbers are read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key–value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value of `key`, if the key exists and is a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of `key`, if the key exists and is a number.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }
}

/// Serialize a [`Json`] value to compact standard JSON. Numbers emit
/// through Rust's shortest-round-trip `f64` formatting (integral values
/// print without a fractional part); strings escape quotes, backslashes,
/// and control characters. [`parse`] reads the output back identically.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Null => out.push_str("null"),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document. The entire input (modulo trailing whitespace)
/// must be consumed.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => keyword(b, pos, "null", Json::Null),
        Some(_) => number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn keyword(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = string(b, pos)?;
        expect(b, pos, b':')?;
        fields.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    // Accumulate raw bytes (preserves multibyte UTF-8 sequences) and
    // validate once at the closing quote.
    let mut out: Vec<u8> = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into());
            }
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(String::from)?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                        out.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_arrays_and_objects() {
        let v =
            parse(r#"{"cases": [{"name": "a", "ok": true}, null], "xs": [1, 2.5, -3e2]}"#).unwrap();
        let nums = [1.0, 2.5, -300.0].map(Json::Num).to_vec();
        assert_eq!(v.get("xs"), Some(&Json::Arr(nums)));
        let case = Json::Obj(vec![
            ("name".into(), Json::Str("a".into())),
            ("ok".into(), Json::Bool(true)),
        ]);
        assert_eq!(v.get("cases"), Some(&Json::Arr(vec![case, Json::Null])));
    }

    #[test]
    fn strings_and_escapes() {
        let v = parse(r#"{"s": "a\nb\"cA"}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Json::Str("a\nb\"cA".to_string())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a": nope}"#).is_err());
    }

    #[test]
    fn render_round_trips() {
        let v = Json::Obj(vec![
            ("op".into(), Json::Str("plan".into())),
            ("n".into(), Json::Num(64.0)),
            ("ratio".into(), Json::Num(1.5)),
            ("weird".into(), Json::Str("a\"b\\c\nd\u{1}".into())),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "xs".into(),
                Json::Arr(vec![Json::Num(-3.0), Json::Str("s".into())]),
            ),
        ]);
        let text = render(&v);
        assert_eq!(parse(&text).unwrap(), v);
        // Integral numbers print without a fractional part.
        assert!(text.contains("\"n\":64,"), "{text}");
        assert!(text.contains("\"ratio\":1.5"), "{text}");
    }

    #[test]
    fn accessors_pick_typed_fields() {
        let v = parse(r#"{"op": "run", "seed": 7}"#).unwrap();
        assert_eq!(v.get_str("op"), Some("run"));
        assert_eq!(v.get_num("seed"), Some(7.0));
        assert_eq!(v.get_str("seed"), None);
        assert_eq!(v.get_num("missing"), None);
    }
}
