//! The workspace's one JSON reader.
//!
//! Every JSONL format the workspace reads back — store records, the DSE
//! and explorer logs, the run ledger, the sentinel baseline, client job
//! lines and trace trees — is decoded through [`Json::parse`] and the
//! typed [`Object`] accessors. Writers stay hand-rolled format strings
//! (fixed key order, [`json_escape`](crate::json_escape)d strings, floats
//! in Rust's shortest round-trip `{:?}` notation); this module only reads.
//!
//! The reader is strict, because several of these formats come from
//! outside the process:
//!
//! * the RFC 8259 grammar, whitespace included — no trailing data, no
//!   raw control characters in strings, no leading zeros;
//! * a duplicate key in any object is an error naming the key;
//! * nesting deeper than [`MAX_DEPTH`] is an error, never a stack
//!   overflow;
//! * numbers keep the integer/float distinction the writers guarantee:
//!   a token without sign, fraction or exponent is [`Json::U64`], any
//!   other [`Json::F64`]. Floats are parsed with `str::parse::<f64>`, so
//!   a `{:?}`-written float reads back bit-identically; non-finite
//!   results are rejected.

/// Deepest array/object nesting [`Json::parse`] accepts. No writer in the
/// workspace nests deeper than 4 levels; anything near this bound is
/// malformed or hostile input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token without sign, fraction or exponent.
    U64(u64),
    /// Any other number (finite).
    F64(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Object),
}

/// A parsed JSON object: members in document order, keys unique.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object(Vec<(String, Json)>);

impl Json {
    /// Parses one complete JSON document (surrounding whitespace
    /// allowed). The error names the byte offset, or the offending key
    /// for duplicates.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader {
            text,
            pos: 0,
            depth: 0,
        };
        let value = reader.value()?;
        reader.skip_ws();
        if reader.pos != text.len() {
            return Err(format!("trailing data at byte {}", reader.pos));
        }
        Ok(value)
    }

    /// The object, if this is one.
    pub fn as_obj(&self) -> Option<&Object> {
        match self {
            Json::Obj(obj) => Some(obj),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value, if this is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Object {
    /// Parses one line that must hold a single JSON object.
    pub fn parse(text: &str) -> Result<Object, String> {
        match Json::parse(text)? {
            Json::Obj(obj) => Ok(obj),
            _ => Err("expected a JSON object".to_string()),
        }
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Fails naming the first key not in `known`.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown key `{k}`")),
            None => Ok(()),
        }
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        conv: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => conv(v)
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be {what}")),
        }
    }

    /// An optional string member; present but not a string is an error.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// An optional unsigned-integer member.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.typed(key, "an unsigned integer", Json::as_u64)
    }

    /// An optional numeric member.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.typed(key, "a number", Json::as_f64)
    }

    /// A required string member.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.opt_str(key)?.ok_or_else(|| missing(key))
    }

    /// A required unsigned-integer member.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?.ok_or_else(|| missing(key))
    }

    /// A required numeric member (integer tokens widen to `f64`).
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.opt_f64(key)?.ok_or_else(|| missing(key))
    }

    /// A required boolean member.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", Json::as_bool)?
            .ok_or_else(|| missing(key))
    }

    /// A required array member.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", Json::as_arr)?
            .ok_or_else(|| missing(key))
    }
}

fn missing(key: &str) -> String {
    format!("missing `{key}`")
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected {:?}", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail("invalid literal")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.container(b'}', |r| {
                    r.skip_ws();
                    let key = r.string()?;
                    r.skip_ws();
                    r.expect(b':')?;
                    fields.push((key, r.value()?));
                    Ok(())
                })?;
                // Sorted rather than pairwise, so a hostile line with many
                // keys costs n log n.
                let mut keys: Vec<&String> = fields.iter().map(|(k, _)| k).collect();
                keys.sort_unstable();
                if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
                    return Err(format!("duplicate key `{}`", pair[0]));
                }
                Ok(Json::Obj(Object(fields)))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.container(b']', |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected input"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Reads the `item, item, ...` body of an array or object (its
    /// opening bracket under the cursor) up to `close`, one nesting level
    /// deeper, refusing to recurse past [`MAX_DEPTH`].
    fn container(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return self.fail(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.fail(&format!("expected ',' or {:?}", close as char)),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The stops are ASCII, so the run ends on a char boundary.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = match self.peek() {
                        Some(esc) => esc,
                        None => return self.fail("unterminated escape"),
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return self.fail("unknown escape"),
                    }
                }
                Some(_) => return self.fail("raw control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.fail("unpaired surrogate"),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return self.fail("invalid \\u escape");
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text[int_start..].starts_with('0')) {
            return self.fail("invalid number");
        }
        let mut integer = !negative;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integer = false;
            if self.digits() == 0 {
                return self.fail("invalid number");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integer = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.fail("invalid number");
            }
        }
        let token = &self.text[start..self.pos];
        if integer {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(format!("number out of range {token:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(text: &str) -> Object {
        Object::parse(text).unwrap()
    }

    #[test]
    fn parses_every_value_kind_with_whitespace() {
        let o = obj(
            " {\"s\" : \"a\\n\\u0041\\u00e9\\ud83d\\ude00\", \"n\":-1.5,\r\n\t\"u\":7,\
                     \"z\":0,\"e\":1e3,\"b\":true,\"x\":null,\"a\":[1, [], {}]} ",
        );
        assert_eq!(o.str("s"), Ok("a\nAé😀"));
        assert_eq!(o.get("n"), Some(&Json::F64(-1.5)));
        assert_eq!(o.get("u"), Some(&Json::U64(7)));
        assert_eq!(o.u64("z"), Ok(0));
        assert_eq!(o.get("e"), Some(&Json::F64(1000.0)));
        assert_eq!(o.f64("u"), Ok(7.0), "integers widen to f64");
        assert_eq!(o.bool("b"), Ok(true));
        assert_eq!(o.get("x"), Some(&Json::Null));
        assert_eq!(o.arr("a").map(<[Json]>::len), Ok(3));
    }

    #[test]
    fn floats_read_back_bit_identically() {
        for v in [
            0.1f64,
            341.229_999_999_7,
            1e-7,
            1.5e300,
            -0.0,
            3.0030030030030037,
        ] {
            let text = format!("{v:?}");
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        // Integers beyond u64 stay numbers.
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::F64(18446744073709551616.0)
        );
    }

    #[test]
    fn typed_accessors_name_the_key() {
        let o = obj("{\"k\":\"v\",\"n\":-1}");
        assert_eq!(o.u64("k").unwrap_err(), "`k` must be an unsigned integer");
        assert_eq!(o.u64("n").unwrap_err(), "`n` must be an unsigned integer");
        assert_eq!(o.str("gone").unwrap_err(), "missing `gone`");
        assert_eq!(o.opt_str("gone"), Ok(None));
        assert_eq!(o.bool("k").unwrap_err(), "`k` must be a boolean");
        assert_eq!(o.only(&["k", "n"]), Ok(()));
        assert_eq!(o.only(&["k"]).unwrap_err(), "unknown key `n`");
    }

    #[test]
    fn rejects_what_the_grammar_rejects() {
        for bad in [
            "",
            "{",
            "{\"a\":1",
            "{\"a\":1}x",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1,]",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "-",
            "1e400",
            "nul",
            "\"raw\ttab\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"unterminated",
            "NaN",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(Object::parse("[1]").is_err());
    }

    #[test]
    fn duplicate_keys_fail_naming_the_key() {
        let err = Json::parse("{\"seed\":3,\"x\":{},\"seed\":\"x\"}").unwrap_err();
        assert!(err.contains("duplicate key `seed`"), "{err}");
        assert!(Json::parse("{\"a\":{\"b\":1,\"b\":1}}").is_err());
        assert!(Json::parse("[{\"b\":1},{\"b\":1}]").is_ok());
    }

    #[test]
    fn nesting_is_bounded_without_recursion_blowup() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        let hostile = format!("{{\"design\":{}", "[{\"a\":".repeat(100_000));
        assert!(Json::parse(&hostile).unwrap_err().contains("nesting"));
    }
}
