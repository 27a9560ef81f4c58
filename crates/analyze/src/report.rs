//! The `tg-report-v2` structured report and its std-only JSON model.
//!
//! Every report-writing subcommand (`tg report`, `tg fault --report`,
//! `tg kv --report`) emits the same schema so the CI gate can diff any report against any
//! baseline:
//!
//! ```json
//! {
//!   "schema": "tg-report-v2",
//!   "name": "stencil16",
//!   "sim_time_us": 123.4,
//!   "metrics": { "fabric.retransmits": 0, "link.node0-switch0.tx_bytes": 4096, ... },
//!   "latency": { "remote-write": { "count": 96, "p50_ns": 410, "p99_ns": 870, ... } },
//!   "attribution": { "remote-write": { "wire node0->switch0": 12.5, ... } },
//!   "hottest_links": [ { "link": "switch0-node5", "mean_utilization": 0.81, ... } ]
//! }
//! ```
//!
//! All numeric leaves are gateable; [`flatten`] turns a report into
//! dotted `(path, value)` pairs (`latency.remote-write.p99_ns`) for the
//! tolerance diff in [`crate::gate`].
//!
//! [`Json`] is a deliberately small value model: parse with
//! [`Json::parse`], render with [`Json::to_string_pretty`]. Object key
//! order is preserved (insertion order), keeping emitted reports
//! byte-stable across identical runs — the CI determinism check relies
//! on that.

use std::fmt::Write as _;

/// Version tag every report carries in its `schema` field. v2 added
/// `p999_us`/`p999_ns` fields to the latency and recovery summaries; the
/// field set is otherwise a superset of v1, so readers accept both (see
/// [`schema_accepted`]).
pub const SCHEMA: &str = "tg-report-v2";

/// The previous schema tag, still accepted by readers: a v1 report is a
/// v2 report minus the p999 fields, and the gate treats current-only
/// metrics as informational rather than failures.
pub(crate) const SCHEMA_V1: &str = "tg-report-v1";

/// Whether `tag` names a report schema this crate's readers understand.
pub fn schema_accepted(tag: &str) -> bool {
    tag == SCHEMA || tag == SCHEMA_V1
}

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; u64 counters below 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object. Panics on non-objects —
    /// report construction is programmer-controlled.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Obj(entries) = self else {
            panic!("Json::set on non-object")
        };
        if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document. Errors carry a byte offset and message.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Renders with two-space indentation and a trailing newline —
    /// byte-stable for identical values, diff-friendly in git.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        render(self, 0, &mut out);
        out.push('\n');
        out
    }
}

/// Flattens every numeric leaf into dotted `(path, value)` pairs, in
/// document order. Array elements use their `"name"` / `"link"` member
/// as the path component when present (so `tg report`'s
/// `hottest_links` list flattens to `hottest_links.switch0-node5.stall_us`,
/// …), else their index.
pub fn flatten(value: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

fn walk(value: &Json, prefix: String, out: &mut Vec<(String, f64)>) {
    match value {
        Json::Num(n) => out.push((prefix, *n)),
        Json::Obj(entries) => {
            for (k, v) in entries {
                walk(v, join(&prefix, k), out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = item
                    .get("name")
                    .or_else(|| item.get("link"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| i.to_string());
                walk(item, join(&prefix, &label), out);
            }
        }
        _ => {}
    }
}

/// Multiplies every numeric leaf whose flattened path contains `pattern`
/// by `factor`, returning how many leaves changed. This is the synthetic
/// regression injector behind the root `tests/cli.rs` gate test — the
/// negative test that proves the CI gate actually fires.
pub fn scale_matching(value: &mut Json, pattern: &str, factor: f64) -> usize {
    fn go(value: &mut Json, prefix: String, pattern: &str, factor: f64) -> usize {
        match value {
            Json::Num(n) if prefix.contains(pattern) => {
                *n *= factor;
                1
            }
            Json::Num(_) => 0,
            Json::Obj(entries) => {
                let mut changed = 0;
                for (k, v) in entries.iter_mut() {
                    changed += go(v, join(&prefix, k), pattern, factor);
                }
                changed
            }
            Json::Arr(items) => {
                let mut changed = 0;
                for (i, item) in items.iter_mut().enumerate() {
                    let label = item
                        .get("name")
                        .or_else(|| item.get("link"))
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .unwrap_or_else(|| i.to_string());
                    changed += go(item, join(&prefix, &label), pattern, factor);
                }
                changed
            }
            _ => 0,
        }
    }
    go(value, String::new(), pattern, factor)
}

// ---- parsing ---------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Scans one number by the JSON grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, so `+1`, `.5`
/// and `1.` never reach `f64::from_str` (and `01` stops after the `0`).
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let eat = |pos: &mut usize, set: &[u8]| {
        let hit = b.get(*pos).is_some_and(|c| set.contains(c));
        *pos += usize::from(hit);
        hit
    };
    let digits = |pos: &mut usize| {
        let from = *pos;
        while eat(pos, b"0123456789") {}
        *pos > from
    };
    eat(pos, b"-");
    let mut ok = eat(pos, b"0") || digits(pos);
    if ok && eat(pos, b".") {
        ok = digits(pos);
    }
    if ok && eat(pos, b"eE") {
        eat(pos, b"+-");
        ok = digits(pos);
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("scanned ASCII");
    match text.parse::<f64>() {
        Ok(n) if ok => Ok(Json::Num(n)),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "bad utf8 in string".to_string());
            }
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or("bad \\u escape")?;
                        let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
                        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                        *pos += 4;
                        // Surrogate pairs are not produced by our writers;
                        // map lone surrogates to the replacement char.
                        let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("unknown escape \\{}", esc as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut entries = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        entries.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

// ---- rendering -------------------------------------------------------

fn escape(s: &str, out: &mut String) {
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
}

fn fmt_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push('0');
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => fmt_num(*n, out),
        Json::Str(s) => {
            out.push('"');
            escape(s, out);
            out.push('"');
        }
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let _ = write!(out, "{pad}  ");
                render(item, indent + 1, out);
            }
            let _ = write!(out, "\n{pad}]");
        }
        Json::Obj(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let _ = write!(out, "{pad}  \"");
                escape(k, out);
                out.push_str("\": ");
                render(v, indent + 1, out);
            }
            let _ = write!(out, "\n{pad}}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_parse_and_render() {
        let mut report = Json::obj();
        report.set("schema", Json::Str(SCHEMA.to_string()));
        report.set("name", Json::Str("stencil_16".to_string()));
        let mut metrics = Json::obj();
        metrics.set("fabric.retransmits", Json::Num(0.0));
        metrics.set("link.node0-switch0.tx_bytes", Json::Num(4096.0));
        report.set("metrics", metrics);
        report.set(
            "hottest_links",
            Json::Arr(vec![{
                let mut l = Json::obj();
                l.set("link", Json::Str("switch0-node5".to_string()));
                l.set("mean_utilization", Json::Num(0.8125));
                l
            }]),
        );

        let text = report.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, report);
        // Byte-stable: rendering the parsed value reproduces the text.
        assert_eq!(back.to_string_pretty(), text);
    }

    #[test]
    fn flatten_uses_name_and_link_labels() {
        let text = r#"[
            {"name": "ping_pong", "events_per_sec": 100.5, "events": 42},
            {"name": "stencil_16", "events_per_sec": 7}
        ]"#;
        let v = Json::parse(text).unwrap();
        let flat = flatten(&v);
        assert_eq!(
            flat,
            vec![
                ("ping_pong.events_per_sec".to_string(), 100.5),
                ("ping_pong.events".to_string(), 42.0),
                ("stencil_16.events_per_sec".to_string(), 7.0),
            ]
        );
    }

    #[test]
    fn scale_matching_hits_only_matching_paths() {
        let mut v = Json::parse(
            r#"[{"name": "bench", "events_per_sec": 1000, "events": 50},
                {"name": "other", "events_per_sec": 10}]"#,
        )
        .unwrap();
        let changed = scale_matching(&mut v, "bench.events_per_sec", 0.9);
        assert_eq!(changed, 1);
        let flat = flatten(&v);
        assert_eq!(flat[0], ("bench.events_per_sec".to_string(), 900.0));
        assert_eq!(flat[1], ("bench.events".to_string(), 50.0));
        assert_eq!(flat[2], ("other.events_per_sec".to_string(), 10.0));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{'a': 1}").is_err());
        assert!(Json::parse("[1,2,").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("{} extra").is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for good in [
            "0",
            "-0",
            "7",
            "-3e2",
            "2.5",
            "1E+9",
            "0.125e-3",
            "  [1, 2, 3]  ",
        ] {
            assert!(Json::parse(good).is_ok(), "{good:?} rejected");
        }
        for bad in [
            "+1", ".5", "1.", "01", "-", "1e", "1e+", "-.5", "1.e3", "--1", "0x10",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
        }
        assert_eq!(
            Json::parse("{\"a\":[1,2.5,-3e2],\"b\":\"x\\n\",\"c\":null,\"d\":true}")
                .unwrap()
                .get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0)
            ]))
        );
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        for bad in ["\"\\u+041\"", "\"\\u004\"", "\"\\u00g1\"", "\"\\x\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn escapes_survive_round_trips() {
        let v = Json::Str("line\nbreak \"quoted\" back\\slash".to_string());
        let text = v.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
