//! The JSON the benchmark writes and reads back (result lines, result files,
//! traces), through the repository's `serde`/`serde_json` stand-ins.  Objects
//! keep insertion order.

pub use serde::Value;

/// Builds an object from `(key, value)` pairs.
#[must_use]
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A measured value; printed with every digit it has.
#[must_use]
pub fn num(value: f64) -> Value {
    Value::Float(value)
}

/// A whole number (a count).
#[must_use]
pub fn count(value: u64) -> Value {
    Value::UInt(value)
}

#[must_use]
pub fn text(value: &str) -> Value {
    Value::Str(value.to_owned())
}

/// The field `key` of an object.
#[must_use]
pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The number in field `key` of an object.
#[must_use]
pub fn get_num(value: &Value, key: &str) -> Option<f64> {
    get(value, key)?.as_f64()
}

/// The string in field `key` of an object.
#[must_use]
pub fn get_str<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    get(value, key)?.as_str()
}

/// Compact one-line rendering.
#[must_use]
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree always renders")
}

/// Indented rendering for files people read.
#[must_use]
pub fn render_pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).expect("a value tree always renders") + "\n"
}

/// Parses one JSON document.
///
/// # Errors
///
/// Fails on anything that is not one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_round_trips_with_all_its_digits() {
        let line = obj([
            ("correct", Value::Bool(true)),
            ("attempted", count(1000)),
            ("metrics", obj([("p50_us", obj([("value", num(153.2175))]))])),
        ]);
        let rendered = render(&line);
        assert_eq!(
            rendered,
            r#"{"correct":true,"attempted":1000,"metrics":{"p50_us":{"value":153.2175}}}"#
        );
        let back = parse(&rendered).unwrap();
        assert_eq!(get_num(&back, "attempted"), Some(1000.0));
        let metric = get(get(&back, "metrics").unwrap(), "p50_us").unwrap();
        assert_eq!(get_num(metric, "value"), Some(153.2175));
        assert_eq!(parse(&render_pretty(&line)).unwrap(), back);
        assert!(parse("{\"a\":1} x").is_err());
    }
}
