//! JSON in and out: the result line, and the lines child processes
//! report back on.

use tdtm_telemetry::stream::json::{self, Value};

/// A JSON number with every digit, or `null` when not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string.
pub fn string(s: &str) -> String {
    tdtm_telemetry::stream::json_str(s)
}

/// A JSON object from already-encoded values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {}", string(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = object(metrics.iter().map(|m| {
        (
            m.name.as_str(),
            object([("value", num(m.value)), ("unit", string(m.unit))]),
        )
    }));
    object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics),
    ])
}

/// The last line of a child's standard output, parsed as a JSON object.
pub fn parse_child(stdout: &str) -> Result<Value, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let value = json::parse(line)?;
    if value.as_object().is_none() {
        return Err("child result is not an object".into());
    }
    Ok(value)
}

/// Field `key` of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or_else(|| format!("child result lacks `{key}`"))
}

/// Numeric field `key`.
pub fn f64_field(value: &Value, key: &str) -> Result<f64, String> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

/// Unsigned integer field `key`.
pub fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a count"))
}

/// String field `key`.
pub fn str_field<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

/// Array-of-numbers field `key`.
pub fn f64s_field(value: &Value, key: &str) -> Result<Vec<f64>, String> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("`{key}` holds a non-number"))
        })
        .collect()
}

/// Array-of-`[label, text]` field `key`.
pub fn pairs_field(value: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let bad = || format!("`{key}` is not a list of string pairs");
    field(value, key)?
        .as_array()
        .ok_or_else(bad)?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([a, b]) => Some((a.as_str()?.to_string(), b.as_str()?.to_string())),
            _ => None,
        })
        .map(|p| p.ok_or_else(bad))
        .collect()
}

/// Peak resident set (`VmHWM`) of this process in KiB, 0 when the
/// platform has no `/proc`.
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
