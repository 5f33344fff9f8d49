//! Metric collection and the JSON the benchmark prints.
//!
//! Two lines end every run. `report {...}` carries everything a reader
//! needs to interpret the run: host, seed, commit, every metric the
//! workload defines with its unit, tail percentiles and sample counts, and
//! the outcome of each hard check. The last line is the result object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`, where
//! `metrics` holds the names `BENCHMARK.json` lists for the run's mode.

use std::fmt::{self, Write as _};

/// A JSON value, enough for the report (no parsing).
#[derive(Debug, Clone)]
pub enum Json {
    /// A finite number.
    Num(f64),
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Non-finite numbers have no JSON spelling; `Metrics::put`
            // refuses them, so only diagnostics can reach this arm.
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", quote(k))?;
                }
                f.write_char('}')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
        }
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"value": v, "unit": u}`: how every metric is printed.
pub fn value_unit(value: Json, unit: &str) -> Json {
    Json::obj([("value", value), ("unit", Json::str(unit))])
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    /// Names whose value was not finite (a bug in the benchmark).
    pub non_finite: Vec<String>,
}

impl Metrics {
    /// Record `name = value unit`, replacing an earlier value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.non_finite.push(name.to_string());
        }
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `{name: {"value": v, "unit": u}}` for every metric.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(n, v, u)| (n.clone(), value_unit(Json::Num(*v), u)))
                .collect(),
        )
    }

    /// The subset named by `names`, in that order; missing names are
    /// returned as the error.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, Vec<String>> {
        let mut out = Metrics::default();
        let mut missing = Vec::new();
        for &name in names {
            match self.entries.iter().find(|(n, _, _)| n == name) {
                Some((_, v, u)) => out.put(name, *v, u),
                None => missing.push(name.to_string()),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// The last line of every run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics.to_json()),
    ])
    .to_string()
}
