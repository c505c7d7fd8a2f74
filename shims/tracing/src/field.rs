//! Structured field values attached to spans and events.

/// A structured field value. Upstream tracing visits fields through a
/// `Visit` trait; the shim eagerly converts them into this enum when (and
/// only when) a subscriber is active.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (from `u8`..`u64`/`usize`).
    U64(u64),
    /// A signed integer (from `i8`..`i64`/`isize`).
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A static string (the common case for strategy tags and kinds).
    Static(&'static str),
    /// An owned string.
    Str(String),
}

impl Value {
    /// Render the value in JSON syntax (numbers bare, strings quoted with
    /// the minimal escapes the exporters need).
    pub fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    // JSON has no NaN/Inf literals; stringify the oddballs.
                    format!("\"{v}\"")
                }
            }
            Value::Bool(v) => v.to_string(),
            Value::Static(s) => format!("\"{}\"", escape(s)),
            Value::Str(s) => format!("\"{}\"", escape(s)),
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

macro_rules! from_unsigned {
    ($($t:ty),*) => { $(impl From<$t> for Value {
        fn from(v: $t) -> Self { Value::U64(v as u64) }
    })* };
}
macro_rules! from_signed {
    ($($t:ty),*) => { $(impl From<$t> for Value {
        fn from(v: $t) -> Self { Value::I64(v as i64) }
    })* };
}
from_unsigned!(u8, u16, u32, u64, usize);
from_signed!(i8, i16, i32, i64, isize);

impl From<u128> for Value {
    /// Saturating: the tick clocks are `u128` nanoseconds but never exceed
    /// `u64::MAX` (584 years) in practice.
    fn from(v: u128) -> Self {
        Value::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(f64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Static(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
