//! Random typed values for the page-level property tests: one SplitMix64
//! stream per case, NULLs in any column, `-0.0`/`0.0` and NaNs of
//! several payloads, `i64`/`i32` extremes, and strings with non-ASCII
//! text. Included by the test files that use it as a module.

use cm_storage::{Value, ValueType};

/// SplitMix64: one seed drives a whole case.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

pub const TYPES: [ValueType; 4] = [ValueType::Int, ValueType::Float, ValueType::Str, ValueType::Date];

/// Floats whose `Value` equality and bits disagree: signed zeros and
/// NaNs of several payloads, beside ordinary values.
pub fn floats() -> [f64; 10] {
    [
        -0.0,
        0.0,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001),
        f64::from_bits(0xFFF8_0000_0000_0000),
        1.5,
        -1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        4096.25,
    ]
}

/// One value of type `ty`: NULL one time in `null_every` (never when
/// 0), else drawn from a domain about `spread` values wide.
pub fn value(rng: &mut Rng, ty: ValueType, spread: usize, null_every: usize) -> Value {
    if null_every > 0 && rng.below(null_every) == 0 {
        return Value::Null;
    }
    let small = rng.below(spread) as i64 - (spread / 2) as i64;
    let extreme = rng.below(16) == 0;
    match ty {
        ValueType::Int if extreme => Value::Int(rng.pick(&[i64::MIN, i64::MAX, -1, 0])),
        ValueType::Int => Value::Int(small * 1000),
        ValueType::Float if extreme || rng.below(2) == 0 => Value::float(rng.pick(&floats())),
        ValueType::Float => Value::float(small as f64 / 4.0),
        ValueType::Str => Value::str(format!("{}{}", rng.pick(&["", "a", "B", "é"]), small)),
        ValueType::Date if extreme => Value::Date(rng.pick(&[i32::MIN, i32::MAX, -1])),
        ValueType::Date => Value::Date(small as i32),
    }
}

/// Whether two values are the same stored value: `==`, and for floats
/// the same bits (`==` calls `-0.0` and `0.0`, and every NaN, equal).
pub fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.0.to_bits() == y.0.to_bits(),
        _ => a == b,
    }
}
