//! Dynamically-typed scalar values.
//!
//! The datasets in the paper mix integers (keys, category ids), floats
//! (prices, right ascension / declination, magnitudes), strings (category
//! names, cities, states) and dates (ship / receipt dates). [`Value`] covers
//! exactly those, with a *total* order so values can key B+Trees and sort
//! heap files, and a stable hash so they can key correlation maps.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An `f64` with a total order (`NaN` sorts greater than all numbers and
/// equal to itself), usable as a B+Tree key and hash-map key.
///
/// The SDSS attributes (`ra`, `dec`, `psfMag_g`, …) are real-valued; the
/// paper buckets and indexes them, which requires ordering and hashing.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// The wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Canonical bit pattern: all NaNs collapse to one representation and
    /// `-0.0` collapses to `0.0` so that `Eq`/`Hash` agree with `Ord`.
    #[inline]
    fn canonical_bits(self) -> u64 {
        if self.0.is_nan() {
            f64::NAN.to_bits()
        } else if self.0 == 0.0 {
            0u64
        } else {
            self.0.to_bits()
        }
    }

    /// A signed key whose integer order is this type's order: equal keys
    /// are equal values (`-0.0` and `0.0`, every NaN), and NaN's key is
    /// the largest. What typed column kernels compare and group by.
    #[inline]
    pub fn order_key(self) -> i64 {
        let bits = self.canonical_bits() as i64;
        // `f64::total_cmp`'s mapping: flip the magnitude of negatives.
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }
}

impl PartialEq for OrdF64 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare canonicalized bit patterns so that `-0.0 == 0.0` and all
        // NaNs are one value, keeping Ord consistent with Eq and Hash.
        self.order_key().cmp(&other.order_key())
    }
}

impl Hash for OrdF64 {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical_bits().hash(state);
    }
}

impl From<f64> for OrdF64 {
    #[inline]
    fn from(v: f64) -> Self {
        OrdF64(v)
    }
}

/// A scalar value stored in a tuple.
///
/// `Str` uses `Arc<str>` because categorical columns (eBay `CAT1..CAT6`,
/// city/state examples) repeat a small dictionary of strings across
/// millions of rows, and a clone shares the allocation. Nothing here
/// interns: [`Value::str`] allocates every time. The sharing comes from
/// the producer cloning one `Arc` per distinct value (the eBay generator
/// does), or from [`HeapFile`](crate::heap::HeapFile), whose dictionary
/// swaps equal strings for one shared allocation as rows are stored.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value.
    Null,
    /// 64-bit signed integer (keys, counts, category ids).
    Int(i64),
    /// Total-ordered float (prices, sky coordinates, magnitudes).
    Float(OrdF64),
    /// String (category names, cities, states); clones share the text.
    Str(Arc<str>),
    /// Date as days since 1970-01-01 (ship/receipt/commit dates).
    Date(i32),
}

impl Value {
    /// Construct a float value.
    #[inline]
    pub fn float(v: f64) -> Self {
        Value::Float(OrdF64(v))
    }

    /// Construct a string value in a fresh allocation of its own (a heap
    /// file shares it with equal strings once the row is stored).
    #[inline]
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The integer payload, if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    #[inline]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(v.0),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The date payload (days since epoch), if this is a `Date`.
    #[inline]
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// A numeric view used by bucketing: `Int` and `Date` promote to `f64`,
    /// `Float` is itself, others are `None`.
    #[inline]
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(v.0),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// `true` if this value is `Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate on-disk footprint of the value in bytes, used by the
    /// size accounting that reproduces the paper's index-size comparisons
    /// (e.g. "the CM is 0.9 MB on disk, the secondary B+Tree is 860 MB").
    #[inline]
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() + 1,
            Value::Date(_) => 4,
        }
    }

    /// Ordinal of the variant, used only to order values of mixed types
    /// deterministically (mixed-type columns do not occur in the datasets,
    /// but a total order must still be defined).
    #[inline]
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }
}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            // Numeric cross-type comparisons keep Int/Float interoperable
            // (bucket bounds are often produced as floats over int columns).
            (Int(a), Float(b)) => OrdF64(*a as f64).cmp(b),
            (Float(a), Int(b)) => a.cmp(&OrdF64(*b as f64)),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{}", v.0),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "date#{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn ordf64_total_order_handles_nan_and_zero() {
        let nan = OrdF64(f64::NAN);
        let one = OrdF64(1.0);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan.cmp(&one), Ordering::Greater);
        assert_eq!(OrdF64(0.0), OrdF64(-0.0));
        assert_eq!(hash_of(&OrdF64(0.0)), hash_of(&OrdF64(-0.0)));
    }

    #[test]
    fn order_key_orders_like_ord() {
        let xs = [f64::NEG_INFINITY, -2.5, -0.0, 0.0, 1e-300, 3.0, f64::INFINITY, f64::NAN, -f64::NAN];
        for a in xs {
            for b in xs {
                let (a, b) = (OrdF64(a), OrdF64(b));
                assert_eq!(a.order_key().cmp(&b.order_key()), a.cmp(&b), "{a:?} {b:?}");
            }
        }
        assert_eq!(OrdF64(-0.0).order_key(), OrdF64(0.0).order_key());
    }

    #[test]
    fn value_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::float(1.5) < Value::float(2.5));
        assert!(Value::str("MA") < Value::str("NH"));
        assert!(Value::Date(10) < Value::Date(20));
        assert!(Value::Null < Value::Int(i64::MIN));
    }

    #[test]
    fn int_float_cross_comparison() {
        assert_eq!(Value::Int(2).cmp(&Value::float(2.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::float(2.5));
        assert!(Value::float(1.5) < Value::Int(2));
    }

    #[test]
    fn accessors_round_trip() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("boston").as_str(), Some("boston"));
        assert_eq!(Value::Date(42).as_date(), Some(42));
        assert_eq!(Value::Int(7).as_float(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn numeric_view_promotes_ints_and_dates() {
        assert_eq!(Value::Int(3).as_numeric(), Some(3.0));
        assert_eq!(Value::Date(5).as_numeric(), Some(5.0));
        assert_eq!(Value::float(1.25).as_numeric(), Some(1.25));
        assert_eq!(Value::str("x").as_numeric(), None);
        assert_eq!(Value::Null.as_numeric(), None);
    }

    #[test]
    fn size_bytes_model() {
        assert_eq!(Value::Int(0).size_bytes(), 8);
        assert_eq!(Value::float(0.0).size_bytes(), 8);
        assert_eq!(Value::Date(0).size_bytes(), 4);
        assert_eq!(Value::str("boston").size_bytes(), 7);
        assert_eq!(Value::Null.size_bytes(), 1);
    }

    #[test]
    fn shared_strings_compare_equal_and_hash_equal() {
        let a = Value::str("antiques");
        let b = Value::str("antiques");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("MA").to_string(), "MA");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(3).to_string(), "date#3");
    }
}
