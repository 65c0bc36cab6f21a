//! Composite index keys.

use cm_storage::{PageRef, Value};
use std::fmt;

/// A (possibly composite) index key: one [`Value`] per indexed column, in
/// index-column order.
///
/// Comparison is lexicographic, which gives composite B+Trees the prefix
/// semantics the paper exploits in Experiment 5: a secondary index on
/// `(ra, dec)` can use a range predicate on `ra` (the prefix) but not on
/// `dec`, which is exactly why the composite CM beats it.
///
/// A one-column key holds its value inline, so a descent compares the
/// keys in a node's own array instead of chasing one allocation per
/// key; equality, order and hash are those of [`IndexKey::values`]
/// whatever the representation.
#[derive(Clone)]
pub struct IndexKey(Repr);

#[derive(Clone)]
enum Repr {
    One(Value),
    Many(Box<[Value]>),
}

impl IndexKey {
    /// A single-column key.
    pub fn single(v: Value) -> Self {
        IndexKey(Repr::One(v))
    }

    /// A composite key from column values in index order.
    pub fn composite(mut vs: Vec<Value>) -> Self {
        assert!(!vs.is_empty(), "index keys have at least one column");
        match vs.len() {
            1 => Self::single(vs.pop().expect("one value")),
            _ => IndexKey(Repr::Many(vs.into_boxed_slice())),
        }
    }

    /// Extract the key for `cols` from a row.
    pub fn from_row(row: &[Value], cols: &[usize]) -> Self {
        Self::of(cols, |c| row[c].clone())
    }

    /// The key of a page's `slot` for `cols`, read off the page.
    pub fn from_page(page: &PageRef<'_>, slot: usize, cols: &[usize]) -> Self {
        Self::of(cols, |c| page.value(slot, c))
    }

    fn of(cols: &[usize], value: impl Fn(usize) -> Value) -> Self {
        match cols {
            [c] => Self::single(value(*c)),
            _ => IndexKey(Repr::Many(cols.iter().map(|&c| value(c)).collect())),
        }
    }

    /// The key's column values.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Many(vs) => vs,
        }
    }

    /// Number of columns in the key.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Approximate serialized size in bytes, for index-size accounting.
    pub fn size_bytes(&self) -> usize {
        self.values().iter().map(Value::size_bytes).sum()
    }

    /// The smallest composite key whose prefix equals `prefix` — used as a
    /// lower bound for prefix range scans.
    pub fn prefix_lower(prefix: &[Value]) -> Self {
        let mut v: Vec<Value> = prefix.to_vec();
        v.push(Value::Null); // Null sorts first
        Self::composite(v)
    }
}

impl PartialEq for IndexKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            (Repr::One(a), Repr::One(b)) => a.cmp(b),
            _ => self.values().cmp(other.values()),
        }
    }
}

impl std::hash::Hash for IndexKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("IndexKey").field(&self.values()).finish()
    }
}

impl fmt::Display for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order() {
        let a = IndexKey::composite(vec![Value::Int(1), Value::Int(9)]);
        let b = IndexKey::composite(vec![Value::Int(2), Value::Int(0)]);
        assert!(a < b, "first column dominates");
        let c = IndexKey::composite(vec![Value::Int(1), Value::Int(10)]);
        assert!(a < c, "tie broken by second column");
    }

    #[test]
    fn one_column_keys_compare_and_hash_as_their_values() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let hash = |k: &IndexKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        let one = IndexKey::single(Value::Int(5));
        for same in [
            IndexKey::composite(vec![Value::Int(5)]),
            IndexKey::from_row(&[Value::Null, Value::Int(5)], &[1]),
        ] {
            assert_eq!(one, same);
            assert_eq!(hash(&one), hash(&same));
            assert_eq!(hash(&one), {
                let mut h = DefaultHasher::new();
                [Value::Int(5)][..].hash(&mut h);
                h.finish()
            });
        }
        let pair = IndexKey::composite(vec![Value::Int(5), Value::Null]);
        assert!(one < pair, "a prefix sorts first");
        assert!(IndexKey::single(Value::Int(6)) > pair);
        assert_eq!(IndexKey::prefix_lower(&[]), IndexKey::single(Value::Null));
        assert_eq!(format!("{one:?}"), "IndexKey([Int(5)])");
    }

    #[test]
    fn from_row_projects_columns() {
        let row = vec![Value::Int(7), Value::str("MA"), Value::float(1.5)];
        let k = IndexKey::from_row(&row, &[2, 0]);
        assert_eq!(k.values(), &[Value::float(1.5), Value::Int(7)]);
        assert_eq!(k.arity(), 2);
    }

    #[test]
    fn size_accounting() {
        let k = IndexKey::composite(vec![Value::Int(1), Value::str("abc")]);
        assert_eq!(k.size_bytes(), 8 + 4);
    }

    #[test]
    fn prefix_lower_bounds_the_prefix_group() {
        let lo = IndexKey::prefix_lower(&[Value::Int(5)]);
        let first_real = IndexKey::composite(vec![Value::Int(5), Value::Int(i64::MIN)]);
        let prev_group = IndexKey::composite(vec![Value::Int(4), Value::Int(i64::MAX)]);
        assert!(lo < first_real);
        assert!(prev_group < lo);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_key_rejected() {
        IndexKey::composite(vec![]);
    }

    #[test]
    fn display_is_tuple_like() {
        let k = IndexKey::composite(vec![Value::Int(1), Value::str("MA")]);
        assert_eq!(k.to_string(), "(1, MA)");
    }
}
