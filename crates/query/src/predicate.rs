//! Conjunctive predicates.
//!
//! The paper's workloads are conjunctions of per-column restrictions:
//! equality (`mode = 1`), IN-lists (`shipdate IN (...)` — the Figure 3
//! query), and ranges (`Price BETWEEN 1000 AND 1100`, `ra BETWEEN ...`).

use cm_storage::Value;

/// A restriction on a single column.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    /// `col = v`
    Eq(Value),
    /// `col IN (v1, ..., vk)`
    In(Vec<Value>),
    /// `col BETWEEN lo AND hi` (inclusive).
    Between(Value, Value),
}

impl PredOp {
    /// Does a value satisfy this restriction? `Eq` and `In` use
    /// [`Value`]'s equality (type-strict; `NULL = NULL` holds), `Between`
    /// its total order (NULL first, `Int` and `Float` numerically).
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PredOp::Eq(x) => v == x,
            PredOp::In(xs) => xs.contains(v),
            PredOp::Between(lo, hi) => v >= lo && v <= hi,
        }
    }
}

/// A predicate on one column.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    /// Column position in the table schema.
    pub col: usize,
    /// The restriction.
    pub op: PredOp,
}

impl Pred {
    /// `col = v`
    pub fn eq(col: usize, v: impl Into<Value>) -> Self {
        Pred { col, op: PredOp::Eq(v.into()) }
    }

    /// `col IN (vs)`
    pub fn is_in(col: usize, vs: Vec<Value>) -> Self {
        Pred { col, op: PredOp::In(vs) }
    }

    /// `col BETWEEN lo AND hi`
    pub fn between(col: usize, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Pred { col, op: PredOp::Between(lo.into(), hi.into()) }
    }

    /// Does a row satisfy this predicate?
    pub fn matches(&self, row: &[Value]) -> bool {
        self.op.matches(&row[self.col])
    }
}

/// A conjunction of per-column predicates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The conjuncts; empty means "match everything".
    pub preds: Vec<Pred>,
}

impl Query {
    /// A query from conjuncts.
    pub fn new(preds: Vec<Pred>) -> Self {
        Query { preds }
    }

    /// Single-predicate query.
    pub fn single(pred: Pred) -> Self {
        Query { preds: vec![pred] }
    }

    /// Does a row satisfy every conjunct?
    pub fn matches(&self, row: &[Value]) -> bool {
        self.preds.iter().all(|p| p.matches(row))
    }

    /// The predicate restricting `col`, if any.
    pub fn pred_on(&self, col: usize) -> Option<&Pred> {
        self.preds.iter().find(|p| p.col == col)
    }

    /// Columns restricted by this query (the candidate CM attributes the
    /// advisor extracts from training queries, §6.2.1).
    pub fn predicated_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.preds.iter().map(|p| p.col).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![Value::Int(5), Value::str("boston"), Value::float(2.5)]
    }

    #[test]
    fn eq_matches() {
        assert!(Pred::eq(0, 5i64).matches(&row()));
        assert!(!Pred::eq(0, 6i64).matches(&row()));
        assert!(Pred::eq(1, "boston").matches(&row()));
    }

    #[test]
    fn in_matches() {
        let p = Pred::is_in(1, vec![Value::str("nyc"), Value::str("boston")]);
        assert!(p.matches(&row()));
        let p = Pred::is_in(1, vec![Value::str("nyc")]);
        assert!(!p.matches(&row()));
        assert!(!Pred::is_in(0, vec![]).matches(&row()), "empty IN matches nothing");
    }

    #[test]
    fn between_is_inclusive() {
        assert!(Pred::between(0, 5i64, 9i64).matches(&row()));
        assert!(Pred::between(0, 1i64, 5i64).matches(&row()));
        assert!(!Pred::between(0, 6i64, 9i64).matches(&row()));
        assert!(Pred::between(2, 2.0, 3.0).matches(&row()));
    }

    #[test]
    fn conjunction_semantics() {
        let q = Query::new(vec![Pred::eq(0, 5i64), Pred::eq(1, "boston")]);
        assert!(q.matches(&row()));
        let q = Query::new(vec![Pred::eq(0, 5i64), Pred::eq(1, "nyc")]);
        assert!(!q.matches(&row()));
        assert!(Query::default().matches(&row()), "empty query matches all");
    }

    #[test]
    fn predicated_cols_dedup_sorted() {
        let q = Query::new(vec![
            Pred::eq(3, 1i64),
            Pred::eq(1, "x"),
            Pred::between(3, 0i64, 9i64),
        ]);
        assert_eq!(q.predicated_cols(), vec![1, 3]);
        assert!(q.pred_on(1).is_some());
        assert!(q.pred_on(2).is_none());
    }
}
