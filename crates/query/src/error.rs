//! Query-layer errors.

use std::fmt;

/// Errors surfaced by query execution (as opposed to planning, which
/// simply never chooses an inapplicable path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A (forced) secondary-index path was asked to execute a query with
    /// no predicate on the index's first key column. The index cannot
    /// narrow the scan at all — the cost-based router would never pick
    /// it, so this only arises from an explicitly forced path.
    NoIndexPredicate {
        /// The index's name.
        index: String,
        /// The index's first (prefix) key column position.
        col: usize,
    },
    /// A (forced) path named a secondary index the table does not have.
    UnknownIndex {
        /// The index id the path named.
        id: usize,
    },
    /// A (forced) path named a CM the table does not have.
    UnknownCm {
        /// The CM id the path named.
        id: usize,
    },
    /// A predicate named a column past the table's arity.
    BadColumn {
        /// The column position the predicate named.
        col: usize,
    },
    /// A `SUM` named a column that does not hold numbers (`Int`, `Date`
    /// or `Float`).
    NonNumericSum {
        /// The column position the `SUM` named.
        col: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoIndexPredicate { index, col } => write!(
                f,
                "secondary index {index:?} has no predicate on its first key column {col}"
            ),
            QueryError::UnknownIndex { id } => write!(f, "no secondary index with id {id}"),
            QueryError::UnknownCm { id } => write!(f, "no correlation map with id {id}"),
            QueryError::BadColumn { col } => write!(f, "predicate on column {col}, past the table's arity"),
            QueryError::NonNumericSum { col } => write!(f, "SUM over column {col}, which holds no numbers"),
        }
    }
}

impl std::error::Error for QueryError {}
