//! Engine error type.

use cm_query::{Query, QueryError};
use cm_storage::StorageError;
use std::fmt;

/// Errors surfaced by the engine facade.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A storage-layer failure (bad row, out-of-range RID, ...).
    Storage(StorageError),
    /// A query-execution failure (e.g. a forced secondary path with no
    /// predicate on the index's first key column).
    Query(QueryError),
    /// No table with this name in the catalog.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// The table was created but `load` has not run yet.
    NotLoaded(String),
    /// `load` was already called for this table (it bulk-builds the
    /// clustered heap once; use `insert` afterwards).
    AlreadyLoaded(String),
    /// A column index is out of range for the table's schema.
    BadColumn {
        /// Table name.
        table: String,
        /// Offending column position.
        col: usize,
    },
    /// A RID's shard tag does not address a shard of this table.
    BadRid {
        /// Table name.
        table: String,
        /// The offending RID (or shard index).
        rid: u64,
    },
    /// The operation requires a single-shard table but this table is
    /// partitioned (use the per-shard accessors instead).
    ShardedTable(String),
    /// The configuration asks for more storage shards than a RID's shard
    /// tag can address (the high bits of [`cm_storage::Rid`]).
    TooManyShards {
        /// Shards the configuration requested.
        requested: usize,
        /// The addressable maximum ([`cm_storage::Rid::MAX_SHARDS`]).
        max: usize,
    },
    /// A forced correlation-clamped join probe named a CM the probe
    /// table does not have, or one whose key does not include the join
    /// column.
    NoClampCm {
        /// Probe-side table name.
        table: String,
        /// The join (probe) column the clamp needed.
        col: usize,
    },
    /// Crash recovery could not reconstruct a consistent state from the
    /// checkpoint image and surviving log prefix.
    Recovery(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            EngineError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            EngineError::NotLoaded(t) => write!(f, "table {t:?} has not been loaded"),
            EngineError::AlreadyLoaded(t) => write!(f, "table {t:?} is already loaded"),
            EngineError::BadColumn { table, col } => {
                write!(f, "column {col} out of range for table {table:?}")
            }
            EngineError::BadRid { table, rid } => {
                write!(f, "rid {rid} addresses no shard of table {table:?}")
            }
            EngineError::ShardedTable(t) => {
                write!(f, "table {t:?} is sharded; use a per-shard accessor")
            }
            EngineError::TooManyShards { requested, max } => {
                write!(f, "{requested} shards exceed the RID-addressable maximum of {max}")
            }
            EngineError::NoClampCm { table, col } => {
                write!(f, "table {table:?} has no CM covering join column {col} to clamp with")
            }
            EngineError::Recovery(why) => write!(f, "recovery failed: {why}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

/// [`EngineError::BadColumn`] for the first of `cols` past `arity`.
pub(crate) fn check_cols(
    table: &str,
    arity: usize,
    cols: impl IntoIterator<Item = usize>,
) -> crate::Result<()> {
    match cols.into_iter().find(|&c| c >= arity) {
        Some(col) => Err(EngineError::BadColumn { table: table.to_string(), col }),
        None => Ok(()),
    }
}

/// [`EngineError::BadColumn`] for a predicate of `q` past `arity` —
/// checked before a query is planned, so no leg ever compiles it.
pub(crate) fn check_query(table: &str, arity: usize, q: &Query) -> crate::Result<()> {
    check_cols(table, arity, q.preds.iter().map(|p| p.col))
}
