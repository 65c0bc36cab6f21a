//! # cm-query
//!
//! Query execution for the Correlation Maps (VLDB 2009) reproduction.
//!
//! The paper evaluates four physical access paths for a conjunctive
//! predicate over a clustered heap:
//!
//! 1. **Full table scan** — sequential read of every page (§3).
//! 2. **Pipelined secondary index scan** — one uncoordinated probe + heap
//!    fetch per matching tuple (§3.1).
//! 3. **Sorted secondary index scan** — PostgreSQL-style bitmap scan:
//!    collect RIDs, sort/dedupe pages, sweep the heap (§3.2).
//! 4. **CM-guided scan** — `cm_lookup` on the memory-resident CM, then a
//!    clustered-index-driven scan of the returned bucket ranges with
//!    re-filtering against the original predicate (§5.2, Figure 4).
//!
//! [`Table`] composes the substrates (heap, clustered index, bucket
//! directory, secondary indexes, CMs) and owns the INSERT/DELETE
//! maintenance paths measured in Experiment 3. [`Planner`] chooses among
//! the paths with the paper's cost model. Every scan-shaped path runs a
//! page at a time: the query is compiled once per leg into column
//! [`kernel`]s whose selection vectors the stamps then filter, and the
//! consumers — the visitor wrappers, [`BatchAgg`], the join's
//! [`KeyProbe`] — read those `(page, selection)` batches.
//!
//! Multi-table execution builds on the same paths: [`join`] defines the
//! equi-join vocabulary plus the CM-clamped probe scan, and [`agg`] the
//! mergeable grouped-aggregation states engines fold per shard leg.

pub mod agg;
pub mod error;
pub mod exec;
pub mod join;
pub mod kernel;
pub mod leg;
pub mod plan;
pub mod predicate;
pub mod shard;
pub mod table;

pub use agg::{AggFunc, AggSpec, AggState, BatchAgg};
pub use error::QueryError;
pub use exec::{merge_page_ranges, ExecContext, RunResult, ALL_PAGES};
pub use join::{JoinHashTable, JoinQuery, JoinSide, JoinStrategy, KeyProbe};
pub use kernel::PageFilter;
pub use leg::{QueryPlan, ShardLeg};
pub use plan::{AccessPath, PlanChoice, Planner};
pub use predicate::{Pred, PredOp, Query};
pub use shard::{restrict_to_shard, ShardRange};
pub use table::{ColumnStats, Table, DEFAULT_TREE_ORDER, HOLDS_FREE_SLOTS, NOT_ALL_VISIBLE};
