//! # cm-engine
//!
//! A concurrent database-engine facade over the Correlation Maps (VLDB
//! 2009) reproduction. The lower crates provide the parts — simulated
//! disk and buffer pool (`cm-storage`), B+Trees (`cm-index`), CMs
//! (`cm-core`), access paths and cost-based planning (`cm-query` /
//! `cm-cost`) — but until this crate existed, every experiment hand-wired
//! them and picked its access path by hand. [`Engine`] assembles them
//! into one runnable system:
//!
//! * a **catalog** of named tables, each range-partitioned on its
//!   clustered attribute across N **storage shards** — every partition
//!   bundles its clustered heap, sparse clustered index, bucket
//!   directory, secondary B+Trees, and CMs behind its own `RwLock`, so
//!   readers run concurrently and writers serialize per *shard*, not per
//!   engine or even per table — there is no table-level lock;
//! * one [`cm_storage::StorageShard`] (simulated disk + buffer pool) per
//!   shard, so concurrent scans on different shards stop interleaving a
//!   single disk head, plus a dedicated log disk behind a
//!   [`cm_storage::GroupCommitWal`] whose leader-elected batched flushes
//!   make concurrent commits share tail writes;
//! * a **range router** ([`RangeRouter`]): point predicates on the
//!   clustered column reach exactly one shard, ranges fan out only to
//!   the shards they overlap, and each shard executes the query
//!   intersected with its ownership range
//!   ([`cm_query::restrict_to_shard`]);
//! * one **leg pipeline** for everything that touches rows by predicate
//!   — reads, aggregates, joins, and `delete_where`: route to per-shard
//!   legs ([`cm_query::ShardLeg`]), take each leg's shard lock once,
//!   choose its access path under that hold, execute it, and merge in
//!   merge-key order. Legs fan out on a shared worker pool
//!   ([`Executor`], `EngineConfig::workers`), so a multi-shard query's
//!   latency approaches its longest leg instead of the per-shard sum;
//! * **cost-based routing**: every leg consults the paper's §3–§6 cost
//!   model via [`cm_query::Planner`] and takes the cheapest of the four
//!   physical access paths (full scan, pipelined or sorted secondary
//!   B+Tree scan, CM-guided scan) — the integration the paper argues for
//!   in §8;
//! * **multi-table execution**: partitioned hash joins with a
//!   cost-picked *correlation-clamped* probe ([`Engine::join`] — when the
//!   probe table carries a CM on the join column, the build keys clamp
//!   the probe to co-clustered page runs) and mergeable grouped
//!   aggregation / DISTINCT / LIMIT ([`Engine::aggregate`],
//!   [`Engine::select_distinct`]), both fanned out per shard and merged
//!   in explicit merge-key order;
//! * a **session layer** ([`Session`]): cheap per-connection handles over
//!   an `Arc<Engine>` with per-session statistics and an optional
//!   cold-read mode for cache-flushed experiments;
//! * a **mixed-workload driver** ([`workload`]): multi-threaded 90/10
//!   read/write traffic through sessions, reporting throughput, simulated
//!   I/O, and per-path routing counts;
//! * **MVCC snapshot reads** (`EngineConfig::mvcc`): heap versions carry
//!   begin/end timestamps, every query pins a commit-time snapshot and
//!   reads under shard *read* locks (writers stop blocking readers —
//!   categorical deletes scan without the write lock, and a design
//!   change builds its structures under the read lock behind a brief
//!   swap), while [`Engine::vacuum`] — on demand or every
//!   `EngineConfig::gc_every` deletes — reclaims versions no live
//!   snapshot can see;
//! * a **workload-aware design-advisor loop**: the engine records a
//!   per-table [`WorkloadProfile`] online (per-column read traffic +
//!   write count), [`Engine::advise_design`] enumerates mixed
//!   `{B+Tree, CM, none}` structure sets per column and prices each
//!   with read costs *plus* per-write maintenance, and
//!   [`Engine::apply_design`] swaps the table's structure set shard by
//!   shard through the one staged install step that also serves
//!   `create_btree`, `create_cm`, and recovery (the driver can re-plan
//!   mid-run via [`MixedWorkloadConfig::advise_after`]).
//!
//! The full loop, runnable:
//!
//! ```
//! use cm_engine::{Engine, EngineConfig};
//! use cm_query::{Pred, Query};
//! use cm_storage::{Column, Schema, Value, ValueType};
//! use std::sync::Arc;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let schema = Arc::new(Schema::new(vec![
//!     Column::new("catid", ValueType::Int),
//!     Column::new("price", ValueType::Int),
//! ]));
//! engine.create_table("items", schema, 0, 20, 100).unwrap();
//! let rows = (0..4000i64)
//!     .map(|i| vec![Value::Int(i % 80), Value::Int((i % 80) * 100 + i % 100)])
//!     .collect();
//! engine.load("items", rows).unwrap();
//!
//! // Read-mostly traffic on price builds the profile...
//! for i in 0..40i64 {
//!     engine.execute("items", &Query::single(Pred::eq(1, (i % 8) * 321))).unwrap();
//! }
//! engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
//!
//! // ...the advisor picks a structure for the hot column, the engine
//! // applies it, and the planner routes through it from then on.
//! let rec = engine.advise_design("items").unwrap();
//! assert!(rec.best.columns.iter().any(|c| c.col == 1 && c.structure.is_some()));
//! let applied = engine.apply_design("items", &rec.best).unwrap();
//! assert_eq!(applied.btrees + applied.cms, rec.best.btrees() + rec.best.cms());
//! ```
//!
//! Basic catalog + cost-routed execution:
//!
//! ```
//! use cm_engine::{Engine, EngineConfig};
//! use cm_core::CmSpec;
//! use cm_query::{Pred, Query};
//! use cm_storage::{Column, Schema, Value, ValueType};
//! use std::sync::Arc;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let schema = Arc::new(Schema::new(vec![
//!     Column::new("state", ValueType::Str),
//!     Column::new("city", ValueType::Str),
//! ]));
//! engine.create_table("people", schema, 0, 64, 128).unwrap();
//! engine.load("people", vec![vec![Value::str("MA"), Value::str("boston")]]).unwrap();
//! engine.create_cm("people", "city_cm", CmSpec::single_raw(1)).unwrap();
//! let out = engine
//!     .execute("people", &cm_query::Query::single(Pred::eq(1, "boston")))
//!     .unwrap();
//! assert_eq!(out.run.matched, 1);
//! let _ = Query::default();
//! ```

#![warn(missing_docs)]

mod agg;
mod catalog;
mod design;
mod engine;
mod error;
pub mod executor;
mod join;
mod maintenance;
mod read;
pub mod recovery;
mod session;
pub mod shard;
mod stats;
pub mod workload;
mod write;

pub use agg::AggOutcome;
pub use catalog::{EngineConfig, TableInfo};
pub use design::{AppliedDesign, StructureSet};
pub use engine::Engine;
pub use read::{LegOutcome, QueryOutcome};
pub use stats::{EngineStats, RouteCounts};
pub use join::JoinOutcome;
pub use error::EngineError;
pub use executor::{scheduled_makespan, Executor};
pub use recovery::{CrashState, DurableImage, RecoveryReport, ShardImage, TableImage};
pub use session::{Session, SessionStats};
pub use shard::{partition_rows, RangeRouter};
pub use workload::{run_mixed, AdviceOutcome, LatencyStats, MixedWorkloadConfig, WorkloadReport};

// The backend knob, re-exported so engine callers can pick the device
// ([`EngineConfig::backend`]) without naming cm-storage directly.
pub use cm_storage::Backend;

// The multi-table vocabulary, re-exported so engine callers can build
// joins and aggregations without naming cm-query directly.
pub use cm_query::{AggFunc, AggSpec, JoinQuery, JoinSide, JoinStrategy};

// The workload-aware advisor vocabulary, re-exported so engine callers
// can advise/apply without naming cm-advisor directly.
pub use cm_advisor::{
    ColumnDesign, DesignSet, Structure, WorkloadProfile, WorkloadRecommendation,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
