//! # cm-advisor
//!
//! The **CM Advisor** (paper §6): an offline designer that, given a
//! training query, enumerates every composite CM key and bucketing over
//! the query's predicated attributes, estimates each design's composite
//! `c_per_u` and size from a random sample (Adaptive Estimator, §4.2 /
//! §6.1.3), prices each design with the correlation-aware cost model, and
//! recommends the **smallest CM within a user performance threshold**
//! relative to the unbucketed / secondary-B+Tree baseline (§6.2.2,
//! Table 5).
//!
//! The search space follows the paper exactly:
//!
//! * only attributes predicated in the training query are considered
//!   (§6.2.1), and predicates less selective than a threshold (0.5) are
//!   pruned;
//! * per attribute, candidate bucketings yield between 2² and 2¹⁶
//!   buckets, with bucket sizes scaling exponentially (§6.1.2, Table 4);
//! * the number of candidate designs is
//!   `∏(bucketings(c) + 1) − 1` (§6.1.3 counts 767 for four attributes).
//!
//! Beyond the paper's offline designer, the [`workload`] module extends
//! the advisor to the **read/write mix**: a [`WorkloadProfile`] of
//! per-column traffic (recorded online by `cm-engine`) feeds
//! [`recommend_for_workload`], which enumerates mixed
//! `{B+Tree, CM, none}` design sets per column and prices each with the
//! scan-cost formulas *plus* a per-write maintenance model, returning
//! the [`DesignSet`] the engine can apply with `Engine::apply_design`.
//!
//! Every advisor estimates soft-FD strength the same way: one
//! [`Sample`] of the table's live rows, drawn once with a fixed seed,
//! and [`Sample::strength`] over it.
//!
//! ```
//! use cm_advisor::{recommend_for_workload, Sample, WorkloadProfile};
//! use cm_query::Table;
//! use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
//! use std::sync::Arc;
//!
//! // A small correlated table: price softly determines catid.
//! let disk = DiskSim::with_defaults();
//! let schema = Arc::new(Schema::new(vec![
//!     Column::new("catid", ValueType::Int),
//!     Column::new("price", ValueType::Int),
//! ]));
//! let rows: Vec<Vec<Value>> = (0..4000i64)
//!     .map(|i| vec![Value::Int(i % 100), Value::Int((i % 100) * 50 + i % 50)])
//!     .collect();
//! let mut table = Table::build(&disk, schema, rows, 40, 0, 80).unwrap();
//! table.analyze_cols(&[1]);
//!
//! // A write-heavy profile: 10 reads on price, 90 row writes.
//! let mut profile = WorkloadProfile::new();
//! for i in 0..10i64 {
//!     profile.note_read();
//!     profile.note_pred(1, 1.0, &[WorkloadProfile::hash_value(&i)]);
//! }
//! for _ in 0..90 {
//!     profile.note_write();
//! }
//!
//! let sample = Sample::live(&table, 2_000);
//! let rec = recommend_for_workload(&sample, &disk.config(), table.heap().len(), 256, &profile);
//! // Maintenance-free CMs win a 10/90 mix: no B+Tree in the best set.
//! assert_eq!(rec.best.btrees(), 0);
//! ```

#![warn(missing_docs)]

pub mod candidates;
pub mod clustering;
pub mod design;
pub mod discovery;
pub mod recommend;
pub mod sample;
pub mod workload;

pub use candidates::{bucketing_candidates, AttrCandidates};
pub use clustering::{recommend_clustering, ClusteringChoice};
pub use design::{CmDesign, DesignEstimate};
pub use discovery::{discover_for_clustered, discover_soft_fds, SoftFd};
pub use recommend::{Advisor, Recommendation};
pub use sample::Sample;
pub use workload::{
    recommend_for_workload, ColumnAccess, ColumnDesign, DesignSet, Structure, WorkloadProfile,
    WorkloadRecommendation,
};
