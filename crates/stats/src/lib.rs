//! # cm-stats
//!
//! Statistics substrate for the Correlation Maps (VLDB 2009) reproduction.
//!
//! The paper's cost model and CM Advisor rest on cardinality statistics
//! (§4.2):
//!
//! * **Distinct Sampling** (Gibbons, VLDB'01) for accurate single-attribute
//!   cardinalities at the cost of one table scan — [`DistinctSampler`].
//! * The **Adaptive Estimator** (Charikar et al., PODS'00) for composite
//!   cardinalities from an in-memory random sample, fast enough to score
//!   hundreds of candidate CM designs — [`estimate_distinct`], which
//!   follows the GEE / Shlosser family (see module docs for the exact
//!   formula and the substitution note).
//! * **Reservoir sampling** collected during the Distinct Sampling scan
//!   (Olken-style) — [`ReservoirSampler`].
//! * Exact correlation statistics over full tables — [`CorrelationStats`],
//!   providing `c_per_u = D(Au, Ac) / D(Au)`, `u_tups`, and `c_tups` from
//!   Tables 1–2 of the paper.

pub mod distinct;
pub mod estimator;
pub mod freq;
pub mod reservoir;
pub mod tablestats;

pub use distinct::DistinctSampler;
pub use estimator::{estimate_distinct, gee, shlosser};
pub use freq::FreqTable;
pub use reservoir::ReservoirSampler;
pub use tablestats::{composite_correlation_stats, correlation_stats, CorrelationStats};
