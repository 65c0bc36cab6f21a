//! Grouped aggregation, DISTINCT, and LIMIT through the engine.
//!
//! Aggregation reuses the whole single-table pipeline — routing,
//! per-shard cost-based access paths, MVCC snapshots, the fan-out
//! executor — but folds each leg's matching rows into a per-leg
//! [`AggState`] instead of buffering them. Leg states merge in explicit
//! merge-key order (mergeability is `AggState`'s contract), so grouped
//! results are identical on 1 or N workers, and `LIMIT` applies only
//! after the merge — a limited result is always a stable prefix of the
//! key-sorted unlimited one.

use crate::engine::Engine;
use crate::read::{LegOpts, LegOutcome, LegPath};
use crate::error::{check_cols, check_query};
use crate::Result;
use cm_query::{AggFunc, AggSpec, AggState, BatchAgg, Query, RunResult, ALL_PAGES};
use cm_storage::Row;
use std::sync::atomic::Ordering;

/// Outcome of one grouped-aggregation (or DISTINCT) execution.
#[derive(Debug, Clone)]
pub struct AggOutcome {
    /// Result rows: group-key columns then aggregate values, ascending
    /// by group key, truncated to the spec's `limit`.
    pub rows: Vec<Row>,
    /// Groups before the `limit` truncation.
    pub groups: usize,
    /// Measured (simulated) execution, summed across the legs.
    pub run: RunResult,
    /// Simulated wall-clock of the fan-out on the engine's workers.
    pub parallel_ms: f64,
    /// Per-leg choices and timings, ascending by merge key.
    pub legs: Vec<LegOutcome>,
}

impl Engine {
    /// Execute `SELECT group_by, aggs FROM table WHERE q GROUP BY
    /// group_by ORDER BY group_by LIMIT limit`, folding per-shard legs
    /// and merging their states deterministically.
    ///
    /// ```
    /// use cm_engine::{Engine, EngineConfig};
    /// use cm_query::{AggFunc, AggSpec, Query};
    /// use cm_storage::{Column, Schema, Value, ValueType};
    /// use std::sync::Arc;
    ///
    /// let engine = Engine::new(EngineConfig::default());
    /// let schema = Arc::new(Schema::new(vec![
    ///     Column::new("id", ValueType::Int),
    ///     Column::new("cat", ValueType::Int),
    /// ]));
    /// engine.create_table("items", schema, 0, 32, 64).unwrap();
    /// let rows = (0..100i64).map(|i| vec![Value::Int(i), Value::Int(i % 4)]).collect();
    /// engine.load("items", rows).unwrap();
    ///
    /// // SELECT cat, COUNT(*) FROM items GROUP BY cat
    /// let spec = AggSpec::new(vec![1], vec![AggFunc::Count]);
    /// let out = engine.aggregate("items", &Query::default(), &spec).unwrap();
    /// assert_eq!(out.rows.len(), 4);
    /// assert_eq!(out.rows[0], vec![Value::Int(0), Value::Int(25)]);
    /// ```
    pub fn aggregate(&self, table: &str, q: &Query, spec: &AggSpec) -> Result<AggOutcome> {
        let entry = self.entry(table)?;
        let arity = entry.schema.arity();
        check_query(table, arity, q)?;
        check_cols(table, arity, spec.group_by.iter().copied())?;
        check_cols(table, arity, spec.aggs.iter().filter_map(AggFunc::col))?;
        spec.check_types(&entry.schema)?;

        let lt = entry.loaded()?;
        self.profile_read(&entry, lt, q);
        let snap = self.mvcc.as_ref().map(|mv| mv.begin());
        let how =
            LegOpts { path: LegPath::Planned, cold: false, snap: snap.as_ref(), pages: ALL_PAGES };
        let folded = self.fan_out(self.route(lt, q), true, |leg| {
            let mut fold = BatchAgg::new(spec);
            let (path, run) =
                self.run_leg(&self.read_locked(&lt.parts[leg.shard]), leg, &how, |page, sel| {
                    fold.fold(page, sel)
                })?;
            Ok((path, run, fold.finish()))
        })?;
        let mut merged = AggState::new(spec);
        for state in &folded.outs {
            merged.merge(state);
        }
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        // A global aggregation yields its one row even over zero
        // matches, so it always has exactly one group.
        let groups = if spec.group_by.is_empty() { 1 } else { merged.num_groups() };
        Ok(AggOutcome {
            rows: merged.finish(),
            groups,
            run: folded.run,
            parallel_ms: folded.parallel_ms,
            legs: folded.legs,
        })
    }

    /// `SELECT DISTINCT cols FROM table WHERE q [LIMIT n]`: grouped
    /// aggregation with no aggregates — the key-sorted group keys are
    /// the result.
    ///
    /// ```
    /// use cm_engine::{Engine, EngineConfig};
    /// use cm_query::Query;
    /// use cm_storage::{Column, Schema, Value, ValueType};
    /// use std::sync::Arc;
    ///
    /// let engine = Engine::new(EngineConfig::default());
    /// let schema = Arc::new(Schema::new(vec![
    ///     Column::new("id", ValueType::Int),
    ///     Column::new("cat", ValueType::Int),
    /// ]));
    /// engine.create_table("items", schema, 0, 32, 64).unwrap();
    /// let rows = (0..100i64).map(|i| vec![Value::Int(i), Value::Int(i % 4)]).collect();
    /// engine.load("items", rows).unwrap();
    ///
    /// let out = engine.select_distinct("items", &Query::default(), &[1], Some(2)).unwrap();
    /// assert_eq!(out.rows, vec![vec![Value::Int(0)], vec![Value::Int(1)]]);
    /// assert_eq!(out.groups, 4, "limit truncates output, not the group count");
    /// ```
    pub fn select_distinct(
        &self,
        table: &str,
        q: &Query,
        cols: &[usize],
        limit: Option<usize>,
    ) -> Result<AggOutcome> {
        let mut spec = AggSpec::distinct(cols.to_vec());
        if let Some(n) = limit {
            spec = spec.with_limit(n);
        }
        self.aggregate(table, q, &spec)
    }
}
