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

use crate::engine::{Engine, LegOutcome};
use crate::error::EngineError;
use crate::executor::scheduled_makespan;
use crate::Result;
use cm_query::{AggFunc, AggSpec, AggState, Query, RunResult, ShardLeg};
use cm_storage::{IoStats, Row};
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
        for &col in &spec.group_by {
            if col >= arity {
                return Err(EngineError::BadColumn { table: table.into(), col });
            }
        }
        for f in &spec.aggs {
            if let Some(col) = f.col() {
                if col >= arity {
                    return Err(EngineError::BadColumn { table: table.into(), col });
                }
            }
        }

        let waited = std::time::Instant::now();
        let loaded = entry.loaded.read();
        self.note_read_stall(waited.elapsed());
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        self.profile_read(&entry, lt, q);
        let snap = self.mvcc.as_ref().map(|mv| mv.begin());
        let snap_ref = snap.as_ref();

        let plan = self.plan_query(lt, q, None);
        // The fold reads its keys and its inputs, nothing else.
        let reads: Vec<usize> = spec
            .group_by
            .iter()
            .copied()
            .chain(spec.aggs.iter().filter_map(AggFunc::col))
            .collect();
        let fold_leg = |leg: &ShardLeg| -> Result<(RunResult, AggState)> {
            let mut state = AggState::new(spec);
            let r = self.run_leg_visit(lt, leg, false, snap_ref, Some(&reads), |row| {
                state.observe(row)
            })?;
            Ok((r, state))
        };
        let leg_results: Vec<Result<(RunResult, AggState)>> =
            if plan.legs.len() <= 1 || self.executor.workers() == 1 {
                plan.legs.iter().map(&fold_leg).collect()
            } else {
                let fl = &fold_leg;
                self.executor.run(plan.legs.iter().map(|leg| move || fl(leg)).collect())
            };

        let mut run = RunResult { matched: 0, examined: 0, io: IoStats::default() };
        let mut legs: Vec<LegOutcome> = Vec::with_capacity(plan.legs.len());
        let mut leg_ms: Vec<f64> = Vec::with_capacity(plan.legs.len());
        let mut merged = AggState::new(spec);
        let mut paired: Vec<(ShardLeg, Result<(RunResult, AggState)>)> =
            plan.legs.into_iter().zip(leg_results).collect();
        paired.sort_by_key(|(leg, _)| leg.merge_key());
        for (leg, res) in paired {
            let (r, state) = res?;
            merged.merge(&state);
            run.matched += r.matched;
            run.examined += r.examined;
            run.io.add(&r.io);
            leg_ms.push(r.io.elapsed_ms);
            self.note_route(leg.choice.path);
            legs.push(LegOutcome { shard: leg.shard, choice: leg.choice, run: r });
        }
        let parallel_ms = scheduled_makespan(&leg_ms, self.executor.workers());
        self.queries.fetch_add(1, Ordering::Relaxed);
        // A global aggregation yields its one row even over zero
        // matches, so it always has exactly one group.
        let groups = if spec.group_by.is_empty() { 1 } else { merged.num_groups() };
        Ok(AggOutcome { rows: merged.finish(), groups, run, parallel_ms, legs })
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
