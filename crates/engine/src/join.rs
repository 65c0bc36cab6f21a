//! Two-table joins: partitioned hash join with an optional
//! correlation-clamped probe.
//!
//! A join runs in two fanned-out phases over the same executor the
//! single-table path uses:
//!
//! 1. **Build** — the smaller side's shard legs (planned exactly like a
//!    single-table query over the build filter) stream their rows into
//!    one [`JoinHashTable`], merged in explicit leg merge-key order.
//! 2. **Probe** — the larger side's shard legs scan and probe the table.
//!    Two strategies exist for the scan: the planner-chosen access path
//!    over the probe filter (classic hash join), or — when the probe
//!    table carries a CM covering the join column — a *correlation
//!    clamp*: the distinct build keys become an `IN` constraint on the
//!    CM and only co-clustered bucket ranges are swept
//!    ([`cm_query::Table::exec_cm_clamp_visit`]). The engine prices both
//!    with exact CM lookups ([`cm_cost::CostParams::cost_cm_join_probe`]
//!    vs the planned probe cost) and picks the cheaper per query.
//!
//! Both phases read at **one** MVCC snapshot acquired before the build,
//! so a concurrent writer can never split the join's view of the two
//! tables. Output order is deterministic across worker counts: probe
//! legs merge in ascending merge key, rows within a leg follow the probe
//! scan order, and ties on a duplicate key follow build insertion order
//! (itself merge-key ordered).

use crate::engine::{Engine, LegOutcome};
use crate::error::EngineError;
use crate::executor::scheduled_makespan;
use crate::Result;
use cm_advisor::WorkloadProfile;
use cm_cost::CostParams;
use cm_core::AttrConstraint;
use cm_query::exec::cm_constraints;
use cm_query::{
    ExecContext, JoinHashTable, JoinQuery, JoinSide, JoinStrategy, RunResult, ShardLeg,
};
use cm_storage::{IoStats, Row, Snapshot, Value};
use std::sync::atomic::Ordering;

/// How many build keys feed the probe column's distinct-queried sketch
/// in the workload profile (a bounded sample keeps profiling O(1)-ish
/// per join however large the build side is).
const PROFILE_KEY_SAMPLE: usize = 256;

/// One probe leg's result: run measurement, collected output rows, and
/// the output-pair count (tracked separately so uncollected runs still
/// report join cardinality).
type ProbeRun = Result<(RunResult, Vec<Row>, u64)>;

/// The correlation clamp's inputs: which CM to look up, the join column
/// it constrains, and the distinct build keys forming the `IN` list.
#[derive(Clone, Copy)]
struct Clamp<'a> {
    cm_id: usize,
    col: usize,
    keys: &'a [Value],
}

/// Outcome of one two-table equi-join.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// The probe strategy that ran (planner-chosen unless forced).
    pub strategy: JoinStrategy,
    /// Which input was hashed (the smaller side; ties go left).
    pub build_side: JoinSide,
    /// Estimated probe cost of the hash strategy (ms): the sum of the
    /// planner's per-leg estimates for the probe filter.
    pub est_hash_ms: f64,
    /// Estimated probe cost of the correlation clamp (ms), priced from
    /// exact CM lookups over the build keys. `None` when the probe table
    /// has no CM covering the join column (or the build was empty).
    pub est_cm_ms: Option<f64>,
    /// Rows the build side contributed to the hash table (NULL join
    /// keys excluded — they can never match).
    pub build_rows: u64,
    /// Distinct join-key values in the hash table.
    pub distinct_keys: u64,
    /// Output rows of the join.
    pub matched: u64,
    /// Measured build-phase execution, summed across build legs.
    pub build_run: RunResult,
    /// Measured probe-phase execution, summed across probe legs.
    pub probe_run: RunResult,
    /// Simulated wall-clock of the two fan-outs back to back: build
    /// makespan + probe makespan on the engine's worker count.
    pub parallel_ms: f64,
    /// Per-leg choices and timings of the build phase, ascending by
    /// merge key.
    pub build_legs: Vec<LegOutcome>,
    /// Per-leg choices and timings of the probe phase, ascending by
    /// merge key. Under [`JoinStrategy::CmClamp`] each leg's recorded
    /// choice keeps the planner's hash-path pick (what the clamp was
    /// compared against); its run is the clamp's measurement.
    pub probe_legs: Vec<LegOutcome>,
    /// Joined rows (left columns then right columns), if collection was
    /// requested.
    pub rows: Option<Vec<Row>>,
}

impl Engine {
    /// Execute an inner equi-join between two loaded tables, picking the
    /// probe strategy (hash vs correlation clamp) by cost.
    ///
    /// The result's `matched` counts output rows; use
    /// [`Engine::join_collect`] to also materialize them.
    ///
    /// ```
    /// use cm_engine::{Engine, EngineConfig};
    /// use cm_query::JoinQuery;
    /// use cm_storage::{Column, Schema, Value, ValueType};
    /// use std::sync::Arc;
    ///
    /// let engine = Engine::new(EngineConfig::default());
    /// let items = Arc::new(Schema::new(vec![
    ///     Column::new("id", ValueType::Int),
    ///     Column::new("cat", ValueType::Int),
    /// ]));
    /// let cats = Arc::new(Schema::new(vec![
    ///     Column::new("cat", ValueType::Int),
    ///     Column::new("name", ValueType::Str),
    /// ]));
    /// engine.create_table("items", items, 0, 32, 64).unwrap();
    /// engine.create_table("cats", cats, 0, 32, 64).unwrap();
    /// let rows = (0..100i64).map(|i| vec![Value::Int(i), Value::Int(i % 4)]).collect();
    /// engine.load("items", rows).unwrap();
    /// let rows = (0..4i64).map(|c| vec![Value::Int(c), Value::str("cat")]).collect();
    /// engine.load("cats", rows).unwrap();
    ///
    /// // items.cat = cats.cat: every item matches exactly one category.
    /// let out = engine.join("items", "cats", &JoinQuery::on(1, 0)).unwrap();
    /// assert_eq!(out.matched, 100);
    /// ```
    pub fn join(&self, left: &str, right: &str, jq: &JoinQuery) -> Result<JoinOutcome> {
        self.join_inner(left, right, jq, None, false)
    }

    /// [`Engine::join`], also collecting the joined rows (left columns
    /// then right columns, deterministic order).
    pub fn join_collect(&self, left: &str, right: &str, jq: &JoinQuery) -> Result<JoinOutcome> {
        self.join_inner(left, right, jq, None, true)
    }

    /// Execute a join through a specific probe strategy (experiments and
    /// differential oracles). A forced [`JoinStrategy::CmClamp`] naming
    /// a CM the probe table lacks — or one whose key does not include
    /// the join column — surfaces [`EngineError::NoClampCm`].
    pub fn join_via(
        &self,
        left: &str,
        right: &str,
        jq: &JoinQuery,
        strategy: JoinStrategy,
    ) -> Result<JoinOutcome> {
        self.join_inner(left, right, jq, Some(strategy), false)
    }

    /// [`Engine::join_via`], also collecting the joined rows.
    pub fn join_via_collect(
        &self,
        left: &str,
        right: &str,
        jq: &JoinQuery,
        strategy: JoinStrategy,
    ) -> Result<JoinOutcome> {
        self.join_inner(left, right, jq, Some(strategy), true)
    }

    fn join_inner(
        &self,
        left: &str,
        right: &str,
        jq: &JoinQuery,
        forced: Option<JoinStrategy>,
        collect: bool,
    ) -> Result<JoinOutcome> {
        let left_entry = self.entry(left)?;
        let right_entry = self.entry(right)?;
        if jq.left_col >= left_entry.schema.arity() {
            return Err(EngineError::BadColumn { table: left.into(), col: jq.left_col });
        }
        if jq.right_col >= right_entry.schema.arity() {
            return Err(EngineError::BadColumn { table: right.into(), col: jq.right_col });
        }

        // Table-level read guards, acquired in name order so two joins
        // with swapped operands can never deadlock against a concurrent
        // offline design swap holding one write side. A self-join takes
        // one guard.
        let self_join = std::sync::Arc::ptr_eq(&left_entry, &right_entry);
        let left_guard;
        let mut right_guard = None;
        if self_join {
            let waited = std::time::Instant::now();
            left_guard = left_entry.loaded.read();
            self.note_read_stall(waited.elapsed());
        } else if left_entry.name <= right_entry.name {
            let waited = std::time::Instant::now();
            left_guard = left_entry.loaded.read();
            right_guard = Some(right_entry.loaded.read());
            self.note_read_stall(waited.elapsed());
        } else {
            let waited = std::time::Instant::now();
            let rg = right_entry.loaded.read();
            left_guard = left_entry.loaded.read();
            right_guard = Some(rg);
            self.note_read_stall(waited.elapsed());
        }
        let left_lt = left_guard
            .as_ref()
            .ok_or_else(|| EngineError::NotLoaded(left_entry.name.clone()))?;
        let right_lt = match &right_guard {
            Some(g) => {
                g.as_ref().ok_or_else(|| EngineError::NotLoaded(right_entry.name.clone()))?
            }
            None => left_lt,
        };

        self.profile_read(&left_entry, left_lt, &jq.left_filter);
        if !self_join {
            self.profile_read(&right_entry, right_lt, &jq.right_filter);
        }

        // One snapshot covers build and probe: however the legs
        // schedule, both sides see the same committed state.
        let snap = self.mvcc.as_ref().map(|mv| mv.begin());
        let snap_ref = snap.as_ref();

        // Build the smaller side (ties go left).
        let rows_of = |lt: &crate::engine::LoadedTable| -> u64 {
            lt.parts.iter().map(|p| p.read().heap().len()).sum()
        };
        let build_side = if self_join || rows_of(left_lt) <= rows_of(right_lt) {
            JoinSide::Left
        } else {
            JoinSide::Right
        };
        let (build_lt, build_col, build_filter) = match build_side {
            JoinSide::Left => (left_lt, jq.left_col, &jq.left_filter),
            JoinSide::Right => (right_lt, jq.right_col, &jq.right_filter),
        };
        let (probe_entry, probe_lt, probe_col, probe_filter) = match build_side {
            JoinSide::Left => (&right_entry, right_lt, jq.right_col, &jq.right_filter),
            JoinSide::Right => (&left_entry, left_lt, jq.left_col, &jq.left_filter),
        };

        // ---- build phase -----------------------------------------------
        let build_plan = self.plan_query(build_lt, build_filter, None);
        let build_results: Vec<Result<(RunResult, Vec<Row>)>> =
            if build_plan.legs.len() <= 1 || self.executor.workers() == 1 {
                build_plan
                    .legs
                    .iter()
                    .map(|leg| self.run_leg(build_lt, leg, true, false, snap_ref))
                    .collect()
            } else {
                self.executor.run(
                    build_plan
                        .legs
                        .iter()
                        .map(|leg| move || self.run_leg(build_lt, leg, true, false, snap_ref))
                        .collect(),
                )
            };
        let mut ht = JoinHashTable::new();
        let mut build_run = RunResult { matched: 0, examined: 0, io: IoStats::default() };
        let mut build_legs: Vec<LegOutcome> = Vec::with_capacity(build_plan.legs.len());
        let mut build_ms: Vec<f64> = Vec::with_capacity(build_plan.legs.len());
        let mut paired: Vec<(ShardLeg, crate::engine::LegRun)> =
            build_plan.legs.into_iter().zip(build_results).collect();
        paired.sort_by_key(|(leg, _)| leg.merge_key());
        for (leg, res) in paired {
            let (r, rows) = res?;
            for row in rows {
                ht.insert_keyed(build_col, row);
            }
            build_run.matched += r.matched;
            build_run.examined += r.examined;
            build_run.io.add(&r.io);
            build_ms.push(r.io.elapsed_ms);
            if forced.is_none() {
                self.note_route(leg.choice.path);
            }
            build_legs.push(LegOutcome { shard: leg.shard, choice: leg.choice, run: r });
        }
        let keys = ht.sorted_keys();

        // The probe column's profile sees the join as one wide IN-shaped
        // lookup over the build keys (a bounded hash sample feeds the
        // distinct sketch).
        let key_hashes: Vec<u64> = keys
            .iter()
            .take(PROFILE_KEY_SAMPLE)
            .map(WorkloadProfile::hash_value)
            .collect();
        probe_entry
            .profile
            .lock()
            .note_join_probe(probe_col, keys.len() as f64, &key_hashes);

        // ---- strategy decision -----------------------------------------
        let probe_plan = self.plan_query(probe_lt, probe_filter, None);
        let est_hash_ms: f64 = probe_plan.legs.iter().map(|l| l.choice.est_ms).sum();
        let clamp_cm = match forced {
            Some(JoinStrategy::CmClamp(id)) => {
                let part = probe_lt.parts.first().expect("loaded tables have shards").read();
                let covers = part.cms().get(id).is_some_and(|cm| {
                    cm.spec().attrs().iter().any(|a| a.col == probe_col)
                });
                if !covers {
                    return Err(EngineError::NoClampCm {
                        table: probe_entry.name.clone(),
                        col: probe_col,
                    });
                }
                Some(id)
            }
            Some(JoinStrategy::Hash) => None,
            None => probe_lt.parts.first().and_then(|p| p.read().clamp_cm_for(probe_col)),
        };
        let est_cm_ms: Option<f64> = clamp_cm.filter(|_| !keys.is_empty()).map(|id| {
            let clamp = Clamp { cm_id: id, col: probe_col, keys: &keys };
            probe_plan
                .legs
                .iter()
                .map(|leg| self.clamp_estimate(probe_lt, leg, clamp))
                .sum()
        });
        let strategy = match forced {
            Some(s) => s,
            None => match (clamp_cm, est_cm_ms) {
                (Some(id), Some(cm_ms)) if cm_ms < est_hash_ms => JoinStrategy::CmClamp(id),
                _ => JoinStrategy::Hash,
            },
        };

        // ---- probe phase -----------------------------------------------
        // The probe reads the join column of every row and the rest only
        // of the (usually few) rows that find a partner.
        let probe_reads: Option<&[usize]> = Some(std::slice::from_ref(&probe_col));
        // An empty hash table can match nothing; skip the probe sweep.
        let probe_results: Vec<ProbeRun> = if ht.is_empty() {
            Vec::new()
        } else {
            let run_probe_leg = |leg: &ShardLeg| -> ProbeRun {
                let mut out: Vec<Row> = Vec::new();
                let mut pairs = 0u64;
                let mut emit = |probe_row: &[Value]| {
                    for &idx in ht.probe(&probe_row[probe_col]) {
                        pairs += 1;
                        if collect {
                            let build_row = ht.row(idx);
                            let mut row = match build_side {
                                JoinSide::Left => build_row.clone(),
                                JoinSide::Right => probe_row.to_vec(),
                            };
                            match build_side {
                                JoinSide::Left => row.extend_from_slice(probe_row),
                                JoinSide::Right => row.extend_from_slice(build_row),
                            }
                            out.push(row);
                        }
                    }
                };
                let r = match strategy {
                    JoinStrategy::Hash => {
                        self.run_leg_visit(probe_lt, leg, false, snap_ref, probe_reads, &mut emit)?
                    }
                    JoinStrategy::CmClamp(id) => self.run_clamp_leg(
                        probe_lt,
                        leg,
                        Clamp { cm_id: id, col: probe_col, keys: &keys },
                        snap_ref,
                        probe_reads,
                        emit,
                    ),
                };
                Ok((r, out, pairs))
            };
            if probe_plan.legs.len() <= 1 || self.executor.workers() == 1 {
                probe_plan.legs.iter().map(&run_probe_leg).collect()
            } else {
                let rp = &run_probe_leg;
                self.executor
                    .run(probe_plan.legs.iter().map(|leg| move || rp(leg)).collect())
            }
        };

        let mut probe_run = RunResult { matched: 0, examined: 0, io: IoStats::default() };
        let mut probe_legs: Vec<LegOutcome> = Vec::with_capacity(probe_results.len());
        let mut probe_ms: Vec<f64> = Vec::with_capacity(probe_results.len());
        let mut matched = 0u64;
        let mut rows: Vec<Row> = Vec::new();
        let mut paired: Vec<(ShardLeg, ProbeRun)> = probe_plan
            .legs
            .into_iter()
            .take(probe_results.len())
            .zip(probe_results)
            .collect();
        paired.sort_by_key(|(leg, _)| leg.merge_key());
        for (leg, res) in paired {
            let (r, leg_rows, pairs) = res?;
            matched += pairs;
            if collect {
                rows.extend(leg_rows);
            }
            probe_run.matched += r.matched;
            probe_run.examined += r.examined;
            probe_run.io.add(&r.io);
            probe_ms.push(r.io.elapsed_ms);
            if forced.is_none() {
                match strategy {
                    JoinStrategy::Hash => self.note_route(leg.choice.path),
                    JoinStrategy::CmClamp(id) => {
                        self.note_route(cm_query::AccessPath::CmScan(id))
                    }
                }
            }
            probe_legs.push(LegOutcome { shard: leg.shard, choice: leg.choice, run: r });
        }
        let workers = self.executor.workers();
        let parallel_ms =
            scheduled_makespan(&build_ms, workers) + scheduled_makespan(&probe_ms, workers);
        self.queries.fetch_add(1, Ordering::Relaxed);

        Ok(JoinOutcome {
            strategy,
            build_side,
            est_hash_ms,
            est_cm_ms,
            build_rows: ht.len() as u64,
            distinct_keys: ht.num_keys() as u64,
            matched,
            build_run,
            probe_run,
            parallel_ms,
            build_legs,
            probe_legs,
            rows: collect.then_some(rows),
        })
    }

    /// Price one probe leg's correlation clamp from an exact CM lookup:
    /// constrain the CM's join attribute to `IN keys` (other attributes
    /// from the leg's shard-restricted filter), merge the returned
    /// buckets' page ranges exactly as the executor will, and charge per
    /// merged run — a correlated key collapses to a few long runs, an
    /// uncorrelated one stays gap-broken and prices above the scan.
    fn clamp_estimate(
        &self,
        lt: &crate::engine::LoadedTable,
        leg: &ShardLeg,
        clamp: Clamp<'_>,
    ) -> f64 {
        let part = lt.parts[leg.shard].read();
        let cm = part.cm(clamp.cm_id);
        let constraints: Vec<AttrConstraint> = cm
            .spec()
            .attrs()
            .iter()
            .zip(cm_constraints(cm.spec(), &leg.query))
            .map(|(attr, from_q)| {
                if attr.col == clamp.col {
                    AttrConstraint::In(clamp.keys.to_vec())
                } else {
                    from_q
                }
            })
            .collect();
        let buckets = cm.lookup(&constraints);
        let merged = cm_query::merge_page_ranges(
            buckets.iter().map(|&b| part.dir().page_range(b)).collect(),
        );
        let total_pages: u64 = merged.iter().map(|(lo, hi)| hi - lo + 1).sum();
        let height = part.clustered().height();
        let params = CostParams::new(
            &self.backends[leg.shard].disk().config(),
            part.heap().tups_per_page(),
            part.heap().len(),
            height,
        );
        params.cost_cm_join_probe(merged.len() as f64, total_pages as f64, height as f64)
    }

    /// Execute one probe leg through the correlation clamp (charging the
    /// shard's buffer pool, honoring the leg's shard-restricted filter
    /// and the join snapshot).
    fn run_clamp_leg(
        &self,
        lt: &crate::engine::LoadedTable,
        leg: &ShardLeg,
        clamp: Clamp<'_>,
        snap: Option<&Snapshot>,
        reads: Option<&[usize]>,
        visit: impl FnMut(&[Value]),
    ) -> RunResult {
        let waited = std::time::Instant::now();
        let part = lt.parts[leg.shard].read();
        self.note_read_stall(waited.elapsed());
        let backend = &self.backends[leg.shard];
        let mut ctx = ExecContext::through(backend.disk(), backend.pool());
        if let Some(s) = snap {
            ctx = ctx.at_snapshot(s);
        }
        ctx.reads = reads;
        part.exec_cm_clamp_visit(&ctx, clamp.cm_id, &leg.query, clamp.col, clamp.keys, visit)
    }
}
