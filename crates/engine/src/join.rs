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

use crate::catalog::LoadedTable;
use crate::engine::Engine;
use crate::read::{LegOpts, LegOutcome, LegPath};
use crate::error::{check_cols, check_query, EngineError};
use crate::Result;
use cm_advisor::WorkloadProfile;
use cm_cost::CostParams;
use cm_query::exec::clamp_constraints;
use cm_query::{
    JoinHashTable, JoinQuery, JoinSide, JoinStrategy, RunResult, ShardLeg, ALL_PAGES,
};
use cm_storage::{PageRef, Row, Value};
use std::sync::atomic::Ordering;

/// How many build keys feed the probe column's distinct-queried sketch
/// in the workload profile (a bounded sample keeps profiling O(1)-ish
/// per join however large the build side is).
const PROFILE_KEY_SAMPLE: usize = 256;

/// The correlation clamp's inputs: which CM to look up, the join column
/// it constrains, and the distinct build keys forming the `IN` list.
#[derive(Clone, Copy)]
pub(crate) struct Clamp<'a> {
    pub(crate) cm_id: usize,
    pub(crate) col: usize,
    pub(crate) keys: &'a [Value],
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
        let (left_arity, right_arity) = (left_entry.schema.arity(), right_entry.schema.arity());
        check_cols(left, left_arity, [jq.left_col])?;
        check_cols(right, right_arity, [jq.right_col])?;
        check_query(left, left_arity, &jq.left_filter)?;
        check_query(right, right_arity, &jq.right_filter)?;

        let self_join = std::sync::Arc::ptr_eq(&left_entry, &right_entry);
        let left_lt = left_entry.loaded()?;
        let right_lt = right_entry.loaded()?;

        self.profile_read(&left_entry, left_lt, &jq.left_filter);
        if !self_join {
            self.profile_read(&right_entry, right_lt, &jq.right_filter);
        }

        // One snapshot covers build and probe: however the legs
        // schedule, both sides see the same committed state.
        let snap = self.mvcc.as_ref().map(|mv| mv.begin());
        let snap_ref = snap.as_ref();

        // Build the smaller side (ties go left).
        let rows_of = |lt: &LoadedTable| -> u64 {
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
        let build_how =
            LegOpts { path: LegPath::Planned, cold: false, snap: snap_ref, pages: ALL_PAGES };
        let built = self.fan_out(self.route(build_lt, build_filter), forced.is_none(), |leg| {
            self.collect_leg(build_lt, leg, &build_how, true)
        })?;
        let mut ht = JoinHashTable::new();
        for row in built.outs.into_iter().flatten() {
            ht.insert_keyed(build_col, row);
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
        let probe_plan = self.plan_query(probe_lt, probe_filter);
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
        let probe_how = LegOpts {
            path: match strategy {
                JoinStrategy::Hash => LegPath::Planned,
                JoinStrategy::CmClamp(id) => {
                    LegPath::Clamp(Clamp { cm_id: id, col: probe_col, keys: &keys })
                }
            },
            cold: false,
            snap: snap_ref,
            pages: ALL_PAGES,
        };
        // An empty hash table can match nothing; skip the probe sweep.
        let probe_legs = if ht.is_empty() { Vec::new() } else { probe_plan.legs };
        let width = left_arity + right_arity;
        let probed = self.fan_out(probe_legs, forced.is_none(), |leg| {
            let mut out: Vec<Row> = Vec::new();
            let mut pairs = 0u64;
            let t = self.read_locked(&probe_lt.parts[leg.shard]);
            // The build keys in this shard's representation of the probe
            // column: the probe reads that column of every row, and the
            // rest only of rows that find a partner.
            let keys = ht.key_probe(t.heap(), probe_col);
            let mut hits: Vec<(u32, u64)> = Vec::new();
            // One (probe slot, build row) pair per output row of a page.
            let (mut slots, mut partners) = (Vec::<u32>::new(), Vec::<u32>::new());
            let emit = |page: PageRef<'_>, sel: &[u32]| {
                keys.hits(page, sel, &mut hits);
                slots.clear();
                partners.clear();
                for &(slot, word) in &hits {
                    let idx = keys.partners(word);
                    pairs += idx.len() as u64;
                    if collect {
                        slots.extend(std::iter::repeat_n(slot, idx.len()));
                        partners.extend_from_slice(idx);
                    }
                }
                if slots.is_empty() {
                    return;
                }
                // Each output row is allocated once at its full width;
                // the build columns come first when the build side is
                // the left input.
                let from = out.len();
                out.extend(partners.iter().map(|&idx| {
                    let mut row = Vec::with_capacity(width);
                    if build_side == JoinSide::Left {
                        row.extend_from_slice(ht.row(idx));
                    }
                    row
                }));
                page.append_cols(&slots, &mut out[from..]);
                if build_side == JoinSide::Right {
                    for (row, &idx) in out[from..].iter_mut().zip(&partners) {
                        row.extend_from_slice(ht.row(idx));
                    }
                }
            };
            let (path, run) = self.run_leg(&t, leg, &probe_how, emit)?;
            Ok((path, run, (out, pairs)))
        })?;
        let mut matched = 0u64;
        let mut rows: Vec<Row> = Vec::new();
        for (out, pairs) in probed.outs {
            matched += pairs;
            rows.extend(out);
        }
        self.counters.queries.fetch_add(1, Ordering::Relaxed);

        Ok(JoinOutcome {
            strategy,
            build_side,
            est_hash_ms,
            est_cm_ms,
            build_rows: ht.len() as u64,
            distinct_keys: ht.num_keys() as u64,
            matched,
            build_run: built.run,
            probe_run: probed.run,
            // The two fan-outs run back to back.
            parallel_ms: built.parallel_ms + probed.parallel_ms,
            build_legs: built.legs,
            probe_legs: probed.legs,
            rows: collect.then_some(rows),
        })
    }

    /// Price one probe leg's correlation clamp from an exact CM lookup:
    /// constrain the CM's join attribute to `IN keys` (other attributes
    /// from the leg's shard-restricted filter), merge the returned
    /// buckets' page ranges exactly as the executor will, and charge per
    /// merged run — a correlated key collapses to a few long runs, an
    /// uncorrelated one stays gap-broken and prices above the scan.
    /// A CM an online design swap has since dropped prices at infinity,
    /// so the planner never picks a clamp it could not run.
    fn clamp_estimate(&self, lt: &LoadedTable, leg: &ShardLeg, clamp: Clamp<'_>) -> f64 {
        let part = self.read_locked(&lt.parts[leg.shard]);
        let Some(cm) = part.cms().get(clamp.cm_id) else { return f64::INFINITY };
        let buckets = cm.lookup(&clamp_constraints(cm.spec(), &leg.query, clamp.col, clamp.keys));
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
}
