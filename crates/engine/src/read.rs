//! The leg pipeline and the single-table read path.
//!
//! Every operation that touches rows by predicate — a read, an
//! aggregate, either phase of a join, a `delete_where` — runs the same
//! **leg pipeline**: *route* (one [`cm_query::ShardLeg`] per overlapping
//! shard, carrying the shard-restricted predicate), *lock* (each leg
//! takes its shard lock once), *plan* (under that hold the leg's access
//! path is chosen against the shard's own statistics, or a forced one
//! validated), *execute* (one page-batch dispatch,
//! [`Table::exec_batches`]), and *merge* (leg results in
//! [`ShardLeg::merge_key`] order, never completion order). Legs fan out
//! on the engine's shared [`Executor`](crate::Executor) worker pool,
//! each against its own shard backend. [`Engine::explain`] runs route
//! and plan alone.

use crate::catalog::{LoadedTable, TableEntry};
use crate::engine::Engine;
use crate::error::check_query;
use crate::executor::scheduled_makespan;
use crate::join::Clamp;
use crate::Result;
use cm_advisor::WorkloadProfile;
use cm_query::{
    restrict_to_shard, AccessPath, ExecContext, PlanChoice, Planner, PredOp, Query, QueryPlan,
    RunResult, ShardLeg, Table, ALL_PAGES,
};
use cm_storage::{PageRef, Row, Snapshot};
use parking_lot::RwLock;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::RwLockReadGuard;

/// One executed leg of a query: the shard it ran on, the path chosen
/// for that shard, and what it measured there.
#[derive(Debug, Clone)]
pub struct LegOutcome {
    /// The shard the leg executed on.
    pub shard: usize,
    /// The planner's decision for this shard (per-shard statistics can
    /// send different shards down different paths). For forced-path runs
    /// the chosen path is the forced one.
    pub choice: PlanChoice,
    /// Measured (simulated) execution of this leg alone, charged to its
    /// shard's disk.
    pub run: RunResult,
}

/// Outcome of one query execution through the engine.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The first leg's planner decision — the single-shard summary (for
    /// a point query this is *the* plan). Multi-shard consumers should
    /// read [`QueryOutcome::legs`] for every shard's choice.
    pub plan: PlanChoice,
    /// Measured (simulated) execution, summed across the shards the
    /// query fanned out to — the *serial* time, as if the legs shared
    /// one thread and one spindle.
    pub run: RunResult,
    /// Per-leg choices and timings, ascending by shard.
    pub legs: Vec<LegOutcome>,
    /// Simulated wall-clock of the fan-out: the legs' times list-scheduled
    /// onto the engine's worker count (equals `run.ms()` on a 1-worker
    /// engine, the longest leg when workers cover every shard).
    pub parallel_ms: f64,
    /// The shard ids the query executed on, ascending.
    pub shards: Vec<usize>,
    /// Matching rows, if collection was requested (merged in shard
    /// order, so results are deterministic however the legs ran).
    pub rows: Option<Vec<Row>>,
}

/// What a leg executes once it holds its shard.
#[derive(Clone, Copy)]
pub(crate) enum LegPath<'a> {
    /// The planner's choice for the leg's shard-restricted predicate.
    Planned,
    /// A caller-forced access path.
    Forced(AccessPath),
    /// A join probe clamped through a CM to the build keys (the leg
    /// still records the planner's choice, the path it was priced
    /// against).
    Clamp(Clamp<'a>),
}

/// How a leg reads its shard, beyond its predicate.
#[derive(Clone)]
pub(crate) struct LegOpts<'a> {
    /// The path to execute.
    pub(crate) path: LegPath<'a>,
    /// Charge straight to the disk instead of through the shard's pool.
    pub(crate) cold: bool,
    /// The MVCC snapshot the leg reads at.
    pub(crate) snap: Option<&'a Snapshot>,
    /// The heap pages the leg reads ([`ALL_PAGES`] but for a windowed
    /// victim search).
    pub(crate) pages: Range<u64>,
}

/// One leg's result before the merge: the path to tally as its routing
/// decision, its run, and what its visitor gathered.
pub(crate) type LegDone<T> = (AccessPath, RunResult, T);

/// A fan-out's legs, merged in [`ShardLeg::merge_key`] order.
pub(crate) struct Merged<T> {
    /// The legs' runs summed: the serial time.
    pub(crate) run: RunResult,
    /// Per-leg choices and runs.
    pub(crate) legs: Vec<LegOutcome>,
    /// What each leg gathered, in leg order.
    pub(crate) outs: Vec<T>,
    /// The legs' times list-scheduled onto the engine's workers.
    pub(crate) parallel_ms: f64,
}

impl Engine {
    /// Execute a query, routing it to the shards it overlaps and, on
    /// each shard, to the access path the cost model estimates cheapest
    /// for the shard-restricted predicate. Reads go through the shards'
    /// buffer pools.
    pub fn execute(&self, table: &str, q: &Query) -> Result<QueryOutcome> {
        self.execute_inner(table, q, None, false, false)
    }

    /// [`Engine::execute`], also collecting the matching rows.
    pub fn execute_collect(&self, table: &str, q: &Query) -> Result<QueryOutcome> {
        self.execute_inner(table, q, None, true, false)
    }

    /// Execute through a specific access path (experiments and oracles).
    /// A path naming a secondary index or CM the table does not have, or
    /// a secondary path with no predicate on the index's first key
    /// column, is an [`EngineError::Query`](crate::EngineError::Query).
    pub fn execute_via(
        &self,
        table: &str,
        path: AccessPath,
        q: &Query,
    ) -> Result<QueryOutcome> {
        self.execute_inner(table, q, Some(path), false, false)
    }

    /// [`Engine::execute_via`], also collecting the matching rows.
    pub fn execute_via_collect(
        &self,
        table: &str,
        path: AccessPath,
        q: &Query,
    ) -> Result<QueryOutcome> {
        self.execute_inner(table, q, Some(path), true, false)
    }

    /// The planner's decisions for a query, without executing it: one
    /// leg per shard the query would touch, each carrying that shard's
    /// restricted predicate and chosen access path. Use
    /// [`cm_query::QueryPlan::primary`] for the first leg's choice.
    pub fn explain(&self, table: &str, q: &Query) -> Result<QueryPlan> {
        Ok(self.plan_query(self.entry(table)?.loaded()?, q))
    }

    /// The shard ids a query fans out to (routing diagnostics).
    pub fn route_shards(&self, table: &str, q: &Query) -> Result<Vec<usize>> {
        Ok(self.entry(table)?.loaded()?.router.shards_for(q))
    }

    /// The leg pipeline's **route** step: one leg per shard the query
    /// overlaps, carrying the query intersected with that shard's
    /// ownership range (so CM lookups, planner estimates, and index
    /// probes on the shard see only its slice). Shards no key of the
    /// predicate can live on get no leg. Choices are left empty: each is
    /// made under the lock its leg executes with ([`Engine::run_leg`]).
    pub(crate) fn route(&self, lt: &LoadedTable, q: &Query) -> Vec<ShardLeg> {
        lt.router
            .shards_for(q)
            .into_iter()
            .filter_map(|shard| {
                restrict_to_shard(q, lt.router.col(), &lt.router.range_of(shard))
                    .map(|query| ShardLeg { shard, query, choice: PlanChoice::empty() })
            })
            .collect()
    }

    /// Route `q` and cost every leg against its shard's statistics
    /// without executing anything: what [`Engine::explain`] reports and
    /// what a join prices its probe strategies with.
    pub(crate) fn plan_query(&self, lt: &LoadedTable, q: &Query) -> QueryPlan {
        let mut legs = self.route(lt, q);
        for leg in &mut legs {
            leg.choice = self.planner.choose(&self.read_locked(&lt.parts[leg.shard]), &leg.query);
        }
        QueryPlan::new(legs)
    }

    /// Read-lock `lock`, counting the wait in the read-stall counters.
    pub(crate) fn read_locked<'a, T>(&self, lock: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
        let waited = std::time::Instant::now();
        let guard = lock.read();
        self.note_read_stall(waited.elapsed());
        guard
    }

    /// The leg pipeline's **plan** and **execute** steps, on a shard the
    /// caller holds — read-locked, or write-locked by a delete without
    /// MVCC. The path is chosen (a forced one validated) under the same
    /// hold that executes it, so a design change can never hand the leg
    /// a stale structure id, and a forced path naming a structure the
    /// shard lacks is an [`EngineError::Query`](crate::EngineError::Query).
    /// A clamp whose CM this shard no longer carries (a design change
    /// landed between the join's pricing and this leg) runs the planned
    /// path instead. The choice lands in `leg.choice`; a forced path
    /// keeps the planner's estimate for it, or NaN when the planner
    /// could not cost it (no statistics, or no predicate on the index's
    /// leading column). The matches go to `visit` a page at a time, as
    /// the page and its selected slots ([`Table::exec_batches`]).
    /// Returns the path to tally and the run.
    pub(crate) fn run_leg(
        &self,
        t: &Table,
        leg: &mut ShardLeg,
        how: &LegOpts<'_>,
        visit: impl FnMut(PageRef<'_>, &[u32]),
    ) -> Result<(AccessPath, RunResult)> {
        let backend = &self.backends[leg.shard];
        let mut ctx = if how.cold {
            ExecContext::cold(backend.disk())
        } else {
            ExecContext::through(backend.disk(), backend.pool())
        };
        ctx.snap = how.snap;
        ctx.pages = how.pages.clone();
        leg.choice = self.planner.choose(t, &leg.query);
        let path = match how.path {
            LegPath::Planned => leg.choice.path,
            LegPath::Forced(p) => {
                leg.choice.est_ms = leg
                    .choice
                    .alternatives
                    .iter()
                    .find(|(alt, _)| *alt == p)
                    .map_or(f64::NAN, |(_, est)| *est);
                leg.choice.path = p;
                p
            }
            LegPath::Clamp(c) if c.cm_id < t.cms().len() => {
                let run =
                    t.exec_cm_clamp_batches(&ctx, c.cm_id, &leg.query, c.col, c.keys, visit)?;
                return Ok((AccessPath::CmScan(c.cm_id), run));
            }
            LegPath::Clamp(_) => leg.choice.path,
        };
        Ok((path, t.exec_batches(&ctx, path, &leg.query, visit)?))
    }

    /// A read leg under its shard's read lock, gathering a copy of every
    /// match when `collect`.
    pub(crate) fn collect_leg(
        &self,
        lt: &LoadedTable,
        leg: &mut ShardLeg,
        how: &LegOpts<'_>,
        collect: bool,
    ) -> Result<LegDone<Vec<Row>>> {
        let mut rows: Vec<Row> = Vec::new();
        let (path, run) =
            self.run_leg(&self.read_locked(&lt.parts[leg.shard]), leg, how, |page, sel| {
                if collect {
                    page.rows_into(sel, &mut rows);
                }
            })?;
        Ok((path, run, rows))
    }

    /// The leg pipeline's fan-out and **merge** steps: run `leg` for each
    /// routed leg on the executor (which runs inline for one leg or one
    /// worker), then merge in explicit [`ShardLeg::merge_key`] order —
    /// never completion order — so results are identical on 1 or N
    /// workers. Sums the runs, tallies each leg's path as a routing
    /// decision when `tally` (forced runs are not decisions; per-shard
    /// statistics can pick different paths per shard, so every leg is
    /// one), and list-schedules the leg times. The first failed leg in
    /// merge order is the error.
    pub(crate) fn fan_out<T: Send>(
        &self,
        legs: Vec<ShardLeg>,
        tally: bool,
        leg: impl Fn(&mut ShardLeg) -> Result<LegDone<T>> + Sync,
    ) -> Result<Merged<T>> {
        let leg = &leg;
        let mut done = self.executor.run(
            legs.into_iter()
                .map(|mut l| {
                    move || {
                        let r = leg(&mut l);
                        (l, r)
                    }
                })
                .collect(),
        );
        done.sort_by_key(|(l, _)| l.merge_key());
        let mut m = Merged {
            run: RunResult::default(),
            legs: Vec::with_capacity(done.len()),
            outs: Vec::with_capacity(done.len()),
            parallel_ms: 0.0,
        };
        for (l, r) in done {
            let (path, run, out) = r?;
            m.run.add(&run);
            if tally {
                self.note_route(path);
            }
            m.legs.push(LegOutcome { shard: l.shard, choice: l.choice, run });
            m.outs.push(out);
        }
        let leg_ms: Vec<f64> = m.legs.iter().map(|l| l.run.ms()).collect();
        m.parallel_ms = scheduled_makespan(&leg_ms, self.executor.workers());
        Ok(m)
    }

    /// Record one read query in the table's workload profile: per
    /// predicated column, the estimated lookup-key count and the hashes
    /// of the predicated values (the column's hot set). Only range
    /// predicates need statistics (estimated from shard 0's partition,
    /// whose read lock is taken lazily and only then, so point-query
    /// profiling never couples shards); columns without statistics fall
    /// back to one lookup key.
    pub(crate) fn profile_read(&self, entry: &TableEntry, lt: &LoadedTable, q: &Query) {
        let cols = q.predicated_cols();
        let mut noted: Vec<(usize, f64, Vec<u64>)> = Vec::with_capacity(cols.len());
        let mut t0 = None;
        for col in cols {
            let Some(pred) = q.pred_on(col) else { continue };
            let (keys, hashes) = match &pred.op {
                PredOp::Eq(v) => (1.0, vec![WorkloadProfile::hash_value(v)]),
                PredOp::In(vs) => (
                    vs.len() as f64,
                    vs.iter().map(WorkloadProfile::hash_value).collect(),
                ),
                PredOp::Between(lo, hi) => {
                    let t0 = t0.get_or_insert_with(|| lt.parts[0].read());
                    let keys = Planner::range_keys(t0, col, lo, hi).unwrap_or(1.0);
                    (keys, vec![WorkloadProfile::hash_value(&(lo, hi))])
                }
            };
            noted.push((col, keys, hashes));
        }
        drop(t0);
        let mut profile = entry.profile.lock();
        profile.note_read();
        for (col, keys, hashes) in noted {
            profile.note_pred(col, keys, &hashes);
        }
    }

    pub(crate) fn execute_inner(
        &self,
        table: &str,
        q: &Query,
        forced: Option<AccessPath>,
        collect: bool,
        cold: bool,
    ) -> Result<QueryOutcome> {
        let entry = self.entry(table)?;
        check_query(table, entry.schema.arity(), q)?;
        let lt = entry.loaded()?;
        self.profile_read(&entry, lt, q);

        // MVCC engines read at a snapshot: acquired once, before any leg
        // runs, so every fan-out leg filters row visibility at the same
        // clock tick however the legs are scheduled. The registration
        // pins the timestamp against vacuum until the query (all legs)
        // is done.
        let snap = self.mvcc.as_ref().map(|mv| mv.begin());
        let how = LegOpts {
            path: forced.map_or(LegPath::Planned, LegPath::Forced),
            cold,
            snap: snap.as_ref(),
            pages: ALL_PAGES,
        };
        let Merged { run, legs, outs, parallel_ms } = self.fan_out(
            self.route(lt, q),
            forced.is_none(),
            |leg| self.collect_leg(lt, leg, &how, collect),
        )?;

        let plan = legs.first().map(|l| l.choice.clone()).unwrap_or_else(|| {
            // Every shard was pruned (e.g. an inverted range): report the
            // forced path or a zero-cost scan, with no alternatives.
            let mut p = PlanChoice::empty();
            if let Some(f) = forced {
                p.path = f;
                p.est_ms = f64::NAN;
            }
            p
        });
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let shards = legs.iter().map(|l| l.shard).collect();
        let rows = collect.then(|| {
            outs.into_iter()
                .reduce(|mut all, leg_rows| {
                    all.extend(leg_rows);
                    all
                })
                .unwrap_or_default()
        });
        Ok(QueryOutcome { plan, run, legs, parallel_ms, shards, rows })
    }
}
