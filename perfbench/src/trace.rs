//! The traced pass: spans recorded by the benchmark around its calls into
//! each layer, and the decomposed read path those calls make up.
//!
//! A traced read does, step by step through public API, what
//! `Engine::execute_collect` does inside: pin a snapshot, plan
//! (`Engine::explain`), run each leg's access path against its shard
//! (`Table::exec_*_visit` through the shard's own buffer pool, wrapped in
//! a [`TimedAccessor`]), merge. The page accesses are the engine's own,
//! in the engine's order, so pool and disk state evolve exactly as in the
//! untraced pass. Costs that cannot be timed in place without changing
//! them (the planner's choice, the CM lookup or index probe, copying
//! matched rows out) are measured by repeating that step alone afterwards
//! and recorded as child spans flagged `replayed`.

use crate::ops::Class;
use crate::sut::{err, AggOut, JoinOut, LegInfo, ReadOut, Sut, SutResult};
use cm_index::IndexKey;
use cm_query::{
    AccessPath, AggSpec, AggState, ExecContext, JoinHashTable, Planner, PredOp, Query, QueryPlan,
    RunResult, ShardLeg, Table,
};
use cm_storage::{DiskConfig, FileId, PageAccessor, Row, Snapshot, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Operation id: spans of one operation share it.
    pub op: u32,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Measured by repeating the step alone, then placed at its parent's
    /// start; not on the operation's own timeline.
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log; written out (if asked) when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Class of each operation id.
    pub op_class: Vec<Class>,
    /// Work counted at the layer boundaries the spans are recorded at.
    pub counts: LayerCounts,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            op_class: Vec::new(),
            counts: LayerCounts::default(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start an operation; returns its root span.
    pub fn begin_op(&mut self, class: Class) -> u32 {
        self.op_class.push(class);
        self.open(class.name(), NO_PARENT)
    }

    fn cur_op(&self) -> u32 {
        self.op_class.len() as u32 - 1
    }

    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.push(name, parent, now, now, false)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        start: u64,
        end: u64,
        replayed: bool,
    ) -> u32 {
        let op = self.cur_op();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
            replayed,
        });
        self.spans.len() as u32 - 1
    }

    /// A span timed elsewhere (a leg on a worker thread).
    pub fn record(&mut self, name: &'static str, parent: u32, start: u64, end: u64) -> u32 {
        self.push(name, parent, start, end, false)
    }

    /// A replayed cost of `dur_ns`, placed at its parent's start.
    pub fn replayed(&mut self, name: &'static str, parent: u32, dur_ns: u64) -> u32 {
        let start = self.spans[parent as usize].start_ns;
        self.push(name, parent, start, start + dur_ns, true)
    }

    /// Time `f` as a child of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Per span: its duration minus what its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }
}

/// Forwards every call to the wrapped accessor and keeps the time spent
/// inside it. Adds nothing to, and hides nothing from, what the wrapped
/// accessor counts.
pub struct TimedAccessor<'a> {
    inner: &'a dyn PageAccessor,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl<'a> TimedAccessor<'a> {
    pub fn new(inner: &'a dyn PageAccessor) -> Self {
        TimedAccessor {
            inner,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn timed(&self, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        // Statistics only: nothing is published through these.
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl PageAccessor for TimedAccessor<'_> {
    fn read(&self, file: FileId, page: u64) {
        self.timed(|| self.inner.read(file, page));
    }
    fn write(&self, file: FileId, page: u64) {
        self.timed(|| self.inner.write(file, page));
    }
    fn read_run(&self, file: FileId, lo: u64, hi: u64) {
        self.timed(|| self.inner.read_run(file, lo, hi));
    }
    fn write_run(&self, file: FileId, lo: u64, hi: u64) {
        self.timed(|| self.inner.write_run(file, lo, hi));
    }
}

/// Charges nothing: replayed index probes must not touch the pool.
pub struct NullIo;

impl PageAccessor for NullIo {
    fn read(&self, _: FileId, _: u64) {}
    fn write(&self, _: FileId, _: u64) {}
}

/// One executed leg, timed on whichever thread ran it.
struct LegRun<T> {
    start_ns: u64,
    end_ns: u64,
    pool_ns: u64,
    pool_calls: u64,
    run: RunResult,
    out: T,
}

/// Counts the traced operations of a round add up, layer by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub pool_calls: u64,
    pub cm_lookups: u64,
    pub cm_buckets: u64,
}

/// The engine's leg dispatch (`run_leg_visit`), through public API.
fn exec_leg(
    t: &Table,
    ctx: &ExecContext<'_>,
    leg: &ShardLeg,
    visit: impl FnMut(&[Value]),
) -> SutResult<RunResult> {
    let q = &leg.query;
    Ok(match leg.choice.path {
        AccessPath::FullScan => t.exec_full_scan_visit(ctx, q, visit),
        AccessPath::SecondarySorted(id) => t
            .exec_secondary_sorted_visit(ctx, id, q, visit)
            .map_err(err)?,
        AccessPath::SecondaryPipelined(id) => t
            .exec_secondary_pipelined_visit(ctx, id, q, visit)
            .map_err(err)?,
        AccessPath::CmScan(id) => t.exec_cm_scan_visit(ctx, id, q, visit),
    })
}

/// What the decomposed path needs beside the system under test.
pub struct Decomposed<'a> {
    pub sut: &'a Sut,
    planner: Planner,
}

impl<'a> Decomposed<'a> {
    pub fn new(sut: &'a Sut) -> Self {
        // The engine prices with the default (paper Table 1) constants.
        Decomposed {
            sut,
            planner: Planner::new(DiskConfig::default()),
        }
    }

    fn snapshot(&self, tr: &mut Tracer, root: u32) -> Option<Snapshot> {
        tr.span("storage.mvcc_begin", root, || self.sut.snapshot())
    }

    fn plan(
        &self,
        tr: &mut Tracer,
        root: u32,
        table: &str,
        q: &Query,
    ) -> SutResult<(u32, QueryPlan)> {
        let id = tr.open("engine.plan", root);
        let plan = self.sut.explain(table, q);
        tr.close(id);
        Ok((id, plan?))
    }

    /// Run every leg of `plan` under its shard's read lock, through the
    /// shard's pool, on as many threads as the engine would use. Returns
    /// the fan-out span and, per leg, its `query.exec` span and output.
    fn fan_out<T: Send>(
        &self,
        tr: &mut Tracer,
        root: u32,
        table: &str,
        plan: &QueryPlan,
        snap: Option<&Snapshot>,
        per_leg: impl Fn(&Table, &ExecContext<'_>, &ShardLeg) -> SutResult<(RunResult, T)> + Sync,
    ) -> SutResult<Vec<(u32, RunResult, T)>> {
        let origin = tr.origin;
        let fan = tr.open("engine.fanout", root);
        let tasks: Vec<_> = plan
            .legs
            .iter()
            .map(|leg| {
                let per_leg = &per_leg;
                move || -> SutResult<LegRun<T>> {
                    self.sut.with_shard(table, leg.shard, |t| {
                        let (disk, pool) = self.sut.shard_io(leg.shard);
                        let timed = TimedAccessor::new(pool);
                        let mut ctx = ExecContext::through(disk, &timed);
                        if let Some(s) = snap {
                            ctx = ctx.at_snapshot(s);
                        }
                        let start_ns = origin.elapsed().as_nanos() as u64;
                        let (run, out) = per_leg(t, &ctx, leg)?;
                        let end_ns = origin.elapsed().as_nanos() as u64;
                        Ok(LegRun {
                            start_ns,
                            end_ns,
                            pool_ns: timed.ns(),
                            pool_calls: timed.calls(),
                            run,
                            out,
                        })
                    })?
                }
            })
            .collect();
        let runs = self.sut.fan_out(tasks);
        tr.close(fan);
        let mut legs = Vec::with_capacity(runs.len());
        for run in runs {
            let r = run?;
            let exec = tr.record("query.exec", fan, r.start_ns, r.end_ns);
            // The accessor's time is spread over the leg; as a span it is
            // one block at the leg's start, the device's share inside it.
            let pool = tr.record("storage.pool", exec, r.start_ns, r.start_ns + r.pool_ns);
            let disk_ns = r.run.io.read_wall_ns + r.run.io.write_wall_ns;
            tr.record(
                "storage.disk",
                pool,
                r.start_ns,
                r.start_ns + disk_ns.min(r.pool_ns),
            );
            tr.counts.pool_calls += r.pool_calls;
            legs.push((exec, r.run, r.out));
        }
        Ok(legs)
    }

    /// Repeat, alone and without touching the pool, the steps the leg's
    /// execution contains but cannot be timed inside of.
    fn replay_leg_steps(
        &self,
        tr: &mut Tracer,
        plan_span: u32,
        exec_span: u32,
        table: &str,
        leg: &ShardLeg,
    ) -> SutResult<()> {
        let (planner_ns, lookup) = self.sut.with_shard(table, leg.shard, |t| {
            let start = Instant::now();
            std::hint::black_box(self.planner.choose(t, &leg.query));
            let planner_ns = start.elapsed().as_nanos() as u64;
            let lookup = match leg.choice.path {
                AccessPath::CmScan(id) => {
                    let cm = t.cm(id);
                    let start = Instant::now();
                    let buckets = cm.lookup(&cm_query::exec::cm_constraints(cm.spec(), &leg.query));
                    let ns = start.elapsed().as_nanos() as u64;
                    Some(("core.cm_lookup", ns, buckets.len() as u64))
                }
                AccessPath::SecondarySorted(id) | AccessPath::SecondaryPipelined(id) => {
                    let sec = t.secondary(id);
                    let start = Instant::now();
                    match leg.query.pred_on(sec.cols()[0]).map(|p| &p.op) {
                        Some(PredOp::Eq(v)) => {
                            std::hint::black_box(sec.probe(&NullIo, &IndexKey::single(v.clone())));
                        }
                        Some(PredOp::In(vs)) => {
                            for v in vs {
                                std::hint::black_box(sec.probe_first_col_range(&NullIo, v, v));
                            }
                        }
                        Some(PredOp::Between(lo, hi)) => {
                            std::hint::black_box(sec.probe_first_col_range(&NullIo, lo, hi));
                        }
                        None => {}
                    }
                    Some(("index.probe", start.elapsed().as_nanos() as u64, 0))
                }
                AccessPath::FullScan => None,
            };
            (planner_ns, lookup)
        })?;
        tr.replayed("query.planner", plan_span, planner_ns);
        if let Some((name, ns, buckets)) = lookup {
            tr.replayed(name, exec_span, ns);
            if name == "core.cm_lookup" {
                tr.counts.cm_lookups += 1;
                tr.counts.cm_buckets += buckets;
            }
        }
        Ok(())
    }

    /// `Engine::execute_collect`, decomposed.
    pub fn read(&self, tr: &mut Tracer, root: u32, table: &str, q: &Query) -> SutResult<ReadOut> {
        let snap = self.snapshot(tr, root);
        let (plan_span, plan) = self.plan(tr, root, table, q)?;
        let legs = self.fan_out(tr, root, table, &plan, snap.as_ref(), |t, ctx, leg| {
            let mut rows: Vec<Row> = Vec::new();
            let run = exec_leg(t, ctx, leg, |row| rows.push(row.to_vec()))?;
            Ok((run, rows))
        })?;
        let mut out = ReadOut::default();
        let mut parts: Vec<(u32, Vec<Row>)> = Vec::with_capacity(legs.len());
        tr.span("engine.merge", root, || {
            for (leg, (exec, run, rows)) in plan.legs.iter().zip(legs) {
                out.matched += run.matched;
                out.examined += run.examined;
                out.pages += run.io.pages();
                out.legs.push(LegInfo {
                    est_ms: leg.choice.est_ms,
                    sim_ms: run.io.elapsed_ms,
                });
                parts.push((exec, rows));
            }
        });
        tr.close(root);
        for (leg, (exec, rows)) in plan.legs.iter().zip(parts) {
            self.replay_leg_steps(tr, plan_span, exec, table, leg)?;
            // Copying the matches out is the collect cost; doing it again
            // on the same rows prices it.
            let start = Instant::now();
            let copy: Vec<Row> = rows.iter().map(|r| r.to_vec()).collect();
            let ns = start.elapsed().as_nanos() as u64;
            drop(std::hint::black_box(copy));
            tr.replayed("query.collect", exec, ns);
            out.rows.extend(rows);
        }
        Ok(out)
    }

    /// `Engine::aggregate`, decomposed: one fold per leg, merged in shard
    /// order.
    pub fn aggregate(
        &self,
        tr: &mut Tracer,
        root: u32,
        table: &str,
        q: &Query,
        spec: &AggSpec,
    ) -> SutResult<AggOut> {
        let snap = self.snapshot(tr, root);
        let (plan_span, plan) = self.plan(tr, root, table, q)?;
        let legs = self.fan_out(tr, root, table, &plan, snap.as_ref(), |t, ctx, leg| {
            let mut state = AggState::new(spec);
            let run = exec_leg(t, ctx, leg, |row| state.observe(row))?;
            Ok((run, state))
        })?;
        let mut out = AggOut {
            rows: Vec::new(),
            matched: 0,
            examined: 0,
            pages: 0,
            legs: legs.len(),
        };
        let mut execs = Vec::with_capacity(legs.len());
        tr.span("engine.merge", root, || {
            let mut merged = AggState::new(spec);
            for (exec, run, state) in legs {
                merged.merge(&state);
                out.matched += run.matched;
                out.examined += run.examined;
                out.pages += run.io.pages();
                execs.push(exec);
            }
            out.rows = merged.finish();
        });
        tr.close(root);
        for (leg, exec) in plan.legs.iter().zip(execs) {
            self.replay_leg_steps(tr, plan_span, exec, table, leg)?;
        }
        Ok(out)
    }

    /// `Engine::join_collect` for a small right-hand dimension table,
    /// decomposed: build the dimension into a hash table, then probe the
    /// left table — clamped to CM buckets when `clamped` (the strategy
    /// the engine itself chose for this join in the warm-up round).
    pub fn join(
        &self,
        tr: &mut Tracer,
        root: u32,
        left: &str,
        right: &str,
        left_col: usize,
        clamped: bool,
    ) -> SutResult<JoinOut> {
        let all = Query::default();
        let snap = self.snapshot(tr, root);
        let (_, build_plan) = self.plan(tr, root, right, &all)?;
        let built = self.fan_out(
            tr,
            root,
            right,
            &build_plan,
            snap.as_ref(),
            |t, ctx, leg| {
                let mut rows: Vec<Row> = Vec::new();
                let run = exec_leg(t, ctx, leg, |row| rows.push(row.to_vec()))?;
                Ok((run, rows))
            },
        )?;
        let mut ht = JoinHashTable::new();
        tr.span("query.join_build", root, || {
            for (_, _, rows) in built {
                for row in rows {
                    let key = row[0].clone();
                    ht.insert(&key, row);
                }
            }
        });
        let keys = ht.sorted_keys();
        let (plan_span, probe_plan) = self.plan(tr, root, left, &all)?;
        let ht = &ht;
        let keys = &keys;
        let probed = self.fan_out(tr, root, left, &probe_plan, snap.as_ref(), |t, ctx, leg| {
            let mut rows: Vec<Row> = Vec::new();
            let mut emit = |probe_row: &[Value]| {
                for &idx in ht.probe(&probe_row[left_col]) {
                    let mut row = probe_row.to_vec();
                    row.extend_from_slice(ht.row(idx));
                    rows.push(row);
                }
            };
            let run = if clamped {
                let cm = t
                    .clamp_cm_for(left_col)
                    .ok_or("no CM covers the join column")?;
                t.exec_cm_clamp_visit(ctx, cm, &leg.query, left_col, keys, &mut emit)
            } else {
                exec_leg(t, ctx, leg, &mut emit)?
            };
            Ok((run, rows))
        })?;
        let mut out = JoinOut {
            rows: Vec::new(),
            matched: 0,
            clamped,
            build_rows: ht.len() as u64,
            probe_pages: 0,
            examined: 0,
        };
        let mut execs = Vec::with_capacity(probed.len());
        tr.span("engine.merge", root, || {
            for (exec, run, rows) in probed {
                out.probe_pages += run.io.pages();
                out.examined += run.examined;
                out.rows.extend(rows);
                execs.push(exec);
            }
            out.matched = out.rows.len() as u64;
        });
        tr.close(root);
        for (leg, exec) in probe_plan.legs.iter().zip(execs) {
            if !clamped {
                self.replay_leg_steps(tr, plan_span, exec, left, leg)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{BufferPool, DiskSim};

    #[test]
    fn timed_accessor_forwards_counts_unchanged() {
        let run = |wrap: bool| {
            let disk = DiskSim::with_defaults();
            let pool = BufferPool::new(disk.clone(), 8);
            let f = disk.alloc_file();
            let timed = TimedAccessor::new(&pool);
            let io: &dyn PageAccessor = if wrap { &timed } else { &pool };
            for page in [0, 1, 2, 1, 0, 40, 41] {
                io.read(f, page);
            }
            io.read_run(f, 10, 30);
            io.write(f, 3);
            io.write_run(f, 50, 52);
            (pool.stats(), disk.stats(), timed.calls())
        };
        let (plain_pool, plain_disk, _) = run(false);
        let (timed_pool, timed_disk, calls) = run(true);
        assert_eq!(plain_pool, timed_pool);
        assert_eq!(plain_disk, timed_disk);
        assert_eq!(calls, 10, "one count per forwarded call");
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new();
        let root = tr.begin_op(Class::Point);
        let a = tr.record("a", root, 10, 50);
        tr.record("b", a, 20, 30);
        tr.replayed("c", a, 5);
        tr.spans[root as usize].start_ns = 0;
        tr.spans[root as usize].end_ns = 100;
        let own = tr.self_ns();
        assert_eq!(own, vec![60, 25, 10, 5]);
        assert_eq!(
            tr.spans[3].start_ns, 10,
            "a replayed span sits at its parent's start"
        );
        assert!(tr.spans[3].replayed && !tr.spans[2].replayed);
        assert!(tr.spans.iter().all(|s| s.op == 0));
    }
}
