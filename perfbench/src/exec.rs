//! Executing one operation — untraced through the engine's front door, or
//! traced through the decomposed path — timing it, and, after the timer
//! has stopped, checking what it returned against the benchmark's model.

use crate::data::{hash_row, Churn, Expect, Items, Lineitem};
use crate::ops::{self, Class, Op, ITEMS, LINEITEM};
use crate::rng::Rng;
use crate::sut::{Client, ReadOut, Sut, SutResult};
use crate::trace::{Decomposed, Tracer};
use cm_datagen::ebay;
use cm_storage::{Rid, Row, Value};
use std::time::Instant;

/// Which operations of a round are checked against the model.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// The warm-up round: every one.
    All,
    /// A measured round: a seeded one in sixteen.
    Sampled(u64),
}

impl Check {
    fn covers(self, op_index: usize) -> bool {
        match self {
            Check::All => true,
            Check::Sampled(seed) => Rng::derive(seed, op_index as u64).below(16) == 0,
        }
    }
}

/// The tracer and the decomposed path it drives, while a round is traced.
pub struct TraceCtx<'a> {
    pub tr: Tracer,
    pub dec: Decomposed<'a>,
}

/// Everything one round adds up.
#[derive(Debug, Default)]
pub struct Acc {
    /// Latencies in µs, indexed by `Class::index()`.
    pub samples: Vec<Vec<f64>>,
    pub busy_us: f64,
    pub attempted: u64,
    pub failed: u64,
    pub reads: u64,
    pub matched: u64,
    pub examined: u64,
    pub pages: u64,
    pub legs: u64,
    /// Planner estimate over simulated cost, per leg that touched the disk.
    pub est_over_actual: Vec<f64>,
    pub joins: u64,
    pub join_build_rows: u64,
    pub join_probe_pages: u64,
    /// `(index into the round's row pool, rid)` of every inserted row.
    pub inserted: Vec<(usize, Rid)>,
    pub user_bytes: u64,
}

impl Acc {
    pub fn new() -> Acc {
        Acc {
            samples: vec![Vec::new(); Class::ALL.len()],
            ..Acc::default()
        }
    }

    pub fn of(&self, class: Class) -> &[f64] {
        &self.samples[class.index()]
    }

    pub fn ops(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    pub fn record(&mut self, class: Class, us: f64, ok: bool) {
        self.samples[class.index()].push(us);
        self.busy_us += us;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn note_read(&mut self, out: &ReadOut) {
        self.reads += 1;
        self.matched += out.matched;
        self.examined += out.examined;
        self.pages += out.pages;
        self.legs += out.legs.len() as u64;
        for leg in &out.legs {
            if leg.sim_ms > 0.0 && leg.est_ms.is_finite() {
                self.est_over_actual.push(leg.est_ms / leg.sim_ms);
            }
        }
    }

    pub fn merge(&mut self, other: Acc) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.busy_us += other.busy_us;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.inserted.extend(other.inserted);
        self.user_bytes += other.user_bytes;
    }
}

/// A failed operation, for the log (the first few only).
fn complain(failures: &mut u32, what: impl FnOnce() -> String) {
    *failures += 1;
    if *failures <= 8 {
        eprintln!("FAILED: {}", what());
    }
}

pub struct Exec<'a> {
    pub sut: &'a Sut,
    pub client: Client,
    pub items: Option<&'a Items>,
    pub li: Option<&'a Lineitem>,
    /// Reads run beside a writer: every returned row must satisfy the
    /// predicate and no base row may be missing, but rows the writer
    /// added may or may not be there.
    pub lenient: bool,
    /// The strategy the engine chose for the ship and part joins, seen in
    /// an untraced round; the traced join follows it.
    pub join_clamped: [Option<bool>; 2],
    pub failures_logged: u32,
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

impl<'a> Exec<'a> {
    pub fn new(sut: &'a Sut, items: Option<&'a Items>, li: Option<&'a Lineitem>) -> Exec<'a> {
        Exec {
            sut,
            client: sut.client(),
            items,
            li,
            lenient: false,
            join_clamped: [None, None],
            failures_logged: 0,
        }
    }

    /// Run `ops` in order, one at a time. `pool` holds the rows the
    /// write ops refer to; `churn` follows what they do.
    pub fn run_script(
        &mut self,
        ops: &[Op],
        pool: &[Row],
        mut churn: Option<&mut Churn>,
        check: Check,
        mut trace: Option<&mut TraceCtx<'_>>,
        acc: &mut Acc,
    ) {
        for (i, op) in ops.iter().enumerate() {
            let checked = check.covers(i);
            let (us, verdict) = self.run_op(
                op,
                pool,
                churn.as_deref_mut(),
                checked,
                trace.as_deref_mut(),
                acc,
            );
            if let Err(why) = &verdict {
                complain(&mut self.failures_logged, || {
                    format!("op {i} {op:?}: {why}")
                });
            }
            acc.record(op.class(), us, verdict.is_ok());
        }
    }

    /// Time a call at the engine boundary; traced, it is one root span.
    fn boundary<R>(
        trace: Option<&mut TraceCtx<'_>>,
        class: Class,
        f: impl FnOnce() -> R,
    ) -> (f64, R) {
        match trace {
            None => {
                let start = Instant::now();
                let out = f();
                (micros(start), out)
            }
            Some(tc) => {
                let root = tc.tr.begin_op(class);
                let out = f();
                tc.tr.close(root);
                (tc.tr.spans[root as usize].dur_ns() as f64 / 1e3, out)
            }
        }
    }

    /// Time a read. Untraced, `direct` goes through the engine's front
    /// door between two clock reads. Traced, `decomposed` runs under a
    /// fresh root span and closes it when the operation's own work ends,
    /// before it starts replaying steps: that span is the latency.
    fn timed<R>(
        trace: Option<&mut TraceCtx<'_>>,
        class: Class,
        direct: impl FnOnce() -> SutResult<R>,
        decomposed: impl FnOnce(&mut Tracer, &Decomposed<'_>, u32) -> SutResult<R>,
    ) -> (f64, SutResult<R>) {
        let Some(tc) = trace else {
            let start = Instant::now();
            let out = direct();
            return (micros(start), out);
        };
        let root = tc.tr.begin_op(class);
        let out = decomposed(&mut tc.tr, &tc.dec, root);
        if out.is_err() {
            tc.tr.close(root);
        }
        (tc.tr.spans[root as usize].dur_ns() as f64 / 1e3, out)
    }

    fn run_op(
        &mut self,
        op: &Op,
        pool: &[Row],
        churn: Option<&mut Churn>,
        checked: bool,
        trace: Option<&mut TraceCtx<'_>>,
        acc: &mut Acc,
    ) -> (f64, Result<(), String>) {
        let class = op.class();
        match op {
            Op::Point(_) | Op::MultiPoint(_) | Op::Cat5(_) | Op::Price(_) => {
                let items = self.items.expect("items workload");
                let q = ops::items_query(items, op);
                let (us, out) = Self::timed(
                    trace,
                    class,
                    || self.client.read(ITEMS, &q),
                    |tr, dec, root| dec.read(tr, root, ITEMS, &q),
                );
                (
                    us,
                    out.and_then(|o| {
                        acc.note_read(&o);
                        if checked {
                            self.check_items(items, op, &o)
                        } else {
                            Ok(())
                        }
                    }),
                )
            }
            Op::Ship(lo) => {
                let li = self.li.expect("lineitem workload");
                let q = ops::ship_query(*lo);
                let (us, out) = Self::timed(
                    trace,
                    class,
                    || self.client.read(LINEITEM, &q),
                    |tr, dec, root| dec.read(tr, root, LINEITEM, &q),
                );
                (
                    us,
                    out.and_then(|o| {
                        acc.note_read(&o);
                        let want = li.expect_ship(*lo, lo + Lineitem::RANGE_DAYS - 1);
                        if checked {
                            expect_rows(&o.rows, o.matched, want)
                        } else {
                            Ok(())
                        }
                    }),
                )
            }
            Op::JoinShip | Op::JoinPart => {
                let li = self.li.expect("lineitem workload");
                let which = usize::from(matches!(op, Op::JoinPart));
                let (dim, left_col, jq) = ops::join_of(op, li);
                // Before any untraced join has been seen, follow what the
                // data was built to provoke.
                let clamped = self.join_clamped[which].unwrap_or(which == 0);
                let (us, out) = Self::timed(
                    trace,
                    class,
                    || self.client.join(LINEITEM, dim, &jq),
                    |tr, dec, root| dec.join(tr, root, LINEITEM, dim, left_col, clamped),
                );
                (
                    us,
                    out.and_then(|o| {
                        acc.reads += 1;
                        acc.joins += 1;
                        acc.join_build_rows += o.build_rows;
                        acc.join_probe_pages += o.probe_pages;
                        acc.pages += o.probe_pages;
                        acc.examined += o.examined;
                        acc.matched += o.matched;
                        let before = self.join_clamped[which].replace(o.clamped);
                        if before.is_some_and(|b| b != o.clamped) {
                            return Err(
                                "the join strategy changed between runs of one query".into()
                            );
                        }
                        let want = if which == 0 {
                            li.join_ship
                        } else {
                            li.join_part
                        };
                        if checked {
                            expect_rows(&o.rows, o.matched, want)
                        } else {
                            Ok(())
                        }
                    }),
                )
            }
            Op::Agg => {
                let li = self.li.expect("lineitem workload");
                let (q, spec) = (cm_query::Query::default(), ops::agg_spec());
                let (us, out) = Self::timed(
                    trace,
                    class,
                    || self.client.aggregate(LINEITEM, &q, &spec),
                    |tr, dec, root| dec.aggregate(tr, root, LINEITEM, &q, &spec),
                );
                (
                    us,
                    out.and_then(|o| {
                        acc.reads += 1;
                        acc.matched += o.matched;
                        acc.examined += o.examined;
                        acc.pages += o.pages;
                        acc.legs += o.legs as u64;
                        if checked && o.rows != li.agg_rows {
                            return Err(format!(
                                "{} groups, want {}",
                                o.rows.len(),
                                li.agg_rows.len()
                            ));
                        }
                        Ok(())
                    }),
                )
            }
            Op::Insert(i) => {
                let row = pool[*i].clone();
                let (us, out) = Self::boundary(trace, class, || self.client.insert(ITEMS, row));
                (us, out.map(|rid| note_insert(acc, churn, pool, *i, rid)))
            }
            Op::InsertMany(first, len) => {
                let rows = pool[*first..first + len].to_vec();
                let (us, out) =
                    Self::boundary(trace, class, || self.client.insert_many(ITEMS, rows));
                (
                    us,
                    out.and_then(|rids| {
                        if rids.len() != *len {
                            return Err(format!("{} rids for {len} rows", rids.len()));
                        }
                        let mut churn = churn;
                        for (k, rid) in rids.into_iter().enumerate() {
                            note_insert(acc, churn.as_deref_mut(), pool, first + k, rid);
                        }
                        Ok(())
                    }),
                )
            }
            Op::Commit => {
                let (us, _) = Self::boundary(trace, class, || self.client.commit());
                (us, Ok(()))
            }
            Op::Delete(lo) => {
                let q = ops::delete_query(*lo);
                let (us, out) =
                    Self::boundary(trace, class, || self.client.delete_where(ITEMS, &q));
                // Cheap to check, so every delete is.
                (
                    us,
                    out.and_then(|gone| {
                        let want = churn.map(|c| c.delete_range(*lo, lo + ops::DELETE_SPAN - 1));
                        match want {
                            Some(w) if w != gone as u64 => {
                                Err(format!("{gone} rows deleted, want {w}"))
                            }
                            _ => Ok(()),
                        }
                    }),
                )
            }
            Op::Vacuum => {
                let (us, out) = Self::boundary(trace, class, || self.sut.vacuum());
                (us, out.map(|_| ()))
            }
        }
    }

    fn check_items(&self, items: &Items, op: &Op, out: &ReadOut) -> Result<(), String> {
        let want = match op {
            Op::Point(k) => items.expect_ids([*k]),
            Op::MultiPoint(ks) => items.expect_ids(dedup(*ks)),
            Op::Cat5(i) => items.expect_cat5(*i),
            Op::Price(lo) => items.expect_price(*lo, lo + Items::PRICE_SPAN),
            other => unreachable!("{other:?} is not a read on items"),
        };
        if !self.lenient {
            return expect_rows(&out.rows, out.matched, want);
        }
        if let Some(bad) = out.rows.iter().find(|row| !row_satisfies(items, op, row)) {
            return Err(format!("returned a row outside the predicate: {bad:?}"));
        }
        if (out.rows.len() as u64) < want.count {
            return Err(format!(
                "{} rows, the base data alone has {}",
                out.rows.len(),
                want.count
            ));
        }
        Ok(())
    }

    /// Read back `n` seeded ItemIDs from the rows the workload inserted:
    /// a live one must come back whole, a deleted one must not come back.
    /// Untimed; each id is one attempted operation.
    pub fn verify_inserted(&mut self, churn: &Churn, n: usize, seed: u64, acc: &mut Acc) {
        if churn.inserted() == 0 {
            return;
        }
        let mut rng = Rng::derive(seed, 0x7E41F);
        for _ in 0..n {
            let id = churn.first_id() + rng.below(churn.inserted() as u64) as i64;
            let want = churn.get(id).map_or(Expect::default(), |h| Expect {
                count: 1,
                digest: h,
            });
            let verdict = self
                .client
                .read(ITEMS, &ops::point_query(id))
                .and_then(|o| expect_rows(&o.rows, o.matched, want));
            if let Err(why) = &verdict {
                complain(&mut self.failures_logged, || {
                    format!("read-back of ItemID {id}: {why}")
                });
            }
            acc.attempted += 1;
            acc.failed += u64::from(verdict.is_err());
        }
    }
}

pub fn note_insert(acc: &mut Acc, churn: Option<&mut Churn>, pool: &[Row], i: usize, rid: Rid) {
    if let Some(c) = churn {
        c.insert(&pool[i]);
    }
    acc.user_bytes += pool[i].iter().map(|v| v.size_bytes() as u64).sum::<u64>();
    acc.inserted.push((i, rid));
}

fn dedup(mut ks: [i64; 4]) -> Vec<i64> {
    ks.sort_unstable();
    let mut v = ks.to_vec();
    v.dedup();
    v
}

/// Row count and order-independent digest against the model's.
fn expect_rows(rows: &[Row], matched: u64, want: Expect) -> Result<(), String> {
    let got = Expect::of_rows(rows);
    if got != want {
        return Err(format!(
            "{} rows (digest {:016x}), want {} ({:016x})",
            got.count, got.digest, want.count, want.digest
        ));
    }
    if matched != want.count {
        return Err(format!(
            "reported {matched} matches, returned {}",
            want.count
        ));
    }
    Ok(())
}

/// The benchmark's own evaluation of an items predicate on one row.
fn row_satisfies(items: &Items, op: &Op, row: &[Value]) -> bool {
    let int = |col: usize| row.get(col).and_then(Value::as_int);
    match op {
        Op::Point(k) => int(ebay::COL_ITEMID) == Some(*k),
        Op::MultiPoint(ks) => int(ebay::COL_ITEMID).is_some_and(|id| ks.contains(&id)),
        Op::Cat5(i) => row.get(ebay::COL_CAT5) == Some(items.cat5_value(*i)),
        Op::Price(lo) => {
            int(ebay::COL_PRICE).is_some_and(|p| (*lo..=lo + Items::PRICE_SPAN).contains(&p))
        }
        _ => false,
    }
}

/// Digest of every visible row of `table`, read shard by shard straight
/// from the heap at a fresh snapshot: what a restart must have kept.
pub fn scan_digest(sut: &Sut, table: &str) -> SutResult<Expect> {
    let snap = sut.snapshot();
    let mut total = Expect::default();
    for shard in 0..sut.shards() {
        let part = sut.with_shard(table, shard, |t| {
            let (disk, _) = sut.shard_io(shard);
            let mut ctx = cm_query::ExecContext::cold(disk);
            if let Some(s) = &snap {
                ctx = ctx.at_snapshot(s);
            }
            let mut e = Expect::default();
            // Tombstoned slots stay in the heap as all-NULL rows.
            t.exec_full_scan_visit(&ctx, &cm_query::Query::default(), |row| {
                if !row.iter().all(Value::is_null) {
                    e.add(hash_row(row));
                }
            });
            e
        })?;
        total.count += part.count;
        total.digest = total.digest.wrapping_add(part.digest);
    }
    Ok(total)
}
