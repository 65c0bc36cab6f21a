//! Property test: a collected join's rows come out in one order — that
//! of a row-at-a-time reference — whatever the probe strategy, the
//! build side, the worker count or the read protocol.
//!
//! The join oracle (`join_oracle_prop`) sorts both sides before it
//! compares, so it cannot see an order change. Here each case loads two
//! tables (string and float columns among their values, NULLs in the
//! string column), runs committed DML on them (inserts past the load,
//! `delete_where`, and under MVCC a vacuum, so pages that are not all
//! visible hand on sparse selections), and joins them both ways round —
//! so the smaller table is the build side once as the left input and
//! once as the right — through [`Engine::join_collect`], a forced hash
//! probe and a forced correlation clamp, on 1 and 4 workers, with MVCC
//! off and on. Every result must equal, row for row and in order, a
//! reference built a slot at a time: the build side's shards scanned in
//! shard order with [`Table::exec_batches`], each selected slot made a
//! row with [`PageRef::row`] and inserted into a [`JoinHashTable`]; then
//! each probe shard scanned likewise, each probe row followed by its
//! partners in build order ([`JoinHashTable::row`]), build columns first
//! when the build side is the left input. A clamp sweeps its bucket runs
//! in page order, so it must give the full scan's order too. `matched`
//! must equal the row count, collected or not.
//!
//! Case count is `JOIN_PROP_CASES` (default 48), the join oracle's
//! setting, so CI raises both together.
//!
//! [`Table::exec_batches`]: cm_query::Table::exec_batches
//! [`PageRef::row`]: cm_storage::PageRef::row

use cm_core::CmSpec;
use cm_engine::{Engine, EngineConfig, JoinQuery, JoinSide, JoinStrategy};
use cm_query::{AccessPath, ExecContext, JoinHashTable, Pred, Query};
use cm_storage::{Column, DiskSim, PageRef, Row, Schema, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("JOIN_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    ProptestConfig::with_cases(cases)
}

fn left_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("k", ValueType::Int),
        Column::new("v", ValueType::Int),
        Column::new("name", ValueType::Str),
    ]))
}

fn right_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("k", ValueType::Int),
        Column::new("w", ValueType::Float),
        Column::new("tag", ValueType::Str),
        Column::new("d", ValueType::Date),
    ]))
}

fn left_row(k: i64, v: i64) -> Row {
    let name = if v % 5 == 0 {
        Value::Null
    } else {
        Value::str(format!("n{}", v % 7))
    };
    vec![Value::Int(k % 20), Value::Int(v % 30), name]
}

fn right_row(k: i64, w: i64) -> Row {
    let w = if w % 9 == 0 { -0.0 } else { w as f64 / 4.0 };
    let tag = Value::str(["x", "é", ""][k.unsigned_abs() as usize % 3]);
    vec![
        Value::Int(k % 25),
        Value::float(w),
        tag,
        Value::Date(k as i32 - 7),
    ]
}

/// Committed DML on one table: `inserts` appended, then a committed
/// `delete_where` on column 1 when there is one, then a vacuum (which
/// under MVCC turns the ended versions into dead slots).
fn churn(engine: &Arc<Engine>, table: &str, inserts: Vec<Row>, delete: Option<Query>) {
    let session = engine.session();
    if !inserts.is_empty() {
        session.insert_many(table, inserts).unwrap();
    }
    if let Some(q) = delete {
        session.delete_where(table, &q).unwrap();
    }
    session.commit();
    engine.vacuum().unwrap();
}

/// Hand every visible row of `table` to `visit` a page batch at a time,
/// shard after shard, in scan order. After [`churn`] no version is
/// pending or ended, so the rows without a snapshot are the rows any
/// snapshot sees.
fn scan(engine: &Engine, table: &str, q: &Query, mut visit: impl FnMut(PageRef<'_>, &[u32])) {
    let disk = DiskSim::with_defaults();
    let shards = engine.table_info(table).unwrap().shards;
    for shard in 0..shards {
        engine
            .with_shard(table, shard, |t| {
                t.exec_batches(
                    &ExecContext::cold(&disk),
                    AccessPath::FullScan,
                    q,
                    &mut visit,
                )
            })
            .unwrap()
            .unwrap();
    }
}

/// The row-at-a-time reference join (see the module docs), with the
/// given build side.
fn reference(engine: &Engine, left: &str, right: &str, jq: &JoinQuery, side: JoinSide) -> Vec<Row> {
    let l = (left, jq.left_col, &jq.left_filter);
    let r = (right, jq.right_col, &jq.right_filter);
    let ((build, build_col, build_q), (probe, probe_col, probe_q)) = match side {
        JoinSide::Left => (l, r),
        JoinSide::Right => (r, l),
    };
    let mut ht = JoinHashTable::new();
    scan(engine, build, build_q, |page, sel| {
        for &s in sel {
            ht.insert_keyed(build_col, page.row(s as usize));
        }
    });
    let mut out = Vec::new();
    scan(engine, probe, probe_q, |page, sel| {
        for &s in sel {
            let p = page.row(s as usize);
            for &idx in ht.probe(&p[probe_col]) {
                let b = ht.row(idx);
                out.push(match side {
                    JoinSide::Left => [b.as_slice(), &p].concat(),
                    JoinSide::Right => [p.as_slice(), b].concat(),
                });
            }
        }
    });
    out
}

/// Rows equal value for value, float bits included.
fn same_rows(a: &[Row], b: &[Row]) -> bool {
    let same = |(x, y): (&Value, &Value)| match (x, y) {
        (Value::Float(x), Value::Float(y)) => x.0.to_bits() == y.0.to_bits(),
        _ => x == y,
    };
    let same_row = |(r, s): (&Row, &Row)| r.len() == s.len() && r.iter().zip(s).all(same);
    a.len() == b.len() && a.iter().zip(b).all(same_row)
}

type Pairs = Vec<(i64, i64)>;

fn pairs(max: usize) -> impl Strategy<Value = Pairs> {
    prop::collection::vec((0i64..40, 0i64..40), 0..max)
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn collected_join_rows_follow_the_row_at_a_time_order(
        left in pairs(120),
        right in pairs(160),
        inserts in (pairs(30), pairs(30)),
        deletes in (0i64..45, 0i64..45),
        filters in (0u8..3, 0i64..30, 0u8..3, 0i64..40),
        shards in 1usize..5,
    ) {
        let lf = match filters.0 {
            0 => Query::default(),
            1 => Query::single(Pred::between(1, filters.1, filters.1 + 12)),
            _ => Query::single(Pred::eq(2, "n3")),
        };
        let rf = match filters.2 {
            0 => Query::default(),
            1 => Query::single(Pred::between(1, filters.3 as f64 / 4.0, 8.0)),
            _ => Query::single(Pred::eq(2, "é")),
        };
        let jq = JoinQuery::on(0, 0).filter_left(lf.clone()).filter_right(rf.clone());
        let swapped = JoinQuery::on(0, 0).filter_left(rf).filter_right(lf);
        for (workers, mvcc) in [(1, false), (4, false), (1, true), (4, true)] {
            let config = EngineConfig { shards, workers, mvcc, ..EngineConfig::default() };
            let engine = Engine::new(config);
            engine.create_table("l", left_schema(), 0, 6, 12).unwrap();
            engine.create_table("r", right_schema(), 0, 6, 12).unwrap();
            engine.load("l", left.iter().map(|&(k, v)| left_row(k, v)).collect()).unwrap();
            engine.load("r", right.iter().map(|&(k, w)| right_row(k, w)).collect()).unwrap();
            let lcm = engine.create_cm("l", "l_k", CmSpec::single_raw(0)).unwrap();
            let rcm = engine.create_cm("r", "r_k", CmSpec::single_raw(0)).unwrap();
            // No delete when the drawn bound is 30 or more.
            let lo = deletes.0;
            let del_l = (lo < 30).then(|| Query::single(Pred::between(1, lo, lo + 4)));
            let ins_l = inserts.0.iter().map(|&(k, v)| left_row(k, v)).collect();
            let ins_r = inserts.1.iter().map(|&(k, w)| right_row(k, w)).collect();
            churn(&engine, "l", ins_l, del_l);
            let lo = deletes.1 as f64 / 4.0;
            let del_r = (deletes.1 < 30).then(|| Query::single(Pred::between(1, lo, lo + 1.0)));
            churn(&engine, "r", ins_r, del_r);

            for (a, b, q) in [("l", "r", &jq), ("r", "l", &swapped)] {
                let what = format!("{a} ⋈ {b}, shards={shards} workers={workers} mvcc={mvcc}");
                let auto = engine.join_collect(a, b, q).unwrap();
                let side = auto.build_side;
                let want = reference(&engine, a, b, q, side);
                // The probe table is the one that is not built.
                let probe_cm = match (side, a) {
                    (JoinSide::Left, "l") | (JoinSide::Right, "r") => rcm,
                    _ => lcm,
                };
                let hash = engine.join_via_collect(a, b, q, JoinStrategy::Hash).unwrap();
                let clamp =
                    engine.join_via_collect(a, b, q, JoinStrategy::CmClamp(probe_cm)).unwrap();
                for (name, out) in [("auto", &auto), ("hash", &hash), ("clamp", &clamp)] {
                    prop_assert_eq!(out.build_side, side, "{} {}", name, &what);
                    let got = out.rows.as_ref().unwrap();
                    prop_assert!(
                        same_rows(got, &want),
                        "{} {}: {:?} vs {:?}", name, &what, got, &want
                    );
                    prop_assert_eq!(out.matched as usize, got.len(), "{} {}", name, &what);
                }
                let counted = engine.join_via(a, b, q, JoinStrategy::Hash).unwrap();
                prop_assert_eq!(counted.matched as usize, want.len(), "uncollected {}", &what);
                prop_assert!(counted.rows.is_none());
            }
        }
    }
}
