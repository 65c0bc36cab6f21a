//! Engine-level tests: catalog, reads, writes, design changes,
//! recovery, and MVCC, driven through the public facade.

use super::*;
use crate::{EngineConfig, EngineError};
use cm_advisor::{DesignSet, Structure};
use cm_core::CmSpec;
use cm_query::{AccessPath, AggFunc, AggSpec, Pred, Query};
use cm_storage::{Column, LogPayload, Row, Schema, Value, ValueType, LIVE_TS};
use std::sync::atomic::Ordering;

fn demo_rows(n: i64, cats: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let cat = i % cats;
            vec![Value::Int(cat), Value::Int(cat * 100 + (i * 7) % 100)]
        })
        .collect()
}

fn demo_engine_with(config: EngineConfig) -> Arc<Engine> {
    let engine = Engine::new(config);
    let schema = Arc::new(Schema::new(vec![
        Column::new("catid", ValueType::Int),
        Column::new("price", ValueType::Int),
    ]));
    engine.create_table("items", schema, 0, 20, 100).unwrap();
    engine.load("items", demo_rows(5000, 100)).unwrap();
    engine
}

fn demo_engine() -> Arc<Engine> {
    demo_engine_with(EngineConfig::default())
}

#[test]
fn create_load_query_roundtrip() {
    let engine = demo_engine();
    let info = engine.table_info("items").unwrap();
    assert!(info.loaded);
    assert_eq!(info.rows, 5000);
    assert_eq!(info.shards, 1);
    let out = engine
        .execute("items", &Query::single(Pred::eq(0, 42i64)))
        .unwrap();
    assert_eq!(out.run.matched, 50);
}

#[test]
fn unknown_table_and_duplicates_error() {
    let engine = demo_engine();
    assert!(matches!(
        engine.execute("nope", &Query::default()),
        Err(EngineError::UnknownTable(_))
    ));
    let schema = Arc::new(Schema::new(vec![Column::new("x", ValueType::Int)]));
    assert!(matches!(
        engine.create_table("items", schema.clone(), 0, 10, 10),
        Err(EngineError::DuplicateTable(_))
    ));
    engine.create_table("empty", schema, 0, 10, 10).unwrap();
    assert!(matches!(
        engine.execute("empty", &Query::default()),
        Err(EngineError::NotLoaded(_))
    ));
}

#[test]
fn load_twice_rejected() {
    let engine = demo_engine();
    assert!(matches!(
        engine.load("items", vec![]),
        Err(EngineError::AlreadyLoaded(_))
    ));
}

#[test]
fn bad_columns_rejected() {
    let engine = demo_engine();
    assert!(matches!(
        engine.create_btree("items", "bad", vec![7]),
        Err(EngineError::BadColumn { col: 7, .. })
    ));
    assert!(matches!(
        engine.create_cm("items", "bad", CmSpec::single_raw(9)),
        Err(EngineError::BadColumn { col: 9, .. })
    ));
}

#[test]
fn analyze_rejects_a_column_past_the_arity_and_keeps_the_shard_usable() {
    let engine = demo_engine();
    assert!(matches!(
        engine.analyze("items", &[1, 2]),
        Err(EngineError::BadColumn { col: 2, .. })
    ));
    // Nothing was analyzed, and no lock is left poisoned or held.
    engine.with_each_shard("items", |_, t| assert!(t.col_stats(1).is_none())).unwrap();
    engine.analyze("items", &[1]).unwrap();
    engine
        .with_each_shard("items", |_, t| {
            let s = t.col_stats(1).expect("analyzed");
            assert_eq!(s.corr.total_tups, 5000);
            assert_eq!((s.min.clone(), s.max.clone()), (Some(Value::Int(0)), Some(Value::Int(9993))));
        })
        .unwrap();
}

#[test]
fn load_rejects_a_mistyped_row_anywhere() {
    let engine = Engine::new(EngineConfig::default());
    let schema = Arc::new(Schema::new(vec![
        Column::new("a", ValueType::Int),
        Column::new("b", ValueType::Int),
    ]));
    engine.create_table("t", schema, 0, 20, 100).unwrap();
    let mut rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
    rows[50][1] = Value::str("x");
    assert!(matches!(
        engine.load("t", rows.clone()),
        Err(EngineError::Storage(cm_storage::StorageError::SchemaMismatch { .. }))
    ));
    // Nothing was published: the table is still unloaded, and a clean
    // load goes through.
    assert!(matches!(engine.execute("t", &Query::default()), Err(EngineError::NotLoaded(_))));
    rows[50][1] = Value::Int(50);
    assert_eq!(engine.load("t", rows).unwrap(), 100);
    assert!(engine.insert("t", vec![Value::Int(1), Value::str("x")]).is_err());
}

/// A predicate on column 7 of the two-column demo table.
fn past_arity() -> Query {
    Query::single(Pred::eq(7, 1i64))
}

fn is_bad_col_7<T>(r: Result<T>) -> bool {
    matches!(r, Err(EngineError::BadColumn { col: 7, .. }))
}

#[test]
fn execute_rejects_a_predicate_past_the_arity() {
    assert!(is_bad_col_7(demo_engine().execute("items", &past_arity())));
}

#[test]
fn execute_collect_rejects_a_predicate_past_the_arity() {
    assert!(is_bad_col_7(demo_engine().execute_collect("items", &past_arity())));
}

#[test]
fn delete_where_rejects_a_predicate_past_the_arity() {
    let engine = demo_engine();
    assert!(is_bad_col_7(engine.delete_where("items", &past_arity())));
    assert_eq!(engine.table_info("items").unwrap().rows, 5000, "nothing deleted");
}

#[test]
fn aggregate_rejects_a_filter_past_the_arity() {
    let spec = AggSpec::new(vec![0], vec![AggFunc::Count]);
    assert!(is_bad_col_7(demo_engine().aggregate("items", &past_arity(), &spec)));
}

#[test]
fn sum_over_a_string_column_is_a_typed_error() {
    // Both modes, on one shard and on several: the check runs before
    // any leg, so no worker ever folds a string into a sum.
    for (shards, mvcc) in [(1, false), (3, true)] {
        let engine = Engine::new(EngineConfig {
            shards,
            mvcc,
            ..EngineConfig::default()
        });
        let schema = Arc::new(Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Str),
        ]));
        engine.create_table("t", schema, 0, 8, 16).unwrap();
        let rows = (0..40i64)
            .map(|i| vec![Value::Int(i), Value::str(format!("n{i}"))])
            .collect();
        engine.load("t", rows).unwrap();
        let q = Query::default();
        let sum = AggSpec::new(vec![], vec![AggFunc::Sum(1)]);
        assert_eq!(
            engine.aggregate("t", &q, &sum).unwrap_err(),
            EngineError::Query(cm_query::QueryError::NonNumericSum { col: 1 })
        );
        let grouped = AggSpec::new(vec![1], vec![AggFunc::Count, AggFunc::Sum(1)]);
        assert!(matches!(
            engine.aggregate("t", &q, &grouped),
            Err(EngineError::Query(cm_query::QueryError::NonNumericSum {
                col: 1
            }))
        ));
        // MIN, MAX and a numeric SUM over the same table still answer.
        let ok = AggSpec::new(
            vec![],
            vec![AggFunc::Min(1), AggFunc::Max(1), AggFunc::Sum(0)],
        );
        let out = engine.aggregate("t", &q, &ok).unwrap();
        assert_eq!(
            out.rows,
            vec![vec![Value::str("n0"), Value::str("n9"), Value::Int(780)]]
        );
    }
}

#[test]
fn join_rejects_a_left_filter_past_the_arity() {
    let jq = cm_query::JoinQuery::on(0, 0).filter_left(past_arity());
    assert!(is_bad_col_7(demo_engine().join("items", "items", &jq)));
}

#[test]
fn join_rejects_a_right_filter_past_the_arity() {
    let jq = cm_query::JoinQuery::on(0, 0).filter_right(past_arity());
    assert!(is_bad_col_7(demo_engine().join("items", "items", &jq)));
}

#[test]
fn cost_based_routing_prefers_cm_for_selective_predicate() {
    let engine = demo_engine();
    engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
    let out = engine
        .execute("items", &Query::single(Pred::eq(1, 4217i64)))
        .unwrap();
    assert!(
        matches!(out.plan.path, AccessPath::CmScan(_)),
        "chose {:?}",
        out.plan.path
    );
    assert_eq!(engine.route_counts().cm_scan, 1);
}

#[test]
fn routing_falls_back_to_scan_for_wide_predicate() {
    let engine = demo_engine();
    engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
    // The whole price domain: every bucket qualifies, the scan wins.
    let out = engine
        .execute("items", &Query::single(Pred::between(1, 0i64, 1_000_000i64)))
        .unwrap();
    assert_eq!(out.plan.path, AccessPath::FullScan, "alts {:?}", out.plan.alternatives);
    assert_eq!(out.run.matched, 5000);
}

#[test]
fn forced_paths_agree_with_oracle() {
    let engine = demo_engine();
    let sec = engine.create_btree("items", "price_idx", vec![1]).unwrap();
    let cm = engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
    let q = Query::single(Pred::between(1, 4200i64, 4400i64));
    let oracle = engine
        .execute_via_collect("items", AccessPath::FullScan, &q)
        .unwrap();
    for path in [
        AccessPath::SecondarySorted(sec),
        AccessPath::SecondaryPipelined(sec),
        AccessPath::CmScan(cm),
    ] {
        let got = engine.execute_via_collect("items", path, &q).unwrap();
        let mut a = got.rows.clone().unwrap();
        let mut b = oracle.rows.clone().unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{path:?}");
    }
    // Forced paths are not counted as routing decisions.
    assert_eq!(engine.route_counts().total(), 0);
}

#[test]
fn forced_secondary_without_prefix_predicate_surfaces_query_error() {
    let engine = demo_engine();
    let sec = engine.create_btree("items", "cat_price", vec![0, 1]).unwrap();
    // Predicate on price only: the (catid, price) index has no usable
    // prefix. A forced run must error cleanly, not panic.
    let q = Query::single(Pred::eq(1, 4217i64));
    let err = engine
        .execute_via("items", AccessPath::SecondarySorted(sec), &q)
        .unwrap_err();
    assert!(
        matches!(
            &err,
            EngineError::Query(cm_query::QueryError::NoIndexPredicate { index, col: 0 })
                if index == "cat_price"
        ),
        "got {err:?}"
    );
    assert!(engine
        .execute_via("items", AccessPath::SecondaryPipelined(sec), &q)
        .is_err());
    // A forced path naming a structure the table lacks is a typed
    // error too, not a panic inside the shard lock.
    for (path, want) in [
        (AccessPath::SecondarySorted(7), cm_query::QueryError::UnknownIndex { id: 7 }),
        (AccessPath::SecondaryPipelined(7), cm_query::QueryError::UnknownIndex { id: 7 }),
        (AccessPath::CmScan(7), cm_query::QueryError::UnknownCm { id: 7 }),
    ] {
        match engine.execute_via("items", path, &q) {
            Err(EngineError::Query(got)) => assert_eq!(got, want, "{path:?}"),
            other => panic!("{path:?}: {:?}", other.map(|o| o.run)),
        }
    }
    // Cost-based routing never picks an unusable path, so the same
    // query executes fine un-forced — and the shard still serves
    // reads after the failed ones.
    assert!(engine.execute("items", &q).is_ok());
    let cat = Query::single(Pred::eq(0, 42i64));
    assert_eq!(engine.execute("items", &cat).unwrap().run.matched, 50);
    // The parallel fan-out path surfaces the errors too.
    let par = parallel_engine(4, 4);
    let sec = par.create_btree("items", "cat_price", vec![0, 1]).unwrap();
    for path in [AccessPath::SecondarySorted(sec), AccessPath::CmScan(7)] {
        assert!(matches!(par.execute_via("items", path, &q), Err(EngineError::Query(_))));
    }
    assert_eq!(par.execute("items", &cat).unwrap().run.matched, 50);
}

#[test]
fn insert_delete_maintain_structures() {
    let engine = demo_engine();
    engine.create_btree("items", "price_idx", vec![1]).unwrap();
    engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
    let q = Query::single(Pred::eq(1, 999_999i64));
    assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
    let rid = engine
        .insert("items", vec![Value::Int(99), Value::Int(999_999)])
        .unwrap();
    engine.commit();
    assert_eq!(engine.execute("items", &q).unwrap().run.matched, 1);
    let row = engine.delete("items", rid).unwrap();
    assert_eq!(row[1], Value::Int(999_999));
    assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
    let stats = engine.stats();
    assert_eq!(stats.inserts, 1);
    assert_eq!(stats.deletes, 1);
    assert!(stats.wal_records >= 3, "heap + index + CM records");
}

#[test]
fn delete_where_removes_matches() {
    let engine = demo_engine();
    engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
    let q = Query::single(Pred::eq(0, 7i64));
    let victims = engine.delete_where("items", &q).unwrap();
    assert_eq!(victims.len(), 50);
    assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
    // The rest of the table is intact (tombstones are NULL rows, so a
    // ranged predicate excludes them).
    let rest = engine
        .execute("items", &Query::single(Pred::between(0, 0i64, 1_000_000i64)))
        .unwrap();
    assert_eq!(rest.run.matched, 5000 - 50);
}

#[test]
fn planned_delete_logs_its_victims_in_rid_order() {
    // A unique column in clustered order: the planner probes its
    // B+Tree once per IN value (pipelined), finding the victims in
    // IN-list order, yet the DeleteSet lists them as a sweep would.
    let engine = Engine::new(EngineConfig::default());
    let schema = Arc::new(Schema::new(vec![
        Column::new("k", ValueType::Int),
        Column::new("id", ValueType::Int),
    ]));
    engine.create_table("u", schema, 0, 2, 100).unwrap();
    let rows = (0..5000i64).map(|i| vec![Value::Int(i / 50), Value::Int(i)]).collect();
    engine.load("u", rows).unwrap();
    engine.create_btree("u", "id_ix", vec![1]).unwrap();
    let ids = [4000i64, 7, 2500];
    let q = Query::single(Pred::is_in(1, ids.iter().map(|&i| Value::Int(i)).collect()));
    let before = engine.shard_io()[0].pages();
    let victims = engine.delete_where("u", &q).unwrap();
    assert_eq!(engine.route_counts().secondary_pipelined, 1, "{:?}", engine.route_counts());
    assert!(engine.shard_io()[0].pages() - before < 20, "no sweep of the 2 500-page heap");
    let logged: Vec<Vec<(u64, Row)>> = cm_storage::decode_stream(&engine.appended_log())
        .records
        .into_iter()
        .filter_map(|r| match r.payload {
            LogPayload::DeleteSet { victims, .. } => Some(victims),
            _ => None,
        })
        .collect();
    assert_eq!(logged.len(), 1);
    let rids: Vec<u64> = logged[0].iter().map(|(rid, _)| *rid).collect();
    assert!(rids.windows(2).all(|w| w[0] < w[1]), "rid order: {rids:?}");
    assert_eq!(victims.iter().map(|r| r.local().0).collect::<Vec<_>>(), rids);
    let mut gone: Vec<i64> =
        logged[0].iter().map(|(_, row)| row[1].as_int().unwrap()).collect();
    gone.sort_unstable();
    assert_eq!(gone, vec![7, 2500, 4000]);
}

#[test]
fn delete_by_rid_logs_a_one_victim_delete_set() {
    for mvcc in [false, true] {
        let engine = demo_engine_with(EngineConfig { shards: 2, mvcc, ..EngineConfig::default() });
        let local = engine.with_shard("items", 1, |t| t.live_rids(0).nth(7).unwrap()).unwrap();
        let rid = Rid::sharded(1, local);
        let at = engine.appended_log().len() as u64;
        let row = engine.delete("items", rid).unwrap();
        let tail: Vec<_> = cm_storage::decode_stream(&engine.appended_log())
            .records
            .into_iter()
            .filter(|r| r.lsn >= at)
            .map(|r| (r.txn, r.payload))
            .collect();
        let victims = vec![(local.0, row)];
        let want = LogPayload::DeleteSet { table: "items".into(), shard: 1, victims };
        assert_eq!(tail, vec![(AUTOCOMMIT_TXN, want)], "mvcc={mvcc}");
    }
}

#[test]
fn explain_matches_execute_choice() {
    let engine = demo_engine();
    engine.create_btree("items", "price_idx", vec![1]).unwrap();
    let q = Query::single(Pred::eq(1, 1234i64));
    let plan = engine.explain("items", &q).unwrap();
    let out = engine.execute("items", &q).unwrap();
    assert_eq!(plan.primary().path, out.plan.path);
    assert!(plan.primary().alternatives.len() >= 3);
}

#[test]
fn explain_reports_every_leg() {
    let engine = sharded_engine(4);
    // Unpredicated on the clustered column: one leg per shard.
    let plan = engine.explain("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
    assert_eq!(plan.shards(), vec![0, 1, 2, 3]);
    // A point query plans a single leg on the owning shard.
    let plan = engine.explain("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
    assert_eq!(plan.legs.len(), 1);
    // An unsatisfiable range plans no legs and summarises as a
    // zero-cost scan.
    let plan = engine.explain("items", &Query::single(Pred::between(0, 9i64, 2i64))).unwrap();
    assert!(plan.is_empty());
    assert_eq!(plan.primary().est_ms, 0.0);
}

#[test]
fn warm_pool_makes_repeats_cheap() {
    let engine = demo_engine();
    let q = Query::single(Pred::eq(0, 3i64));
    let cold = engine.execute("items", &q).unwrap();
    let warm = engine.execute("items", &q).unwrap();
    assert_eq!(cold.run.matched, warm.run.matched);
    assert!(warm.run.ms() < 0.5 * cold.run.ms(), "{} vs {}", warm.run.ms(), cold.run.ms());
}

// ---- sharded behaviour -------------------------------------------

fn sharded_engine(shards: usize) -> Arc<Engine> {
    demo_engine_with(EngineConfig { shards, ..EngineConfig::default() })
}

fn parallel_engine(shards: usize, workers: usize) -> Arc<Engine> {
    demo_engine_with(EngineConfig { shards, workers, ..EngineConfig::default() })
}

// ---- parallel fan-out --------------------------------------------

#[test]
fn parallel_fanout_matches_sequential_results() {
    let par = parallel_engine(4, 4);
    let seq = sharded_engine(4);
    let queries = [
        Query::single(Pred::eq(0, 13i64)),
        Query::single(Pred::between(0, 10i64, 60i64)),
        Query::single(Pred::eq(1, 4217i64)),
        Query::default(),
    ];
    for q in &queries {
        let a = par.execute_collect("items", q).unwrap();
        let b = seq.execute_collect("items", q).unwrap();
        let mut ra = a.rows.unwrap();
        let mut rb = b.rows.unwrap();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb, "{q:?}");
        assert_eq!(a.run.matched, b.run.matched);
        assert_eq!(a.shards, b.shards);
    }
}

#[test]
fn parallel_rows_merge_in_shard_order() {
    // Full-table collection must come back shard 0 rows first,
    // whatever order the worker threads finished in.
    let par = parallel_engine(4, 4);
    let out = par.execute_collect("items", &Query::default()).unwrap();
    let rows = out.rows.unwrap();
    let keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "clustered partitions concatenate in key order");
}

#[test]
fn parallel_ms_reports_fanout_makespan() {
    let par = parallel_engine(4, 4);
    let out = par.execute("items", &Query::default()).unwrap();
    assert_eq!(out.legs.len(), 4);
    let longest = out.legs.iter().map(|l| l.run.ms()).fold(0.0, f64::max);
    assert!((out.parallel_ms - longest).abs() < 1e-9, "4 workers cover 4 legs");
    assert!(out.parallel_ms < out.run.ms(), "fan-out beats the serial sum");
    // Per-leg serial times sum to the run total.
    let sum: f64 = out.legs.iter().map(|l| l.run.ms()).sum();
    assert!((sum - out.run.ms()).abs() < 1e-9);

    // A 1-worker engine reports the serial sum for the same query.
    let seq = sharded_engine(4);
    let out = seq.execute("items", &Query::default()).unwrap();
    assert!((out.parallel_ms - out.run.ms()).abs() < 1e-9);
}

#[test]
fn each_leg_counts_as_a_routing_decision() {
    let engine = sharded_engine(4);
    engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
    assert_eq!(engine.route_counts().total(), 4, "one decision per leg");
    let engine = sharded_engine(4);
    engine.execute("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
    assert_eq!(engine.route_counts().total(), 1, "point query: one leg");
    // A query pruned everywhere makes no routing decision at all.
    let engine = sharded_engine(4);
    engine.execute("items", &Query::single(Pred::between(0, 9i64, 2i64))).unwrap();
    assert_eq!(engine.route_counts().total(), 0);
    assert_eq!(engine.stats().queries, 1);
}

#[test]
fn per_leg_choices_are_surfaced() {
    let engine = parallel_engine(4, 2);
    engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
    let out = engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
    assert_eq!(out.legs.len(), 4);
    assert_eq!(out.plan.path, out.legs[0].choice.path, "summary is the first leg");
    for leg in &out.legs {
        assert!(!leg.choice.alternatives.is_empty(), "every leg was costed");
    }
}

#[test]
fn parallel_delete_where_spans_shards() {
    let engine = parallel_engine(4, 4);
    let victims = engine
        .delete_where("items", &Query::single(Pred::between(0, 24i64, 26i64)))
        .unwrap();
    assert_eq!(victims.len(), 3 * 50);
    // Victims come back in shard order.
    let shards: Vec<usize> = victims.iter().map(|r| r.shard_index()).collect();
    let mut sorted = shards.clone();
    sorted.sort_unstable();
    assert_eq!(shards, sorted);
    assert_eq!(engine.stats().deletes, 150);
    let rest = engine
        .execute("items", &Query::single(Pred::between(0, 0i64, 1_000i64)))
        .unwrap();
    assert_eq!(rest.run.matched, 5000 - 150);
}

#[test]
fn worker_count_is_clamped_and_visible() {
    assert_eq!(sharded_engine(2).num_workers(), 1);
    assert_eq!(parallel_engine(2, 6).num_workers(), 6);
    let zero = demo_engine_with(EngineConfig { workers: 0, ..EngineConfig::default() });
    assert_eq!(zero.num_workers(), 1, "0 workers clamps to sequential");
}

#[test]
fn load_partitions_across_shards() {
    let engine = sharded_engine(4);
    let info = engine.table_info("items").unwrap();
    assert_eq!(info.shards, 4);
    assert_eq!(info.rows, 5000);
    let mut per_shard = Vec::new();
    engine
        .with_each_shard("items", |_, t| per_shard.push(t.heap().len()))
        .unwrap();
    assert_eq!(per_shard.iter().sum::<u64>(), 5000);
    assert!(per_shard.iter().all(|&n| n > 0), "every shard holds rows: {per_shard:?}");
    assert!(matches!(
        engine.with_table("items", |_| ()),
        Err(EngineError::ShardedTable(_))
    ));
}

#[test]
fn point_query_touches_exactly_one_shard() {
    let engine = sharded_engine(4);
    let q = Query::single(Pred::eq(0, 42i64));
    assert_eq!(engine.route_shards("items", &q).unwrap().len(), 1);
    let io_before = engine.shard_io();
    let out = engine.execute("items", &q).unwrap();
    assert_eq!(out.run.matched, 50);
    assert_eq!(out.shards.len(), 1);
    let io_after = engine.shard_io();
    let touched: Vec<usize> = (0..4)
        .filter(|&i| io_after[i].pages() > io_before[i].pages())
        .collect();
    assert_eq!(touched, out.shards, "I/O only on the owning shard");
}

#[test]
fn range_query_fans_out_to_overlapping_shards_only() {
    let engine = sharded_engine(4);
    // Keys 0..100, four shards of ~25 keys: a [0, 30] range overlaps
    // the first two shards.
    let q = Query::single(Pred::between(0, 0i64, 30i64));
    let shards = engine.route_shards("items", &q).unwrap();
    assert!(shards.len() < 4, "narrow range prunes shards: {shards:?}");
    let out = engine.execute("items", &q).unwrap();
    assert_eq!(out.run.matched, 31 * 50);
    assert_eq!(out.shards, shards);
    // An unpredicated-column query fans out everywhere.
    let all = engine
        .execute("items", &Query::single(Pred::eq(1, 4217i64)))
        .unwrap();
    assert_eq!(all.shards, vec![0, 1, 2, 3]);
}

#[test]
fn sharded_results_match_unsharded_oracle() {
    let sharded = sharded_engine(4);
    let flat = demo_engine();
    let queries = [
        Query::single(Pred::eq(0, 13i64)),
        Query::single(Pred::between(0, 10i64, 60i64)),
        Query::single(Pred::is_in(0, vec![Value::Int(3), Value::Int(55), Value::Int(99)])),
        Query::single(Pred::eq(1, 4217i64)),
        Query::new(vec![Pred::between(0, 20i64, 80i64), Pred::eq(1, 4217i64)]),
        Query::default(),
    ];
    for q in &queries {
        let a = sharded.execute_collect("items", q).unwrap();
        let b = flat.execute_collect("items", q).unwrap();
        let mut ra = a.rows.unwrap();
        let mut rb = b.rows.unwrap();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb, "{q:?}");
    }
}

#[test]
fn conjunction_on_the_clustered_column_is_preserved() {
    // Regression: a range AND an equality on the clustered column
    // must both survive shard restriction (the equality used to be
    // overwritten by the restricted range).
    let q = Query::new(vec![Pred::between(0, 0i64, 99i64), Pred::eq(0, 5i64)]);
    for shards in [1, 4] {
        let engine = sharded_engine(shards);
        let out = engine.execute("items", &q).unwrap();
        assert_eq!(out.run.matched, 50, "{shards} shard(s)");
    }
}

#[test]
fn sharded_inserts_route_to_owner_and_deletes_roundtrip() {
    let engine = sharded_engine(4);
    engine.create_btree("items", "price_idx", vec![1]).unwrap();
    // Key 99 lives in the last shard; key 0 in the first.
    let hi = engine.insert("items", vec![Value::Int(99), Value::Int(777_777)]).unwrap();
    let lo = engine.insert("items", vec![Value::Int(0), Value::Int(888_888)]).unwrap();
    engine.commit();
    assert_eq!(hi.shard_index(), 3);
    assert_eq!(lo.shard_index(), 0);
    let q = Query::single(Pred::eq(1, 777_777i64));
    assert_eq!(engine.execute("items", &q).unwrap().run.matched, 1);
    let row = engine.delete("items", hi).unwrap();
    assert_eq!(row[0], Value::Int(99));
    assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
    // A RID tagged with a nonexistent shard errors cleanly.
    assert!(matches!(
        engine.delete("items", Rid::sharded(7, Rid(0))),
        Err(EngineError::BadRid { .. })
    ));
}

#[test]
fn sharded_delete_where_spans_shards() {
    let engine = sharded_engine(4);
    let victims = engine
        .delete_where("items", &Query::single(Pred::between(0, 24i64, 26i64)))
        .unwrap();
    assert_eq!(victims.len(), 3 * 50);
    let rest = engine
        .execute("items", &Query::single(Pred::between(0, 0i64, 1_000i64)))
        .unwrap();
    assert_eq!(rest.run.matched, 5000 - 150);
}

#[test]
fn group_commit_absorbs_redundant_commits() {
    let engine = demo_engine();
    engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
    let io1 = engine.commit();
    assert!(io1.page_writes >= 1, "first commit flushes");
    let io2 = engine.commit();
    assert_eq!(io2, IoStats::default(), "nothing new: absorbed");
    let wal = engine.wal_stats();
    assert_eq!(wal.commit_requests, 2);
    assert_eq!(wal.absorbed, 1);
    assert_eq!(wal.flushes, 1);
}

#[test]
fn wal_flushes_land_on_the_log_disk() {
    let engine = demo_engine();
    let shard_before = engine.shard_io();
    engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
    let shard_after_insert = engine.shard_io();
    let log_before = engine.log_disk().stats();
    engine.commit();
    assert_eq!(engine.shard_io(), shard_after_insert, "commit touches no shard disk");
    assert!(engine.log_disk().stats().page_writes > log_before.page_writes);
    // The insert itself touched shard storage, not the log.
    assert!(shard_after_insert[0].pages() > shard_before[0].pages());
}

// ---- workload-aware design advisor -------------------------------

#[test]
fn workload_profile_records_reads_and_writes() {
    let engine = demo_engine();
    engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
    engine.execute("items", &Query::single(Pred::eq(1, 999i64))).unwrap();
    engine
        .execute("items", &Query::single(Pred::between(0, 3i64, 9i64)))
        .unwrap();
    engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
    // A delete finds its victims through the planner, so its
    // predicate is read traffic too; its victims are writes.
    let gone = engine.delete_where("items", &Query::single(Pred::eq(1, 321i64))).unwrap();
    assert_eq!(gone.len(), 50);
    let p = engine.workload_profile("items").unwrap();
    assert_eq!(p.reads, 4);
    assert_eq!(p.writes, 1 + 50);
    let price = p.col(1).unwrap();
    assert_eq!(price.reads, 3);
    assert_eq!(price.distinct_queried() as u64, 3, "three distinct point values");
    assert!(p.col(0).unwrap().avg_lookup_keys() >= 1.0, "range estimated");
    engine.reset_workload_profile("items").unwrap();
    assert_eq!(engine.workload_profile("items").unwrap().ops(), 0);
}

#[test]
fn advise_and_apply_roundtrip_with_oracle_equality() {
    let engine = demo_engine();
    // Read-mostly traffic on price.
    for i in 0..50i64 {
        engine
            .execute("items", &Query::single(Pred::eq(1, (i % 16) * 321)))
            .unwrap();
    }
    engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
    let rec = engine.advise_design("items").unwrap();
    assert_eq!(rec.best.columns.len(), 1, "price is the only candidate");
    assert_eq!(rec.best.columns[0].col, 1);
    assert!(rec.best.columns[0].structure.is_some(), "hot column earns a structure");

    // Oracle snapshot before the switch.
    let queries = [
        Query::single(Pred::eq(1, 321i64)),
        Query::single(Pred::between(1, 100i64, 3000i64)),
        Query::default(),
    ];
    let before: Vec<Vec<Row>> = queries
        .iter()
        .map(|q| {
            let mut rows =
                engine.execute_collect("items", q).unwrap().rows.unwrap();
            rows.sort();
            rows
        })
        .collect();
    let applied = engine.apply_design("items", &rec.best).unwrap();
    assert_eq!(applied.btrees + applied.cms, 1);
    assert_eq!(applied.dropped, 0);
    let info = engine.table_info("items").unwrap();
    assert_eq!(info.secondaries + info.cms, 1);
    for (q, want) in queries.iter().zip(&before) {
        let mut rows = engine.execute_collect("items", q).unwrap().rows.unwrap();
        rows.sort();
        assert_eq!(&rows, want, "{q:?}");
    }
    // Re-applying replaces, not accumulates.
    let applied = engine.apply_design("items", &rec.best).unwrap();
    assert_eq!(applied.dropped, 1);
    let info = engine.table_info("items").unwrap();
    assert_eq!(info.secondaries + info.cms, 1);
}

#[test]
fn apply_design_spans_every_shard() {
    let engine = sharded_engine(4);
    for _ in 0..20 {
        engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
    }
    let rec = engine.advise_design("items").unwrap();
    engine.apply_design("items", &rec.best).unwrap();
    let expect = rec.best.btrees() + rec.best.cms();
    engine
        .with_each_shard("items", |_, t| {
            assert_eq!(t.secondaries().len() + t.cms().len(), expect);
        })
        .unwrap();
    // Routed queries agree with a freshly-built flat oracle.
    let q = Query::single(Pred::eq(1, 4217i64));
    let a = engine.execute_collect("items", &q).unwrap();
    let flat = demo_engine();
    let b = flat.execute_collect("items", &q).unwrap();
    let (mut ra, mut rb) = (a.rows.unwrap(), b.rows.unwrap());
    ra.sort();
    rb.sort();
    assert_eq!(ra, rb);
}

#[test]
fn apply_design_rejects_bad_columns_and_unloaded_tables() {
    let engine = demo_engine();
    let design = DesignSet {
        columns: vec![cm_advisor::ColumnDesign {
            col: 9,
            structure: Structure::BTree,
            cold_read_ms: 0.0,
            maintenance_ms: 0.0,
        }],
        read_ms: 0.0,
        write_ms: 0.0,
        total_ms: 0.0,
        working_set_pages: 0.0,
        miss_rate: 0.0,
    };
    assert!(matches!(
        engine.apply_design("items", &design),
        Err(EngineError::BadColumn { col: 9, .. })
    ));
    let schema = Arc::new(Schema::new(vec![Column::new("x", ValueType::Int)]));
    engine.create_table("empty", schema, 0, 10, 10).unwrap();
    assert!(matches!(
        engine.advise_design("empty"),
        Err(EngineError::NotLoaded(_))
    ));
}

#[test]
fn stats_stay_consistent_while_a_writer_is_active() {
    let engine = sharded_engine(2);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer_engine = engine.clone();
        let stop_ref = &stop;
        scope.spawn(move || {
            for i in 0..500i64 {
                writer_engine
                    .insert("items", vec![Value::Int(i % 100), Value::Int(i)])
                    .unwrap();
            }
            writer_engine.commit();
            stop_ref.store(true, Ordering::Release);
        });
        // Reader: aggregate stats must never go backwards and never
        // deadlock against the writer's per-shard locks.
        let mut last_rows = 0u64;
        let mut last_inserts = 0u64;
        while !stop.load(Ordering::Acquire) {
            let s = engine.stats();
            assert!(s.total_rows >= last_rows, "{} < {last_rows}", s.total_rows);
            assert!(s.inserts >= last_inserts);
            assert_eq!(s.tables, 1);
            last_rows = s.total_rows;
            last_inserts = s.inserts;
        }
    });
    let s = engine.stats();
    assert_eq!(s.inserts, 500);
    assert_eq!(s.total_rows, 5000 + 500);
    assert_eq!(engine.table_infos().len(), 1);
}

#[test]
fn too_many_shards_rejected() {
    let config = EngineConfig { shards: Rid::MAX_SHARDS + 44, ..EngineConfig::default() };
    match Engine::try_new(config) {
        Err(EngineError::TooManyShards { requested, max }) => {
            assert_eq!(requested, Rid::MAX_SHARDS + 44);
            assert_eq!(max, Rid::MAX_SHARDS);
        }
        other => panic!("expected TooManyShards, got {:?}", other.map(|_| ())),
    }
    // The boundary itself is fine.
    let config = EngineConfig { shards: Rid::MAX_SHARDS, ..EngineConfig::default() };
    assert_eq!(Engine::try_new(config).unwrap().num_shards(), Rid::MAX_SHARDS);
}

/// Every live row of the demo table, sorted: an unpredicated scan skips
/// dead slots.
fn live_rows(engine: &Engine) -> Vec<Row> {
    let mut rows = engine.execute_collect("items", &Query::default()).unwrap().rows.unwrap();
    rows.sort();
    rows
}

#[test]
fn checkpoint_races_an_active_writer_without_losing_updates() {
    // Satellite: `flush_all` (inside checkpoint) racing an active
    // writer session must lose no updates and keep stats coherent.
    let engine = demo_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
    std::thread::scope(|scope| {
        let writer_engine = engine.clone();
        scope.spawn(move || {
            let session = writer_engine.session();
            for i in 0..300i64 {
                session
                    .insert("items", vec![Value::Int(i % 100), Value::Int(20_000 + i)])
                    .unwrap();
                if i % 25 == 24 {
                    session.commit();
                }
            }
            session.commit();
        });
        for _ in 0..8 {
            engine.checkpoint();
        }
    });
    let out = engine
        .execute("items", &Query::single(Pred::between(1, 20_000i64, 20_299i64)))
        .unwrap();
    assert_eq!(out.run.matched, 300, "no writer update lost across checkpoints");
    let s = engine.stats();
    assert_eq!(s.inserts, 300);
    assert_eq!(s.total_rows, 5000 + 300);
    assert!(engine.checkpoint_count() >= 9, "base image + 8 checkpoints");
    // After the race quiesces, one flush drains every dirty page and
    // a second finds nothing left to write.
    engine.flush_pool();
    assert_eq!(engine.flush_pool().page_writes, 0, "pools fully clean after quiesce");
}

#[test]
fn recovery_replays_committed_work() {
    let engine = demo_engine();
    let session = engine.session();
    for i in 0..40i64 {
        session.insert("items", vec![Value::Int(i % 100), Value::Int(9000 + i)]).unwrap();
    }
    session.delete_where("items", &Query::single(Pred::eq(0, 17i64))).unwrap();
    session.commit();
    let expect = live_rows(&engine);

    let state = engine.crash_state(None);
    let (recovered, report) =
        Engine::recover(EngineConfig::default(), &state).unwrap();
    assert_eq!(live_rows(&recovered), expect);
    assert!(report.redone > 0);
    assert_eq!(report.undone, 0);
    assert_eq!(report.committed_txns, 1);
    assert!(report.sim_ms > 0.0, "recovery I/O is charged");
    // The recovered engine keeps working: insert + query. Category 1
    // had 50 loaded rows, one from the pre-crash loop, one now.
    recovered.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
    let out = recovered.execute("items", &Query::single(Pred::eq(0, 1i64))).unwrap();
    assert_eq!(out.run.matched, 52);
}

#[test]
fn recovery_rolls_back_the_uncommitted_tail() {
    let engine = demo_engine();
    let committed = engine.session();
    committed.insert("items", vec![Value::Int(3), Value::Int(333_333)]).unwrap();
    committed.commit();
    let expect = live_rows(&engine);

    // A second session writes — including deletes — but never commits.
    let doomed = engine.session();
    doomed.insert("items", vec![Value::Int(5), Value::Int(555_555)]).unwrap();
    doomed.delete_where("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
    assert!(doomed.txn_id().is_some());

    // Crash with the whole log surviving: commit records decide, not
    // flush timing.
    let state = engine.crash_state(Some(engine.appended_log().len() as u64));
    let (recovered, report) =
        Engine::recover(EngineConfig::default(), &state).unwrap();
    assert_eq!(
        live_rows(&recovered),
        expect,
        "uncommitted insert gone, uncommitted deletes reinstated"
    );
    assert_eq!(report.uncommitted_txns, 1);
    assert!(report.undone > 0);
}

#[test]
fn torn_log_tail_is_detected_and_truncated() {
    let engine = demo_engine();
    let session = engine.session();
    session.insert("items", vec![Value::Int(8), Value::Int(800_800)]).unwrap();
    session.commit();
    let full = engine.appended_log().len() as u64;
    // Cut mid-frame: 3 bytes short of the end rips the last frame.
    let state = engine.crash_state(Some(full - 3));
    assert_eq!(state.log.len() as u64, full - 3);
    let (recovered, report) =
        Engine::recover(EngineConfig::default(), &state).unwrap();
    assert!(report.torn, "mid-frame cut is detected by checksum");
    assert!(report.valid_bytes < report.log_bytes);
    // The recovered engine still answers queries consistently.
    let rows = live_rows(&recovered);
    assert!(rows.len() >= 5000 - 1);
}

#[test]
fn checkpoints_advance_the_redo_point() {
    let engine = demo_engine();
    let session = engine.session();
    for i in 0..30i64 {
        session.insert("items", vec![Value::Int(i % 100), Value::Int(100 + i)]).unwrap();
    }
    session.commit();
    let no_ckpt = engine.crash_state(None);
    engine.checkpoint();
    for i in 0..5i64 {
        session.insert("items", vec![Value::Int(i), Value::Int(200 + i)]).unwrap();
    }
    session.commit();
    let with_ckpt = engine.crash_state(None);
    assert!(with_ckpt.redo_lsn > no_ckpt.redo_lsn, "checkpoint advanced redo");

    let (_, rep_no) = Engine::recover(EngineConfig::default(), &no_ckpt).unwrap();
    let (eng_ck, rep_ck) = Engine::recover(EngineConfig::default(), &with_ckpt).unwrap();
    assert!(
        rep_ck.redone <= rep_no.redone + 5,
        "the checkpoint absorbed the pre-checkpoint mutations ({} vs {})",
        rep_ck.redone,
        rep_no.redone
    );
    let out = eng_ck.execute("items", &Query::single(Pred::between(1, 200i64, 204i64)));
    assert_eq!(out.unwrap().run.matched, 5);
}

#[test]
fn automatic_checkpoints_fire_on_commit() {
    let engine =
        demo_engine_with(EngineConfig { checkpoint_every: 20, ..EngineConfig::default() });
    let base_images = engine.checkpoint_count();
    let session = engine.session();
    for i in 0..60i64 {
        session.insert("items", vec![Value::Int(i % 100), Value::Int(i)]).unwrap();
        if i % 10 == 9 {
            session.commit();
        }
    }
    assert!(
        engine.checkpoint_count() > base_images,
        "commits past the record threshold checkpointed automatically"
    );
}

#[test]
fn design_changes_survive_recovery() {
    let engine = demo_engine();
    engine.create_btree("items", "price_ix", vec![1]).unwrap();
    engine.create_cm("items", "price_cm", CmSpec::single_raw(1)).unwrap();
    engine.commit();
    let state = engine.crash_state(None);
    let (recovered, _) = Engine::recover(EngineConfig::default(), &state).unwrap();
    let info = recovered.table_info("items").unwrap();
    assert_eq!(info.secondaries, 1, "B+Tree rebuilt from the design record");
    assert_eq!(info.cms, 1, "CM rebuilt from the design record");
    // The rebuilt structures are queryable.
    let out = recovered
        .execute_via(
            "items",
            AccessPath::SecondaryPipelined(0),
            &Query::single(Pred::eq(1, 4217i64)),
        )
        .unwrap();
    let direct = engine
        .execute_via(
            "items",
            AccessPath::SecondaryPipelined(0),
            &Query::single(Pred::eq(1, 4217i64)),
        )
        .unwrap();
    assert_eq!(out.run.matched, direct.run.matched);
}

#[test]
fn sharded_recovery_restores_routing() {
    let engine = demo_engine_with(EngineConfig { shards: 4, ..EngineConfig::default() });
    let session = engine.session();
    for i in 0..40i64 {
        session.insert("items", vec![Value::Int(i % 100), Value::Int(4000 + i)]).unwrap();
    }
    session.delete_where("items", &Query::single(Pred::eq(0, 66i64))).unwrap();
    session.commit();
    let expect = live_rows(&engine);
    let state = engine.crash_state(None);
    let (recovered, _) = Engine::recover(
        EngineConfig { shards: 4, ..EngineConfig::default() },
        &state,
    )
    .unwrap();
    assert_eq!(recovered.num_shards(), 4);
    assert_eq!(live_rows(&recovered), expect);
    // Point queries still route to a single shard.
    let out = recovered.execute("items", &Query::single(Pred::eq(0, 10i64))).unwrap();
    assert_eq!(out.shards.len(), 1);
    // An image spanning more shards than the new engine is rejected.
    assert!(matches!(
        Engine::recover(EngineConfig::default(), &state),
        Err(EngineError::Recovery(_))
    ));
}

// ---------------------------------------------------------- MVCC

fn mvcc_engine_with(config: EngineConfig) -> Arc<Engine> {
    demo_engine_with(EngineConfig { mvcc: true, ..config })
}

/// A hand-rolled design set (cost fields zeroed — tests apply it
/// directly rather than ranking it).
fn design_of(columns: Vec<(usize, Structure)>) -> DesignSet {
    DesignSet {
        columns: columns
            .into_iter()
            .map(|(col, structure)| cm_advisor::ColumnDesign {
                col,
                structure,
                cold_read_ms: 0.0,
                maintenance_ms: 0.0,
            })
            .collect(),
        read_ms: 0.0,
        write_ms: 0.0,
        total_ms: 0.0,
        working_set_pages: 0.0,
        miss_rate: 0.0,
    }
}

#[test]
fn mvcc_autocommit_writes_are_immediately_visible() {
    let engine = mvcc_engine_with(EngineConfig::default());
    let rid = engine.insert("items", vec![Value::Int(7), Value::Int(90_001)]).unwrap();
    let hit = engine.execute("items", &Query::single(Pred::eq(1, 90_001i64))).unwrap();
    assert_eq!(hit.run.matched, 1, "autocommit insert visible to the next query");
    engine.delete("items", rid).unwrap();
    let gone = engine.execute("items", &Query::single(Pred::eq(1, 90_001i64))).unwrap();
    assert_eq!(gone.run.matched, 0, "autocommit delete visible to the next query");
    // The version is end-stamped, not physically removed.
    assert_eq!(engine.dead_versions(), 1);
}

#[test]
fn mvcc_session_writes_invisible_until_commit() {
    let engine = mvcc_engine_with(EngineConfig::default());
    let session = engine.session();
    session.insert("items", vec![Value::Int(3), Value::Int(91_000)]).unwrap();
    session.delete_where("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
    // Pending stamps: the transaction has not committed, so readers
    // (including this session's own queries — reads run at a fresh
    // snapshot, there is no read-your-own-writes) see the old state.
    let ins = engine.execute("items", &Query::single(Pred::eq(1, 91_000i64))).unwrap();
    assert_eq!(ins.run.matched, 0, "uncommitted insert invisible");
    let del = engine.execute("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
    assert_eq!(del.run.matched, 50, "uncommitted delete invisible");
    session.commit();
    let ins = engine.execute("items", &Query::single(Pred::eq(1, 91_000i64))).unwrap();
    assert_eq!(ins.run.matched, 1, "committed insert visible");
    let del = engine.execute("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
    assert_eq!(del.run.matched, 0, "committed delete visible");
}

#[test]
fn mvcc_multi_shard_delete_where_flips_atomically() {
    let engine = mvcc_engine_with(EngineConfig { shards: 4, ..EngineConfig::default() });
    // A clustered range spanning every shard.
    let victims = engine
        .delete_where("items", &Query::single(Pred::between(0, 0i64, 99i64)))
        .unwrap();
    assert_eq!(victims.len(), 5000);
    let left = engine.execute("items", &Query::default()).unwrap();
    assert_eq!(left.run.matched, 0, "the purge is visible after the internal commit");
    assert_eq!(engine.dead_versions(), 5000);
}

#[test]
fn mvcc_full_scan_delete_where_covers_every_search_window() {
    // 250 heap pages: an MVCC victim search by full scan reads them in
    // four read-lock holds, and must find what one hold finds.
    let locking = demo_engine();
    let mvcc = mvcc_engine_with(EngineConfig::default());
    // Every row of a category has one price: take every tenth category.
    let prices = (0..100).step_by(10).map(|cat| Value::Int(cat * 100 + cat * 7 % 100)).collect();
    let q = Query::single(Pred::is_in(1, prices));
    assert_eq!(mvcc.explain("items", &q).unwrap().primary().path, AccessPath::FullScan);
    let want = locking.delete_where("items", &q).unwrap();
    assert_eq!(mvcc.delete_where("items", &q).unwrap(), want);
    let last = want.last().unwrap().local().0;
    assert_eq!(want.len(), 500, "ten categories of 50 rows");
    assert!(last >= 3 * 64 * 20, "the last victim lies in the fourth window");
    assert_eq!(mvcc.execute("items", &q).unwrap().run.matched, 0);
    assert_eq!(mvcc.execute("items", &Query::default()).unwrap().run.matched, 4500);
}

#[test]
fn mvcc_vacuum_reclaims_dead_versions() {
    let engine = mvcc_engine_with(EngineConfig::default());
    engine.delete_where("items", &Query::single(Pred::eq(0, 5i64))).unwrap();
    assert_eq!(engine.dead_versions(), 50);
    let (resolved, reclaimed) = engine.vacuum().unwrap();
    assert!(resolved >= 50, "pending end stamps rewritten to commit timestamps");
    assert_eq!(reclaimed, 50, "no live snapshot pins the versions");
    assert_eq!(engine.dead_versions(), 0);
    let stats = engine.mvcc_stats().unwrap();
    assert_eq!(stats.reclaimed_versions, 50);
    assert!(stats.vacuum_runs >= 1);
    // The reclaim is physical: a repeat vacuum finds nothing.
    assert_eq!(engine.vacuum().unwrap(), (0, 0));
    // Reads over the reclaimed range still answer correctly.
    let out = engine.execute("items", &Query::single(Pred::eq(0, 5i64))).unwrap();
    assert_eq!(out.run.matched, 0);
    assert_eq!(engine.execute("items", &Query::default()).unwrap().run.matched, 4950);
}

#[test]
fn mvcc_vacuum_spares_versions_a_live_snapshot_sees() {
    let engine = mvcc_engine_with(EngineConfig::default());
    let mv = engine.mvcc_state().unwrap().clone();
    let pin = mv.begin(); // a reader that started before the delete
    engine.delete_where("items", &Query::single(Pred::eq(0, 9i64))).unwrap();
    let (_, reclaimed) = engine.vacuum().unwrap();
    assert_eq!(reclaimed, 0, "the pinned snapshot still sees the versions");
    assert!(pin.sees(1, LIVE_TS));
    drop(pin);
    let (_, reclaimed) = engine.vacuum().unwrap();
    assert_eq!(reclaimed, 50, "reclaimable once the snapshot closes");
}

#[test]
fn mvcc_auto_vacuum_fires_on_commit_threshold() {
    let engine =
        mvcc_engine_with(EngineConfig { gc_every: 10, ..EngineConfig::default() });
    let session = engine.session();
    session.delete_where("items", &Query::single(Pred::eq(0, 3i64))).unwrap();
    session.commit();
    let stats = engine.mvcc_stats().unwrap();
    assert!(stats.vacuum_runs >= 1, "50 deletes crossed the gc_every=10 threshold");
    assert_eq!(engine.dead_versions(), 0);
}

#[test]
fn mvcc_uncommitted_delete_where_leg_error_leaves_rows_readable() {
    // First-writer-wins: a second delete_where racing the same rows
    // skips already-ended versions instead of clobbering them.
    let engine = mvcc_engine_with(EngineConfig::default());
    let s1 = engine.session();
    let v1 = s1.delete_where("items", &Query::single(Pred::eq(0, 8i64))).unwrap();
    assert_eq!(v1.len(), 50);
    let s2 = engine.session();
    let v2 = s2.delete_where("items", &Query::single(Pred::eq(0, 8i64))).unwrap();
    // s1's pending end stamps are invisible to s2's victim snapshot,
    // so s2 scans the same rows — but the write phase skips every
    // already-stamped version.
    assert!(v2.is_empty(), "second writer cannot re-delete pending-ended versions");
}

#[test]
fn mvcc_snapshot_pins_a_consistent_read_under_a_racing_purge() {
    let engine = mvcc_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let purger = engine.clone();
        let stop_ref = &stop;
        scope.spawn(move || {
            for round in 0..30i64 {
                purger
                    .delete_where("items", &Query::single(Pred::eq(0, round % 100)))
                    .unwrap();
                // The refill is one transaction, so a reader sees all
                // of it or none of it.
                let refill = purger.session();
                for i in 0..50i64 {
                    refill
                        .insert(
                            "items",
                            vec![Value::Int(round % 100), Value::Int((round % 100) * 100 + i)],
                        )
                        .unwrap();
                }
                refill.commit();
            }
            stop_ref.store(true, Ordering::Relaxed);
        });
        // Each query sees every category either fully present (50
        // rows) or fully purged (0) — never a torn prefix, even while
        // the purge's legs span both shards.
        while !stop.load(Ordering::Relaxed) {
            let out = engine
                .execute("items", &Query::single(Pred::eq(0, 17i64)))
                .unwrap();
            assert!(
                out.run.matched == 50 || out.run.matched == 0,
                "torn category read: {} rows",
                out.run.matched
            );
        }
    });
}

#[test]
fn mvcc_apply_design_stays_online_under_readers() {
    // The rebuild must hold only read locks while it builds: readers
    // that start after the rebuild begins keep completing before it
    // ends. (The pre-MVCC path takes `loaded.write()` up front, which
    // would stall every one of them for the whole rebuild.)
    let engine = mvcc_engine_with(EngineConfig::default());
    let design = design_of(vec![
        (1, Structure::BTree),
        (1, Structure::Cm(CmSpec::single_pow2(1, 4))),
    ]);
    let in_flight = std::sync::atomic::AtomicBool::new(false);
    let overlapped = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let designer = engine.clone();
        let in_flight_ref = &in_flight;
        scope.spawn(move || {
            in_flight_ref.store(true, Ordering::SeqCst);
            for _ in 0..40 {
                designer.apply_design("items", &design).unwrap();
            }
            in_flight_ref.store(false, Ordering::SeqCst);
        });
        while !in_flight.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        while in_flight.load(Ordering::SeqCst) {
            let out = engine
                .execute("items", &Query::single(Pred::eq(0, 33i64)))
                .unwrap();
            assert_eq!(out.run.matched, 50);
            if in_flight.load(Ordering::SeqCst) {
                // Started and finished while a rebuild was running.
                overlapped.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    assert!(
        overlapped.load(Ordering::Relaxed) > 0,
        "no read completed during 40 consecutive rebuilds — readers were blocked"
    );
    let info = engine.table_info("items").unwrap();
    assert_eq!((info.secondaries, info.cms), (1, 1), "the design landed");
    // The swapped-in structures answer queries.
    let out = engine
        .execute_via(
            "items",
            AccessPath::SecondarySorted(0),
            &Query::single(Pred::eq(1, 1_719i64)),
        )
        .unwrap();
    assert_eq!(out.run.matched, 50);
}

#[test]
fn mvcc_online_design_swap_indexes_rows_appended_mid_build() {
    // Rows a writer inserts (and deletes) while design swaps run must
    // end up exactly where the heap has them: appended mid-build rows
    // land in the new structures through the catch-up step, deleted
    // ones leave no posting a path could return. Three inputs: MVCC
    // with inserts only, and locking and MVCC with inserts + deletes.
    for (mvcc, deletes) in [(true, false), (false, true), (true, true)] {
        let engine = demo_engine_with(EngineConfig { mvcc, ..EngineConfig::default() });
        let mut expect: Vec<Row> = Vec::new();
        std::thread::scope(|scope| {
            let writer = engine.clone();
            let expect = &mut expect;
            scope.spawn(move || {
                for i in 0..200i64 {
                    let row = vec![Value::Int(i % 100), Value::Int(70_000 + i)];
                    let rid = writer.insert("items", row.clone()).unwrap();
                    if deletes && i % 3 == 0 {
                        writer.delete("items", rid).unwrap();
                    } else {
                        expect.push(row);
                    }
                }
            });
            let design = design_of(vec![
                (1, Structure::BTree),
                (1, Structure::Cm(CmSpec::single_raw(1))),
            ]);
            for _ in 0..10 {
                engine.apply_design("items", &design).unwrap();
            }
        });
        expect.sort();
        let q = Query::single(Pred::between(1, 70_000i64, 70_199i64));
        for path in [AccessPath::SecondarySorted(0), AccessPath::CmScan(0), AccessPath::FullScan] {
            let mut rows = engine.execute_via_collect("items", path, &q).unwrap().rows.unwrap();
            rows.sort();
            assert_eq!(rows, expect, "mvcc={mvcc} deletes={deletes} {path:?}");
        }
    }
}

#[test]
fn table_infos_and_stats_stay_coherent_under_an_active_writer() {
    // Satellite: the stats snapshot path (catalog read lock, then
    // per-entry reads) must neither deadlock with nor tear against a
    // writer holding shard write locks.
    let engine = demo_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
    std::thread::scope(|scope| {
        let writer = engine.clone();
        scope.spawn(move || {
            let session = writer.session();
            for i in 0..400i64 {
                session
                    .insert("items", vec![Value::Int(i % 100), Value::Int(40_000 + i)])
                    .unwrap();
                if i % 50 == 49 {
                    session.commit();
                }
            }
            session.commit();
        });
        for _ in 0..200 {
            let infos = engine.table_infos();
            assert_eq!(infos.len(), 1);
            assert!(
                (5000..=5400).contains(&infos[0].rows),
                "row count within the write window: {}",
                infos[0].rows
            );
            let s = engine.stats();
            assert!(s.total_rows >= 5000);
            assert!(s.inserts <= 400);
        }
    });
    assert_eq!(engine.table_infos()[0].rows, 5400);
    assert_eq!(engine.stats().inserts, 400);
}

#[test]
fn mvcc_recovery_restores_the_committed_prefix_and_clock() {
    let config = EngineConfig { mvcc: true, ..EngineConfig::default() };
    let engine = mvcc_engine_with(EngineConfig::default());
    let committed = engine.session();
    for i in 0..30i64 {
        committed
            .insert("items", vec![Value::Int(i % 100), Value::Int(50_000 + i)])
            .unwrap();
    }
    committed.delete_where("items", &Query::single(Pred::eq(0, 77i64))).unwrap();
    committed.commit();
    let expect = live_rows(&engine);
    // An uncommitted tail that must vanish.
    let doomed = engine.session();
    doomed.insert("items", vec![Value::Int(1), Value::Int(60_000)]).unwrap();
    doomed.delete_where("items", &Query::single(Pred::eq(0, 50i64))).unwrap();
    let clock_before = engine.mvcc_stats().unwrap().clock;
    // Cut at the appended end: the doomed records survive the crash
    // and must be rolled back by undo (their commit never logged).
    let state = engine.crash_state(Some(engine.appended_log().len() as u64));
    let (recovered, report) = Engine::recover(config, &state).unwrap();
    assert_eq!(live_rows(&recovered), expect);
    assert!(report.uncommitted_txns >= 1);
    let clock_after = recovered.mvcc_stats().unwrap().clock;
    assert!(
        clock_after >= clock_before.saturating_sub(1),
        "clock restored past the last durable commit: {clock_after} vs {clock_before}"
    );
    // The survivor allocates fresh timestamps and stays MVCC.
    recovered.insert("items", vec![Value::Int(2), Value::Int(61_000)]).unwrap();
    let hit = recovered
        .execute("items", &Query::single(Pred::eq(1, 61_000i64)))
        .unwrap();
    assert_eq!(hit.run.matched, 1);
    assert!(recovered.mvcc_stats().unwrap().clock > clock_after);
}

#[test]
fn mvcc_checkpoint_image_does_not_resurrect_committed_deletes() {
    // A committed MVCC delete leaves real bytes end-stamped in the
    // heap. A checkpoint image taken after it must materialize the
    // slot as a tombstone: the delete record precedes `redo_lsn`, so
    // nothing replays it.
    let config = EngineConfig { mvcc: true, ..EngineConfig::default() };
    let engine = mvcc_engine_with(EngineConfig::default());
    let session = engine.session();
    session.delete_where("items", &Query::single(Pred::eq(0, 21i64))).unwrap();
    session.commit();
    engine.checkpoint();
    let expect = live_rows(&engine);
    let state = engine.crash_state(None);
    let (recovered, _) = Engine::recover(config, &state).unwrap();
    assert_eq!(live_rows(&recovered), expect);
    let out = recovered.execute("items", &Query::single(Pred::eq(0, 21i64))).unwrap();
    assert_eq!(out.run.matched, 0, "the purged category stays purged");
}

#[test]
fn insert_many_spans_shards_and_preserves_order() {
    let engine = demo_engine_with(EngineConfig { shards: 4, ..EngineConfig::default() });
    let rows: Vec<Row> = (0..300i64)
        .map(|i| vec![Value::Int(i % 100), Value::Int(90_000 + i)])
        .collect();
    let rids = engine.insert_many("items", rows).unwrap();
    assert_eq!(rids.len(), 300);
    // Returned rids line up with input order even though the rows
    // interleave across all four shards: deleting by the i-th rid
    // must yield the i-th row.
    let sampled: Vec<usize> = (0..300).step_by(37).collect();
    for &i in &sampled {
        let row = engine.delete("items", rids[i]).unwrap();
        assert_eq!(row[1], Value::Int(90_000 + i as i64), "rid {i} maps to its row");
    }
    let out = engine
        .execute("items", &Query::single(Pred::between(1, 90_000i64, 90_299i64)))
        .unwrap();
    assert_eq!(out.run.matched as usize, 300 - sampled.len());
    assert_eq!(engine.stats().inserts, 300);
}

#[test]
fn insert_many_txn_stays_invisible_until_commit() {
    let engine = mvcc_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
    let txn = engine.alloc_txn();
    let rows: Vec<Row> = (0..150i64)
        .map(|i| vec![Value::Int(i % 100), Value::Int(70_000 + i)])
        .collect();
    engine.insert_many_txn("items", rows, txn).unwrap();
    let probe = Query::single(Pred::between(1, 70_000i64, 70_149i64));
    let hidden = engine.execute("items", &probe).unwrap();
    assert_eq!(hidden.run.matched, 0, "pending batch is invisible to snapshots");
    engine.log_commit(txn);
    let seen = engine.execute("items", &probe).unwrap();
    assert_eq!(seen.run.matched, 150, "committed batch is fully visible");
}

#[test]
fn a_dead_slot_is_known_by_its_stamp_not_its_values() {
    for mvcc in [false, true] {
        let engine = demo_engine_with(EngineConfig { mvcc, ..EngineConfig::default() });
        let gone = engine.delete_where("items", &Query::single(Pred::eq(0, 7i64))).unwrap();
        assert_eq!(gone.len(), 50, "mvcc={mvcc}");
        // MVCC: reclaim the ended versions, so their slots are dead too.
        engine.vacuum().unwrap();
        let count = |engine: &Engine| {
            let spec = AggSpec::new(Vec::new(), vec![AggFunc::Count]);
            engine.aggregate("items", &Query::default(), &spec).unwrap().rows[0][0].clone()
        };
        assert_eq!(live_rows(&engine).len(), 4950, "mvcc={mvcc}: a scan skips dead slots");
        assert_eq!(count(&engine), Value::Int(4950), "mvcc={mvcc}");
        assert!(
            matches!(engine.delete("items", gone[0]), Err(EngineError::BadRid { .. })),
            "mvcc={mvcc}: a dead slot cannot be deleted twice"
        );
        // An all-NULL row is a row: scanned, counted, indexed.
        engine.insert("items", vec![Value::Null, Value::Null]).unwrap();
        engine.commit();
        assert_eq!(live_rows(&engine).len(), 4951, "mvcc={mvcc}");
        assert_eq!(count(&engine), Value::Int(4951), "mvcc={mvcc}");
        let ix = engine.create_btree("items", "price_ix", vec![1]).unwrap();
        let entries = engine.with_table("items", |t| t.secondary(ix).entries()).unwrap();
        assert_eq!(entries, 4951, "mvcc={mvcc}: the all-NULL row is indexed");
        let victims = engine.delete_where("items", &Query::default()).unwrap();
        assert_eq!(victims.len(), 4951, "mvcc={mvcc}: only live victims");
    }
}
