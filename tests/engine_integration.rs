//! Integration: the `cm-engine` facade end to end — catalog, loading,
//! cost-based access-path routing, result correctness against a full-scan
//! oracle, maintenance consistency under inserts/deletes, and concurrent
//! sessions over one engine.

use cm_bench::{run_mixed, MixedWorkloadConfig};
use cm_core::CmSpec;
use cm_datagen::tpch::{self, tpch_lineitem, TpchConfig};
use cm_engine::{AggFunc, AggSpec, Engine, EngineConfig, JoinQuery, JoinStrategy};
use cm_query::{AccessPath, Pred, Query};
use cm_storage::{Column, Row, Schema, Value, ValueType};
use std::sync::Arc;

/// A TPC-H lineitem table served by an engine: clustered on receiptdate,
/// with a B+Tree and a CM on the correlated shipdate column.
fn tpch_engine() -> (Arc<Engine>, cm_datagen::TpchData, usize, usize) {
    tpch_engine_with(30_000)
}

fn tpch_engine_with(rows: usize) -> (Arc<Engine>, cm_datagen::TpchData, usize, usize) {
    let data = tpch_lineitem(TpchConfig { rows, parts: 1_000, suppliers: 50, seed: 77 });
    let engine = Engine::new(EngineConfig::default());
    engine
        .create_table("lineitem", data.schema.clone(), tpch::COL_RECEIPTDATE, 60, 600)
        .unwrap();
    engine.load("lineitem", data.rows.clone()).unwrap();
    let sec = engine.create_btree("lineitem", "ship_idx", vec![tpch::COL_SHIPDATE]).unwrap();
    let cm = engine
        .create_cm("lineitem", "ship_cm", CmSpec::single_raw(tpch::COL_SHIPDATE))
        .unwrap();
    (engine, data, sec, cm)
}

#[test]
fn cm_and_btree_routes_match_full_scan_oracle() {
    let (engine, data, sec, cm) = tpch_engine();
    let queries = [
        Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(5, 3))),
        Query::single(Pred::eq(
            tpch::COL_SHIPDATE,
            data.rows[17][tpch::COL_SHIPDATE].clone(),
        )),
        Query::new(vec![
            Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(3, 9)),
            Pred::between(tpch::COL_QUANTITY, 1i64, 25i64),
        ]),
    ];
    for q in &queries {
        let oracle = engine
            .execute_via_collect("lineitem", AccessPath::FullScan, q)
            .unwrap();
        for path in [
            AccessPath::CmScan(cm),
            AccessPath::SecondarySorted(sec),
            AccessPath::SecondaryPipelined(sec),
        ] {
            let got = engine.execute_via_collect("lineitem", path, q).unwrap();
            assert_eq!(got.run.matched, oracle.run.matched, "{path:?} {q:?}");
            let mut a = got.rows.unwrap();
            let mut b = oracle.rows.clone().unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{path:?} returns the oracle's rows for {q:?}");
        }
    }
}

#[test]
fn cost_model_routes_by_selectivity() {
    // Large enough that a full scan (2000 pages, ~156 ms) clearly exceeds
    // a few CM bucket visits — at tiny scale every estimate collapses to
    // the scan ceiling and the planner rightly just scans.
    let (engine, data, _sec, cm) = tpch_engine_with(120_000);

    // A selective lookup (a handful of shipdates out of ~2500 distinct)
    // must leave the scan behind and go through the correlated CM.
    let selective = Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(1, 4)));
    let out = engine.execute("lineitem", &selective).unwrap();
    assert_eq!(
        out.plan.path,
        AccessPath::CmScan(cm),
        "selective predicate routes to the CM; alts {:?}",
        out.plan.alternatives
    );

    // A predicate spanning the whole shipdate domain degenerates to a
    // full scan (the cost model's scan ceiling).
    let wide = Query::single(Pred::between(
        tpch::COL_SHIPDATE,
        Value::Date(0),
        Value::Date(100_000),
    ));
    let out = engine.execute("lineitem", &wide).unwrap();
    assert_eq!(
        out.plan.path,
        AccessPath::FullScan,
        "wide predicate routes to the scan; alts {:?}",
        out.plan.alternatives
    );

    let routes = engine.route_counts();
    assert_eq!(routes.cm_scan, 1);
    assert_eq!(routes.full_scan, 1);
}

#[test]
fn chosen_path_estimate_is_cheapest_candidate() {
    let (engine, data, _sec, _cm) = tpch_engine();
    let q = Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(8, 1)));
    let plan = engine.explain("lineitem", &q).unwrap().primary();
    for (alt, est) in &plan.alternatives {
        assert!(
            plan.est_ms <= *est + 1e-9,
            "chosen {:?} ({} ms) beats {alt:?} ({est} ms)",
            plan.path,
            plan.est_ms
        );
    }
}

#[test]
fn inserts_and_deletes_keep_cm_routed_results_consistent() {
    let (engine, data, _sec, _cm) = tpch_engine();
    let q = Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(5, 5)));

    for batch_no in 0..3u64 {
        // Insert a batch through the engine (resampled real rows, so some
        // hit the queried shipdates).
        for row in data.insert_batch(500, batch_no) {
            engine.insert("lineitem", row).unwrap();
        }
        engine.commit();

        // Delete a stripe of rows by predicate.
        if batch_no == 1 {
            let victims = engine
                .delete_where(
                    "lineitem",
                    &Query::single(Pred::eq(
                        tpch::COL_SUPPKEY,
                        Value::Int(7 + batch_no as i64),
                    )),
                )
                .unwrap();
            assert!(!victims.is_empty());
        }

        // After every batch, the CM-routed result equals the oracle.
        let oracle = engine
            .execute_via("lineitem", AccessPath::FullScan, &q)
            .unwrap();
        let routed = engine.execute("lineitem", &q).unwrap();
        assert_eq!(routed.run.matched, oracle.run.matched, "batch {batch_no}");
    }

    // The maintained CM equals one rebuilt from the surviving rows.
    engine
        .with_table("lineitem", |t| {
            let mut rebuilt = cm_core::CorrelationMap::new(
                "rebuilt",
                CmSpec::single_raw(tpch::COL_SHIPDATE),
            );
            for rid in t.live_rids(0) {
                rebuilt.insert(&t.heap().peek(rid).unwrap(), rid, t.dir());
            }
            let maintained = t.cm(0);
            assert_eq!(maintained.num_keys(), rebuilt.num_keys());
            assert_eq!(maintained.num_pairs(), rebuilt.num_pairs());
        })
        .unwrap();
}

#[test]
fn concurrent_mixed_workload_stays_consistent() {
    let (engine, data, _sec, _cm) = tpch_engine();
    let reads: Vec<Query> = (0..10)
        .map(|i| Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(2, i))))
        .collect();
    let fresh = data.clone();
    let report = run_mixed(
        &engine,
        &MixedWorkloadConfig {
            table: "lineitem".into(),
            reads,
            insert_rows: fresh.insert_batch(2_000, 99),
            read_fraction: 0.9,
            ops: 600,
            threads: 4,
            commit_every: 20,
            seed: 0xBEEF,
            advise_after: None,
        },
    )
    .unwrap();
    assert_eq!(report.ops, 600);
    assert!(report.reads > 0 && report.writes > 0);
    assert_eq!(report.routes.total(), report.reads);

    // Every inserted row is visible and every path still agrees.
    let q = Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(4, 2)));
    let oracle = engine.execute_via("lineitem", AccessPath::FullScan, &q).unwrap();
    let routed = engine.execute("lineitem", &q).unwrap();
    assert_eq!(routed.run.matched, oracle.run.matched);
    assert_eq!(engine.stats().inserts, report.writes);
}

#[test]
fn sharded_engine_mixed_workload_matches_oracle() {
    // Same TPC-H table, partitioned across 4 shards: the concurrent
    // mixed workload must stay consistent, reads must fan out only to
    // the shards they overlap, and group commit must account for every
    // session commit.
    let data = tpch_lineitem(TpchConfig { rows: 30_000, parts: 1_000, suppliers: 50, seed: 77 });
    let engine = Engine::new(EngineConfig { shards: 4, ..EngineConfig::default() });
    engine
        .create_table("lineitem", data.schema.clone(), tpch::COL_RECEIPTDATE, 60, 600)
        .unwrap();
    engine.load("lineitem", data.rows.clone()).unwrap();
    engine
        .create_cm("lineitem", "ship_cm", CmSpec::single_raw(tpch::COL_SHIPDATE))
        .unwrap();
    assert_eq!(engine.table_info("lineitem").unwrap().shards, 4);

    let reads: Vec<Query> = (0..10)
        .map(|i| Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(2, i))))
        .collect();
    let fresh = data.clone();
    let report = run_mixed(
        &engine,
        &MixedWorkloadConfig {
            table: "lineitem".into(),
            reads,
            insert_rows: fresh.insert_batch(2_000, 99),
            read_fraction: 0.5,
            ops: 600,
            threads: 4,
            commit_every: 20,
            seed: 0xBEEF,
            advise_after: None,
        },
    )
    .unwrap();
    assert_eq!(report.ops, 600);
    assert_eq!(report.per_shard_io.len(), 4);
    assert!(
        report.per_shard_io.iter().filter(|io| io.pages() > 0).count() >= 2,
        "traffic lands on multiple shards"
    );
    assert!(report.sim_makespan_ms <= report.io.elapsed_ms + 1e-9);
    assert_eq!(report.wal.commit_requests, report.wal.flushes + report.wal.absorbed);

    // Every path agrees with the full-scan oracle after the run.
    let q = Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(4, 2)));
    let oracle = engine.execute_via("lineitem", AccessPath::FullScan, &q).unwrap();
    let routed = engine.execute("lineitem", &q).unwrap();
    assert_eq!(routed.run.matched, oracle.run.matched);
    assert_eq!(engine.stats().inserts, report.writes);

    // A clustered-range query prunes shards.
    let dates = data.random_shipdates(1, 5);
    let clustered = Query::single(Pred::between(
        tpch::COL_RECEIPTDATE,
        dates[0].clone(),
        dates[0].clone(),
    ));
    assert_eq!(engine.route_shards("lineitem", &clustered).unwrap().len(), 1);
}

fn two_int_schema(a: &str, b: &str) -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new(a, ValueType::Int),
        Column::new(b, ValueType::Int),
    ]))
}

/// All live rows of a table: an unpredicated scan skips dead slots.
fn live_rows(engine: &Engine, table: &str) -> Vec<Row> {
    engine.execute_collect(table, &Query::default()).unwrap().rows.unwrap()
}

fn nested_loop(left: &[Row], right: &[Row], jq: &JoinQuery) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    for l in left.iter().filter(|r| jq.left_filter.matches(r)) {
        for r in right.iter().filter(|r| jq.right_filter.matches(r)) {
            if l[jq.left_col] == r[jq.right_col] {
                let mut row = l.clone();
                row.extend_from_slice(r);
                out.push(row);
            }
        }
    }
    out.sort();
    out
}

/// Kill–replay for joins: kill an MVCC engine at several log offsets —
/// after a committed batch, inside an uncommitted tail — recover, and
/// join the two recovered tables. At every cut the join must equal a
/// nested-loop over the recovered tables' live rows, and no row of the
/// never-committed batch may ever appear in the output: the join sees
/// exactly the committed snapshot the recovery rebuilt.
#[test]
fn join_after_crash_sees_only_the_committed_snapshot() {
    let config = EngineConfig { shards: 2, mvcc: true, ..EngineConfig::default() };
    let engine = Engine::new(config.clone());
    engine.create_table("orders", two_int_schema("cust", "qty"), 0, 8, 16).unwrap();
    engine.create_table("cust", two_int_schema("cust", "region"), 0, 8, 16).unwrap();
    let orders: Vec<Row> = (0..240i64)
        .map(|i| vec![Value::Int(i % 30), Value::Int(i)])
        .collect();
    let custs: Vec<Row> = (0..30i64)
        .map(|c| vec![Value::Int(c), Value::Int(c % 4)])
        .collect();
    engine.load("orders", orders).unwrap();
    engine.load("cust", custs).unwrap();

    // Batch A commits; batch B never does (qty markers tell them apart).
    let session = engine.session();
    for i in 0..40i64 {
        session.insert("orders", vec![Value::Int(i % 30), Value::Int(10_000 + i)]).unwrap();
    }
    session.commit();
    for i in 0..40i64 {
        session.insert("orders", vec![Value::Int(i % 30), Value::Int(20_000 + i)]).unwrap();
    }

    let jq = JoinQuery::on(0, 0);
    let full = engine.appended_log().len() as u64;
    for frac in [0u64, 400, 800, 1000] {
        let state = engine.crash_state(Some(full * frac / 1000));
        let (recovered, _) = Engine::recover(config.clone(), &state).unwrap();
        let want = nested_loop(&live_rows(&recovered, "orders"), &live_rows(&recovered, "cust"), &jq);
        let out = recovered.join_collect("orders", "cust", &jq).unwrap();
        let mut got = out.rows.unwrap();
        got.sort();
        assert_eq!(got, want, "join equals the recovered tables at cut {frac}/1000");
        assert!(
            got.iter().all(|r| r[1] < Value::Int(20_000)),
            "no uncommitted row ever joins (cut {frac}/1000)"
        );
        if frac == 1000 {
            let committed = got.iter().filter(|r| r[1] >= Value::Int(10_000)).count();
            assert_eq!(committed, 40, "every committed insert joins after a clean cut");
        }
    }
}

/// Determinism regression for the explicit leg merge key: the same join
/// and aggregation must return byte-identical rows *in the same order*
/// on a 1-worker and an 8-worker engine — merge order is the legs'
/// merge keys, never their completion order.
#[test]
fn join_and_aggregate_order_is_stable_across_worker_counts() {
    let build = |workers: usize| {
        let engine =
            Engine::new(EngineConfig { shards: 8, workers, ..EngineConfig::default() });
        engine.create_table("l", two_int_schema("k", "v"), 0, 8, 16).unwrap();
        engine.create_table("r", two_int_schema("k", "w"), 0, 8, 16).unwrap();
        let lrows: Vec<Row> = (0..800i64)
            .map(|i| vec![Value::Int(i % 40), Value::Int(i)])
            .collect();
        let rrows: Vec<Row> = (0..300i64)
            .map(|i| vec![Value::Int(i % 50), Value::Int(i % 7)])
            .collect();
        engine.load("l", lrows).unwrap();
        engine.load("r", rrows).unwrap();
        engine.create_cm("l", "k_cm", CmSpec::single_raw(0)).unwrap();
        engine
    };
    let seq = build(1);
    let par = build(8);
    let jq = JoinQuery::on(0, 0);
    let spec = AggSpec::new(vec![1], vec![AggFunc::Count, AggFunc::Sum(0)]);
    let want_join = seq.join_collect("l", "r", &jq).unwrap().rows.unwrap();
    let want_clamp =
        seq.join_via_collect("l", "r", &jq, JoinStrategy::CmClamp(0)).unwrap().rows.unwrap();
    let want_agg = seq.aggregate("r", &Query::default(), &spec).unwrap().rows;
    // Re-run the parallel engine a few times: a completion-order merge
    // would be flaky, a merge-key merge is byte-stable.
    for round in 0..5 {
        let join = par.join_collect("l", "r", &jq).unwrap().rows.unwrap();
        assert_eq!(join, want_join, "hash join row order (round {round})");
        let clamp = par
            .join_via_collect("l", "r", &jq, JoinStrategy::CmClamp(0))
            .unwrap()
            .rows
            .unwrap();
        assert_eq!(clamp, want_clamp, "clamped join row order (round {round})");
        let agg = par.aggregate("r", &Query::default(), &spec).unwrap().rows;
        assert_eq!(agg, want_agg, "aggregate row order (round {round})");
    }
}

#[test]
fn multi_table_catalog_is_independent() {
    let (engine, _data, _sec, _cm) = tpch_engine();
    let ebay = cm_datagen::ebay::ebay(cm_datagen::ebay::EbayConfig {
        categories: 100,
        min_items: 5,
        max_items: 10,
        seed: 5,
    });
    engine
        .create_table("items", ebay.schema.clone(), cm_datagen::ebay::COL_CATID, 90, 450)
        .unwrap();
    engine.load("items", ebay.rows.clone()).unwrap();
    engine
        .create_cm("items", "price_cm", CmSpec::single_pow2(cm_datagen::ebay::COL_PRICE, 12))
        .unwrap();
    assert_eq!(engine.tables(), vec!["items".to_string(), "lineitem".to_string()]);
    let items = engine.table_info("items").unwrap();
    let lineitem = engine.table_info("lineitem").unwrap();
    assert_eq!(items.cms, 1);
    assert_eq!(lineitem.secondaries, 1);
    let out = engine
        .execute(
            "items",
            &Query::single(Pred::between(cm_datagen::ebay::COL_PRICE, 0i64, 1_000_000i64)),
        )
        .unwrap();
    assert_eq!(out.run.matched, items.rows);
}
