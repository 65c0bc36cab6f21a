//! **Join benchmark** — partitioned hash join vs the correlation-clamped
//! probe on TPC-H-shaped keys, with the planner choosing between them.
//!
//! The paper's CMs accelerate single-table lookups on attributes
//! correlated with the clustered key. The same map prices and
//! accelerates a *join* probe: the distinct build keys become one wide
//! `IN` over the probe table's CM, clamping the probe scan to the
//! co-clustered bucket ranges. On `lineitem` clustered by receiptdate:
//!
//! * joining a date dimension on **shipdate** (tightly correlated with
//!   receiptdate, §3.3's few-day lag) clamps to a handful of buckets —
//!   the clamp must beat the full probe scan on measured simulated I/O,
//!   and the planner must select it from exact CM lookups, unforced;
//! * joining a part dimension on **partkey** (uncorrelated with
//!   receiptdate) maps every build key to buckets spread across the
//!   whole heap — the clamp estimate exceeds the scan and the planner
//!   must fall back to the hash probe.
//!
//! A fresh engine per measured run keeps buffer-pool warmth from leaking
//! between strategies. A grouped-aggregation coda shows the same
//! fan-out/merge machinery cutting multi-shard latency with workers.

use crate::datasets::BenchScale;
use crate::report::{ms, Report};
use cm_core::CmSpec;
use cm_datagen::tpch::{self, tpch_lineitem, TpchConfig};
use cm_engine::{AggFunc, AggSpec, Engine, EngineConfig, JoinOutcome, JoinQuery, JoinStrategy};
use cm_query::Query;
use cm_storage::{Column, Row, Schema, Value, ValueType};
use std::sync::Arc;

const SHARDS: usize = 4;
const WORKERS: usize = 4;

struct Setup {
    data: cm_datagen::TpchData,
    ship_keys: Vec<Value>,
    part_keys: Vec<Value>,
}

fn setup(scale: BenchScale) -> Setup {
    let data = tpch_lineitem(TpchConfig {
        rows: scale.n(120_000, 2_500),
        parts: 1_000,
        suppliers: 50,
        seed: 77,
    });
    let ship_keys = data.random_shipdates(scale.n(6, 3), 11);
    let part_keys: Vec<Value> = (0..scale.n(6, 3) as i64)
        .map(|i| Value::Int((i * 157) % 1_000))
        .collect();
    Setup { data, ship_keys, part_keys }
}

/// A fresh engine: `lineitem` clustered on receiptdate with CMs on the
/// two join columns, plus one two-column dimension table per key set.
fn build_engine(s: &Setup) -> Arc<Engine> {
    let engine = setup_engine_workers(s, WORKERS);
    engine
        .create_cm("lineitem", "ship_cm", CmSpec::single_raw(tpch::COL_SHIPDATE))
        .expect("CM");
    engine
        .create_cm("lineitem", "part_cm", CmSpec::single_raw(tpch::COL_PARTKEY))
        .expect("CM");

    for (name, col_name, ty, keys) in [
        ("ship_dim", "shipdate", ValueType::Date, &s.ship_keys),
        ("part_dim", "partkey", ValueType::Int, &s.part_keys),
    ] {
        let schema = Arc::new(Schema::new(vec![
            Column::new(col_name, ty),
            Column::new("note", ValueType::Int),
        ]));
        engine.create_table(name, schema, 0, 20, 40).expect("fresh catalog");
        let rows: Vec<Row> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![k.clone(), Value::Int(i as i64)])
            .collect();
        engine.load(name, rows).expect("rows conform");
    }
    engine
}

fn join_row(out: &JoinOutcome) -> Vec<String> {
    let est_cm = out.est_cm_ms.map_or("-".to_string(), ms);
    vec![
        out.strategy.to_string(),
        ms(out.est_hash_ms),
        est_cm,
        ms(out.probe_run.io.elapsed_ms),
        out.probe_run.io.pages().to_string(),
        format!("{:.3}", out.probe_run.io.seeks_per_page()),
        out.matched.to_string(),
        out.build_rows.to_string(),
    ]
}

/// Run the benchmark.
pub fn run(scale: BenchScale) -> Report {
    let s = setup(scale);
    let mut report = Report::new(
        "engine_join",
        "hash join vs correlation-clamped probe on TPC-H lineitem (clustered on \
         receiptdate), dimension joins on a correlated key (shipdate) and an \
         uncorrelated key (partkey), planner-selected per query",
        "shipdate co-clusters with receiptdate (§3.3's few-day receipt lag), so \
         clamping the probe to the build keys' CM buckets reads a handful of \
         sequential runs instead of the whole heap; partkey is uncorrelated, its \
         buckets span the heap, and the cost model must send that join back to \
         the full hash probe",
        vec![
            "join / strategy",
            "ran",
            "est hash probe",
            "est cm probe",
            "probe (sim)",
            "probe pages",
            "seeks/page",
            "out rows",
            "build rows",
        ],
    );

    let mut measured: Vec<(String, JoinOutcome)> = Vec::new();
    // CM ids follow creation order in `build_engine`: ship_cm, part_cm.
    for (label, dim, jq, cm_id) in [
        ("shipdate", "ship_dim", JoinQuery::on(tpch::COL_SHIPDATE, 0), 0usize),
        ("partkey", "part_dim", JoinQuery::on(tpch::COL_PARTKEY, 0), 1usize),
    ] {
        let runs: [(&str, Option<JoinStrategy>); 3] = [
            ("hash (forced)", Some(JoinStrategy::Hash)),
            ("cm-clamp (forced)", Some(JoinStrategy::CmClamp(cm_id))),
            ("planner", None),
        ];
        for (tag, forced) in runs {
            let engine = build_engine(&s);
            let out = match forced {
                Some(strategy) => engine.join_via("lineitem", dim, &jq, strategy),
                None => engine.join("lineitem", dim, &jq),
            }
            .expect("join runs");
            report.push(format!("{label} {tag}"), join_row(&out));
            measured.push((format!("{label} {tag}"), out));
        }
    }

    let get = |name: &str| -> &JoinOutcome {
        &measured.iter().find(|(l, _)| l == name).expect("row present").1
    };
    // Every strategy must agree on the join's cardinality.
    for key in ["shipdate", "partkey"] {
        let hash = get(&format!("{key} hash (forced)")).matched;
        let clamp = get(&format!("{key} cm-clamp (forced)")).matched;
        let auto = get(&format!("{key} planner")).matched;
        assert!(
            hash == clamp && clamp == auto,
            "{key}: strategies disagree on cardinality ({hash}/{clamp}/{auto})"
        );
    }

    let ship_hash = get("shipdate hash (forced)").probe_run.io.elapsed_ms;
    let ship_clamp = get("shipdate cm-clamp (forced)").probe_run.io.elapsed_ms;
    let ship_auto = get("shipdate planner").strategy;
    let part_auto = get("partkey planner").strategy;
    if matches!(scale, BenchScale::Full) {
        // The headline gates: the clamp's measured win on the correlated
        // key, selected by the planner, and the hash fallback on the
        // uncorrelated one. Only asserted at full scale — at smoke scale
        // the whole heap fits in a handful of buckets and every estimate
        // collapses to the scan ceiling.
        assert!(
            ship_clamp < 0.5 * ship_hash,
            "correlated clamp must beat the hash probe ({ship_clamp} vs {ship_hash} ms)"
        );
        assert!(
            matches!(ship_auto, JoinStrategy::CmClamp(_)),
            "planner selects the clamp on shipdate, got {ship_auto}"
        );
        assert_eq!(
            part_auto,
            JoinStrategy::Hash,
            "planner falls back to hash on the uncorrelated partkey"
        );
    }

    // ---- grouped-aggregation coda: fan-out on the same machinery ------
    let spec = AggSpec::new(
        vec![tpch::COL_SUPPKEY],
        vec![AggFunc::Count, AggFunc::Sum(tpch::COL_QUANTITY)],
    );
    let mut agg_ms = Vec::new();
    for workers in [1usize, WORKERS] {
        let engine = setup_engine_workers(&s, workers);
        let out = engine.aggregate("lineitem", &Query::default(), &spec).expect("agg runs");
        agg_ms.push(out.parallel_ms);
        report.push(
            format!("group-by suppkey x {workers} worker(s)"),
            vec![
                "agg".into(),
                "-".into(),
                "-".into(),
                ms(out.parallel_ms),
                out.run.io.pages().to_string(),
                format!("{:.3}", out.run.io.seeks_per_page()),
                out.rows.len().to_string(),
                "-".into(),
            ],
        );
    }

    report.commentary = format!(
        "correlated shipdate join: clamp probe {} vs hash probe {} ({:.1}x), planner \
         picked {}; uncorrelated partkey join: planner fell back to {}; grouped \
         aggregation makespan {} at 1 worker vs {} at {} workers over {} shards",
        ms(ship_clamp),
        ms(ship_hash),
        ship_hash / ship_clamp.max(1e-9),
        ship_auto,
        part_auto,
        ms(agg_ms[0]),
        ms(agg_ms[1]),
        WORKERS,
        SHARDS,
    );
    report
}

/// A fresh lineitem-only engine at a given worker count (the
/// aggregation coda varies workers, not data).
fn setup_engine_workers(s: &Setup, workers: usize) -> Arc<Engine> {
    let engine = Engine::new(EngineConfig {
        shards: SHARDS,
        workers,
        ..EngineConfig::default()
    });
    engine
        .create_table("lineitem", s.data.schema.clone(), tpch::COL_RECEIPTDATE, 60, 600)
        .expect("fresh catalog");
    engine.load("lineitem", s.data.rows.clone()).expect("rows conform");
    engine
}
