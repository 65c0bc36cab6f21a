//! Differential join oracle: random data, shard counts, join columns,
//! and side filters through [`cm_engine::Engine::join`] — the planner's
//! pick, a forced hash probe, and a forced correlation-clamped probe —
//! must all return exactly the rows of a naive nested-loop reference
//! join. The generators force the interesting shapes: duplicate join
//! keys (cross-product fan-out within a key), right-side keys outside
//! the left domain (empty-match rows), filters that empty one side
//! (probe phase must be skipped, not crash), self-joins (one table-level
//! guard), and MVCC on/off at 1–8 shards.
//!
//! Three cases in four first run a DML prelude ([`dml_prelude`]) on
//! each table — committed deletes by RID and by `delete_where`,
//! autocommit inserts, perhaps a vacuum, and one open session holding a
//! pending insert and a pending delete in both — and the oracle joins
//! the rows a fresh snapshot sees (without MVCC: the rows the tables
//! hold), so probes also run on pages that are not all-visible and on
//! the sparse batches a full scan hands on from them.
//!
//! Case count is `JOIN_PROP_CASES` (default 48) so CI smoke jobs can run
//! a reduced sweep.

mod dml_prelude;

use cm_core::CmSpec;
use cm_engine::{Engine, EngineConfig, JoinQuery, JoinStrategy};
use cm_query::{Pred, Query};
use cm_storage::{Column, Row, Schema, Value, ValueType};
use dml_prelude::Script;
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
    ]))
}

fn right_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("k", ValueType::Int),
        Column::new("w", ValueType::Int),
        Column::new("tag", ValueType::Int),
    ]))
}

/// Left rows over a small key domain (0..30): duplicates are the norm,
/// and the first row is cloned three extra times so even proptest's
/// minimal cases exercise duplicate-key fan-out.
fn left_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((0i64..30, 0i64..30), 1..150).prop_map(|v| {
        let mut rows: Vec<Row> = v
            .into_iter()
            .map(|(k, a)| vec![Value::Int(k), Value::Int(a)])
            .collect();
        for _ in 0..3 {
            rows.push(rows[0].clone());
        }
        rows
    })
}

/// Right rows with keys drawn from 0..40: keys in 30..40 can never match
/// a left row, so every case carries empty-match rows.
fn right_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((0i64..40, 0i64..30, 0i64..5), 1..150).prop_map(|v| {
        v.into_iter()
            .map(|(k, w, t)| vec![Value::Int(k), Value::Int(w), Value::Int(t)])
            .collect()
    })
}

/// A DML prelude for one side three times in four: up to 40 inserted
/// rows made by `row` from two numbers below 40, deletes by RID of every
/// first to third of them, a `delete_where` on column 1, maybe a vacuum,
/// and the open session's writes.
fn script_strategy(row: fn(i64, i64) -> Row) -> impl Strategy<Value = Option<Script>> {
    let inserts = prop::collection::vec((0i64..40, 0i64..40), 0..40);
    let deletes = (0usize..4, any::<bool>(), 0i64..30, 0i64..10);
    let pending = (any::<bool>(), (0i64..40, 0i64..40), any::<bool>());
    (0u8..4, inserts, deletes, any::<bool>(), pending).prop_map(
        move |(on, inserts, (every, del, lo, span), vacuum, (ins, (a, b), pending_delete))| {
            (on > 0).then(|| Script {
                inserts: inserts.into_iter().map(|(a, b)| row(a, b)).collect(),
                delete_every: every,
                delete_where: del.then(|| Query::single(Pred::between(1, lo, lo + span))),
                vacuum,
                pending_insert: ins.then(|| row(a, b)),
                pending_delete,
            })
        },
    )
}

fn left_row(k: i64, a: i64) -> Row {
    vec![Value::Int(k % 30), Value::Int(a % 30)]
}

fn right_row(k: i64, w: i64) -> Row {
    vec![Value::Int(k), Value::Int(w % 30), Value::Int((k + w) % 5)]
}

/// Run `script`, if any, on `table` (loaded with `loaded`): the rows a
/// query then sees, and how many slots the table's heap holds.
fn prelude(
    engine: &Arc<Engine>,
    session: &cm_engine::Session,
    table: &str,
    loaded: &[Row],
    script: &Option<Script>,
    mvcc: bool,
) -> (Vec<Row>, usize) {
    match script {
        Some(s) => {
            let appended = s.inserts.len() + usize::from(s.pending_insert.is_some());
            (
                dml_prelude::run(engine, session, table, loaded, s, mvcc),
                loaded.len() + appended,
            )
        }
        None => (loaded.to_vec(), loaded.len()),
    }
}

/// A side filter: none, a satisfiable range, or an unsatisfiable range
/// (emptying that side — an empty build must short-circuit the probe).
fn side_filter(kind: u8, col: usize, lo: i64, span: i64) -> Query {
    match kind % 3 {
        0 => Query::default(),
        1 => Query::single(Pred::between(col, lo, lo + span)),
        _ => Query::single(Pred::between(col, 1_000, 2_000)),
    }
}

/// Naive nested-loop reference: filter both sides, cross-match on the
/// join columns, emit left columns then right columns.
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

/// Engine with both tables loaded and one CM per table on its join
/// column (so a clamp can be forced whichever side ends up probing).
/// Returns the CM ids as (left, right).
fn build_engine(
    shards: usize,
    workers: usize,
    mvcc: bool,
    left: &[Row],
    right: &[Row],
    jq: &JoinQuery,
) -> (Arc<Engine>, usize, usize) {
    let engine = Engine::new(EngineConfig { shards, workers, mvcc, ..EngineConfig::default() });
    engine.create_table("l", left_schema(), 0, 8, 16).unwrap();
    engine.create_table("r", right_schema(), 0, 8, 16).unwrap();
    engine.load("l", left.to_vec()).unwrap();
    engine.load("r", right.to_vec()).unwrap();
    let lcm = engine
        .create_cm("l", "l_join_cm", CmSpec::single_raw(jq.left_col))
        .unwrap();
    let rcm = engine
        .create_cm("r", "r_join_cm", CmSpec::single_raw(jq.right_col))
        .unwrap();
    (engine, lcm, rcm)
}

proptest! {
    #![proptest_config(cases())]

    /// Planner-picked, forced-hash, and forced-clamp joins all equal the
    /// nested-loop oracle, rows and cardinality, across shard counts,
    /// worker counts, and MVCC modes, on fresh tables and after DML
    /// preludes.
    #[test]
    fn engine_join_equals_nested_loop_oracle(
        left in left_rows(),
        right in right_rows(),
        shards in 1usize..9,
        par in any::<bool>(),
        mvcc in any::<bool>(),
        cols in (0usize..2, 0usize..2),
        lf in (0u8..3, 0i64..30, 0i64..15),
        rf in (0u8..3, 0i64..30, 0i64..15),
        scripts in (script_strategy(left_row), script_strategy(right_row)),
    ) {
        let (lcol, rcol) = cols;
        let jq = JoinQuery::on(lcol, rcol)
            .filter_left(side_filter(lf.0, 1, lf.1, lf.2))
            .filter_right(side_filter(rf.0, 1, rf.1, rf.2));
        let workers = if par { 4 } else { 1 };
        let (engine, lcm, rcm) = build_engine(shards, workers, mvcc, &left, &right, &jq);
        let session = engine.session();
        let (left_now, left_slots) = prelude(&engine, &session, "l", &left, &scripts.0, mvcc);
        let (right_now, right_slots) = prelude(&engine, &session, "r", &right, &scripts.1, mvcc);
        let want = nested_loop(&left_now, &right_now, &jq);

        // The engine builds the side with fewer heap slots (ties go
        // left), so the probe table — whose CM a forced clamp must name —
        // is the other.
        let probe_cm = if left_slots <= right_slots { rcm } else { lcm };
        let auto = engine.join_collect("l", "r", &jq).unwrap();
        let hash = engine
            .join_via_collect("l", "r", &jq, JoinStrategy::Hash)
            .unwrap();
        let clamp = engine
            .join_via_collect("l", "r", &jq, JoinStrategy::CmClamp(probe_cm))
            .unwrap();
        for (name, out) in [("auto", &auto), ("hash", &hash), ("clamp", &clamp)] {
            let mut got = out.rows.clone().unwrap();
            got.sort();
            prop_assert_eq!(
                &got, &want,
                "{} join diverges (shards={}, workers={}, mvcc={}, jq={:?})",
                name, shards, workers, mvcc, &jq
            );
            prop_assert_eq!(out.matched as usize, want.len());
        }
        prop_assert_eq!(hash.strategy, JoinStrategy::Hash);
        prop_assert_eq!(clamp.strategy, JoinStrategy::CmClamp(probe_cm));
        // The planner's pick is one of the two strategies it priced.
        match auto.strategy {
            JoinStrategy::Hash => {}
            JoinStrategy::CmClamp(id) => {
                prop_assert_eq!(id, probe_cm);
                prop_assert!(auto.est_cm_ms.unwrap() < auto.est_hash_ms);
            }
        }
    }

    /// A self-join (same table both sides, one table-level guard) equals
    /// the nested-loop oracle under every strategy.
    #[test]
    fn self_join_equals_nested_loop_oracle(
        left in left_rows(),
        shards in 1usize..5,
        par in any::<bool>(),
        mvcc in any::<bool>(),
        lcol in 0usize..2,
        rcol in 0usize..2,
    ) {
        let jq = JoinQuery::on(lcol, rcol);
        let workers = if par { 4 } else { 1 };
        let engine =
            Engine::new(EngineConfig { shards, workers, mvcc, ..EngineConfig::default() });
        engine.create_table("t", left_schema(), 0, 8, 16).unwrap();
        engine.load("t", left.clone()).unwrap();
        let cms = [
            engine.create_cm("t", "cm0", CmSpec::single_raw(0)).unwrap(),
            engine.create_cm("t", "cm1", CmSpec::single_raw(1)).unwrap(),
        ];
        let want = nested_loop(&left, &left, &jq);

        let auto = engine.join_collect("t", "t", &jq).unwrap();
        // Self-joins build left, probe right: the clamp CM is rcol's.
        let clamp = engine
            .join_via_collect("t", "t", &jq, JoinStrategy::CmClamp(cms[rcol]))
            .unwrap();
        for out in [&auto, &clamp] {
            let mut got = out.rows.clone().unwrap();
            got.sort();
            prop_assert_eq!(&got, &want, "self-join diverges for {:?}", &jq);
            prop_assert_eq!(out.matched as usize, want.len());
        }
    }

    /// Forcing a clamp through a CM that does not cover the probe join
    /// column is an error, never a wrong answer.
    #[test]
    fn forced_clamp_without_covering_cm_errors(
        left in left_rows(),
        right in right_rows(),
    ) {
        let jq = JoinQuery::on(0, 0);
        let engine = Engine::new(EngineConfig::default());
        engine.create_table("l", left_schema(), 0, 8, 16).unwrap();
        engine.create_table("r", right_schema(), 0, 8, 16).unwrap();
        engine.load("l", left.clone()).unwrap();
        engine.load("r", right.clone()).unwrap();
        // The probe table's only CM covers a non-join column.
        let probe = if left.len() <= right.len() { ("r", 1) } else { ("l", 1) };
        let off = engine
            .create_cm(probe.0, "off_cm", CmSpec::single_raw(probe.1))
            .unwrap();
        prop_assert!(engine.join_via("l", "r", &jq, JoinStrategy::CmClamp(off)).is_err());
        prop_assert!(
            engine.join_via("l", "r", &jq, JoinStrategy::CmClamp(off + 7)).is_err(),
            "a CM id the table lacks errors too"
        );
        // The planner path still answers (falls back to hash).
        let auto = engine.join_collect("l", "r", &jq).unwrap();
        let mut got = auto.rows.unwrap();
        got.sort();
        prop_assert_eq!(got, nested_loop(&left, &right, &jq));
    }
}
