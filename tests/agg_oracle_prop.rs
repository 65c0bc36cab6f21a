//! Grouped-aggregation oracle: random data, filters, shard counts, and
//! worker counts through [`cm_engine::Engine::aggregate`] must match a
//! hand-rolled `HashMap` reference for `COUNT` / `SUM` / `MIN` / `MAX`,
//! `DISTINCT`, and `LIMIT`. Groups on the clustered column straddle
//! shard boundaries by construction (range partitioning splits the key
//! domain mid-group when duplicates span the cut), so every multi-shard
//! case exercises cross-leg state merges. The engine's output is
//! compared **unsorted** — ascending group-key order is part of the
//! contract, so any nondeterministic merge shows up as a failure, not
//! just a reordering. The fold keeps its groups in arrival order behind
//! a hash index and sorts once at the end, so the generator also feeds
//! it string and NULL group keys, more than a thousand groups (several
//! index doublings), and the same data split over one and over many
//! legs.
//!
//! Case count is `AGG_PROP_CASES` (default 64) so CI smoke jobs can run
//! a reduced sweep.

use cm_engine::{AggFunc, AggSpec, Engine, EngineConfig};
use cm_query::{Pred, Query};
use cm_storage::{Column, Row, Schema, Value, ValueType};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("AGG_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    ProptestConfig::with_cases(cases)
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("k", ValueType::Int),
        Column::new("cat", ValueType::Int),
        Column::new("x", ValueType::Int),
        Column::new("tag", ValueType::Str),
    ]))
}

/// A short string, or NULL for every fifth draw: group keys that compare
/// by text and sort NULL-first.
fn tag(n: i64) -> Value {
    if n % 5 == 0 {
        Value::Null
    } else {
        Value::str(format!("t{}", n % 11))
    }
}

/// Rows clustered on `k` (0..40): with up to 400 rows over 40 keys,
/// duplicate clustered keys are guaranteed, so any shard split lands
/// inside at least one group — the shard-boundary case the merge must
/// get right. `x` is signed to keep MIN/MAX honest. Half the cases add
/// a block of 1 100 distinct `(cat, k)` pairs, so the multi-column
/// specs fold more than a thousand groups.
fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let base = prop::collection::vec((0i64..40, 0i64..8, -50i64..50, 0i64..55), 1..400);
    (base, any::<bool>()).prop_map(|(v, many_groups)| {
        let mut rows: Vec<Row> = v
            .into_iter()
            .map(|(k, c, x, t)| vec![Value::Int(k), Value::Int(c), Value::Int(x), tag(t)])
            .collect();
        // Pin one duplicated clustered key so even minimal cases have a
        // group that a 2+-shard split can cut in half.
        let pinned = rows[0][0].clone();
        for i in 0..3 {
            rows.push(vec![pinned.clone(), Value::Int(i), Value::Int(i - 1), tag(i)]);
        }
        if many_groups {
            for i in 0..1_100 {
                rows.push(vec![Value::Int(i % 40), Value::Int(100 + i / 40), Value::Int(i), tag(i)]);
            }
        }
        rows
    })
}

fn filter(kind: u8, lo: i64, span: i64) -> Query {
    match kind % 4 {
        0 => Query::default(),
        1 => Query::single(Pred::between(0, lo, lo + span)), // shard-pruning range
        2 => Query::single(Pred::between(2, lo - 50, lo - 50 + span)),
        _ => Query::single(Pred::between(1, 1_000, 2_000)), // matches nothing
    }
}

/// HashMap reference for an `AggSpec` over already-filtered rows: counts
/// every row, sums/mins/maxes `Int` values (the data has no NULLs, so
/// `None` accumulators survive only in the zero-row global group).
fn reference(rows: &[Row], q: &Query, spec: &AggSpec) -> Vec<Row> {
    type Acc = (u64, Option<i64>, Option<i64>, Option<i64>); // count, sum, min, max
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    for row in rows.iter().filter(|r| q.matches(r)) {
        let key: Vec<Value> = spec.group_by.iter().map(|&c| row[c].clone()).collect();
        let accs = groups
            .entry(key)
            .or_insert_with(|| vec![(0, None, None, None); spec.aggs.len()]);
        for (acc, f) in accs.iter_mut().zip(&spec.aggs) {
            let val = f.col().map(|c| match &row[c] {
                Value::Int(i) => *i,
                other => panic!("test data is Int-only, saw {other:?}"),
            });
            acc.0 += 1;
            if let Some(v) = val {
                acc.1 = Some(acc.1.unwrap_or(0) + v);
                acc.2 = Some(acc.2.map_or(v, |m| m.min(v)));
                acc.3 = Some(acc.3.map_or(v, |m| m.max(v)));
            }
        }
    }
    if spec.group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), vec![(0, None, None, None); spec.aggs.len()]);
    }
    let mut out: Vec<Row> = groups
        .into_iter()
        .map(|(mut key, accs)| {
            for (acc, f) in accs.iter().zip(&spec.aggs) {
                let int = |o: Option<i64>| o.map_or(Value::Null, Value::Int);
                key.push(match f {
                    AggFunc::Count => Value::Int(acc.0 as i64),
                    AggFunc::Sum(_) => int(acc.1),
                    AggFunc::Min(_) => int(acc.2),
                    AggFunc::Max(_) => int(acc.3),
                });
            }
            key
        })
        .collect();
    let keys = spec.group_by.len();
    out.sort_by(|a, b| a[..keys].cmp(&b[..keys]));
    out
}

fn build_engine(shards: usize, workers: usize, mvcc: bool, rows: &[Row]) -> Arc<Engine> {
    let engine = Engine::new(EngineConfig { shards, workers, mvcc, ..EngineConfig::default() });
    engine.create_table("t", schema(), 0, 8, 16).unwrap();
    engine.load("t", rows.to_vec()).unwrap();
    engine
}

fn specs() -> Vec<AggSpec> {
    vec![
        // Per-category rollup: all four aggregate kinds at once.
        AggSpec::new(
            vec![1],
            vec![AggFunc::Count, AggFunc::Sum(2), AggFunc::Min(2), AggFunc::Max(2)],
        ),
        // Grouped by the clustered column: groups straddle shard splits.
        AggSpec::new(vec![0], vec![AggFunc::Count, AggFunc::Sum(2)]),
        // Multi-column key, including the clustered column last.
        AggSpec::new(vec![1, 0], vec![AggFunc::Count, AggFunc::Max(2)]),
        // String and NULL keys, alone and ahead of an integer column.
        AggSpec::new(vec![3], vec![AggFunc::Count, AggFunc::Sum(2)]),
        AggSpec::new(vec![3, 1], vec![AggFunc::Min(2), AggFunc::Max(2)]),
        // Global aggregation: exactly one row even over zero matches.
        AggSpec::new(vec![], vec![AggFunc::Count, AggFunc::Sum(2), AggFunc::Min(0)]),
    ]
}

proptest! {
    #![proptest_config(cases())]

    /// Engine aggregation equals the HashMap reference — identical rows
    /// in identical (ascending group-key) order — for every spec shape,
    /// shard count, worker count, and MVCC mode.
    #[test]
    fn engine_aggregate_equals_reference(
        rows in rows_strategy(),
        shards in 1usize..9,
        par in any::<bool>(),
        mvcc in any::<bool>(),
        f in (0u8..4, 0i64..40, 0i64..20),
    ) {
        let q = filter(f.0, f.1, f.2);
        let engine = build_engine(shards, if par { 4 } else { 1 }, mvcc, &rows);
        for spec in specs() {
            let out = engine.aggregate("t", &q, &spec).unwrap();
            let want = reference(&rows, &q, &spec);
            prop_assert_eq!(
                &out.rows, &want,
                "spec {:?} diverges (shards={}, q={:?})", &spec, shards, &q
            );
            prop_assert_eq!(out.groups, want.len());
        }
    }

    /// `LIMIT n` output is exactly the first `n` rows of the unlimited
    /// result (and `groups` still reports the untruncated count), for
    /// aggregations and for DISTINCT.
    #[test]
    fn limit_is_a_stable_prefix(
        rows in rows_strategy(),
        shards in 1usize..9,
        par in any::<bool>(),
        limit in 0usize..12,
        f in (0u8..4, 0i64..40, 0i64..20),
    ) {
        let q = filter(f.0, f.1, f.2);
        let engine = build_engine(shards, if par { 4 } else { 1 }, false, &rows);
        let spec = AggSpec::new(vec![1], vec![AggFunc::Count, AggFunc::Sum(2)]);
        let full = engine.aggregate("t", &q, &spec).unwrap();
        let limited = engine
            .aggregate("t", &q, &spec.clone().with_limit(limit))
            .unwrap();
        let n = limit.min(full.rows.len());
        prop_assert_eq!(&limited.rows, &full.rows[..n].to_vec());
        prop_assert_eq!(limited.groups, full.groups, "limit truncates rows, not groups");

        // One leg's fold and the merge of `shards` legs' folds agree, on
        // the string-keyed spec too, and so do their LIMIT prefixes.
        let one_leg = build_engine(1, 1, false, &rows);
        for spec in [spec, AggSpec::new(vec![3, 0], vec![AggFunc::Count, AggFunc::Sum(2)])] {
            let merged = engine.aggregate("t", &q, &spec).unwrap();
            let single = one_leg.aggregate("t", &q, &spec).unwrap();
            prop_assert_eq!(&merged.rows, &single.rows, "{} legs vs one", merged.legs.len());
            let cut = engine.aggregate("t", &q, &spec.clone().with_limit(limit)).unwrap();
            prop_assert_eq!(&cut.rows, &single.rows[..limit.min(single.rows.len())].to_vec());
        }

        let d_full = engine.select_distinct("t", &q, &[3, 0], None).unwrap();
        let d_lim = engine.select_distinct("t", &q, &[3, 0], Some(limit)).unwrap();
        let n = limit.min(d_full.rows.len());
        prop_assert_eq!(&d_lim.rows, &d_full.rows[..n].to_vec());
        // DISTINCT equals the dedup of the projected reference rows.
        let mut want: Vec<Row> = rows
            .iter()
            .filter(|r| q.matches(r))
            .map(|r| vec![r[3].clone(), r[0].clone()])
            .collect();
        want.sort();
        want.dedup();
        prop_assert_eq!(&d_full.rows, &want);
    }
}
