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
//! `AggState` itself is also checked on its own against a `BTreeMap`
//! keyed by exact value identity, on keys picked to be easy to confuse:
//! equal strings in shared and in separate allocations, different
//! strings of one length and first and last byte, `0.0` and `-0.0`, NaNs
//! with different payloads, `Int(2)` beside `Float(2.0)`, NULLs, a few
//! groups to a few hundred, and folds split at random points and merged
//! back.
//!
//! Three engine cases in four first run a DML prelude ([`dml_prelude`]):
//! committed deletes by RID and by `delete_where`, autocommit inserts,
//! perhaps a vacuum, and an open session holding a pending insert and a
//! pending delete. The reference is then computed over the rows a fresh
//! snapshot sees (without MVCC: the rows the table holds), so the folds
//! also run on pages that are not all-visible and on the sparse batches
//! a full scan hands on from them.
//!
//! Case count is `AGG_PROP_CASES` (default 64) so CI smoke jobs can run
//! a reduced sweep.

mod dml_prelude;

use cm_engine::{AggFunc, AggSpec, Engine, EngineConfig};
use cm_query::{AggState, Pred, Query};
use cm_storage::{Column, Row, Schema, Value, ValueType};
use dml_prelude::Script;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
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

/// One row from its drawn `(k, cat, x, tag)` numbers.
fn agg_row((k, c, x, t): (i64, i64, i64, i64)) -> Row {
    vec![Value::Int(k), Value::Int(c), Value::Int(x), tag(t)]
}

/// The numbers of one row of the test table.
fn row_numbers() -> impl Strategy<Value = (i64, i64, i64, i64)> {
    (0i64..40, 0i64..8, -50i64..50, 0i64..55)
}

/// A DML prelude three times in four: up to 60 inserted rows, deletes by
/// RID of every first to third of them, a `delete_where` on `x` or on
/// the clustered `k`, maybe a vacuum, and the open session's writes.
fn script_strategy() -> impl Strategy<Value = Option<Script>> {
    let inserts = prop::collection::vec(row_numbers(), 0..60);
    let deletes = (0usize..4, 0u8..3, 0i64..40, 0i64..20);
    let pending = (any::<bool>(), row_numbers(), any::<bool>());
    (0u8..4, inserts, deletes, any::<bool>(), pending).prop_map(
        |(on, inserts, (every, kind, lo, span), vacuum, (ins, pending_row, del))| {
            (on > 0).then(|| Script {
                inserts: inserts.into_iter().map(agg_row).collect(),
                delete_every: every,
                delete_where: match kind {
                    0 => None,
                    1 => Some(Query::single(Pred::between(2, lo - 50, lo - 50 + span))),
                    _ => Some(Query::single(Pred::between(0, lo, lo + span / 4))),
                },
                vacuum,
                pending_insert: ins.then(|| agg_row(pending_row)),
                pending_delete: del,
            })
        },
    )
}

/// Rows clustered on `k` (0..40): with up to 400 rows over 40 keys,
/// duplicate clustered keys are guaranteed, so any shard split lands
/// inside at least one group — the shard-boundary case the merge must
/// get right. `x` is signed to keep MIN/MAX honest. Half the cases add
/// a block of 1 100 distinct `(cat, k)` pairs, so the multi-column
/// specs fold more than a thousand groups.
fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let base = prop::collection::vec(row_numbers(), 1..400);
    (base, any::<bool>()).prop_map(|(v, many_groups)| {
        let mut rows: Vec<Row> = v.into_iter().map(agg_row).collect();
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

/// A group-key value by exact identity, ordered: what `Value::eq` tells
/// apart and nothing more. Floats compare by canonical bits (`-0.0` is
/// `0.0`, every NaN is one NaN); `Int(2)` and `Float(2.0)` differ.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ident {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
    Date(i32),
}

fn ident(v: &Value) -> Ident {
    match v {
        Value::Null => Ident::Null,
        Value::Int(i) => Ident::Int(*i),
        Value::Float(f) if f.0.is_nan() => Ident::Float(f64::NAN.to_bits()),
        Value::Float(f) if f.0 == 0.0 => Ident::Float(0),
        Value::Float(f) => Ident::Float(f.0.to_bits()),
        Value::Str(s) => Ident::Str(s.to_string()),
        Value::Date(d) => Ident::Date(*d),
    }
}

/// A value's exact bits, `-0.0` and NaN payloads included: which of a
/// group's equal keys the fold kept.
fn bits(v: &Value) -> (Ident, u64) {
    (ident(v), v.as_float().map_or(0, f64::to_bits))
}

/// Strings in pairs that share a length, first and last byte, but not
/// their text.
const LOOKALIKES: [&str; 6] = ["AIR", "ASR", "MAIL", "MALL", "REG AIR", "RAG AIR"];

/// Group-key value number `code`. Codes below 16 are the awkward cases:
/// lookalike strings, each either cloned from `shared` or in a fresh
/// allocation of its own, NULL, signed zeros, NaN payloads, and `2` as
/// an `Int`, a `Float` and a `Date`. Higher codes are distinct `Int`s,
/// so a wide code range folds into hundreds of groups.
fn awkward_key(code: u32, shared: &[Value]) -> Value {
    let lookalike = (code / 16) as usize % LOOKALIKES.len();
    match code % 16 {
        0 => Value::Null,
        1 => shared[lookalike].clone(),
        2 => Value::str(LOOKALIKES[lookalike]),
        3 => Value::float(0.0),
        4 => Value::float(-0.0),
        5 => Value::float(f64::from_bits(0x7FF8_0000_0000_0000 | u64::from(code))),
        6 => Value::float(f64::NAN),
        7 => Value::Int(2),
        8 => Value::float(2.0),
        9 => Value::Date(2),
        _ => Value::Int(i64::from(code / 16)),
    }
}

/// Rows `(key0, key1, x)` over a code range of 16 to 4 000, so a fold
/// meets anywhere from a few groups to a few hundred, plus up to four
/// cut points that split the fold into states merged back in order.
fn identity_rows_strategy() -> impl Strategy<Value = (Vec<Row>, Vec<usize>)> {
    let raw = prop::collection::vec((0u32..1 << 20, 0u32..1 << 20, -50i64..50), 1..600);
    let cuts = prop::collection::vec(any::<u32>(), 0..5);
    (16u32..4_000, raw, cuts).prop_map(|(span, raw, cuts)| {
        let shared: Vec<Value> = LOOKALIKES.iter().map(Value::str).collect();
        let rows: Vec<Row> = raw
            .into_iter()
            .map(|(a, b, x)| {
                vec![awkward_key(a % span, &shared), awkward_key(b % 64, &shared), Value::Int(x)]
            })
            .collect();
        let cuts = cuts.into_iter().map(|c| c as usize % (rows.len() + 1)).collect();
        (rows, cuts)
    })
}

/// `BTreeMap` reference for `spec` (group-by columns, then `COUNT`,
/// `SUM`, `MIN`, `MAX` of the `Int` column 2, summed in `i128`): the
/// result rows with each group keyed by the first value seen for it, in
/// key identity order.
fn identity_reference(rows: &[Row], spec: &AggSpec) -> Vec<Row> {
    type Acc = (Vec<Value>, i64, i128, i64, i64);
    let mut groups: BTreeMap<Vec<Ident>, Acc> = BTreeMap::new();
    for row in rows {
        let key: Vec<Value> = spec.group_by.iter().map(|&c| row[c].clone()).collect();
        let x = row[2].as_int().expect("Int column");
        let acc = groups
            .entry(key.iter().map(ident).collect())
            .or_insert((key, 0, 0, i64::MAX, i64::MIN));
        acc.1 += 1;
        acc.2 += i128::from(x);
        acc.3 = acc.3.min(x);
        acc.4 = acc.4.max(x);
    }
    groups
        .into_values()
        .map(|(mut key, count, sum, min, max)| {
            let all = [count, i64::try_from(sum).unwrap(), min, max].map(Value::Int);
            key.extend(all.into_iter().take(spec.aggs.len()));
            key
        })
        .collect()
}

proptest! {
    #![proptest_config(cases())]

    /// Engine aggregation equals the HashMap reference — identical rows
    /// in identical (ascending group-key) order — for every spec shape,
    /// shard count, worker count, and MVCC mode, on a fresh table and
    /// after a DML prelude.
    #[test]
    fn engine_aggregate_equals_reference(
        rows in rows_strategy(),
        shards in 1usize..9,
        par in any::<bool>(),
        mvcc in any::<bool>(),
        f in (0u8..4, 0i64..40, 0i64..20),
        script in script_strategy(),
    ) {
        let q = filter(f.0, f.1, f.2);
        let engine = build_engine(shards, if par { 4 } else { 1 }, mvcc, &rows);
        let session = engine.session();
        let visible = match &script {
            Some(s) => dml_prelude::run(&engine, &session, "t", &rows, s, mvcc),
            None => rows.clone(),
        };
        for spec in specs() {
            let out = engine.aggregate("t", &q, &spec).unwrap();
            let want = reference(&visible, &q, &spec);
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

    /// `AggState` keeps exactly the groups `Value::eq` tells apart, keyed
    /// by the first value seen, with exact aggregates, in ascending key
    /// order — with few groups and many, and when the fold is split into
    /// states merged back in order.
    #[test]
    fn agg_state_groups_by_value_identity(input in identity_rows_strategy()) {
        let (rows, mut cuts) = input;
        cuts.push(0);
        cuts.push(rows.len());
        cuts.sort_unstable();
        let aggs = vec![AggFunc::Count, AggFunc::Sum(2), AggFunc::Min(2), AggFunc::Max(2)];
        for spec in [
            AggSpec::new(vec![0, 1], aggs.clone()),
            AggSpec::new(vec![0], aggs),
            AggSpec::distinct(vec![1, 0]),
        ] {
            let mut parts = cuts.windows(2).map(|w| {
                let mut st = AggState::new(&spec);
                rows[w[0]..w[1]].iter().for_each(|r| st.observe(r));
                st
            });
            let mut state = parts.next().expect("one part at least");
            parts.for_each(|p| state.merge(&p));
            let want = identity_reference(&rows, &spec);
            prop_assert_eq!(state.num_groups(), want.len());
            let mut out = state.finish();
            let keys = spec.group_by.len();
            prop_assert!(out.windows(2).all(|w| w[0][..keys] <= w[1][..keys]), "key-sorted");
            // `Int(2)` and `Float(2.0)` sort as equal, so order by identity
            // before comparing.
            out.sort_by_key(|r| r[..keys].iter().map(ident).collect::<Vec<_>>());
            let exact = |rs: &[Row]| -> Vec<Vec<(Ident, u64)>> {
                rs.iter().map(|r| r.iter().map(bits).collect()).collect()
            };
            prop_assert_eq!(exact(&out), exact(&want), "spec {:?}, cuts {:?}", &spec, &cuts);
        }
    }
}
