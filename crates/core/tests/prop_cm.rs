//! Property tests for Correlation Map invariants:
//!
//! 1. **No false negatives**: for any data, bucketing, and predicate, every
//!    tuple satisfying the predicate lives in a bucket returned by
//!    `lookup` (bucketing may only add false positives).
//! 2. **Maintenance equivalence**: a CM maintained through arbitrary
//!    insert/delete interleavings equals the CM rebuilt from the surviving
//!    tuples.
//! 3. **Bucket directory**: buckets partition the heap and never split a
//!    clustered value.
//! 4. **`IN` is a union of point lookups** (§5.2): `lookup(In(vs))` equals
//!    the union of `lookup(Eq(v))` over `vs`, and the whole-map walk
//!    `lookup` once did, for raw, bucketed and composite CMs.

use cm_core::{AttrConstraint, BucketDirectory, CmAttr, CmSpec, CorrelationMap};
use cm_storage::{Column, DiskSim, HeapFile, Rid, Row, Schema, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

/// Every slot of `heap`, materialised, with its RID.
fn stored(heap: &HeapFile) -> impl Iterator<Item = (Rid, Row)> + '_ {
    (0..heap.len())
        .map(Rid)
        .map(|rid| (rid, heap.peek(rid).unwrap()))
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("c", ValueType::Int),
        Column::new("u", ValueType::Int),
        Column::new("w", ValueType::Int),
    ]))
}

/// Rows with a controllable soft FD: u = c * spread + noise.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec(
        (0i64..40, 0i64..25, 0i64..10),
        1..300,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(c, noise, w)| (c, c * 8 + noise, w))
            .collect()
    })
}

/// A value for an `IN` list: `Int`s (some absent from the data),
/// `Float`s on and off the integers, and NULL.
fn probe_value((kind, n): (u8, i64)) -> Value {
    match kind {
        0 => Value::Int(n),
        1 => Value::float(n as f64),
        2 => Value::float(n as f64 + 0.5),
        _ => Value::Null,
    }
}

/// `lookup` with constraint `at` replaced by `Eq(v)` for each `v` in
/// turn, unioned, sorted and deduplicated.
fn union_of_eqs(
    cm: &CorrelationMap,
    constraints: &[AttrConstraint],
    at: usize,
    vs: &[Value],
) -> Vec<u32> {
    let mut out: Vec<u32> = vs
        .iter()
        .flat_map(|v| {
            let mut cs = constraints.to_vec();
            cs[at] = AttrConstraint::Eq(v.clone());
            cm.lookup(&cs)
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Every key of the map checked against every constraint, value by
/// value — the walk `lookup` made for any leading `In` before `IN` lists
/// became point probes.
fn walk(cm: &CorrelationMap, constraints: &[AttrConstraint]) -> Vec<u32> {
    let attrs = cm.spec().attrs();
    let mut out: Vec<u32> = cm
        .iter()
        .filter(|(key, _)| {
            key.iter().zip(attrs).zip(constraints).all(|((part, attr), c)| match c {
                AttrConstraint::Any => true,
                AttrConstraint::Eq(v) => *part == attr.bucket.key_part(v),
                AttrConstraint::In(vs) => vs.iter().any(|v| *part == attr.bucket.key_part(v)),
                AttrConstraint::Range(lo, hi) => {
                    *part >= attr.bucket.key_part(lo) && *part <= attr.bucket.key_part(hi)
                }
            })
        })
        .flat_map(|(_, buckets)| buckets.keys().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn build_heap(disk: &DiskSim, data: &[(i64, i64, i64)]) -> HeapFile {
    let rows: Vec<Vec<Value>> = data
        .iter()
        .map(|&(c, u, w)| vec![Value::Int(c), Value::Int(u), Value::Int(w)])
        .collect();
    HeapFile::bulk_load_clustered(disk, schema(), rows, 8, 0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lookup_has_no_false_negatives(
        data in rows_strategy(),
        level in 0u32..8,
        target in 1u64..40,
        qlo in 0i64..330,
        qspan in 0i64..60,
    ) {
        let disk = DiskSim::with_defaults();
        let heap = build_heap(&disk, &data);
        let dir = BucketDirectory::build(&heap, 0, target);
        let cm = CorrelationMap::build(
            "u_cm",
            CmSpec::new(vec![CmAttr::pow2(1, level)]),
            &heap,
            |_| true,
            &dir,
        );
        let qhi = qlo + qspan;
        let buckets =
            cm.lookup(&[AttrConstraint::Range(Value::Int(qlo), Value::Int(qhi))]);
        for (rid, row) in stored(&heap) {
            let u = row[1].as_int().unwrap();
            if u >= qlo && u <= qhi {
                prop_assert!(
                    buckets.binary_search(&dir.bucket_of(rid)).is_ok(),
                    "rid {rid} (u={u}) missing from lookup over [{qlo},{qhi}]"
                );
            }
        }
    }

    #[test]
    fn composite_lookup_has_no_false_negatives(
        data in rows_strategy(),
        level in 0u32..6,
        target in 1u64..30,
        pick in 0usize..300,
    ) {
        let disk = DiskSim::with_defaults();
        let heap = build_heap(&disk, &data);
        let dir = BucketDirectory::build(&heap, 0, target);
        let cm = CorrelationMap::build(
            "uw_cm",
            CmSpec::new(vec![CmAttr::pow2(1, level), CmAttr::raw(2)]),
            &heap,
            |_| true,
            &dir,
        );
        // Query for the (u, w) of an arbitrary existing tuple.
        let probe = heap.peek(Rid((pick % data.len()) as u64)).unwrap();
        let (qu, qw) = (probe[1].clone(), probe[2].clone());
        let buckets = cm.lookup(&[
            AttrConstraint::Eq(qu.clone()),
            AttrConstraint::Eq(qw.clone()),
        ]);
        for (rid, row) in stored(&heap) {
            if row[1] == qu && row[2] == qw {
                prop_assert!(buckets.binary_search(&dir.bucket_of(rid)).is_ok());
            }
        }
    }

    #[test]
    fn maintained_equals_rebuilt_after_deletions(
        data in rows_strategy(),
        delete_mask in prop::collection::vec(any::<bool>(), 300),
        level in 0u32..6,
    ) {
        let disk = DiskSim::with_defaults();
        let heap = build_heap(&disk, &data);
        let dir = BucketDirectory::build(&heap, 0, 8);
        let spec = CmSpec::new(vec![CmAttr::pow2(1, level)]);
        let mut maintained = CorrelationMap::build("m", spec.clone(), &heap, |_| true, &dir);
        // Delete a subset through the maintenance path.
        let mut survivors: Vec<(Rid, Vec<Value>)> = Vec::new();
        for (rid, row) in stored(&heap) {
            if delete_mask[rid.0 as usize % delete_mask.len()] {
                prop_assert!(maintained.delete(&row, rid, &dir));
            } else {
                survivors.push((rid, row.to_vec()));
            }
        }
        // Rebuild from survivors only.
        let mut rebuilt = CorrelationMap::new("r", spec);
        for (rid, row) in &survivors {
            rebuilt.insert(row, *rid, &dir);
        }
        prop_assert_eq!(maintained.num_keys(), rebuilt.num_keys());
        prop_assert_eq!(maintained.num_pairs(), rebuilt.num_pairs());
        let a: Vec<_> = maintained.iter().collect();
        let b: Vec<_> = rebuilt.iter().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn directory_partitions_heap(
        data in rows_strategy(),
        target in 1u64..50,
    ) {
        let disk = DiskSim::with_defaults();
        let heap = build_heap(&disk, &data);
        let dir = BucketDirectory::build(&heap, 0, target);
        // Partition: ranges tile [0, len) exactly.
        let mut expected_start = 0u64;
        for (_, (lo, hi)) in dir.iter() {
            prop_assert_eq!(lo, expected_start);
            prop_assert!(hi > lo);
            expected_start = hi;
        }
        prop_assert_eq!(expected_start, heap.len());
        // Never split a clustered value.
        for (_, (lo, _)) in dir.iter() {
            if lo > 0 {
                let prev = &heap.peek(Rid(lo - 1)).unwrap()[0];
                let here = &heap.peek(Rid(lo)).unwrap()[0];
                prop_assert_ne!(prev, here);
            }
        }
        // bucket_of agrees with ranges.
        for (b, (lo, hi)) in dir.iter() {
            prop_assert_eq!(dir.bucket_of(Rid(lo)), b);
            prop_assert_eq!(dir.bucket_of(Rid(hi - 1)), b);
        }
    }

    #[test]
    fn coarser_bucketing_never_shrinks_result(
        data in rows_strategy(),
        qlo in 0i64..330,
        qspan in 0i64..60,
    ) {
        // Monotonicity: a coarser unclustered bucketing returns a superset
        // of clustered buckets (more false positives, never fewer hits).
        let disk = DiskSim::with_defaults();
        let heap = build_heap(&disk, &data);
        let dir = BucketDirectory::build(&heap, 0, 8);
        let fine = CorrelationMap::build(
            "f", CmSpec::new(vec![CmAttr::pow2(1, 1)]), &heap, |_| true, &dir);
        let coarse = CorrelationMap::build(
            "c", CmSpec::new(vec![CmAttr::pow2(1, 5)]), &heap, |_| true, &dir);
        let q = AttrConstraint::Range(Value::Int(qlo), Value::Int(qlo + qspan));
        let fine_b = fine.lookup(std::slice::from_ref(&q));
        let coarse_b = coarse.lookup(std::slice::from_ref(&q));
        for b in fine_b {
            prop_assert!(coarse_b.binary_search(&b).is_ok());
        }
    }

    #[test]
    fn in_equals_union_of_eq(
        data in rows_strategy(),
        level in 0u32..6,
        target in 1u64..30,
        picks in prop::collection::vec((0u8..4, 0i64..400), 0..12),
        delete_mask in prop::collection::vec(any::<bool>(), 300),
        w in 0i64..12,
        wspan in 0i64..6,
    ) {
        let disk = DiskSim::with_defaults();
        // Every row whose noise is 0 stores a NULL `u`.
        let rows: Vec<Vec<Value>> = data
            .iter()
            .map(|&(c, u, w)| {
                let u = if u == c * 8 { Value::Null } else { Value::Int(u) };
                vec![Value::Int(c), u, Value::Int(w)]
            })
            .collect();
        let heap = HeapFile::bulk_load_clustered(&disk, schema(), rows, 8, 0).unwrap();
        let dir = BucketDirectory::build(&heap, 0, target);
        let specs = [
            CmSpec::new(vec![CmAttr::raw(1)]),
            CmSpec::new(vec![CmAttr::pow2(1, level)]),
            CmSpec::new(vec![CmAttr::pow2(1, level), CmAttr::raw(2)]),
        ];
        for spec in specs {
            let mut cm = CorrelationMap::build("u_cm", spec.clone(), &heap, |_| true, &dir);
            // Deletes retract keys; the IN list names some of the
            // deleted values, now absent (or still held by a survivor).
            let mut vs: Vec<Value> = picks.iter().copied().map(probe_value).collect();
            for (rid, row) in stored(&heap) {
                if delete_mask[rid.0 as usize % delete_mask.len()] {
                    prop_assert!(cm.delete(&row, rid, &dir));
                    if rid.0 % 5 == 0 {
                        vs.push(row[1].clone());
                    }
                }
            }
            if let Some(first) = vs.first().cloned() {
                vs.push(first);
            }
            let shapes: Vec<(Vec<AttrConstraint>, usize)> = if spec.arity() == 1 {
                vec![(vec![AttrConstraint::Any], 0)]
            } else {
                let ws: Vec<Value> = (0..=wspan).map(|d| Value::Int(w + d)).collect();
                vec![
                    (vec![AttrConstraint::Any, AttrConstraint::Eq(Value::Int(w))], 0),
                    (vec![AttrConstraint::Any, AttrConstraint::Range(Value::Int(w), Value::Int(w + wspan))], 0),
                    (vec![AttrConstraint::Any, AttrConstraint::Any], 0),
                    (vec![AttrConstraint::Any, AttrConstraint::In(ws)], 0),
                    (vec![AttrConstraint::Any, AttrConstraint::Any], 1),
                ]
            };
            for (mut cs, at) in shapes {
                let list = if at == 0 { vs.clone() } else { (0..12).map(Value::Int).collect() };
                let want = union_of_eqs(&cm, &cs, at, &list);
                cs[at] = AttrConstraint::In(list);
                let got = cm.lookup(&cs);
                prop_assert_eq!(&got, &want, "{:?} over {:?}", cs, spec);
                prop_assert_eq!(&got, &walk(&cm, &cs));
                cs[at] = AttrConstraint::In(Vec::new());
                prop_assert!(cm.lookup(&cs).is_empty());
            }
        }
    }
}
