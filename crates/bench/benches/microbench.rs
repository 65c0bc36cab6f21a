//! Criterion microbenchmarks of the hot paths: CM build / lookup /
//! maintenance, B+Tree operations, the statistics scan and structure
//! builds a set-up runs, bucketing, and the cardinality
//! estimators, the per-page layers every scan runs once its pages are
//! resident (kernel selection, snapshot visibility per slot and per
//! page, grouped fold and typed join probe on dense and sparse
//! batches) and the `Value` comparison under row-at-a-time code. These
//! complement the experiment binaries (which reproduce the paper's
//! tables/figures on the simulated disk) by measuring real CPU costs of
//! the in-memory structures.

use cm_core::{AttrConstraint, BucketDirectory, BucketSpec, CmAttr, CmSpec, CorrelationMap};
use cm_datagen::tpch;
use cm_index::BPlusTree;
use cm_query::{AggFunc, AggSpec, BatchAgg, JoinHashTable, PageFilter, Pred, Query, Table};
use cm_stats::{estimate_distinct, DistinctSampler, FreqTable};
use cm_storage::{Column, DiskSim, HeapFile, MvccState, PageRef, Rid, Schema, Value, ValueType};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn price_heap(rows: usize) -> (Arc<DiskSim>, HeapFile) {
    let disk = DiskSim::with_defaults();
    let schema = Arc::new(Schema::new(vec![
        Column::new("catid", ValueType::Int),
        Column::new("price", ValueType::Int),
    ]));
    let data: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            let cat = i % 1000;
            vec![Value::Int(cat), Value::Int(cat * 1000 + (i * 37) % 1000)]
        })
        .collect();
    let heap = HeapFile::bulk_load_clustered(&disk, schema, data, 90, 0).unwrap();
    (disk, heap)
}

/// 100 k rows clustered on catid whose partkey takes 10 k distinct
/// values, each under ~10 catids.
fn partkey_heap() -> (Arc<DiskSim>, HeapFile) {
    let disk = DiskSim::with_defaults();
    let schema = Arc::new(Schema::new(vec![
        Column::new("catid", ValueType::Int),
        Column::new("partkey", ValueType::Int),
    ]));
    let data: Vec<Vec<Value>> = (0..100_000i64)
        .map(|i| vec![Value::Int(i / 100), Value::Int(i * 7_919 % 10_000)])
        .collect();
    let heap = HeapFile::bulk_load_clustered(&disk, schema, data, 90, 0).unwrap();
    (disk, heap)
}

fn bench_cm(c: &mut Criterion) {
    let (_disk, heap) = price_heap(100_000);
    let dir = BucketDirectory::build(&heap, 0, 900);
    let spec = CmSpec::single_pow2(1, 12);

    c.bench_function("cm_build_100k", |b| {
        b.iter(|| CorrelationMap::build("bench", spec.clone(), &heap, |_| true, &dir))
    });

    let cm = CorrelationMap::build("bench", spec.clone(), &heap, |_| true, &dir);
    c.bench_function("cm_lookup_eq", |b| {
        b.iter(|| black_box(cm.lookup(&[AttrConstraint::Eq(Value::Int(500_500))])))
    });
    c.bench_function("cm_lookup_range", |b| {
        b.iter(|| {
            black_box(cm.lookup(&[AttrConstraint::Range(
                Value::Int(100_000),
                Value::Int(150_000),
            )]))
        })
    });

    c.bench_function("cm_insert_delete", |b| {
        let row = vec![Value::Int(500), Value::Int(500_123)];
        let mut cm = CorrelationMap::build("bench", spec.clone(), &heap, |_| true, &dir);
        b.iter(|| {
            cm.insert(&row, Rid(42 * 900), &dir);
            cm.delete(&row, Rid(42 * 900), &dir);
        })
    });

    // The join's hash-vs-clamp estimate: six build keys as an `IN` list
    // over a raw CM of 10 k distinct keys (the shape of `scan_warm`'s
    // partkey join).
    let (_kdisk, kheap) = partkey_heap();
    let kdir = BucketDirectory::build(&kheap, 0, 900);
    let part_cm = CorrelationMap::build("part_cm", CmSpec::single_raw(1), &kheap, |_| true, &kdir);
    assert_eq!(part_cm.num_keys(), 10_000);
    let six: Vec<Value> = (0..6i64).map(|i| Value::Int((i * 157 + 11) % 10_000)).collect();
    c.bench_function("cm_lookup_in_6_of_10k", |b| {
        b.iter(|| black_box(part_cm.lookup(&[AttrConstraint::In(six.clone())])))
    });

    let composite = CmSpec::new(vec![CmAttr::pow2(1, 10), CmAttr::raw(0)]);
    c.bench_function("cm_build_composite_100k", |b| {
        b.iter(|| CorrelationMap::build("bench", composite.clone(), &heap, |_| true, &dir))
    });
}

fn bench_btree(c: &mut Criterion) {
    c.bench_function("btree_insert_100k_seq", |b| {
        b.iter_batched(
            || BPlusTree::<i64, u64>::new(64),
            |mut t| {
                for i in 0..100_000i64 {
                    t.insert(i, i as u64);
                }
                t
            },
            BatchSize::LargeInput,
        )
    });

    let mut tree: BPlusTree<i64, u64> = BPlusTree::new(64);
    for i in 0..100_000i64 {
        tree.insert((i * 2_654_435_761) % 1_000_003, i as u64);
    }
    c.bench_function("btree_get", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 99_991) % 1_000_003;
            black_box(tree.get(&k))
        })
    });
    c.bench_function("btree_range_100", |b| {
        b.iter(|| {
            black_box(
                tree.range(
                    std::ops::Bound::Included(&500_000),
                    std::ops::Bound::Unbounded,
                )
                .take(100)
                .count(),
            )
        })
    });
}

/// 300 k rows clustered on a 1 000-value `catid`, with a unique
/// `itemid`, a 200-value string category and a float price — the shapes
/// a set-up analyzes and indexes.
fn items_table() -> (Arc<DiskSim>, Table) {
    let disk = DiskSim::with_defaults();
    let schema = Arc::new(Schema::new(vec![
        Column::new("catid", ValueType::Int),
        Column::new("itemid", ValueType::Int),
        Column::new("cat", ValueType::Str),
        Column::new("price", ValueType::Float),
    ]));
    let cats: Vec<Value> = (0..200).map(|i| Value::str(format!("category {i}"))).collect();
    let rows = (0..300_000i64)
        .map(|i| {
            let catid = i * 7_919 % 1_000;
            vec![
                Value::Int(catid),
                Value::Int(i),
                cats[(catid % 200) as usize].clone(),
                Value::float((i * 37 % 100_000) as f64 / 100.0),
            ]
        })
        .collect();
    let t = Table::build(&disk, schema, rows, 90, 0, 900).unwrap();
    (disk, t)
}

/// The set-up side: the exact statistics scan per column type, and a CM
/// and a B+Tree built over 300 k rows.
fn bench_builds(c: &mut Criterion) {
    let (disk, mut t) = items_table();
    for (name, col) in [("int", 1), ("str", 2), ("float", 3)] {
        c.bench_function(&format!("analyze_col_300k_{name}"), |b| {
            b.iter(|| t.analyze_cols(&[col]))
        });
    }
    c.bench_function("cm_build_300k", |b| {
        b.iter(|| t.build_cm("bench", CmSpec::single_raw(2)))
    });
    c.bench_function("btree_build_300k", |b| {
        b.iter(|| t.build_secondary(&disk, "bench", vec![1]))
    });
}

fn bench_bucketing(c: &mut Criterion) {
    let (_disk, heap) = price_heap(100_000);
    c.bench_function("bucket_directory_build_100k", |b| {
        b.iter(|| BucketDirectory::build(&heap, 0, 900))
    });
    let dir = BucketDirectory::build(&heap, 0, 900);
    c.bench_function("bucket_of_rid", |b| {
        let mut r = 0u64;
        b.iter(|| {
            r = (r + 7919) % 100_000;
            black_box(dir.bucket_of(Rid(r)))
        })
    });
    let spec = BucketSpec::pow2(12);
    c.bench_function("bucket_key_part", |b| {
        b.iter(|| black_box(spec.key_part(&Value::Int(123_456))))
    });
}

fn bench_estimators(c: &mut Criterion) {
    c.bench_function("distinct_sampler_100k", |b| {
        b.iter(|| {
            let mut ds = DistinctSampler::new(1024);
            for i in 0..100_000u64 {
                ds.observe_hash(i.wrapping_mul(0x9E3779B97F4A7C15));
            }
            black_box(ds.estimate())
        })
    });

    let mut freq = FreqTable::new();
    for i in 0..30_000u64 {
        freq.observe(i % 7_000);
    }
    let profile = freq.freq_of_freq();
    c.bench_function("adaptive_estimator", |b| {
        b.iter(|| {
            black_box(estimate_distinct(1_000_000, 30_000, &profile))
        })
    });
}

/// The per-page layers of a warm scan, one at a time, over a 200 k-row
/// lineitem heap clustered on receiptdate: the kernels' selection, the
/// snapshot test on stamps, the grouped fold of `scan_warm`'s aggregate,
/// and the typed join probe. Every figure is for the whole heap: divide
/// by 200 000 for ns/row.
fn bench_page_batches(c: &mut Criterion) {
    const ROWS: usize = 200_000;
    let data = tpch::tpch_lineitem(tpch::TpchConfig { rows: ROWS, ..Default::default() });
    let disk = DiskSim::with_defaults();
    let mut table = Table::build(
        &disk,
        data.schema,
        data.rows,
        60,
        tpch::COL_RECEIPTDATE,
        600,
    )
    .unwrap();
    let heap = table.heap();
    let last = heap.num_pages() - 1;
    // Every page, handed to `each` with a selection of every slot
    // (`step` 1, the dense batches of a full scan) or of every other
    // slot (`step` 2, a filtered scan's sparse ones).
    let sweep = |step: u32, each: &mut dyn FnMut(PageRef<'_>, &[u32])| {
        let mut sel = Vec::new();
        heap.read_run_visit(disk.as_ref(), 0, last, |page| {
            sel.clear();
            sel.extend((0..page.len() as u32).step_by(step as usize));
            each(page, &sel);
        })
        .unwrap();
    };

    let mid = tpch::DATE_LO + tpch::DATE_SPAN / 2;
    let q = Query::new(vec![
        Pred::between(tpch::COL_SHIPDATE, Value::Date(mid), Value::Date(mid + 365)),
        Pred::eq(tpch::COL_RETURNFLAG, Value::str("R")),
    ]);
    c.bench_function("page_select_200k", |b| {
        b.iter(|| {
            let mut filter = PageFilter::compile(&q, heap).unwrap();
            let mut n = 0;
            heap.read_run_visit(disk.as_ref(), 0, last, |page| n += filter.select(page).len())
            .unwrap();
            black_box(n)
        })
    });

    // Stamps as a churned table has them: mostly live, some ended before
    // the snapshot, some after it.
    let mv = Arc::new(MvccState::new());
    for _ in 0..100 {
        mv.next_ts();
    }
    let snap = mv.begin();
    let stamps: Vec<(u64, u64)> = (0..ROWS as u64)
        .map(|i| match i % 10 {
            0 => (1, 50),
            1 => (1, 1_000),
            _ => (1, cm_storage::LIVE_TS),
        })
        .collect();
    c.bench_function("snapshot_sees_200k", |b| {
        b.iter(|| black_box(stamps.iter().filter(|(begin, end)| snap.sees(*begin, *end)).count()))
    });

    // `scan_warm`'s aggregate — 21 (shipmode, returnflag) groups keyed
    // by dictionary codes, a float sum — and 500 suppkey groups.
    let str_spec = AggSpec::new(
        vec![tpch::COL_SHIPMODE, tpch::COL_RETURNFLAG],
        vec![AggFunc::Count, AggFunc::Sum(tpch::COL_EXTENDEDPRICE)],
    );
    let int_spec = AggSpec::new(
        vec![tpch::COL_SUPPKEY],
        vec![AggFunc::Count, AggFunc::Sum(tpch::COL_EXTENDEDPRICE)],
    );
    // The typed `MIN` / `MAX` loops no workload runs: a float column both
    // ways and a string column compared by its text, by the 21 groups.
    let minmax_spec = AggSpec::new(
        vec![tpch::COL_SHIPMODE, tpch::COL_RETURNFLAG],
        vec![
            AggFunc::Min(tpch::COL_EXTENDEDPRICE),
            AggFunc::Max(tpch::COL_EXTENDEDPRICE),
            AggFunc::Min(tpch::COL_SHIPMODE),
        ],
    );
    for (name, spec) in [
        ("page_fold_str_keys_200k", &str_spec),
        ("page_fold_int_keys_200k", &int_spec),
        ("page_fold_minmax_200k", &minmax_spec),
    ] {
        for (suffix, step) in [("", 1), ("_sparse", 2)] {
            c.bench_function(&format!("{name}{suffix}"), |b| {
                b.iter(|| {
                    let mut fold = BatchAgg::new(spec);
                    sweep(step, &mut |page, sel| fold.fold(page, sel));
                    black_box(fold.finish().finish())
                })
            });
        }
    }

    // `scan_warm`'s hash join probe: six partkeys, translated to the
    // column's representation once, probed by every row.
    let mut ht = JoinHashTable::new();
    for i in 0..6i64 {
        ht.insert_keyed(0, vec![Value::Int((i * 157 + 11) % 10_000), Value::Int(i)]);
    }
    for (name, step) in [
        ("page_probe_partkey_200k", 1),
        ("page_probe_partkey_200k_sparse", 2),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let keys = ht.key_probe(heap, tpch::COL_PARTKEY);
                let (mut pairs, mut hits) = (0, Vec::new());
                sweep(step, &mut |page, sel| {
                    keys.hits(page, sel, &mut hits);
                    pairs += hits.iter().map(|&(_, w)| keys.partners(w).len()).sum::<usize>();
                });
                black_box(pairs)
            })
        });
    }

    // `Table::retain_visible` over every page at one snapshot: first on
    // the stamps a load leaves (every page all-visible, no stamp read),
    // then churned as for `snapshot_sees_200k` (every tenth row ended
    // before the snapshot and every tenth after it, so every page tests
    // slot by slot).
    let visible = |table: &Table| {
        let (mut n, mut sel) = (0, Vec::new());
        table
            .heap()
            .read_run_visit(disk.as_ref(), 0, last, |page| {
                sel.clear();
                sel.extend(0..page.len() as u32);
                table.retain_visible(Some(&snap), page, &mut sel);
                n += sel.len();
            })
            .unwrap();
        n
    };
    c.bench_function("page_visible_200k_loaded", |b| {
        b.iter(|| black_box(visible(&table)))
    });
    for i in 0..ROWS as u64 {
        match i % 10 {
            0 => table.end_version(disk.as_ref(), Rid(i), 50).unwrap(),
            1 => table.end_version(disk.as_ref(), Rid(i), 1_000).unwrap(),
            _ => continue,
        };
    }
    c.bench_function("page_visible_200k_churned", |b| {
        b.iter(|| black_box(visible(&table)))
    });
}

/// A hash join's probe as `scan_warm` runs it: 200 k probe rows' `Int`
/// partkeys (10 k distinct) looked up in a table of six build keys, most
/// of them missing. Divide by 200 000 for ns/row.
fn bench_join_probe(c: &mut Criterion) {
    let mut ht = JoinHashTable::new();
    for i in 0..6i64 {
        ht.insert_keyed(0, vec![Value::Int((i * 157 + 11) % 10_000), Value::Int(i)]);
    }
    let probes: Vec<Value> = (0..200_000i64).map(|i| Value::Int(i * 7_919 % 10_000)).collect();
    c.bench_function("join_probe_int_200k", |b| {
        b.iter(|| black_box(probes.iter().map(|k| ht.probe(k).len()).sum::<usize>()))
    });
}

/// `Value::cmp` on its own — the comparison under every sort, B+Tree
/// probe, range predicate and group lookup: 1 000 pairs each of Int,
/// Float and shared-`Str` values (every string an `Arc` clone out of one
/// five-entry dictionary, as a heap stores them), half the pairs equal.
/// Divide by 3 000 for ns/compare.
fn bench_value_cmp(c: &mut Criterion) {
    let modes: Vec<Value> =
        ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"].iter().map(Value::str).collect();
    let pairs: Vec<(Value, Value)> = (0..1_000i64)
        .flat_map(|i| {
            let (a, b) = (i, i + i % 2);
            let s = (i * 7 % 5) as usize;
            [
                (Value::Int(a), Value::Int(b)),
                (Value::float(a as f64 * 0.5), Value::float(b as f64 * 0.5)),
                (modes[s].clone(), modes[(s + (i % 2) as usize) % 5].clone()),
            ]
        })
        .collect();
    c.bench_function("value_cmp", |b| {
        b.iter(|| black_box(pairs.iter().filter(|(x, y)| x.cmp(y).is_lt()).count()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_cm, bench_btree, bench_builds, bench_bucketing, bench_estimators, bench_page_batches, bench_join_probe, bench_value_cmp
);
criterion_main!(benches);
