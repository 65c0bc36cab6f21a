//! Property test: the statistics scan and the structure builds that read
//! page words compute exactly what their row-at-a-time models compute.
//!
//! Random typed heaps — `Int`, `Float`, `Str` and `Date` columns, NULLs
//! in any column (the clustered one included), `-0.0`/`0.0` and NaNs of
//! several payloads, `i64`/`i32` extremes, dead slots that keep stale
//! values (from the load image and from deletes) or hold all-NULL
//! placeholders, and an unsorted appended tail — are checked four ways:
//!
//! * [`Table::column_stats`] of every column equals
//!   [`cm_stats::correlation_stats`] over the materialised live rows plus
//!   a strict-`<` min/max over their non-NULL values (the first stored
//!   occurrence of an extreme wins, float bits included), `c_per_u`,
//!   `u_tups` and `c_tups` compared bit for bit;
//! * [`CorrelationMap::build`] over raw, pow2, equi-width, equi-depth
//!   and composite specs equals [`CorrelationMap::insert`] row by row:
//!   keys (float bits included), bucket counts, pair count and size;
//! * [`SecondaryIndex::build`] at small fanouts grows the tree that the
//!   old `get_mut` + `insert` sequence grows — node count, height, the
//!   probe path of every key and every posting list — and
//!   [`SecondaryIndex::insert`] charges, page for page and in order, the
//!   reads of the pre-insert probe path, the leaf write and one write
//!   per split that the old sequence charged; random deletes through
//!   [`SecondaryIndex::remove`] (one descent) then charge, and shape the
//!   tree, as the old probe + `get_mut` + `remove` sequence did;
//! * [`ClusteredIndex::build`] and [`BucketDirectory::restore`], which
//!   tell runs apart by column words, equal the row-at-a-time builds they
//!   replaced: the index's entries (value and first RID, probe paths,
//!   height) and the directory's buckets.
//!
//! Case count is `HEAP_PROP_CASES` (default 96), the setting of the other
//! page-level property tests, so CI raises them together.

mod typed_rows;

use cm_core::{BucketDirectory, BucketSpec, CmAttr, CmKeyPart, CmSpec, CorrelationMap};
use cm_index::{BPlusTree, ClusteredIndex, IndexKey, SecondaryIndex};
use cm_query::{ColumnStats, Table};
use cm_stats::correlation_stats;
use cm_storage::{
    Column, DiskSim, FileId, HeapFile, PageAccessor, Rid, Row, Schema, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use typed_rows::{same, value, Rng, TYPES};

fn cases() -> ProptestConfig {
    let cases = std::env::var("HEAP_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    ProptestConfig::with_cases(cases)
}

fn same_opt(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// The row-at-a-time statistics scan: the model `column_stats` must
/// match.
fn model_stats(t: &Table, col: usize) -> ColumnStats {
    let cc = t.clustered_col();
    let rows: Vec<Row> = t.live_rids(0).map(|rid| t.heap().peek(rid).unwrap()).collect();
    let corr = correlation_stats(rows.iter().map(|r| (&r[col], &r[cc])));
    let (mut min, mut max): (Option<&Value>, Option<&Value>) = (None, None);
    for v in rows.iter().map(|r| &r[col]).filter(|v| !v.is_null()) {
        if min.is_none_or(|m| v < m) {
            min = Some(v);
        }
        if max.is_none_or(|m| v > m) {
            max = Some(v);
        }
    }
    ColumnStats { col, min: min.cloned(), max: max.cloned(), corr }
}

/// A random CM key attribute over one of `t`'s `ncols` columns.
fn attr(rng: &mut Rng, ncols: usize, t: &Table) -> CmAttr {
    let col = rng.below(ncols);
    let bucket = match rng.below(4) {
        0 => BucketSpec::None,
        1 => BucketSpec::pow2(rng.below(12) as u32),
        2 => BucketSpec::EquiWidth {
            origin: rng.pick(&[-1.5, 0.0, 2.25]),
            width: rng.pick(&[0.25, 1.0, 3.0, 1e6]),
        },
        _ => {
            let value = |rid| t.heap().value(rid, col).unwrap();
            let sample: Vec<f64> =
                t.live_rids(0).filter_map(|rid| value(rid).as_numeric()).collect();
            BucketSpec::equi_depth_from_sample(&sample, 1 + rng.below(5) as u32)
        }
    };
    CmAttr { col, bucket }
}

/// A page accessor that records every charge in order.
#[derive(Default)]
struct Recorder(Mutex<Vec<(bool, u64)>>);

impl PageAccessor for Recorder {
    fn read(&self, _: FileId, page: u64) {
        self.0.lock().unwrap().push((false, page));
    }
    fn write(&self, _: FileId, page: u64) {
        self.0.lock().unwrap().push((true, page));
    }
}

/// A secondary index's tree: key to posting list.
type Tree = BPlusTree<IndexKey, Vec<Rid>>;

/// The old posting insert: look the key up, then insert it if absent —
/// two descents — returning the charges the old runtime insert made.
fn model_insert(tree: &mut Tree, key: IndexKey, rid: Rid) -> Vec<(bool, u64)> {
    let path = tree.probe_path(&key);
    let mut charges: Vec<(bool, u64)> = path.iter().map(|&n| (false, n as u64)).collect();
    charges.push((true, *path.last().unwrap() as u64));
    let before = tree.node_count();
    if let Some(list) = tree.get_mut(&key) {
        if let Err(pos) = list.binary_search(&rid) {
            list.insert(pos, rid);
        }
    } else {
        tree.insert(key, vec![rid]);
    }
    charges.extend((before..tree.node_count()).map(|_| (true, tree.root_id() as u64)));
    charges
}

/// The old posting delete: the probe path's charges, then a lookup of
/// the list, then a removal of the key when its list empties — three
/// descents. Returns the charges and whether the posting existed.
fn model_remove(tree: &mut Tree, key: &IndexKey, rid: Rid) -> (Vec<(bool, u64)>, bool) {
    let path = tree.probe_path(key);
    let mut charges: Vec<(bool, u64)> = path.iter().map(|&n| (false, n as u64)).collect();
    charges.push((true, *path.last().unwrap() as u64));
    let Some(list) = tree.get_mut(key) else { return (charges, false) };
    let Ok(pos) = list.binary_search(&rid) else { return (charges, false) };
    list.remove(pos);
    if list.is_empty() {
        tree.remove(key);
    }
    (charges, true)
}

/// `got` grows the tree the model does.
fn same_tree(got: &Tree, model: &Tree) {
    prop_assert_eq!(
        (got.node_count(), got.height(), got.len()),
        (model.node_count(), model.height(), model.len())
    );
    for ((_, k, want), (_, gk, list)) in model.iter().zip(got.iter()) {
        prop_assert_eq!(k, gk);
        prop_assert_eq!(list, want, "postings of {}", k);
        prop_assert_eq!(got.probe_path(k), model.probe_path(k), "path of {}", k);
    }
}

/// The row-at-a-time clustered index build: each live slot's clustered
/// value materialised and compared with `Value`'s `==`, a value noted
/// where its run starts. Returns the (value, RID) notes in order.
fn model_clustered_notes(
    heap: &HeapFile,
    col: usize,
    live: impl Fn(Rid) -> bool,
) -> Vec<(Value, Rid)> {
    let mut notes: Vec<(Value, Rid)> = Vec::new();
    let mut last: Option<Value> = None;
    for rid in (0..heap.len()).map(Rid).filter(|&rid| live(rid)) {
        let v = heap.value(rid, col).unwrap();
        if last.as_ref() != Some(&v) {
            notes.push((v.clone(), rid));
            last = Some(v);
        }
    }
    notes
}

/// The row-at-a-time directory build: the paper's algorithm over the
/// live rows of the sorted prefix, values compared with `Value`'s `==`,
/// then the append arithmetic over the tail. Returns the bucket starts.
fn model_bucket_starts(
    heap: &HeapFile,
    col: usize,
    target: u64,
    sorted_len: u64,
    live: impl Fn(Rid) -> bool,
) -> Vec<u64> {
    let sorted_len = sorted_len.min(heap.len());
    let mut starts: Vec<u64> = if sorted_len > 0 { vec![0] } else { Vec::new() };
    let mut boundary: Option<Value> = None;
    for rid in (0..sorted_len).map(Rid).filter(|&rid| live(rid)) {
        let v = heap.value(rid, col).unwrap();
        if boundary.as_ref().is_some_and(|bv| *bv != v) {
            starts.push(rid.0);
            boundary = None;
        }
        if boundary.is_none() && rid.0 - starts.last().unwrap() + 1 >= target {
            boundary = Some(v);
        }
    }
    for rid in sorted_len..heap.len() {
        if starts.last().is_none_or(|&s| rid - s >= target) {
            starts.push(rid);
        }
    }
    starts
}

/// `ClusteredIndex::build` and `BucketDirectory::restore` over `t`'s
/// heap against their row-at-a-time models.
fn same_clustered_builds(t: &Table, disk: &DiskSim, order: usize, target: u64, sorted_len: u64) {
    let (heap, cc) = (t.heap(), t.clustered_col());
    let live = |rid: Rid| !t.is_tombstone(rid).unwrap();
    let got = ClusteredIndex::build(heap, cc, live, disk.alloc_file(), order);
    let notes = model_clustered_notes(heap, cc, live);
    let empty = HeapFile::bulk_load(disk, heap.schema().clone(), Vec::new(), 1).unwrap();
    let mut want = ClusteredIndex::build(&empty, cc, |_| true, disk.alloc_file(), order);
    for (v, rid) in &notes {
        want.note_append(v, *rid);
    }
    want.grow_to(heap.len());
    prop_assert_eq!(
        (got.height(), got.distinct_values(), got.c_tups().to_bits()),
        (
            want.height(),
            want.distinct_values(),
            want.c_tups().to_bits()
        ),
        "clustered index"
    );
    for (v, _) in &notes {
        let range = |i: &ClusteredIndex| i.rid_range_uncharged(v, v);
        prop_assert_eq!(range(&got), range(&want), "clustered range of {:?}", v);
        let path = |i: &ClusteredIndex| {
            let io = Recorder::default();
            i.charge_probe(&io, v);
            io.0.into_inner().unwrap()
        };
        prop_assert_eq!(path(&got), path(&want), "probe path of {:?}", v);
    }
    let dir = BucketDirectory::restore(heap, cc, target, sorted_len, live);
    let starts: Vec<u64> = dir.iter().map(|(_, (lo, _))| lo).collect();
    prop_assert_eq!(starts, model_bucket_starts(heap, cc, target, sorted_len, live));
    prop_assert_eq!(dir.heap_len(), heap.len());
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn word_built_statistics_and_structures_match_their_row_models(
        seed in any::<u64>(),
        rows in 0usize..150,
        tpp in 1usize..10,
        spread in 1usize..40,
        null_every in 0usize..6,
    ) {
        let mut rng = Rng(seed);
        let disk = DiskSim::with_defaults();
        let ncols = 2 + rng.below(3);
        let types: Vec<ValueType> = (0..ncols).map(|_| rng.pick(&TYPES)).collect();
        let schema = Arc::new(Schema::new(
            types.iter().enumerate().map(|(i, &ty)| Column::new(format!("c{i}"), ty)).collect(),
        ));
        let cc = rng.below(ncols);
        let row = |rng: &mut Rng| -> Row {
            types.iter().map(|&ty| value(rng, ty, spread, null_every)).collect()
        };
        // A load image: a clustered prefix, then an unsorted tail, with
        // slots that hold no row in both.
        let sorted_len = rng.below(rows + 1);
        let mut image: Vec<Row> = (0..rows).map(|_| row(&mut rng)).collect();
        image[..sorted_len].sort_by(|a, b| a[cc].cmp(&b[cc]));
        // A dead slot keeps its stale row, or is an all-NULL placeholder.
        let mut live = vec![0u64; rows.div_ceil(64)];
        for (r, slot) in image.iter_mut().enumerate() {
            match rng.below(14) {
                0 => *slot = vec![Value::Null; ncols],
                1 => {}
                _ => live[r / 64] |= 1 << (r % 64),
            }
        }
        let target = 1 + rng.below(8) as u64;
        let sorted_len = sorted_len as u64;
        let heap = HeapFile::bulk_load(&disk, schema, image, tpp).unwrap();
        let mut t = Table::restore(&disk, heap, &live, cc, target, sorted_len);
        for _ in 0..rng.below(20) {
            match rng.below(3) {
                0 if !t.heap().is_empty() => {
                    let rid = Rid(rng.below(t.heap().len() as usize) as u64);
                    if !t.is_tombstone(rid).unwrap() {
                        t.delete_row(disk.as_ref(), None, rid).unwrap();
                    }
                }
                1 => {
                    t.append_placeholder();
                }
                _ => {
                    t.insert_row(disk.as_ref(), None, &row(&mut rng)).unwrap();
                }
            }
        }

        same_clustered_builds(&t, &disk, 3 + rng.below(4), target, sorted_len);

        for (col, ty) in types.iter().enumerate() {
            let (got, want) = (t.column_stats(col), model_stats(&t, col));
            prop_assert_eq!(&got.corr, &want.corr, "column {} ({:?})", col, ty);
            for (g, w) in [
                (got.corr.c_per_u, want.corr.c_per_u),
                (got.corr.u_tups, want.corr.u_tups),
                (got.corr.c_tups, want.corr.c_tups),
            ] {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            prop_assert!(
                same_opt(&got.min, &want.min) && same_opt(&got.max, &want.max),
                "column {} min/max {:?}..{:?}, model {:?}..{:?}",
                col,
                got.min,
                got.max,
                want.min,
                want.max
            );
        }

        for _ in 0..3 {
            let mut attrs = vec![attr(&mut rng, ncols, &t)];
            if rng.below(3) == 0 {
                attrs.push(attr(&mut rng, ncols, &t));
            }
            let spec = CmSpec::new(attrs);
            let got = t.build_cm("cm", spec.clone());
            let mut want = CorrelationMap::new("cm", spec.clone());
            for rid in t.live_rids(0) {
                want.insert(&t.heap().peek(rid).unwrap(), rid, t.dir());
            }
            prop_assert_eq!(
                (got.num_keys(), got.num_pairs(), got.size_bytes()),
                (want.num_keys(), want.num_pairs(), want.size_bytes()),
                "{:?}",
                spec
            );
            for ((gk, gb), (wk, wb)) in got.iter().zip(want.iter()) {
                let same_key = gk.len() == wk.len()
                    && gk.iter().zip(wk.iter()).all(|(g, w)| match (g, w) {
                        (CmKeyPart::Raw(g), CmKeyPart::Raw(w)) => same(g, w),
                        _ => g == w,
                    });
                prop_assert!(same_key, "key {:?}, model {:?} under {:?}", gk, wk, spec);
                prop_assert_eq!(gb, wb, "buckets of {:?}", wk);
            }
        }

        let order = 3 + rng.below(4);
        let cols: Vec<usize> = (0..1 + rng.below(2)).map(|_| rng.below(ncols)).collect();
        let live = |rid: Rid| !t.is_tombstone(rid).unwrap();
        let file = disk.alloc_file();
        let mut idx = SecondaryIndex::build("ix", cols.clone(), file, order, t.heap(), live);
        let mut model: Tree = BPlusTree::new(order);
        for rid in t.live_rids(0) {
            model_insert(&mut model, IndexKey::from_row(&t.heap().peek(rid).unwrap(), &cols), rid);
        }
        same_tree(idx.tree(), &model);
        // Runtime inserts charge what the old two-descent insert charged.
        let next = t.heap().len();
        let mut postings: Vec<(Row, Rid)> =
            t.live_rids(0).map(|rid| (t.heap().peek(rid).unwrap(), rid)).collect();
        for i in 0..rng.below(3 * order * order) as u64 {
            let (r, rid) = (row(&mut rng), Rid(next + i));
            let io = Recorder::default();
            idx.insert(&io, &r, rid);
            let want = model_insert(&mut model, IndexKey::from_row(&r, &cols), rid);
            prop_assert_eq!(io.0.into_inner().unwrap(), want, "insert {}", i);
            postings.push((r, rid));
        }
        same_tree(idx.tree(), &model);
        // Runtime deletes — of postings, of postings already deleted and
        // of keys never stored — charge what the old three-descent delete
        // charged and shrink the tree as it did.
        for i in 0..rng.below(2 * postings.len() + 1) {
            let (r, rid) = match rng.below(8) {
                0 => (row(&mut rng), Rid(next + 1000)),
                _ => postings[rng.below(postings.len())].clone(),
            };
            let io = Recorder::default();
            let got = idx.remove(&io, &r, rid);
            let (want, existed) = model_remove(&mut model, &IndexKey::from_row(&r, &cols), rid);
            prop_assert_eq!(got, existed, "delete {} found", i);
            prop_assert_eq!(io.0.into_inner().unwrap(), want, "delete {}", i);
            prop_assert_eq!(idx.tree().node_count(), model.node_count(), "delete {}", i);
        }
        same_tree(idx.tree(), &model);
        let stored: usize = model.iter().map(|(_, _, list)| list.len()).sum();
        prop_assert_eq!(idx.entries() as usize, stored);
    }
}
