//! Sparse clustered index over a clustered heap.
//!
//! When a heap file is loaded sorted on attribute `Ac`, every distinct
//! value of `Ac` occupies one contiguous RID range. [`ClusteredIndex`]
//! maps each distinct value to the first RID of its run; the run ends
//! where the next distinct value begins. A probe charges `height` page
//! reads — the `(seek_cost)(btree_height)` term the paper's cost model
//! charges per clustered value reached through a correlation (§4.1).

use crate::btree::BPlusTree;
use cm_storage::{null_bit, FileId, HeapFile, PageAccessor, Rid, Value};
use std::ops::Bound;

/// Sparse index: one entry per distinct clustered value.
pub struct ClusteredIndex {
    col: usize,
    tree: BPlusTree<Value, u64>,
    file: FileId,
    heap_len: u64,
}

impl ClusteredIndex {
    /// Build over the slots of `heap` that `live` admits, in RID order,
    /// reading only column `col`'s words. Each distinct value is indexed
    /// at the first live RID it appears at, NULL included: for a heap
    /// bulk-loaded clustered on `col` that is the start of the value's
    /// run, and a value first seen in the appended tail starts where
    /// [`ClusteredIndex::note_append`] put it. A run that lost its first
    /// rows to deletes starts at its first surviving row, so a scan may
    /// cover a few dead slots more, which hold no row. A value is built
    /// only where a run of equal words (or of NULLs) changes.
    pub fn build(
        heap: &HeapFile,
        col: usize,
        live: impl Fn(Rid) -> bool,
        file: FileId,
        order: usize,
    ) -> Self {
        let mut idx =
            ClusteredIndex { col, tree: BPlusTree::new(order), file, heap_len: heap.len() };
        // The word of the run the last live row opened, `None` for NULL.
        let mut last: Option<Option<u64>> = None;
        for page in heap.pages() {
            let (words, nulls) = (page.column(col), page.nulls(col));
            for slot in 0..page.len() {
                let rid = page.rid(slot as u32);
                if !live(rid) {
                    continue;
                }
                let word = (!nulls.is_some_and(|n| null_bit(n, slot))).then(|| words.word(slot));
                // The rest of a run repeats its word: no tree probe.
                if last != Some(word) {
                    idx.note_append(&page.value(slot, col), rid);
                    last = Some(word);
                }
            }
        }
        idx
    }

    /// The clustered column position.
    pub fn col(&self) -> usize {
        self.col
    }

    /// `btree_height` for the cost model.
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Number of distinct clustered values.
    pub fn distinct_values(&self) -> usize {
        self.tree.len()
    }

    /// The simulated file holding this index's pages.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Record that the heap grew (appends during maintenance workloads).
    /// New distinct values at the tail are indexed; re-appearing values
    /// keep their original first-RID (the tail breaks clustering, exactly
    /// as appends to a once-`CLUSTER`ed PostgreSQL table do).
    pub fn note_append(&mut self, value: &Value, rid: Rid) {
        self.grow_to(rid.0 + 1);
        if self.tree.get(value).is_none() {
            self.tree.insert(value.clone(), rid.0);
        }
    }

    /// Record that the heap grew to `heap_len` slots without a row to
    /// index — recovery's placeholders for rows deleted before a crash.
    pub fn grow_to(&mut self, heap_len: u64) {
        self.heap_len = self.heap_len.max(heap_len);
    }

    /// Charge one root-to-leaf descent against `io`.
    pub fn charge_probe(&self, io: &dyn PageAccessor, key: &Value) {
        for node in self.tree.probe_path(key) {
            io.read(self.file, node as u64);
        }
    }

    /// RID range `[start, end)` of rows whose clustered value lies in
    /// `[lo, hi]`, charging one descent. Returns `None` when no value in
    /// the range exists.
    pub fn rid_range(
        &self,
        io: &dyn PageAccessor,
        lo: &Value,
        hi: &Value,
    ) -> Option<(u64, u64)> {
        self.charge_probe(io, lo);
        let start = self
            .tree
            .range(Bound::Included(lo), Bound::Unbounded)
            .next()
            .map(|(_, _, &rid)| rid)?;
        // First run that starts above hi bounds the range.
        let end = self
            .tree
            .range(Bound::Excluded(hi), Bound::Unbounded)
            .next()
            .map(|(_, _, &rid)| rid)
            .unwrap_or(self.heap_len);
        if start >= end {
            return None;
        }
        Some((start, end))
    }

    /// Uncharged variant of [`ClusteredIndex::rid_range`] for planning and
    /// statistics (no measured I/O).
    pub fn rid_range_uncharged(&self, lo: &Value, hi: &Value) -> Option<(u64, u64)> {
        let start = self
            .tree
            .range(Bound::Included(lo), Bound::Unbounded)
            .next()
            .map(|(_, _, &rid)| rid)?;
        let end = self
            .tree
            .range(Bound::Excluded(hi), Bound::Unbounded)
            .next()
            .map(|(_, _, &rid)| rid)
            .unwrap_or(self.heap_len);
        if start >= end {
            None
        } else {
            Some((start, end))
        }
    }

    /// Average tuples per distinct clustered value — the paper's `c_tups`.
    pub fn c_tups(&self) -> f64 {
        if self.tree.is_empty() {
            0.0
        } else {
            self.heap_len as f64 / self.tree.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{Column, DiskSim, Schema, ValueType};
    use std::sync::Arc;

    /// The index over every slot of `heap`.
    fn build(heap: &HeapFile, disk: &DiskSim, order: usize) -> ClusteredIndex {
        ClusteredIndex::build(heap, 0, |_| true, disk.alloc_file(), order)
    }

    fn clustered_heap(disk: &DiskSim) -> HeapFile {
        let schema = Arc::new(Schema::new(vec![
            Column::new("state", ValueType::Str),
            Column::new("city", ValueType::Str),
        ]));
        // 3 MA, 2 MN, 4 NH, 1 OH — already sorted on state.
        let rows: Vec<Vec<Value>> = [
            ("MA", "boston"),
            ("MA", "cambridge"),
            ("MA", "springfield"),
            ("MN", "manchester"),
            ("MN", "st paul"),
            ("NH", "boston"),
            ("NH", "concord"),
            ("NH", "manchester"),
            ("NH", "nashua"),
            ("OH", "toledo"),
        ]
        .iter()
        .map(|(s, c)| vec![Value::str(*s), Value::str(*c)])
        .collect();
        HeapFile::bulk_load(disk, schema, rows, 4).unwrap()
    }

    #[test]
    fn build_records_run_starts() {
        let disk = DiskSim::with_defaults();
        let heap = clustered_heap(&disk);
        let idx = build(&heap, &disk, 4);
        assert_eq!(idx.distinct_values(), 4);
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("MA"), &Value::str("MA")),
            Some((0, 3))
        );
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("NH"), &Value::str("NH")),
            Some((5, 9))
        );
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("OH"), &Value::str("OH")),
            Some((9, 10)),
            "last run extends to heap end"
        );
    }

    #[test]
    fn range_spans_multiple_values() {
        let disk = DiskSim::with_defaults();
        let heap = clustered_heap(&disk);
        let idx = build(&heap, &disk, 4);
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("MA"), &Value::str("MN")),
            Some((0, 5))
        );
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("MB"), &Value::str("NA")),
            Some((3, 5)),
            "bounds between values snap to contained runs"
        );
    }

    #[test]
    fn missing_ranges_return_none() {
        let disk = DiskSim::with_defaults();
        let heap = clustered_heap(&disk);
        let idx = build(&heap, &disk, 4);
        assert_eq!(idx.rid_range_uncharged(&Value::str("ZZ"), &Value::str("ZZ")), None);
        assert_eq!(idx.rid_range_uncharged(&Value::str("MB"), &Value::str("MC")), None);
    }

    #[test]
    fn probes_charge_height_reads() {
        let disk = DiskSim::with_defaults();
        let heap = clustered_heap(&disk);
        let idx = build(&heap, &disk, 4);
        let before = disk.stats();
        let _ = idx.rid_range(disk.as_ref(), &Value::str("MA"), &Value::str("MA"));
        let d = disk.stats().since(&before);
        assert_eq!((d.seeks + d.seq_reads) as usize, idx.height());
    }

    #[test]
    fn c_tups_is_rows_over_distinct() {
        let disk = DiskSim::with_defaults();
        let heap = clustered_heap(&disk);
        let idx = build(&heap, &disk, 4);
        assert!((idx.c_tups() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn note_append_extends_heap_and_indexes_new_values() {
        let disk = DiskSim::with_defaults();
        let heap = clustered_heap(&disk);
        let mut idx = build(&heap, &disk, 4);
        idx.note_append(&Value::str("TX"), Rid(10));
        assert_eq!(idx.distinct_values(), 5);
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("TX"), &Value::str("TX")),
            Some((10, 11))
        );
        // Re-appearing value keeps its original run start.
        idx.note_append(&Value::str("MA"), Rid(11));
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("MA"), &Value::str("MA")).unwrap().0,
            0
        );
    }

    #[test]
    fn restore_tolerates_tombstones_and_tail() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![Column::new("k", ValueType::Str)]));
        // Sorted prefix with the whole MN run and the first NH row dead,
        // plus a live tail row and a dead one. The dead slots keep their
        // values: liveness is the caller's record, not the row's.
        let rows: Vec<Vec<Value>> =
            ["MA", "MA", "MA", "MN", "MN", "NH", "NH", "NH", "NH", "OH", "TX", "ZZ"]
                .iter()
                .map(|s| vec![Value::str(*s)])
                .collect();
        let heap = HeapFile::bulk_load(&disk, schema, rows, 4).unwrap();
        let dead = [3, 4, 5, 11];
        let live = |rid: Rid| !dead.contains(&rid.0);
        let idx = ClusteredIndex::build(&heap, 0, live, disk.alloc_file(), 4);
        // MA unchanged; NH starts at its first *surviving* row; dead
        // slots are never indexed; the tail value is.
        assert_eq!(idx.rid_range_uncharged(&Value::str("MA"), &Value::str("MA")), Some((0, 6)));
        assert_eq!(idx.rid_range_uncharged(&Value::str("NH"), &Value::str("NH")), Some((6, 9)));
        assert_eq!(idx.rid_range_uncharged(&Value::str("TX"), &Value::str("TX")), Some((10, 12)));
        assert_eq!(idx.distinct_values(), 4, "MA NH OH TX");
        assert_eq!(idx.rid_range_uncharged(&Value::str("ZZ"), &Value::str("ZZ")), None);
    }

    #[test]
    fn placeholder_growth_extends_length_without_indexing() {
        let disk = DiskSim::with_defaults();
        let heap = clustered_heap(&disk);
        let mut idx = build(&heap, &disk, 4);
        let distinct = idx.distinct_values();
        idx.grow_to(11);
        assert_eq!(idx.distinct_values(), distinct);
        // The heap end moved: the last run now extends over the
        // placeholder, which holds no row.
        assert_eq!(
            idx.rid_range_uncharged(&Value::str("OH"), &Value::str("OH")),
            Some((9, 11))
        );
    }

    #[test]
    fn null_is_an_ordinary_key() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![Column::new("k", ValueType::Str)]));
        let rows = vec![vec![Value::Null], vec![Value::Null], vec![Value::str("MA")]];
        let heap = HeapFile::bulk_load(&disk, schema, rows, 4).unwrap();
        let mut idx = build(&heap, &disk, 4);
        assert_eq!(idx.rid_range_uncharged(&Value::Null, &Value::Null), Some((0, 2)));
        idx.note_append(&Value::Null, Rid(3));
        assert_eq!(idx.distinct_values(), 2, "a re-appearing NULL keeps its run start");
    }

    #[test]
    fn many_distinct_values_build_real_tree() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![Column::new("k", ValueType::Int)]));
        let rows: Vec<Vec<Value>> = (0..5000i64).map(|i| vec![Value::Int(i / 2)]).collect();
        let heap = HeapFile::bulk_load(&disk, schema, rows, 50).unwrap();
        let idx = build(&heap, &disk, 16);
        assert_eq!(idx.distinct_values(), 2500);
        assert!(idx.height() >= 3);
        assert_eq!(idx.rid_range_uncharged(&Value::Int(100), &Value::Int(100)), Some((200, 202)));
    }
}
