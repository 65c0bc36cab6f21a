//! Dense secondary indexes (the paper's comparison baseline).
//!
//! A [`SecondaryIndex`] is a B+Tree from an [`IndexKey`] to the sorted
//! posting list of every RID whose tuple carries that key — the
//! PostgreSQL-style unclustered index the paper measures CMs against. It
//! is *dense*: one posting per tuple, which is precisely why it is three
//! orders of magnitude larger than the equivalent CM and why maintaining
//! many of them floods the buffer pool in Experiment 3.

use crate::btree::{BPlusTree, NodeId};
use crate::key::IndexKey;
use cm_storage::{FileId, HeapFile, PageAccessor, Rid, Value};
use std::ops::Bound;

/// PostgreSQL-like leaf fill factor used by the size model.
const FILL_FACTOR: f64 = 0.9;
/// Per-posting overhead: index tuple header (8) + heap TID (6), rounded up
/// to alignment.
const POSTING_OVERHEAD: usize = 16;

/// A dense unclustered B+Tree index over one or more columns.
pub struct SecondaryIndex {
    name: String,
    cols: Vec<usize>,
    tree: BPlusTree<IndexKey, Vec<Rid>>,
    file: FileId,
    /// Total postings (= indexed tuples).
    entries: u64,
    /// Total key bytes across all postings (keys repeat per posting, as in
    /// a real dense index).
    key_bytes: u64,
}

impl SecondaryIndex {
    /// An empty index on `cols` charged against `file`.
    pub fn new(name: impl Into<String>, cols: Vec<usize>, file: FileId, order: usize) -> Self {
        assert!(!cols.is_empty(), "index needs at least one column");
        SecondaryIndex {
            name: name.into(),
            cols,
            tree: BPlusTree::new(order),
            file,
            entries: 0,
            key_bytes: 0,
        }
    }

    /// Build over the heap's slots that `live` admits, one posting at a
    /// time in RID order, reading only the key columns off the page
    /// slices, without charging I/O (structure construction happens
    /// outside the measured window, as in the paper). Each posting is
    /// one tree descent ([`BPlusTree::upsert`]); the tree is the one
    /// [`SecondaryIndex::insert`] would grow row by row.
    pub fn build(
        name: impl Into<String>,
        cols: Vec<usize>,
        file: FileId,
        order: usize,
        heap: &HeapFile,
        live: impl Fn(Rid) -> bool,
    ) -> Self {
        let mut idx = Self::new(name, cols, file, order);
        for page in heap.pages() {
            for slot in 0..page.len() {
                let rid = page.rid(slot as u32);
                if live(rid) {
                    let key = IndexKey::from_page(&page, slot, &idx.cols);
                    idx.insert_posting(key, rid, |_| {});
                }
            }
        }
        idx
    }

    /// Index name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column positions.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The simulated file holding this index's pages.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// `btree_height` of this index, as used by the cost model.
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Total postings (indexed tuples).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.tree.len()
    }

    /// The tree from key to posting list (diagnostics and tests).
    pub fn tree(&self) -> &BPlusTree<IndexKey, Vec<Rid>> {
        &self.tree
    }

    /// Modeled on-disk size in bytes: dense leaf entries (key + posting
    /// overhead per tuple) at the configured fill factor, plus the live
    /// node pages' fixed overhead. This is the figure compared against
    /// `CorrelationMap::size_bytes` in the size-ratio experiments.
    pub fn size_bytes(&self) -> u64 {
        let leaf_payload = self.key_bytes + self.entries * POSTING_OVERHEAD as u64;
        let leaf = (leaf_payload as f64 / FILL_FACTOR) as u64;
        // Internal levels are a small fraction of leaf volume; model them
        // via the actual node count (~24 bytes of header per node page).
        leaf + self.tree.node_count() as u64 * 24
    }

    /// Extract this index's key from a row.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        IndexKey::from_row(row, &self.cols)
    }

    /// WAL bytes for one posting's maintenance record: the size of
    /// `key_of(row)`, summed without building the key, plus 14.
    pub fn wal_record_bytes(&self, row: &[Value]) -> usize {
        self.cols.iter().map(|&c| row[c].size_bytes()).sum::<usize>() + 14
    }

    /// Probe one key, charging `height` page reads; returns the posting
    /// list (empty if the key is absent).
    pub fn probe(&self, io: &dyn PageAccessor, key: &IndexKey) -> &[Rid] {
        for node in self.tree.probe_path(key) {
            io.read(self.file, node as u64);
        }
        self.tree.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Probe a key range, charging the descent plus one read per distinct
    /// leaf visited; returns all postings in key order.
    pub fn probe_range(
        &self,
        io: &dyn PageAccessor,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
    ) -> Vec<Rid> {
        // Charge the descent to the first leaf.
        let descend_key = match lo {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        };
        if let Some(k) = descend_key {
            for node in self.tree.probe_path(k) {
                io.read(self.file, node as u64);
            }
        }
        let mut out = Vec::new();
        let mut last_leaf = None;
        for (leaf, _k, rids) in self.tree.range(lo, hi) {
            if last_leaf != Some(leaf) {
                io.read(self.file, leaf as u64);
                last_leaf = Some(leaf);
            }
            out.extend_from_slice(rids);
        }
        out
    }

    /// Probe every key whose **first** column lies in `[lo, hi]`,
    /// charging the descent plus one read per distinct leaf. This is how
    /// a range (or per-value prefix) predicate uses a composite index:
    /// only the first key column narrows the scan — the prefix limitation
    /// the paper's Experiment 5 exposes for `B+Tree(ra, dec)`.
    pub fn probe_first_col_range(
        &self,
        io: &dyn PageAccessor,
        lo: &Value,
        hi: &Value,
    ) -> Vec<Rid> {
        let start = if self.cols.len() == 1 {
            IndexKey::single(lo.clone())
        } else {
            IndexKey::prefix_lower(std::slice::from_ref(lo))
        };
        for node in self.tree.probe_path(&start) {
            io.read(self.file, node as u64);
        }
        let mut out = Vec::new();
        let mut last_leaf = None;
        for (leaf, key, rids) in self.tree.range(Bound::Included(&start), Bound::Unbounded) {
            if &key.values()[0] > hi {
                break;
            }
            if last_leaf != Some(leaf) {
                io.read(self.file, leaf as u64);
                last_leaf = Some(leaf);
            }
            out.extend_from_slice(rids);
        }
        out
    }

    /// Insert a posting for `row` at `rid`, charging a root-to-leaf read
    /// and a leaf write (plus one write per node created by splits).
    pub fn insert(&mut self, io: &dyn PageAccessor, row: &[Value], rid: Rid) {
        let key = self.key_of(row);
        let (file, nodes_before) = (self.file, self.tree.node_count());
        let mut leaf = 0;
        self.insert_posting(key, rid, |node| {
            io.read(file, node as u64);
            leaf = node;
        });
        io.write(file, leaf as u64);
        for _ in nodes_before..self.tree.node_count() {
            // Each split allocates a page that must be written out.
            io.write(file, self.tree.root_id() as u64);
        }
    }

    /// Add `rid` to `key`'s posting list in one descent, whose nodes
    /// `visit` sees root first.
    fn insert_posting(&mut self, key: IndexKey, rid: Rid, visit: impl FnMut(NodeId)) {
        self.entries += 1;
        self.key_bytes += key.size_bytes() as u64;
        let (list, new) = self.tree.upsert(key, visit, || vec![rid]);
        if !new {
            match list.binary_search(&rid) {
                Ok(_) => {} // duplicate posting: idempotent
                Err(pos) => list.insert(pos, rid),
            }
        }
    }

    /// Remove the posting for `row` at `rid`; returns whether it existed.
    /// Charges a root-to-leaf read and a leaf write. One descent finds
    /// the posting list and, when the posting was its last, drops the
    /// key in the same descent ([`BPlusTree::modify`]).
    pub fn remove(&mut self, io: &dyn PageAccessor, row: &[Value], rid: Rid) -> bool {
        let key = self.key_of(row);
        let (file, mut leaf, mut removed) = (self.file, 0, false);
        let visit = |node| {
            io.read(file, node as u64);
            leaf = node;
        };
        self.tree.modify(&key, visit, |list| {
            if let Ok(pos) = list.binary_search(&rid) {
                list.remove(pos);
                removed = true;
            }
            list.is_empty()
        });
        io.write(file, leaf as u64);
        if removed {
            self.entries -= 1;
            self.key_bytes -= key.size_bytes() as u64;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{Column, DiskSim, Schema, ValueType};
    use std::sync::Arc;

    fn sample_rows() -> Vec<Vec<Value>> {
        // (id, city, state)
        [
            (0, "boston", "MA"),
            (1, "boston", "NH"),
            (2, "springfield", "MA"),
            (3, "springfield", "OH"),
            (4, "boston", "MA"),
            (5, "toledo", "OH"),
        ]
        .iter()
        .map(|(id, c, s)| vec![Value::Int(*id), Value::str(*c), Value::str(*s)])
        .collect()
    }

    fn sample_heap(disk: &DiskSim) -> HeapFile {
        let schema = Arc::new(Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("city", ValueType::Str),
            Column::new("state", ValueType::Str),
        ]));
        HeapFile::bulk_load(disk, schema, sample_rows(), 4).unwrap()
    }

    fn build_city_index(disk: &DiskSim) -> SecondaryIndex {
        SecondaryIndex::build(
            "city_idx",
            vec![1],
            disk.alloc_file(),
            4,
            &sample_heap(disk),
            |_| true,
        )
    }

    #[test]
    fn probe_returns_all_postings_sorted() {
        let disk = DiskSim::with_defaults();
        let idx = build_city_index(&disk);
        let rids = idx.probe(disk.as_ref(), &IndexKey::single(Value::str("boston")));
        assert_eq!(rids, &[Rid(0), Rid(1), Rid(4)]);
        assert_eq!(disk.stats().pages() as usize, idx.height());
    }

    #[test]
    fn probe_missing_key_charges_but_returns_empty() {
        let disk = DiskSim::with_defaults();
        let idx = build_city_index(&disk);
        let rids = idx.probe(disk.as_ref(), &IndexKey::single(Value::str("nowhere")));
        assert!(rids.is_empty());
        assert!(disk.stats().pages() > 0);
    }

    #[test]
    fn wal_record_bytes_is_the_built_key_size() {
        let disk = DiskSim::with_defaults();
        let rows = [
            vec![Value::Int(6), Value::str("boston"), Value::Null],
            vec![Value::Null, Value::float(1.5), Value::Date(3)],
        ];
        for cols in [vec![1], vec![2, 0], vec![0, 1, 2]] {
            let idx = SecondaryIndex::new("i", cols, disk.alloc_file(), 4);
            for row in &rows {
                assert_eq!(idx.wal_record_bytes(row), idx.key_of(row).size_bytes() + 14);
            }
        }
    }

    #[test]
    fn insert_and_remove_maintain_entries() {
        let disk = DiskSim::with_defaults();
        let mut idx = build_city_index(&disk);
        assert_eq!(idx.entries(), 6);
        let row = vec![Value::Int(6), Value::str("boston"), Value::str("MA")];
        idx.insert(disk.as_ref(), &row, Rid(6));
        assert_eq!(idx.entries(), 7);
        assert_eq!(
            idx.probe(disk.as_ref(), &IndexKey::single(Value::str("boston"))).len(),
            4
        );
        assert!(idx.remove(disk.as_ref(), &row, Rid(6)));
        assert!(!idx.remove(disk.as_ref(), &row, Rid(6)), "double remove is false");
        assert_eq!(idx.entries(), 6);
    }

    #[test]
    fn removing_last_posting_drops_key() {
        let disk = DiskSim::with_defaults();
        let mut idx = build_city_index(&disk);
        let row = &sample_rows()[5]; // the only toledo
        assert!(idx.remove(disk.as_ref(), row, Rid(5)));
        assert_eq!(
            idx.probe(disk.as_ref(), &IndexKey::single(Value::str("toledo"))).len(),
            0
        );
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent_in_postings() {
        let disk = DiskSim::with_defaults();
        let mut idx = build_city_index(&disk);
        let row = &sample_rows()[0];
        idx.insert(disk.as_ref(), row, Rid(0)); // already present
        let rids = idx.probe(disk.as_ref(), &IndexKey::single(Value::str("boston")));
        assert_eq!(rids, &[Rid(0), Rid(1), Rid(4)]);
    }

    #[test]
    fn insert_charges_read_path_plus_leaf_write() {
        let disk = DiskSim::with_defaults();
        let mut idx = build_city_index(&disk);
        let h = idx.height() as u64;
        let row = vec![Value::Int(9), Value::str("akron"), Value::str("OH")];
        let before = disk.stats();
        idx.insert(disk.as_ref(), &row, Rid(9));
        let d = disk.stats().since(&before);
        assert_eq!(d.seeks + d.seq_reads, h);
        assert!(d.page_writes >= 1);
    }

    #[test]
    fn composite_keys_and_prefix_range() {
        let disk = DiskSim::with_defaults();
        let idx = SecondaryIndex::build(
            "city_state",
            vec![1, 2],
            disk.alloc_file(),
            4,
            &sample_heap(&disk),
            |_| true,
        );
        // All boston rows regardless of state, via prefix bounds.
        let lo = IndexKey::prefix_lower(&[Value::str("boston")]);
        let hi = IndexKey::prefix_lower(&[Value::str("bostoo")]);
        let rids =
            idx.probe_range(disk.as_ref(), Bound::Included(&lo), Bound::Excluded(&hi));
        assert_eq!(rids.len(), 3);
    }

    #[test]
    fn probe_range_collects_in_key_order() {
        let disk = DiskSim::with_defaults();
        let idx = build_city_index(&disk);
        let lo = IndexKey::single(Value::str("a"));
        let hi = IndexKey::single(Value::str("zzzz"));
        let rids =
            idx.probe_range(disk.as_ref(), Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(rids.len(), 6);
    }

    #[test]
    fn size_grows_linearly_with_entries() {
        let disk = DiskSim::with_defaults();
        let mut small = SecondaryIndex::new("s", vec![0], disk.alloc_file(), 64);
        let mut large = SecondaryIndex::new("l", vec![0], disk.alloc_file(), 64);
        for i in 0..100i64 {
            small.insert(disk.as_ref(), &[Value::Int(i)], Rid(i as u64));
        }
        for i in 0..10_000i64 {
            large.insert(disk.as_ref(), &[Value::Int(i)], Rid(i as u64));
        }
        let ratio = large.size_bytes() as f64 / small.size_bytes() as f64;
        assert!((50.0..200.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dense_index_is_much_larger_than_distinct_count_suggests() {
        // 10k tuples over 10 distinct keys still cost ~10k postings.
        let disk = DiskSim::with_defaults();
        let mut idx = SecondaryIndex::new("dense", vec![0], disk.alloc_file(), 64);
        for i in 0..10_000i64 {
            idx.insert(disk.as_ref(), &[Value::Int(i % 10)], Rid(i as u64));
        }
        assert_eq!(idx.distinct_keys(), 10);
        assert_eq!(idx.entries(), 10_000);
        assert!(idx.size_bytes() > 10_000 * 16);
    }
}
