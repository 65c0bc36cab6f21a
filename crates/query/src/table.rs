//! Table composition and maintenance.
//!
//! A [`Table`] bundles the clustered heap with every access structure the
//! experiments compare: the sparse clustered index, the CM bucket
//! directory, any number of dense secondary B+Trees, and any number of
//! CMs. It also owns the INSERT/DELETE maintenance paths whose costs
//! Experiment 3 measures: heap append + every secondary index update
//! (charged page I/O through the buffer pool) + every CM update (pure
//! memory) + WAL records for all of them.

use crate::kernel::PageFilter;
use cm_core::{BucketDirectory, CmSpec, CorrelationMap};
use cm_index::{ClusteredIndex, SecondaryIndex};
use cm_stats::{correlation_stats, CorrelationStats};
use cm_storage::{
    is_pending, DiskSim, HeapFile, LogWrite, PageAccessor, PageRef, Rid, Row, Schema, Snapshot,
    StorageError, Value, LIVE_TS,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Per-column statistics against the table's clustered attribute,
/// computed by [`Table::analyze_cols`] (the paper's statistics scan).
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Column position.
    pub col: usize,
    /// Smallest non-null value.
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Correlation statistics of this column vs. the clustered column
    /// (`c_per_u`, `u_tups`, `c_tups`, distinct counts).
    pub corr: CorrelationStats,
}

/// A clustered table with its access structures.
///
/// Every heap slot carries an MVCC **stamp pair** (`begin`, `end`) in a
/// parallel vector (see [`cm_storage::mvcc`] for the encoding): bulk-
/// loaded rows are stamped `(1, LIVE_TS)`, slots that hold no row
/// `(0, 0)`, and MVCC mutations stamp versions without touching the
/// row bytes. The stamp is the one record of whether a slot holds a
/// row, in both engine modes: a physical delete stamps `(0, 0)`, and
/// nothing infers a dead slot from its values (a row may be all NULL).
/// Engines that run without MVCC pass no snapshot to the executors,
/// which then only skip `(0, 0)` slots.
pub struct Table {
    heap: HeapFile,
    clustered_col: usize,
    clustered: ClusteredIndex,
    dir: BucketDirectory,
    secondaries: Vec<SecondaryIndex>,
    cms: Vec<CorrelationMap>,
    stats: Vec<Option<ColumnStats>>,
    stamps: Vec<(u64, u64)>,
}

/// Default B+Tree fanout for the indexes built on tables.
pub const DEFAULT_TREE_ORDER: usize = 64;

/// Stamp pair of a slot that holds no row: deleted, reclaimed, or a
/// recovery placeholder. Invisible to every snapshot.
const DEAD: (u64, u64) = (0, 0);

/// Stamp pair of a row live since the epoch: bulk-loaded, restored, or
/// inserted (MVCC then overwrites the begin stamp).
const LIVE: (u64, u64) = (1, LIVE_TS);

impl Table {
    /// Build a table clustered on `clustered_col`, with a clustered index
    /// and a bucket directory targeting `bucket_target` tuples per bucket:
    /// the rows are sorted on the clustered column (ties keep their input
    /// order, as under PostgreSQL's `CLUSTER`) and go through
    /// [`Table::restore`] as one sorted image whose every slot is live.
    pub fn build(
        disk: &DiskSim,
        schema: Arc<Schema>,
        mut rows: Vec<Row>,
        tups_per_page: usize,
        clustered_col: usize,
        bucket_target: u64,
    ) -> Result<Self, StorageError> {
        rows.sort_by(|a, b| a[clustered_col].cmp(&b[clustered_col]));
        let len = rows.len() as u64;
        let slots = rows.into_iter().map(Some).collect();
        Self::restore(disk, schema, slots, tups_per_page, clustered_col, bucket_target, len)
    }

    /// Build a table from a heap image: `slots` in RID order, `None` for
    /// a slot that holds no row, taken verbatim (the unsorted appended
    /// tail included — no re-sort). The first `sorted_len` slots are
    /// known to have been bulk-loaded clustered on `clustered_col`. The
    /// clustered index and bucket directory are built over the live
    /// rows; secondary indexes and CMs are added afterwards (recovery
    /// re-adds them in design order, as redo replays).
    pub fn restore(
        disk: &DiskSim,
        schema: Arc<Schema>,
        slots: Vec<Option<Row>>,
        tups_per_page: usize,
        clustered_col: usize,
        bucket_target: u64,
        sorted_len: u64,
    ) -> Result<Self, StorageError> {
        let arity = schema.arity();
        // An image collapses version chains: live rows restart at the
        // epoch stamp.
        let stamps: Vec<(u64, u64)> =
            slots.iter().map(|slot| if slot.is_some() { LIVE } else { DEAD }).collect();
        let rows = slots.into_iter().map(|slot| slot.unwrap_or_else(|| vec![Value::Null; arity]));
        let heap = HeapFile::bulk_load(disk, schema, rows.collect(), tups_per_page)?;
        let live = |rid: Rid| stamps[rid.0 as usize] != DEAD;
        let clustered =
            ClusteredIndex::build(&heap, clustered_col, live, disk.alloc_file(), DEFAULT_TREE_ORDER);
        let dir = BucketDirectory::restore(&heap, clustered_col, bucket_target, sorted_len, live);
        Ok(Table {
            heap,
            clustered_col,
            clustered,
            dir,
            secondaries: Vec::new(),
            cms: Vec::new(),
            stats: vec![None; arity],
            stamps,
        })
    }

    /// The heap file.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// The clustered column position.
    pub fn clustered_col(&self) -> usize {
        self.clustered_col
    }

    /// The sparse clustered index.
    pub fn clustered(&self) -> &ClusteredIndex {
        &self.clustered
    }

    /// The clustered bucket directory.
    pub fn dir(&self) -> &BucketDirectory {
        &self.dir
    }

    /// Add (and bulk-build) a dense secondary B+Tree on `cols`; returns
    /// its id.
    pub fn add_secondary(
        &mut self,
        disk: &DiskSim,
        name: impl Into<String>,
        cols: Vec<usize>,
    ) -> usize {
        let idx = self.build_secondary(disk, name, cols);
        self.secondaries.push(idx);
        self.secondaries.len() - 1
    }

    /// Add (and build via Algorithm 1) a Correlation Map; returns its id.
    pub fn add_cm(&mut self, name: impl Into<String>, spec: CmSpec) -> usize {
        let cm = self.build_cm(name, spec);
        self.cms.push(cm);
        self.cms.len() - 1
    }

    /// Build (but do not install) a dense secondary B+Tree on `cols`
    /// from the current heap's rows, reading only `cols` — the build
    /// phase of a design change, callable under a shard *read* lock.
    /// Pair with [`Table::install_access_structures`]. Dead slots are
    /// skipped, as [`Table::insert_row`] and [`Table::delete_row`] keep
    /// them out of the maintained structures; an MVCC version that has
    /// ended but is not yet vacuumed still holds its row and is included
    /// — older snapshots reach it through the structures.
    pub fn build_secondary(
        &self,
        disk: &DiskSim,
        name: impl Into<String>,
        cols: Vec<usize>,
    ) -> SecondaryIndex {
        let file = disk.alloc_file();
        SecondaryIndex::build(name, cols, file, DEFAULT_TREE_ORDER, &self.heap, |rid| {
            self.holds_row(rid)
        })
    }

    /// Build (but do not install) a Correlation Map — see
    /// [`Table::build_secondary`].
    pub fn build_cm(&self, name: impl Into<String>, spec: CmSpec) -> CorrelationMap {
        CorrelationMap::build(name, spec, &self.heap, |rid| self.holds_row(rid), &self.dir)
    }

    /// Whether slot `rid` holds a row (its stamp is not [`DEAD`]).
    #[inline]
    fn holds_row(&self, rid: Rid) -> bool {
        self.stamps[rid.0 as usize] != DEAD
    }

    /// The secondary indexes.
    pub fn secondaries(&self) -> &[SecondaryIndex] {
        &self.secondaries
    }

    /// One secondary index by id.
    pub fn secondary(&self, id: usize) -> &SecondaryIndex {
        &self.secondaries[id]
    }

    /// The correlation maps.
    pub fn cms(&self) -> &[CorrelationMap] {
        &self.cms
    }

    /// One CM by id.
    pub fn cm(&self, id: usize) -> &CorrelationMap {
        &self.cms[id]
    }

    /// Install pre-built structures (secondaries + CMs) in one call —
    /// the brief exclusive phase of a design change whose structures
    /// were built under a read lock. With `replace` they become the
    /// whole set; otherwise they are appended, so existing ids stay put.
    pub fn install_access_structures(
        &mut self,
        secondaries: Vec<SecondaryIndex>,
        cms: Vec<CorrelationMap>,
        replace: bool,
    ) {
        if replace {
            self.secondaries.clear();
            self.cms.clear();
        }
        self.secondaries.extend(secondaries);
        self.cms.extend(cms);
    }

    /// Compute (or refresh) per-column statistics vs. the clustered
    /// column for the given columns over the slots that hold a row — one
    /// uncharged pass per call, like the paper's statistics scan.
    pub fn analyze_cols(&mut self, cols: &[usize]) {
        for &col in cols {
            let mut pairs: Vec<(Value, Value)> = Vec::with_capacity(self.heap.len() as usize);
            self.heap.scan_cols(&[col, self.clustered_col], |rid, row| {
                if self.holds_row(rid) {
                    pairs.push((row[col].clone(), row[self.clustered_col].clone()));
                }
            });
            let corr = correlation_stats(pairs.iter().map(|(u, c)| (u, c)));
            let mut min: Option<&Value> = None;
            let mut max: Option<&Value> = None;
            for (v, _) in pairs.iter().filter(|(v, _)| !v.is_null()) {
                if min.is_none_or(|m| v < m) {
                    min = Some(v);
                }
                if max.is_none_or(|m| v > m) {
                    max = Some(v);
                }
            }
            let (min, max) = (min.cloned(), max.cloned());
            self.stats[col] = Some(ColumnStats { col, min, max, corr });
        }
    }

    /// Statistics for a column, if analyzed.
    pub fn col_stats(&self, col: usize) -> Option<&ColumnStats> {
        self.stats.get(col).and_then(Option::as_ref)
    }

    /// Number of distinct values of `col` inside `[lo, hi]`, computed
    /// exactly (used by experiments; the planner uses the estimate from
    /// [`ColumnStats`]).
    pub fn distinct_in_range(&self, col: usize, lo: &Value, hi: &Value) -> u64 {
        let mut seen: HashSet<Value> = HashSet::new();
        self.heap.scan_cols(&[col], |rid, row| {
            let v = &row[col];
            if self.holds_row(rid) && v >= lo && v <= hi && !seen.contains(v) {
                seen.insert(v.clone());
            }
        });
        seen.len() as u64
    }

    /// The slots at or after `from` that hold a row, in RID order — what
    /// a catch-up and an advisor sample walk. The full statistics scans
    /// read page by page and skip the same slots.
    pub fn live_rids(&self, from: u64) -> impl Iterator<Item = Rid> + '_ {
        (from..self.heap.len()).map(Rid).filter(|&rid| self.holds_row(rid))
    }

    /// INSERT one row, maintaining every access structure and logging to
    /// the WAL if provided. Charges:
    ///
    /// * the heap tail-page write (through `io`, typically a buffer pool);
    /// * per secondary index: a root-to-leaf read + leaf write (+ splits);
    /// * per CM: nothing — memory-resident, exactly the paper's point;
    /// * WAL bytes for each index posting and each CM delta
    ///   (recoverability comparable to a B+Tree, §7.1). The heap row
    ///   itself is logged by the caller as a typed
    ///   [`cm_storage::LogPayload::Insert`] record, which recovery
    ///   replays; the per-structure records here remain volume-only.
    pub fn insert_row(
        &mut self,
        io: &dyn PageAccessor,
        wal: Option<&mut dyn LogWrite>,
        row: Row,
    ) -> Result<Rid, StorageError> {
        let rid = self.heap.append_row(io, &row)?;
        self.stamps.push(LIVE);
        self.dir.note_append(rid);
        self.learn_row(io, wal, rid, &row);
        Ok(rid)
    }

    /// DELETE one row by RID, retracting it from every access structure.
    /// As with inserts, the heap-level record (a typed
    /// [`cm_storage::LogPayload::Delete`] carrying the before-image) is
    /// the caller's job; only structure-maintenance volume is logged
    /// here.
    pub fn delete_row(
        &mut self,
        io: &dyn PageAccessor,
        mut wal: Option<&mut dyn LogWrite>,
        rid: Rid,
    ) -> Result<Row, StorageError> {
        let row = self.heap.delete(io, rid)?;
        self.stamps[rid.0 as usize] = DEAD;
        for sec in &mut self.secondaries {
            sec.remove(io, &row, rid);
            if let Some(w) = wal.as_deref_mut() {
                w.append_sized(sec.key_of(&row).size_bytes() + 14);
            }
        }
        for cm in &mut self.cms {
            cm.delete(&row, rid, &self.dir);
            if let Some(w) = wal.as_deref_mut() {
                w.append_sized(cm.wal_record_bytes(&row));
            }
        }
        Ok(row)
    }

    /// Reinstate a row into a dead slot — recovery's redo of a logged
    /// insert whose slot was grown as a placeholder, and its undo of an
    /// uncommitted delete. The heap slot is refilled (charged like a
    /// page write) and every access structure re-learns the row.
    pub fn reinstate_row(
        &mut self,
        io: &dyn PageAccessor,
        rid: Rid,
        row: Row,
    ) -> Result<(), StorageError> {
        debug_assert!(self.is_tombstone(rid).unwrap_or(true), "reinstating over a live row");
        self.heap.restore_row(io, rid, &row)?;
        self.stamps[rid.0 as usize] = LIVE;
        self.learn_row(io, None, rid, &row);
        Ok(())
    }

    /// Teach the clustered index and every secondary index and CM
    /// `row`, now stored in slot `rid`, logging each structure's
    /// maintenance volume to `wal` if provided.
    fn learn_row(
        &mut self,
        io: &dyn PageAccessor,
        mut wal: Option<&mut dyn LogWrite>,
        rid: Rid,
        row: &[Value],
    ) {
        self.clustered.note_append(&row[self.clustered_col], rid);
        for sec in &mut self.secondaries {
            sec.insert(io, row, rid);
            if let Some(w) = wal.as_deref_mut() {
                w.append_sized(sec.key_of(row).size_bytes() + 14);
            }
        }
        for cm in &mut self.cms {
            cm.insert(row, rid, &self.dir);
            if let Some(w) = wal.as_deref_mut() {
                w.append_sized(cm.wal_record_bytes(row));
            }
        }
    }

    /// Append a dead placeholder slot, keeping the directory and
    /// clustered index length in step. Recovery uses this to grow a
    /// shard's heap up to a logged RID whose intervening rows were
    /// deleted before the crash. Uncharged: the corresponding pages were
    /// written (and priced) before the crash.
    pub fn append_placeholder(&mut self) -> Rid {
        let rid = self.heap.append_tombstone();
        self.stamps.push(DEAD);
        self.dir.note_append(rid);
        self.clustered.grow_to(rid.0 + 1);
        rid
    }

    /// Whether a slot holds no row: its stamp pair is `(0, 0)`.
    pub fn is_tombstone(&self, rid: Rid) -> Result<bool, StorageError> {
        let len = self.heap.len();
        let stamp = self.stamps.get(rid.0 as usize);
        stamp.map(|s| *s == DEAD).ok_or(StorageError::RidOutOfRange { rid: rid.0, len })
    }

    /// Whether slot `rid` exists and holds a version no delete has ended
    /// — what a delete may remove.
    pub fn is_current(&self, rid: Rid) -> bool {
        self.stamps.get(rid.0 as usize).is_some_and(|&(_, end)| end == LIVE_TS)
    }

    /// Feed heap slots `from..len` (dead slots skipped) into a
    /// not-yet-installed structure set — the catch-up step of a design
    /// change: structures were built under a read lock, and the brief
    /// write-locked phase replays the rows appended meanwhile before
    /// [`Table::install_access_structures`].
    pub fn catch_up_structures(
        &self,
        io: &dyn PageAccessor,
        from: u64,
        secondaries: &mut [SecondaryIndex],
        cms: &mut [CorrelationMap],
    ) -> Result<(), StorageError> {
        for rid in self.live_rids(from) {
            let row = self.heap.peek(rid)?;
            for sec in secondaries.iter_mut() {
                sec.insert(io, &row, rid);
            }
            for cm in cms.iter_mut() {
                cm.insert(&row, rid, &self.dir);
            }
        }
        Ok(())
    }

    /// Sweep the page run `lo..=hi` as one vectored read charged to `io`
    /// and hand each page's matches to `on_batch`: `filter` selects the
    /// slots satisfying the query, then the stamps keep those visible at
    /// `snap` (every slot holding a row when `None`). Returns the slots
    /// examined.
    /// Every scan — the access paths (and through them `delete_where`'s
    /// victim search) and the clamped join probe — goes through here.
    pub(crate) fn sweep_run(
        &self,
        io: &dyn PageAccessor,
        snap: Option<&Snapshot>,
        filter: &mut PageFilter,
        lo: u64,
        hi: u64,
        on_batch: &mut impl FnMut(PageRef<'_>, &[u32]),
    ) -> Result<u64, StorageError> {
        self.heap.read_run_visit(io, lo, hi, |page| {
            // The predicate first: only a matching row needs its
            // stamps read (and, if one is pending, resolved).
            let sel = filter.select(page);
            self.retain_visible(snap, page, sel);
            if !sel.is_empty() {
                on_batch(page, sel);
            }
        })
    }

    /// Keep the slots of `sel` (on `page`) whose version is visible at
    /// `snap`. Without a snapshot (the non-MVCC engine mode) every slot
    /// that holds a row is — the pre-MVCC behaviour, where exclusion is
    /// the shard lock's job.
    pub(crate) fn retain_visible(
        &self,
        snap: Option<&Snapshot>,
        page: PageRef<'_>,
        sel: &mut Vec<u32>,
    ) {
        let stamps = &self.stamps[page.first_rid().0 as usize..];
        match snap {
            Some(s) => sel.retain(|&i| {
                let (begin, end) = stamps[i as usize];
                s.sees(begin, end)
            }),
            None => sel.retain(|&i| stamps[i as usize] != DEAD),
        }
    }

    // ------------------------------------------------------------- MVCC

    /// The `(begin, end)` stamp pair of a slot.
    pub fn stamp_of(&self, rid: Rid) -> (u64, u64) {
        self.stamps[rid.0 as usize]
    }

    /// Overwrite a slot's begin stamp (MVCC insert: the engine stamps
    /// the freshly appended row with its transaction marker or commit
    /// timestamp).
    pub fn set_begin_stamp(&mut self, rid: Rid, begin: u64) {
        self.stamps[rid.0 as usize].0 = begin;
    }

    /// MVCC delete: end the slot's current version by stamping `end`,
    /// charging one write of the row's page (the tuple-header update a
    /// real MVCC heap pays). The row bytes and every access-structure
    /// entry stay in place — older snapshots still need them — until a
    /// vacuum pass reclaims the version. Returns the (still live) row
    /// for the WAL before-image.
    pub fn end_version(
        &mut self,
        io: &dyn PageAccessor,
        rid: Rid,
        end: u64,
    ) -> Result<Row, StorageError> {
        let row = self.heap.peek(rid)?;
        self.stamps[rid.0 as usize].1 = end;
        io.write(self.heap.file_id(), self.heap.page_of(rid));
        Ok(row)
    }

    /// Rewrite every resolvable pending stamp to its plain commit
    /// timestamp (vacuum's first pass; `resolve` is the commit table).
    /// Returns how many stamps were rewritten. Must run under the
    /// shard's write lock so no reader observes a half-rewritten pair.
    pub fn resolve_stamps(&mut self, resolve: impl Fn(u64) -> Option<u64>) -> u64 {
        let mut rewritten = 0;
        for stamp in self.stamps.iter_mut() {
            if is_pending(stamp.0) {
                if let Some(ts) = resolve(stamp.0) {
                    stamp.0 = ts;
                    rewritten += 1;
                }
            }
            if is_pending(stamp.1) {
                if let Some(ts) = resolve(stamp.1) {
                    stamp.1 = ts;
                    rewritten += 1;
                }
            }
        }
        rewritten
    }

    /// Slots whose version ended at or before `oldest_live` (plain
    /// stamps only — pending ends are unresolved and must survive) and
    /// that still hold a row: the versions vacuum may physically
    /// reclaim via [`Table::delete_row`].
    pub fn reclaimable(&self, oldest_live: u64) -> Vec<Rid> {
        self.ended_versions()
            .filter(|&(_, end)| !is_pending(end) && end <= oldest_live)
            .map(|(rid, _)| rid)
            .collect()
    }

    /// Count of versions that have ended but not yet been reclaimed —
    /// the "dead tail" a vacuum pass would inspect (chain-length signal
    /// for the GC counters).
    pub fn dead_versions(&self) -> u64 {
        self.ended_versions().count() as u64
    }

    /// Slots that hold a row whose version a delete has ended, with the
    /// end stamp.
    fn ended_versions(&self) -> impl Iterator<Item = (Rid, u64)> + '_ {
        self.stamps.iter().enumerate().filter_map(|(i, &stamp)| {
            (stamp != DEAD && stamp.1 != LIVE_TS).then_some((Rid(i as u64), stamp.1))
        })
    }
}

// A table partition must be shareable with executor worker threads: a
// fan-out engine hands `&Table` (under its partition lock) to the worker
// running that shard's leg.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Table>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::{AttrConstraint, CmAttr};
    use cm_storage::{BufferPool, Column, ValueType, Wal};

    fn demo_table(disk: &DiskSim) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
            Column::new("name", ValueType::Str),
        ]));
        let rows: Vec<Row> = (0..1000i64)
            .map(|i| {
                let cat = i % 50;
                vec![
                    Value::Int(cat),
                    Value::Int(cat * 1000 + (i * 13) % 500),
                    Value::str(format!("item{i}")),
                ]
            })
            .collect();
        Table::build(disk, schema, rows, 20, 0, 40).unwrap()
    }

    #[test]
    fn build_wires_up_all_structures() {
        let disk = DiskSim::with_defaults();
        let t = demo_table(&disk);
        assert_eq!(t.heap().len(), 1000);
        assert_eq!(t.clustered().distinct_values(), 50);
        assert!(t.dir().num_buckets() >= 20);
        assert_eq!(t.clustered_col(), 0);
    }

    #[test]
    fn analyze_computes_correlations() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        t.analyze_cols(&[1]);
        let s = t.col_stats(1).unwrap();
        // price determines catid exactly in this data (price/1000 = cat).
        assert!(s.corr.c_per_u < 1.01, "c_per_u {}", s.corr.c_per_u);
        assert!(s.min.is_some() && s.max.is_some());
        assert!(t.col_stats(2).is_none(), "unanalyzed column has no stats");
    }

    #[test]
    fn add_structures_and_query_them() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        let sec = t.add_secondary(&disk, "price_idx", vec![1]);
        let cm = t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 8)]));
        assert_eq!(t.secondary(sec).entries(), 1000);
        assert!(t.cm(cm).num_keys() > 0);
        assert!(t.cm(cm).size_bytes() < t.secondary(sec).size_bytes());
    }

    #[test]
    fn insert_maintains_everything() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 64);
        let mut t = demo_table(&disk);
        t.add_secondary(&disk, "price_idx", vec![1]);
        t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 8)]));
        let mut wal = Wal::new(disk.clone());
        let len_before = t.heap().len();
        let pairs_before = t.cm(0).num_pairs();
        let rid = t
            .insert_row(
                &pool,
                Some(&mut wal),
                vec![Value::Int(49), Value::Int(999_999), Value::str("new")],
            )
            .unwrap();
        assert_eq!(rid.0, len_before);
        assert_eq!(t.heap().len(), len_before + 1);
        assert_eq!(t.secondary(0).entries(), 1001);
        assert!(t.cm(0).num_pairs() > pairs_before, "new price bucket pair recorded");
        assert!(
            wal.records() >= 2,
            "index + CM records logged (the heap row is the caller's typed record)"
        );
        // The new tuple is findable through the CM.
        let buckets = t.cm(0).lookup(&[AttrConstraint::Eq(Value::Int(999_999))]);
        assert!(buckets.contains(&t.dir().bucket_of(rid)));
    }

    #[test]
    fn delete_retracts_everything() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        t.add_secondary(&disk, "price_idx", vec![1]);
        t.add_cm("price_cm", CmSpec::new(vec![CmAttr::raw(1)]));
        let rid = Rid(123);
        let row = t.heap().peek(rid).unwrap().to_vec();
        let deleted = t.delete_row(disk.as_ref(), None, rid).unwrap();
        assert_eq!(deleted, row);
        assert_eq!(t.secondary(0).entries(), 999);
        // The exact (price, bucket) pair is gone if it was unique.
        let again = t.delete_row(disk.as_ref(), None, rid).unwrap();
        assert!(again[0].is_null(), "double delete sees the tombstone");
    }

    #[test]
    fn insert_into_more_indexes_costs_more_io() {
        let disk_a = DiskSim::with_defaults();
        let mut plain = demo_table(&disk_a);
        let disk_b = DiskSim::with_defaults();
        let mut indexed = demo_table(&disk_b);
        for i in 0..5 {
            indexed.add_secondary(&disk_b, format!("idx{i}"), vec![1]);
        }
        let row = vec![Value::Int(1), Value::Int(1), Value::str("x")];
        disk_a.reset();
        disk_b.reset();
        plain.insert_row(disk_a.as_ref(), None, row.clone()).unwrap();
        indexed.insert_row(disk_b.as_ref(), None, row).unwrap();
        assert!(
            disk_b.stats().elapsed_ms > 4.0 * disk_a.stats().elapsed_ms,
            "5 B+Trees make inserts much more expensive: {} vs {}",
            disk_b.stats().elapsed_ms,
            disk_a.stats().elapsed_ms
        );
    }

    #[test]
    fn cm_maintenance_is_io_free() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        for i in 0..5 {
            t.add_cm(format!("cm{i}"), CmSpec::new(vec![CmAttr::pow2(1, 6)]));
        }
        disk.reset();
        t.insert_row(disk.as_ref(), None, vec![Value::Int(1), Value::Int(1), Value::str("x")])
            .unwrap();
        // Only the heap tail write is charged; CM updates are memory-only.
        assert_eq!(disk.stats().page_writes, 1);
        assert_eq!(disk.stats().seeks + disk.stats().seq_reads, 0);
    }

    #[test]
    fn clear_access_structures() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        t.add_secondary(&disk, "i", vec![1]);
        t.add_cm("c", CmSpec::single_raw(1));
        // Appending keeps the existing structures and their ids...
        let sec = t.build_secondary(&disk, "j", vec![2]);
        t.install_access_structures(vec![sec], Vec::new(), false);
        assert_eq!(t.secondaries().len(), 2);
        assert_eq!(t.secondary(0).name(), "i");
        assert_eq!(t.cms().len(), 1);
        // ...replacing with an empty set clears them all.
        t.install_access_structures(Vec::new(), Vec::new(), true);
        assert!(t.secondaries().is_empty());
        assert!(t.cms().is_empty());
    }

    #[test]
    fn builds_skip_tombstones() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        for rid in [Rid(3), Rid(400), Rid(999)] {
            t.delete_row(disk.as_ref(), None, rid).unwrap();
        }
        let sec = t.add_secondary(&disk, "price_idx", vec![1]);
        let cm = t.add_cm("price_cm", CmSpec::single_raw(1));
        assert_eq!(t.secondary(sec).entries(), 997);
        assert!(t.cm(cm).lookup_values(&[Value::Null]).is_empty(), "no NULL-keyed posting");
    }

    #[test]
    fn reinstate_row_relearns_structures() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        t.add_secondary(&disk, "price_idx", vec![1]);
        t.add_cm("price_cm", CmSpec::single_raw(1));
        let rid = Rid(123);
        let row = t.heap().peek(rid).unwrap().to_vec();
        t.delete_row(disk.as_ref(), None, rid).unwrap();
        assert!(t.is_tombstone(rid).unwrap());
        t.reinstate_row(disk.as_ref(), rid, row.clone()).unwrap();
        assert!(!t.is_tombstone(rid).unwrap());
        assert_eq!(t.heap().peek(rid).unwrap(), row);
        assert_eq!(t.secondary(0).entries(), 1000, "entry restored");
    }

    #[test]
    fn placeholder_appends_grow_all_lengths() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        let len = t.heap().len();
        let before = disk.stats();
        let rid = t.append_placeholder();
        assert_eq!(rid, Rid(len));
        assert_eq!(t.heap().len(), len + 1);
        assert_eq!(t.dir().heap_len(), len + 1);
        assert!(t.is_tombstone(rid).unwrap());
        assert_eq!(disk.stats(), before, "placeholders are uncharged");
    }

    #[test]
    fn restore_rebuilds_from_heap_image() {
        let disk = DiskSim::with_defaults();
        let mut live = demo_table(&disk);
        // Mutate: delete two rows, append two out-of-order rows.
        live.delete_row(disk.as_ref(), None, Rid(10)).unwrap();
        live.delete_row(disk.as_ref(), None, Rid(500)).unwrap();
        live.insert_row(
            disk.as_ref(),
            None,
            vec![Value::Int(7), Value::Int(7777), Value::str("tail1")],
        )
        .unwrap();
        live.insert_row(
            disk.as_ref(),
            None,
            vec![Value::Int(3), Value::Int(3333), Value::str("tail2")],
        )
        .unwrap();
        let slots: Vec<Option<Row>> = live
            .heap()
            .iter()
            .map(|(rid, r)| (!live.is_tombstone(rid).unwrap()).then(|| r.to_vec()))
            .collect();
        let disk2 = DiskSim::with_defaults();
        let restored = Table::restore(
            &disk2,
            live.heap().schema().clone(),
            slots,
            20,
            0,
            40,
            1000,
        )
        .unwrap();
        assert_eq!(restored.heap().len(), live.heap().len());
        // The restored clustered index is query-equivalent to the live
        // (incrementally maintained) one: it may shift run boundaries
        // across tombstoned slots, but every live row stays inside its
        // value's run, and any slots covered beyond the live range are
        // dead slots (skipped by every scan).
        for (probe, probe_row) in live.heap().iter() {
            if live.is_tombstone(probe).unwrap() {
                continue;
            }
            let v = &probe_row[0];
            let (llo, lhi) = live.clustered().rid_range_uncharged(v, v).unwrap();
            let (rlo, rhi) = restored
                .clustered()
                .rid_range_uncharged(v, v)
                .unwrap_or_else(|| panic!("value {v:?} still indexed"));
            for rid in llo..lhi {
                let row = live.heap().peek(Rid(rid)).unwrap();
                if &row[0] == v {
                    assert!((rlo..rhi).contains(&rid), "live row {rid} of {v:?} covered");
                }
            }
            for rid in (rlo..rhi).filter(|r| !(llo..lhi).contains(r)) {
                assert!(
                    restored.is_tombstone(Rid(rid)).unwrap(),
                    "extra coverage at {rid} is a tombstone"
                );
            }
        }
        assert_eq!(restored.dir().heap_len(), live.dir().heap_len());
        assert_eq!(restored.dir().num_buckets(), live.dir().num_buckets());
    }

    #[test]
    fn statistics_scans_skip_deleted_slots() {
        let disk = DiskSim::with_defaults();
        let mut t = demo_table(&disk);
        // Delete every row of catid 10..15 and every seventh row.
        let doomed: Vec<Rid> = t
            .heap()
            .iter()
            .filter(|(rid, row)| {
                matches!(row[0], Value::Int(c) if (10..15).contains(&c)) || rid.0 % 7 == 0
            })
            .map(|(rid, _)| rid)
            .collect();
        for &rid in &doomed {
            t.delete_row(disk.as_ref(), None, rid).unwrap();
        }
        let survivors: Vec<Row> =
            t.live_rids(0).map(|rid| t.heap().peek(rid).unwrap()).collect();
        assert_eq!(survivors.len() + doomed.len(), 1000);
        assert!(t.live_rids(0).all(|rid| !t.is_tombstone(rid).unwrap()));
        let schema = t.heap().schema().clone();
        let mut fresh = Table::build(&disk, schema, survivors, 20, 0, 40).unwrap();
        t.analyze_cols(&[1, 2]);
        fresh.analyze_cols(&[1, 2]);
        for col in [1, 2] {
            let (got, want) = (t.col_stats(col).unwrap(), fresh.col_stats(col).unwrap());
            assert_eq!(got.corr, want.corr, "col {col}");
            assert_eq!((&got.min, &got.max), (&want.min, &want.max), "col {col}");
        }
        let (lo, hi) = (Value::Null, Value::Int(19));
        assert_eq!(t.distinct_in_range(0, &lo, &hi), fresh.distinct_in_range(0, &lo, &hi));
        assert_eq!(t.distinct_in_range(0, &lo, &hi), 15, "catids 0..10 and 15..20, no NULL");
    }

    #[test]
    fn distinct_in_range_exact() {
        let disk = DiskSim::with_defaults();
        let t = demo_table(&disk);
        let d = t.distinct_in_range(0, &Value::Int(10), &Value::Int(19));
        assert_eq!(d, 10);
    }
}
