//! Table composition and maintenance.
//!
//! A [`Table`] bundles the clustered heap with every access structure the
//! experiments compare: the sparse clustered index, the CM bucket
//! directory, any number of dense secondary B+Trees, and any number of
//! CMs. It also owns the INSERT/DELETE maintenance paths whose costs
//! Experiment 3 measures: heap append + every secondary index update
//! (charged page I/O through the buffer pool) + every CM update (pure
//! memory) + WAL records for all of them.

use crate::exec::ExecContext;
use crate::kernel::PageFilter;
use cm_core::{BucketDirectory, CmSpec, CorrelationMap};
use cm_index::{ClusteredIndex, SecondaryIndex};
use cm_stats::CorrelationStats;
use cm_storage::{
    is_pending, null_bit, ColumnSlice, DiskSim, HeapFile, LogWrite, PageAccessor,
    PageRef, Rid, Row, Schema, Snapshot, StorageError, Value, ValueType, LIVE_TS,
};
use std::ops::Range;
use std::sync::Arc;

/// Per-column statistics against the table's clustered attribute,
/// computed by [`Table::column_stats`] (the paper's statistics scan) and
/// installed by [`Table::analyze_cols`].
#[derive(Debug, Clone, PartialEq)]
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
/// row, in both engine modes: a physical delete stamps `(0, 0)` and
/// leaves the slot's values as they were (heap slots are write-once),
/// and nothing infers a dead slot from its values (a row may be all
/// NULL).
/// Engines that run without MVCC pass no snapshot to the executors,
/// which then only skip `(0, 0)` slots.
///
/// Beside the stamps, every heap page keeps a **visibility horizon**,
/// PostgreSQL's all-visible bit with a timestamp: the largest begin
/// stamp on the page when every slot holds a live, plainly committed,
/// unended version; [`HOLDS_FREE_SLOTS`] when some slots hold no row and
/// the others are such versions; and [`NOT_ALL_VISIBLE`] (`u64::MAX`)
/// when a slot holds a pending stamp or an ended version. Every stamp
/// write keeps it, and the invariant is one-sided: a horizon may
/// over-state (a page that could be skipped is not) but never
/// under-state. A snapshot at or past a page's horizon sees the whole
/// page, so [`Table::retain_visible`] keeps its selection without
/// reading a stamp. Vacuum visits only [`NOT_ALL_VISIBLE`] pages: the
/// others hold no pending stamp and no ended version, so the slots a
/// churned heap has freed cost it nothing.
pub struct Table {
    heap: HeapFile,
    clustered_col: usize,
    clustered: ClusteredIndex,
    dir: BucketDirectory,
    secondaries: Vec<SecondaryIndex>,
    cms: Vec<CorrelationMap>,
    stats: Vec<Option<ColumnStats>>,
    stamps: Vec<(u64, u64)>,
    /// One per heap page: see the type docs.
    horizons: Vec<u64>,
}

/// Default B+Tree fanout for the indexes built on tables.
pub const DEFAULT_TREE_ORDER: usize = 64;

/// Stamp pair of a slot that holds no row: deleted, reclaimed, or a
/// recovery placeholder. Invisible to every snapshot.
const DEAD: (u64, u64) = (0, 0);

/// Stamp pair of a row live since the epoch: bulk-loaded, restored, or
/// inserted (MVCC then overwrites the begin stamp).
const LIVE: (u64, u64) = (1, LIVE_TS);

/// The horizon of a page some slot of which holds a pending stamp or an
/// ended version: vacuum has work there.
pub const NOT_ALL_VISIBLE: u64 = u64::MAX;

/// The horizon of a page some slot of which holds no row, and whose
/// other slots hold live, plainly committed, unended versions: a scan
/// must drop the free slots, but vacuum has nothing to do there.
pub const HOLDS_FREE_SLOTS: u64 = u64::MAX - 1;

/// The horizon one slot allows its page: its begin stamp when it holds
/// a live, plainly committed, unended version, [`HOLDS_FREE_SLOTS`] when
/// it holds no row, else [`NOT_ALL_VISIBLE`].
#[inline]
fn slot_horizon(stamp: (u64, u64)) -> u64 {
    let (begin, end) = stamp;
    if stamp == DEAD {
        HOLDS_FREE_SLOTS
    } else if end == LIVE_TS && !is_pending(begin) {
        begin
    } else {
        NOT_ALL_VISIBLE
    }
}

/// The exact horizon of a page whose slots hold `stamps`.
fn page_horizon(stamps: &[(u64, u64)]) -> u64 {
    stamps.iter().map(|&s| slot_horizon(s)).max().unwrap_or(0)
}

/// Runs of equal `key` in `sorted`: its distinct keys.
fn runs<T, K: PartialEq>(sorted: &[T], key: impl Fn(&T) -> K) -> u64 {
    sorted.chunk_by(|a, b| key(a) == key(b)).count() as u64
}

/// Distinct words among `sorted`'s `key`s and `extra`, a NULL (`None`)
/// in `extra` counting as one value of its own. `sorted` must be sorted
/// on `key`.
fn distinct_words(
    sorted: &[(u64, u64)],
    key: impl Fn(&(u64, u64)) -> u64,
    extra: impl Iterator<Item = Option<u64>>,
) -> u64 {
    let mut extra: Vec<Option<u64>> = extra.collect();
    extra.sort_unstable();
    extra.dedup();
    let new = |w: &Option<u64>| w.is_none_or(|w| sorted.binary_search_by_key(&w, &key).is_err());
    runs(sorted, &key) + extra.iter().filter(|w| new(w)).count() as u64
}

impl Table {
    /// Build a table clustered on `clustered_col`, with a clustered index
    /// and a bucket directory targeting `bucket_target` tuples per bucket:
    /// the rows are sorted on the clustered column (ties keep their input
    /// order, as under PostgreSQL's `CLUSTER`), bulk-loaded, and go
    /// through [`Table::restore`] as one sorted heap whose every slot is
    /// live.
    pub fn build(
        disk: &DiskSim,
        schema: Arc<Schema>,
        rows: Vec<Row>,
        tups_per_page: usize,
        clustered_col: usize,
        bucket_target: u64,
    ) -> Result<Self, StorageError> {
        let heap = HeapFile::bulk_load_clustered(disk, schema, rows, tups_per_page, clustered_col)?;
        let len = heap.len();
        let live = vec![u64::MAX; len.div_ceil(64) as usize];
        Ok(Self::restore(disk, heap, &live, clustered_col, bucket_target, len))
    }

    /// Build a table over `heap`, whose slot `r` holds a row when bit
    /// `r % 64` of `live[r / 64]` is set. The other slots keep whatever
    /// values they last held, and nothing reads them. The heap is taken
    /// verbatim, the unsorted appended tail included — no re-sort. Its
    /// first `sorted_len` slots are known to have been bulk-loaded
    /// clustered on `clustered_col`. The clustered index and bucket
    /// directory are built over the live rows; secondary indexes and CMs
    /// are added afterwards (recovery re-adds them in design order, as
    /// redo replays). [`Table::build`], the engine's load and
    /// recovery all construct tables here.
    pub fn restore(
        disk: &DiskSim,
        heap: HeapFile,
        live: &[u64],
        clustered_col: usize,
        bucket_target: u64,
        sorted_len: u64,
    ) -> Self {
        let arity = heap.schema().arity();
        // An image collapses version chains: live rows restart at the
        // epoch stamp.
        let stamps: Vec<(u64, u64)> = (0..heap.len() as usize)
            .map(|r| if null_bit(live, r) { LIVE } else { DEAD })
            .collect();
        let horizons = stamps.chunks(heap.tups_per_page()).map(page_horizon).collect();
        let live = |rid: Rid| stamps[rid.0 as usize] != DEAD;
        let clustered =
            ClusteredIndex::build(&heap, clustered_col, live, disk.alloc_file(), DEFAULT_TREE_ORDER);
        let dir = BucketDirectory::restore(&heap, clustered_col, bucket_target, sorted_len, live);
        Table {
            heap,
            clustered_col,
            clustered,
            dir,
            secondaries: Vec::new(),
            cms: Vec::new(),
            stats: vec![None; arity],
            stamps,
            horizons,
        }
    }

    /// One bit per heap slot, set while the slot's version is current
    /// ([`Table::is_current`]): the liveness a checkpoint images, in the
    /// form [`Table::restore`] takes. A checkpoint builds it under the
    /// shard read lock beside [`HeapFile::image`]'s segment pointers, so
    /// it is built a word at a time.
    pub fn current_slots(&self) -> Vec<u64> {
        let word = |stamps: &[(u64, u64)]| {
            let bits = stamps.iter().enumerate();
            bits.fold(0u64, |w, (i, &(_, end))| w | u64::from(end == LIVE_TS) << i)
        };
        self.stamps.chunks(64).map(word).collect()
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
    /// column for the given columns: [`Table::column_stats`] of each,
    /// installed — one uncharged pass per column, like the paper's
    /// statistics scan.
    pub fn analyze_cols(&mut self, cols: &[usize]) {
        let stats: Vec<ColumnStats> = cols.iter().map(|&col| self.column_stats(col)).collect();
        self.install_stats(stats);
    }

    /// Install statistics computed by [`Table::column_stats`], each over
    /// the column it names — the short exclusive half of an analyze
    /// whose scan ran under a shared lock. Rows appended between that
    /// scan and this install are not counted, as rows appended after
    /// any analyze never are.
    pub fn install_stats(&mut self, stats: impl IntoIterator<Item = ColumnStats>) {
        for s in stats {
            let col = s.col;
            self.stats[col] = Some(s);
        }
    }

    /// The exact statistics of column `col` against the clustered column
    /// over the slots that hold a row, read off the page column slices
    /// without materialising a [`Value`] per row.
    ///
    /// Each live row contributes its two columns' words
    /// ([`ColumnSlice::word`](cm_storage::ColumnSlice::word)), under
    /// which two values of a column are equal exactly when [`Value`]'s
    /// `==` says so. Rows with neither value NULL go to one vector of
    /// 16-byte `(u, c)` pairs that is sorted in place: `D(u, c)` and
    /// `D(u)` are its runs, and re-sorted on `c` it gives `D(c)`. The
    /// few rows with a NULL are counted beside it, NULL being a value of
    /// its own as in [`cm_stats::correlation_stats`].
    ///
    /// `min` and `max` are those of `Value`'s order over the non-NULL
    /// values, taken at their first live occurrence in RID order: an
    /// `Int`, `Date` or `Float` column compares its words mapped to
    /// order (a float's [`OrdF64::order_key`](cm_storage::OrdF64::order_key),
    /// so the stored bits of the first `-0.0`/`0.0` or NaN are returned),
    /// and a `Str` column compares the dictionary texts of its distinct
    /// codes only.
    pub fn column_stats(&self, col: usize) -> ColumnStats {
        /// Maps a numeric word to an unsigned word of the same order.
        const SIGN: u64 = 1 << 63;
        let cc = self.clustered_col;
        let numeric = self.heap.schema().columns()[col].ty != ValueType::Str;
        let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(self.heap.len() as usize);
        let mut with_null: Vec<(Option<u64>, Option<u64>)> = Vec::new();
        // Order word and RID of the first smallest / largest value.
        let mut lo: Option<(u64, Rid)> = None;
        let mut hi = lo;
        for page in self.heap.pages() {
            let (u, c) = (page.column(col), page.column(cc));
            let (u_nulls, c_nulls) = (page.nulls(col), page.nulls(cc));
            let first = page.first_rid().0 as usize;
            for (slot, &stamp) in self.stamps[first..first + page.len()].iter().enumerate() {
                if stamp == DEAD {
                    continue;
                }
                let word = |w: ColumnSlice<'_>, nulls: Option<&[u64]>| {
                    (!nulls.is_some_and(|n| null_bit(n, slot))).then(|| w.word(slot))
                };
                let (uw, cw) = (word(u, u_nulls), word(c, c_nulls));
                match (uw, cw) {
                    (Some(uw), Some(cw)) => pairs.push((uw, cw)),
                    _ => with_null.push((uw, cw)),
                }
                if let (true, Some(w)) = (numeric, uw) {
                    let (key, rid) = (w ^ SIGN, page.rid(slot as u32));
                    if lo.is_none_or(|(k, _)| key < k) {
                        lo = Some((key, rid));
                    }
                    if hi.is_none_or(|(k, _)| key > k) {
                        hi = Some((key, rid));
                    }
                }
            }
        }
        let total = (pairs.len() + with_null.len()) as u64;
        pairs.sort_unstable();
        with_null.sort_unstable();
        with_null.dedup();
        let duc = runs(&pairs, |p| *p) + with_null.len() as u64;
        let du = distinct_words(&pairs, |p| p.0, with_null.iter().map(|p| p.0));
        let (min, max) = if numeric {
            let at = |end: Option<(u64, Rid)>| {
                end.map(|(_, rid)| self.heap.value(rid, col).expect("a live slot"))
            };
            (at(lo), at(hi))
        } else {
            let dict = self.heap.dict();
            let codes = pairs.chunk_by(|a, b| a.0 == b.0).map(|run| run[0].0);
            let codes = codes.chain(with_null.iter().filter_map(|p| p.0));
            let texts: Vec<&Arc<str>> = codes.map(|code| dict.get(code as u32)).collect();
            let text = |s: Option<&&Arc<str>>| s.map(|s| Value::Str(Arc::clone(s)));
            (text(texts.iter().min()), text(texts.iter().max()))
        };
        pairs.sort_unstable_by_key(|p| p.1);
        let dc = distinct_words(&pairs, |p| p.1, with_null.iter().map(|p| p.1));
        ColumnStats { col, min, max, corr: CorrelationStats::from_counts(total, du, dc, duc) }
    }

    /// Statistics for a column, if analyzed.
    pub fn col_stats(&self, col: usize) -> Option<&ColumnStats> {
        self.stats.get(col).and_then(Option::as_ref)
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
    /// * WAL volume for each index posting and each CM delta
    ///   (recoverability comparable to a B+Tree, §7.1), priced through
    ///   [`LogWrite::append_sized`]. The heap row itself is logged by the
    ///   caller as a typed [`cm_storage::LogPayload::Insert`] record,
    ///   which recovery replays.
    pub fn insert_row(
        &mut self,
        io: &dyn PageAccessor,
        wal: Option<&mut dyn LogWrite>,
        row: &[Value],
    ) -> Result<Rid, StorageError> {
        let rid = self.heap.append_row(io, row)?;
        self.push_stamp(LIVE);
        self.dir.note_append(rid);
        self.learn_row(io, wal, rid, row);
        Ok(rid)
    }

    /// DELETE one row by RID, retracting it from every access structure.
    /// Only the slot's stamp changes: its values stay as they were, and
    /// the page write a real heap pays for the tuple header is charged.
    /// The caller checks that the slot holds a row. As with inserts, the
    /// heap-level record (a typed [`cm_storage::LogPayload::DeleteSet`]
    /// carrying the before-image) is the caller's job; only
    /// structure-maintenance volume is priced here.
    pub fn delete_row(
        &mut self,
        io: &dyn PageAccessor,
        mut wal: Option<&mut dyn LogWrite>,
        rid: Rid,
    ) -> Result<Row, StorageError> {
        // Retracting a dead slot's stale values would corrupt the structures.
        assert_ne!(
            self.is_tombstone(rid),
            Ok(true),
            "deleting a slot that holds no row"
        );
        let row = self.before_image(io, rid)?;
        self.set_stamp(rid, DEAD);
        for sec in &mut self.secondaries {
            sec.remove(io, &row, rid);
            if let Some(w) = wal.as_deref_mut() {
                w.append_sized(sec.wal_record_bytes(&row));
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
        // The one write that can lower a horizon: recompute the page.
        self.settle(self.heap.page_of(rid) as usize);
        self.learn_row(io, None, rid, &row);
        Ok(())
    }

    /// Teach the clustered index and every secondary index and CM
    /// `row`, now stored in slot `rid`, pricing each structure's
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
                w.append_sized(sec.wal_record_bytes(row));
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
        self.push_stamp(DEAD);
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

    /// Sweep the pages of run `lo..=hi` inside `ctx.pages` as one
    /// vectored read charged to `ctx.io` and hand each page's matches to
    /// `on_batch`: `filter` selects the slots satisfying the query, then
    /// the stamps keep those visible at `ctx.snap` (every slot holding a
    /// row when `None`). Returns the slots examined.
    /// Every scan — the access paths (and through them `delete_where`'s
    /// victim search) and the clamped join probe — goes through here.
    pub(crate) fn sweep_run(
        &self,
        ctx: &ExecContext<'_>,
        filter: &mut PageFilter,
        lo: u64,
        hi: u64,
        on_batch: &mut impl FnMut(PageRef<'_>, &[u32]),
    ) -> Result<u64, StorageError> {
        if ctx.pages.is_empty() {
            return Ok(0);
        }
        let (lo, hi) = (lo.max(ctx.pages.start), hi.min(ctx.pages.end - 1));
        self.heap.read_run_visit(ctx.io, lo, hi, |page| {
            // The predicate first: only a matching row needs its
            // stamps read (and, if one is pending, resolved).
            let sel = filter.select(page);
            self.retain_visible(ctx.snap, page, sel);
            if !sel.is_empty() {
                on_batch(page, sel);
            }
        })
    }

    /// Keep the slots of `sel` (on `page`) whose version is visible at
    /// `snap`. Without a snapshot (the non-MVCC engine mode) every slot
    /// that holds a row is — the pre-MVCC behaviour, where exclusion is
    /// the shard lock's job. An all-visible page whose horizon the
    /// snapshot has reached (without a snapshot: any all-visible page,
    /// which has no dead slot) keeps its whole selection without a stamp
    /// being read; only the other pages test slot by slot.
    pub fn retain_visible(&self, snap: Option<&Snapshot>, page: PageRef<'_>, sel: &mut Vec<u32>) {
        let first = page.first_rid().0 as usize;
        let horizon = self.horizons[first / self.heap.tups_per_page()];
        if horizon < HOLDS_FREE_SLOTS && snap.is_none_or(|s| horizon <= s.ts()) {
            return;
        }
        let stamps = &self.stamps[first..];
        match snap {
            Some(s) => sel.retain(|&i| {
                let (begin, end) = stamps[i as usize];
                s.sees(begin, end)
            }),
            None => sel.retain(|&i| stamps[i as usize] != DEAD),
        }
    }

    /// Page `page`'s visibility horizon: the largest begin stamp on it
    /// if every slot holds a live, plainly committed, unended version,
    /// [`HOLDS_FREE_SLOTS`] if some slots hold no row and the others
    /// hold such versions, else [`NOT_ALL_VISIBLE`]. May over-state,
    /// never under-state.
    pub fn horizon(&self, page: u64) -> u64 {
        self.horizons[page as usize]
    }

    /// The slots of page `page`.
    fn page_slots(&self, page: usize) -> Range<usize> {
        let tpp = self.heap.tups_per_page();
        page * tpp..((page + 1) * tpp).min(self.stamps.len())
    }

    /// Recompute page `page`'s horizon from its stamps, exactly.
    fn settle(&mut self, page: usize) {
        self.horizons[page] = page_horizon(&self.stamps[self.page_slots(page)]);
    }

    /// Append the stamp of the slot the heap just grew, opening its
    /// page's horizon if the slot starts a page.
    fn push_stamp(&mut self, stamp: (u64, u64)) {
        if self.stamps.len().is_multiple_of(self.heap.tups_per_page()) {
            self.horizons.push(0);
        }
        self.stamps.push(stamp);
        let page = self.horizons.len() - 1;
        self.horizons[page] = self.horizons[page].max(slot_horizon(stamp));
    }

    /// Overwrite `rid`'s stamp pair, raising its page's horizon to what
    /// the new pair allows. Raising alone keeps the horizon an upper
    /// bound of the page's true one, whatever the old pair was.
    fn set_stamp(&mut self, rid: Rid, stamp: (u64, u64)) {
        self.stamps[rid.0 as usize] = stamp;
        let page = self.heap.page_of(rid) as usize;
        self.horizons[page] = self.horizons[page].max(slot_horizon(stamp));
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
        self.set_stamp(rid, (begin, self.stamps[rid.0 as usize].1));
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
        let row = self.before_image(io, rid)?;
        self.set_stamp(rid, (self.stamps[rid.0 as usize].0, end));
        Ok(row)
    }

    /// `rid`'s row as stored, charging the one write of its page that
    /// ending the row costs (the tuple header a real heap rewrites): the
    /// before-image of a delete and of an MVCC end, neither of which
    /// writes a heap value.
    fn before_image(&self, io: &dyn PageAccessor, rid: Rid) -> Result<Row, StorageError> {
        let row = self.heap.peek(rid)?;
        io.write(self.heap.file_id(), self.heap.page_of(rid));
        Ok(row)
    }

    /// Rewrite every resolvable pending stamp to its plain commit
    /// timestamp (vacuum's first pass; `resolve` is the commit table),
    /// and recompute the horizon of every page it visits. Only
    /// [`NOT_ALL_VISIBLE`] pages are visited: the others hold no pending
    /// stamp.
    /// Returns how many stamps were rewritten. Must run under the shard's
    /// write lock so no reader observes a half-rewritten pair.
    pub fn resolve_stamps(&mut self, resolve: impl Fn(u64) -> Option<u64>) -> u64 {
        let mut rewritten = 0;
        for page in 0..self.horizons.len() {
            if self.horizons[page] != NOT_ALL_VISIBLE {
                continue;
            }
            let slots = self.page_slots(page);
            for stamp in &mut self.stamps[slots] {
                for half in [&mut stamp.0, &mut stamp.1] {
                    if is_pending(*half) {
                        if let Some(ts) = resolve(*half) {
                            *half = ts;
                            rewritten += 1;
                        }
                    }
                }
            }
            self.settle(page);
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
    /// end stamp. Only [`NOT_ALL_VISIBLE`] pages can hold one; the others
    /// are passed over.
    fn ended_versions(&self) -> impl Iterator<Item = (Rid, u64)> + '_ {
        let unsettled = (0..self.horizons.len()).filter(|&p| self.horizons[p] == NOT_ALL_VISIBLE);
        unsettled
            .flat_map(|page| self.page_slots(page))
            .filter_map(|i| {
                let stamp = self.stamps[i];
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
    use std::sync::Arc;

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
                &[Value::Int(49), Value::Int(999_999), Value::str("new")],
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
        // Only the stamp ends the row: the slot keeps its values.
        assert!(t.is_tombstone(rid).unwrap());
        assert_eq!(t.heap().peek(rid).unwrap(), row);
        assert!(t.live_rids(0).all(|r| r != rid));
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
        plain.insert_row(disk_a.as_ref(), None, &row).unwrap();
        indexed.insert_row(disk_b.as_ref(), None, &row).unwrap();
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
        t.insert_row(disk.as_ref(), None, &[Value::Int(1), Value::Int(1), Value::str("x")])
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
            &[Value::Int(7), Value::Int(7777), Value::str("tail1")],
        )
        .unwrap();
        live.insert_row(
            disk.as_ref(),
            None,
            &[Value::Int(3), Value::Int(3333), Value::str("tail2")],
        )
        .unwrap();
        let (image, bits) = (live.heap().image(), live.current_slots());
        for rid in (0..live.heap().len()).map(Rid) {
            assert_eq!(null_bit(&bits, rid.0 as usize), live.is_current(rid), "{rid:?}");
        }
        assert_eq!(bits.len() as u64, live.heap().len().div_ceil(64));
        let disk2 = DiskSim::with_defaults();
        let heap = HeapFile::from_image(&disk2, live.heap().schema().clone(), image);
        let restored = Table::restore(&disk2, heap, &bits, 0, 40, 1000);
        assert_eq!(restored.heap().len(), live.heap().len());
        // The restored clustered index is query-equivalent to the live
        // (incrementally maintained) one: it may shift run boundaries
        // across tombstoned slots, but every live row stays inside its
        // value's run, and any slots covered beyond the live range are
        // dead slots (skipped by every scan).
        for probe in live.live_rids(0) {
            let v = &live.heap().value(probe, 0).unwrap();
            let (llo, lhi) = live.clustered().rid_range_uncharged(v, v).unwrap();
            let (rlo, rhi) = restored
                .clustered()
                .rid_range_uncharged(v, v)
                .unwrap_or_else(|| panic!("value {v:?} still indexed"));
            for rid in (llo..lhi).filter(|&r| live.is_current(Rid(r))) {
                if &live.heap().value(Rid(rid), 0).unwrap() == v {
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
            .live_rids(0)
            .filter(|&rid| {
                let cat = t.heap().value(rid, 0).unwrap();
                matches!(cat, Value::Int(c) if (10..15).contains(&c)) || rid.0 % 7 == 0
            })
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
    }

    #[test]
    fn horizons_follow_every_stamp_write() {
        let disk = DiskSim::with_defaults();
        let io = disk.as_ref();
        let mut t = demo_table(&disk); // 1 000 rows, 20 a page
        let pages = t.heap().num_pages();
        assert!(
            (0..pages).all(|p| t.horizon(p) == 1),
            "a load is all-visible at the epoch"
        );
        // A committed end and a pending begin close their pages...
        t.end_version(io, Rid(45), 7).unwrap();
        let rid = t
            .insert_row(
                io,
                None,
                &[Value::Int(49), Value::Int(1), Value::str("x")],
            )
            .unwrap();
        assert_eq!(
            t.horizon(t.heap().page_of(rid)),
            1,
            "a new page opens all-visible"
        );
        t.set_begin_stamp(rid, cm_storage::pending_stamp(3));
        assert_eq!(t.horizon(2), NOT_ALL_VISIBLE);
        assert_eq!(t.horizon(50), NOT_ALL_VISIBLE);
        assert!((0..pages).filter(|&p| p != 2).all(|p| t.horizon(p) == 1));
        // ...a plain begin raises one, and the rewrite settles the rest.
        let late = t
            .insert_row(
                io,
                None,
                &[Value::Int(49), Value::Int(2), Value::str("y")],
            )
            .unwrap();
        t.set_begin_stamp(late, 9);
        let asked = std::cell::RefCell::new(Vec::new());
        let rewritten = t.resolve_stamps(|stamp| {
            asked.borrow_mut().push(stamp);
            Some(8)
        });
        assert_eq!(
            (rewritten, asked.take()),
            (1, vec![cm_storage::pending_stamp(3)])
        );
        assert_eq!(t.horizon(50), 9, "largest begin on the page");
        assert_eq!(
            t.horizon(2),
            NOT_ALL_VISIBLE,
            "an ended version keeps its page open"
        );
        assert_eq!((t.reclaimable(7), t.dead_versions()), (vec![Rid(45)], 1));
        // Vacuum's reclaim leaves a dead slot, which its next pass
        // settles to a page vacuum passes over; recovery's reinstate
        // makes the page all-visible again.
        t.delete_row(io, None, Rid(45)).unwrap();
        assert_eq!(t.horizon(2), NOT_ALL_VISIBLE);
        assert_eq!(t.resolve_stamps(|_| None), 0);
        assert_eq!(t.horizon(2), HOLDS_FREE_SLOTS);
        assert_eq!((t.reclaimable(u64::MAX - 2), t.dead_versions()), (vec![], 0));
        t.reinstate_row(
            io,
            Rid(45),
            vec![Value::Int(2), Value::Int(2045), Value::str("z")],
        )
        .unwrap();
        assert_eq!(t.horizon(2), 1);
        t.append_placeholder();
        assert_eq!(
            t.horizon(50),
            HOLDS_FREE_SLOTS,
            "a placeholder is a dead slot"
        );
    }

    #[test]
    fn retain_visible_skips_the_stamps_of_all_visible_pages_only() {
        let disk = DiskSim::with_defaults();
        let io = disk.as_ref();
        let mut t = demo_table(&disk);
        let mv = Arc::new(cm_storage::MvccState::new());
        let early = mv.begin();
        let ts = mv.next_ts();
        let rid = t
            .insert_row(
                io,
                None,
                &[Value::Int(49), Value::Int(1), Value::str("x")],
            )
            .unwrap();
        t.set_begin_stamp(rid, ts);
        t.end_version(io, Rid(3), mv.next_ts()).unwrap();
        let late = mv.begin();
        let visible = |t: &Table, snap: Option<&Snapshot>, page: u64| {
            let page = t.heap().read_page(io, page).unwrap();
            let mut sel: Vec<u32> = (0..page.len() as u32).collect();
            t.retain_visible(snap, page, &mut sel);
            sel.len()
        };
        // The tail page holds one row, begun after `early`.
        assert_eq!(
            (visible(&t, Some(&early), 50), visible(&t, Some(&late), 50)),
            (0, 1)
        );
        // Page 0 lost row 3 at `late`; `early` still sees it.
        assert_eq!(
            (visible(&t, Some(&early), 0), visible(&t, Some(&late), 0)),
            (20, 19)
        );
        assert_eq!(
            (visible(&t, Some(&early), 1), visible(&t, None, 1)),
            (20, 20)
        );
        t.delete_row(io, None, Rid(25)).unwrap();
        assert_eq!(
            visible(&t, None, 1),
            19,
            "without a snapshot only dead slots drop"
        );
    }
}
