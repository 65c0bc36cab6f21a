//! Paged heap files.
//!
//! A [`HeapFile`] stores rows densely, `tups_per_page` per page, in load
//! order. "Clustering on attribute A" — what the paper obtains with
//! PostgreSQL's `CLUSTER` command — is achieved by bulk-loading rows sorted
//! on A; the clustered index and the CM bucket directory are then built on
//! top. Appends go to the tail, which is exactly how a clustered-once table
//! degrades under inserts in PostgreSQL.
//!
//! Each page is one contiguous `Vec<Value>` of `tups_per_page × arity`
//! values (the tail page may be shorter), so a page run is a sequential
//! walk over a few allocations and readers get `&[Value]` row slices.
//! Because the walk knows where the next rows lie, a run visit asks the
//! cache for them [`PREFETCH_ROWS`] rows ahead of the visitor.
//! String values pass through a per-heap dictionary on their way in, so
//! a categorical column holds one `Arc<str>` allocation per distinct
//! value however the rows were produced.

use crate::disk::{DiskSim, FileId, PageAccessor};
use crate::error::StorageError;
use crate::hash::FxHashSet;
use crate::rid::Rid;
use crate::schema::{Row, Schema};
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// Most distinct strings one heap's dictionary holds. Categorical
/// columns are far below it; a column of unique strings fills it once
/// and every later string keeps its own allocation, at the price of one
/// failed lookup per value. A constant, not a knob: it only caps the
/// memory a dictionary that is not paying off can take.
pub const DICT_MAX_STRINGS: usize = 4096;

/// How many rows ahead of the visitor [`HeapFile::read_run_visit`]
/// prefetches. A row is a few hundred bytes and a visitor spends tens of
/// nanoseconds on it, so without this every row starts with a cache
/// miss the hardware prefetchers do not cover (they follow neither a
/// 300-byte stride far enough nor a run across page allocations), and a
/// resident scan's time follows memory latency — which on a shared host
/// moves by half from one minute to the next — instead of its own work.
/// Sixteen rows is about a microsecond of lead.
pub const PREFETCH_ROWS: usize = 16;

/// Byte offsets one row's prefetch touches, at most: every cache line of
/// a ~1 KiB row, or both ends of ten values.
const MAX_TOUCH: usize = 20;

/// The rows of one page, each a `&[Value]` of the schema's arity.
pub type PageRows<'a> = std::slice::ChunksExact<'a, Value>;

/// A paged, append-only heap of rows.
pub struct HeapFile {
    schema: Arc<Schema>,
    file: FileId,
    /// `pages[p]` holds the values of rows `p * tups_per_page ..`, row
    /// after row; every page but the last is full.
    pages: Vec<Vec<Value>>,
    len: usize,
    arity: usize,
    tups_per_page: usize,
    dict: StrDict,
}

impl HeapFile {
    /// Bulk-load a heap file. The caller controls clustering by sorting
    /// `rows` before loading (see [`HeapFile::bulk_load_clustered`]).
    ///
    /// No I/O is charged for the load itself; the experiments measure query
    /// and maintenance cost, not initial load (the paper's tables are built
    /// before measurement begins).
    pub fn bulk_load(
        disk: &DiskSim,
        schema: Arc<Schema>,
        rows: Vec<Row>,
        tups_per_page: usize,
    ) -> Result<Self> {
        assert!(tups_per_page > 0, "tups_per_page must be positive");
        let arity = schema.arity();
        assert!(arity > 0, "a heap row has at least one column");
        if let Some(row) = rows.first() {
            schema.validate(row)?;
        }
        let mut heap = HeapFile {
            schema,
            file: disk.alloc_file(),
            pages: Vec::with_capacity(rows.len().div_ceil(tups_per_page)),
            len: 0,
            arity,
            tups_per_page,
            dict: StrDict::default(),
        };
        // Rows move into their page one at a time, each freeing its own
        // allocation as it goes: the load never holds two copies.
        for row in rows {
            if row.len() != arity {
                return Err(StorageError::SchemaMismatch {
                    detail: format!("arity {} != {arity}", row.len()),
                });
            }
            heap.push_row(row);
        }
        Ok(heap)
    }

    /// Bulk-load clustered on a column: rows are sorted by that column
    /// (ties keep their input order, so secondary correlations survive as
    /// they would under PostgreSQL's `CLUSTER`).
    pub fn bulk_load_clustered(
        disk: &DiskSim,
        schema: Arc<Schema>,
        mut rows: Vec<Row>,
        tups_per_page: usize,
        cluster_col: usize,
    ) -> Result<Self> {
        rows.sort_by(|a, b| a[cluster_col].cmp(&b[cluster_col]));
        Self::bulk_load(disk, schema, rows, tups_per_page)
    }

    /// Move a validated row onto the tail page, opening a new page when
    /// the tail is full.
    fn push_row(&mut self, row: Row) {
        if self.len.is_multiple_of(self.tups_per_page) {
            self.pages.push(Vec::with_capacity(self.tups_per_page * self.arity));
        }
        let tail = self.pages.last_mut().expect("tail page opened above");
        for mut v in row {
            self.dict.share(&mut v);
            tail.push(v);
        }
        self.len += 1;
    }

    /// The value range of a slot inside its page.
    fn slot(&self, rid: Rid) -> Result<(usize, std::ops::Range<usize>)> {
        let i = rid.0 as usize;
        if i >= self.len {
            return Err(StorageError::RidOutOfRange { rid: rid.0, len: self.len as u64 });
        }
        let start = i % self.tups_per_page * self.arity;
        Ok((i / self.tups_per_page, start..start + self.arity))
    }

    /// The table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The simulated file this heap is charged against.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Tuples per page.
    pub fn tups_per_page(&self) -> usize {
        self.tups_per_page
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        self.len as u64
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages (`ceil(len / tups_per_page)`).
    pub fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Page number of a RID.
    pub fn page_of(&self, rid: Rid) -> u64 {
        rid.page(self.tups_per_page)
    }

    /// Fetch one row by RID, charging a read of its page.
    pub fn fetch(&self, io: &dyn PageAccessor, rid: Rid) -> Result<&[Value]> {
        let row = self.peek(rid)?;
        io.read(self.file, self.page_of(rid));
        Ok(row)
    }

    /// Read one row without charging I/O (for building statistics and
    /// structures outside the measured window).
    pub fn peek(&self, rid: Rid) -> Result<&[Value]> {
        let (page, range) = self.slot(rid)?;
        Ok(&self.pages[page][range])
    }

    /// The rows on one page, charging a read of that page.
    pub fn read_page(&self, io: &dyn PageAccessor, page: u64) -> Result<PageRows<'_>> {
        if page >= self.num_pages() {
            return Err(StorageError::PageOutOfRange { page, pages: self.num_pages() });
        }
        io.read(self.file, page);
        Ok(self.pages[page as usize].chunks_exact(self.arity))
    }

    /// Visit the rows of the contiguous page run `lo..=hi`, charging the
    /// whole run as **one** vectored read (one seek plus sequential
    /// pages, atomic against concurrent sessions on the same device).
    /// The visitor receives each row with its RID, in heap order, and the
    /// number of rows visited is returned. An empty run (`lo > hi`) is a
    /// free no-op.
    ///
    /// `touch` names the columns the visitor reads — `None` when it may
    /// read all of them — and only steers the prefetch
    /// ([`PREFETCH_ROWS`]): asking for three columns of a wide row moves
    /// a third of the bytes asking for the row does.
    pub fn read_run_visit(
        &self,
        io: &dyn PageAccessor,
        lo: u64,
        hi: u64,
        touch: Option<&[usize]>,
        mut visit: impl FnMut(Rid, &[Value]),
    ) -> Result<u64> {
        if lo > hi {
            return Ok(0);
        }
        if hi >= self.num_pages() {
            return Err(StorageError::PageOutOfRange { page: hi, pages: self.num_pages() });
        }
        io.read_run(self.file, lo, hi);
        let mut offsets = [0usize; MAX_TOUCH];
        let offsets = self.touch_offsets(touch, &mut offsets);
        let ahead = PREFETCH_ROWS * self.arity;
        let mut rid = lo * self.tups_per_page as u64;
        for page in lo as usize..=hi as usize {
            let values = &self.pages[page][..];
            // Only the tail page is short, and nothing follows it.
            let next = if page < hi as usize { &self.pages[page + 1][..] } else { &[] };
            for (i, row) in values.chunks_exact(self.arity).enumerate() {
                let at = i * self.arity + ahead;
                let later = match values.get(at..) {
                    Some(rest) if !rest.is_empty() => rest,
                    _ => next.get(at - values.len()..).unwrap_or(&[]),
                };
                if !later.is_empty() {
                    prefetch(later, offsets);
                }
                visit(Rid(rid), row);
                rid += 1;
            }
        }
        Ok(rid - lo * self.tups_per_page as u64)
    }

    /// The byte offsets into a row that cover `touch`: both ends of each
    /// named value (a 24-byte value can straddle a line), or one per
    /// cache line of the whole row. A hint, so a list too long for `buf`
    /// is cut short.
    fn touch_offsets<'b>(
        &self,
        touch: Option<&[usize]>,
        buf: &'b mut [usize; MAX_TOUCH],
    ) -> &'b [usize] {
        const VALUE: usize = std::mem::size_of::<Value>();
        let mut n = 0;
        let mut put = |off: usize| {
            if n < MAX_TOUCH {
                buf[n] = off;
                n += 1;
            }
        };
        match touch {
            Some(cols) => {
                for &c in cols.iter().filter(|&&c| c < self.arity) {
                    put(c * VALUE);
                    put(c * VALUE + VALUE - 1);
                }
            }
            None => {
                let row = self.arity * VALUE;
                (0..row).step_by(64).for_each(&mut put);
                put(row - 1);
            }
        }
        &buf[..n]
    }

    /// RID range `[lo, hi)` of the rows stored on `page`.
    pub fn page_rid_range(&self, page: u64) -> (Rid, Rid) {
        let lo = page * self.tups_per_page as u64;
        let hi = (lo + self.tups_per_page as u64).min(self.len());
        (Rid(lo), Rid(hi))
    }

    /// Iterate all rows with their RIDs, charging nothing (structure
    /// construction). Use [`HeapFile::read_page`] in measured code.
    pub fn iter(&self) -> impl Iterator<Item = (Rid, &[Value])> {
        self.pages
            .iter()
            .flat_map(|page| page.chunks_exact(self.arity))
            .enumerate()
            .map(|(i, r)| (Rid(i as u64), r))
    }

    /// Append a row to the tail, charging a write of the tail page, and
    /// return its RID. This is the INSERT path of the maintenance
    /// experiments (Experiment 3).
    pub fn append(&mut self, io: &dyn PageAccessor, row: Row) -> Result<Rid> {
        self.schema.validate(&row)?;
        let rid = Rid(self.len as u64);
        self.push_row(row);
        io.write(self.file, self.page_of(rid));
        Ok(rid)
    }

    /// Append an all-NULL placeholder row without charging I/O. Recovery
    /// uses this to grow a shard's heap up to a logged RID whose
    /// intervening slots were deleted before the crash. The heap does
    /// not know which slots are live; its owner records that.
    pub fn append_tombstone(&mut self) -> Rid {
        let rid = Rid(self.len as u64);
        self.push_row(vec![Value::Null; self.arity]);
        rid
    }

    /// Reinstate a row into a tombstoned slot, charging a write of the
    /// page — redo of a logged insert whose slot exists but was emptied,
    /// and undo of an uncommitted delete. Errors if the slot is out of
    /// range. The caller checks that the slot is dead: recovery must
    /// never clobber a row that survived.
    pub fn restore_row(&mut self, io: &dyn PageAccessor, rid: Rid, row: Row) -> Result<()> {
        self.schema.validate(&row)?;
        let (page, range) = self.slot(rid)?;
        for (slot, mut v) in self.pages[page][range].iter_mut().zip(row) {
            self.dict.share(&mut v);
            *slot = v;
        }
        io.write(self.file, rid.page(self.tups_per_page));
        Ok(())
    }

    /// Remove a row by RID. The slot's values are cleared to NULL (which
    /// frees them) rather than compacted, as in a real heap; the caller
    /// unindexes the row and records the slot as dead. Charges a write
    /// of the page.
    pub fn delete(&mut self, io: &dyn PageAccessor, rid: Rid) -> Result<Row> {
        let (page, range) = self.slot(rid)?;
        let old = self.pages[page][range]
            .iter_mut()
            .map(|v| std::mem::replace(v, Value::Null))
            .collect();
        io.write(self.file, rid.page(self.tups_per_page));
        Ok(old)
    }
}

/// Ask the cache for the bytes at `offsets` (all within one row) past
/// the start of `rows`, the rest of a page from some row on.
#[inline(always)]
fn prefetch(rows: &[Value], offsets: &[usize]) {
    #[cfg(target_arch = "x86_64")]
    for &off in offsets {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is a hint: it dereferences nothing and
        // is defined for any address; SSE is baseline on x86_64.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(rows.as_ptr().cast::<i8>().wrapping_add(off)) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (rows, offsets);
}

/// The strings a heap shares: at most [`DICT_MAX_STRINGS`] distinct texts,
/// one allocation each.
#[derive(Default)]
struct StrDict(FxHashSet<Arc<str>>);

impl StrDict {
    /// Swap a string the dictionary already holds for the shared
    /// allocation; remember a new one while there is room.
    fn share(&mut self, v: &mut Value) {
        let Value::Str(s) = v else { return };
        match self.0.get(&**s) {
            Some(shared) if Arc::ptr_eq(shared, s) => {}
            Some(shared) => *s = shared.clone(),
            None if self.0.len() < DICT_MAX_STRINGS => {
                self.0.insert(s.clone());
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ValueType};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("k", ValueType::Int),
            Column::new("v", ValueType::Str),
        ]))
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))]).collect()
    }

    #[test]
    fn paging_math() {
        let disk = DiskSim::with_defaults();
        let h = HeapFile::bulk_load(&disk, schema(), rows(250), 100).unwrap();
        assert_eq!(h.len(), 250);
        assert_eq!(h.num_pages(), 3);
        assert_eq!(h.page_of(Rid(0)), 0);
        assert_eq!(h.page_of(Rid(99)), 0);
        assert_eq!(h.page_of(Rid(100)), 1);
        assert_eq!(h.page_of(Rid(249)), 2);
        let (lo, hi) = h.page_rid_range(2);
        assert_eq!((lo, hi), (Rid(200), Rid(250)));
    }

    #[test]
    fn fetch_charges_page_read() {
        let disk = DiskSim::with_defaults();
        let h = HeapFile::bulk_load(&disk, schema(), rows(10), 4).unwrap();
        let row = h.fetch(disk.as_ref(), Rid(5)).unwrap();
        assert_eq!(row[0], Value::Int(5));
        assert_eq!(disk.stats().seeks, 1);
        // Peek does not charge.
        let _ = h.peek(Rid(6)).unwrap();
        assert_eq!(disk.stats().pages(), 1);
    }

    #[test]
    fn read_page_returns_partial_tail_page() {
        let disk = DiskSim::with_defaults();
        let h = HeapFile::bulk_load(&disk, schema(), rows(10), 4).unwrap();
        assert_eq!(h.read_page(disk.as_ref(), 0).unwrap().len(), 4);
        assert_eq!(h.read_page(disk.as_ref(), 2).unwrap().len(), 2);
        assert!(h.read_page(disk.as_ref(), 3).is_err());
    }

    #[test]
    fn read_run_visit_charges_one_run_and_visits_every_row() {
        let disk = DiskSim::with_defaults();
        let h = HeapFile::bulk_load(&disk, schema(), rows(10), 4).unwrap();
        let mut seen: Vec<u64> = Vec::new();
        let n = h.read_run_visit(disk.as_ref(), 0, 2, None, |rid, row| {
            assert_eq!(row[0], Value::Int(rid.0 as i64));
            seen.push(rid.0);
        });
        assert_eq!(n.unwrap(), 10);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        let s = disk.stats();
        assert_eq!(s.seeks, 1, "whole sweep is one vectored run");
        assert_eq!(s.seq_reads, 2);
        // A run that starts past page 0 starts at that page's first RID.
        let mut first = None;
        h.read_run_visit(disk.as_ref(), 1, 1, None, |rid, _| first = first.or(Some(rid))).unwrap();
        assert_eq!(first, Some(Rid(4)));
        // Out-of-range and empty runs.
        assert!(h.read_run_visit(disk.as_ref(), 0, 3, None, |_, _| {}).is_err());
        let before = disk.stats();
        let n = h
            .read_run_visit(disk.as_ref(), 2, 1, None, |_, _| panic!("empty run visits nothing"))
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(disk.stats(), before);
    }

    #[test]
    fn prefetch_hint_never_changes_what_is_visited() {
        // Pages longer and shorter than the prefetch distance, a short
        // tail page, and every kind of hint — including columns the
        // schema lacks and more of them than the offset buffer holds.
        let disk = DiskSim::with_defaults();
        let many: Vec<usize> = (0..2 * MAX_TOUCH).map(|c| c % 2).collect();
        let hints: [Option<&[usize]>; 5] =
            [None, Some(&[]), Some(&[1]), Some(&[0, 7]), Some(&many)];
        for tpp in [3, PREFETCH_ROWS, 3 * PREFETCH_ROWS + 1] {
            let n = 5 * tpp as i64 + 2;
            let h = HeapFile::bulk_load(&disk, schema(), rows(n), tpp).unwrap();
            let last = h.num_pages() - 1;
            for hint in hints {
                let mut next = 0;
                let visited = h.read_run_visit(disk.as_ref(), 0, last, hint, |rid, row| {
                    assert_eq!((rid.0 as i64, &row[0]), (next, &Value::Int(next)));
                    next += 1;
                });
                assert_eq!((visited.unwrap() as i64, next), (n, n));
            }
        }
    }

    #[test]
    fn clustered_load_sorts_rows() {
        let disk = DiskSim::with_defaults();
        let mut input = rows(50);
        // Shuffle deterministically by reversing.
        input.reverse();
        let h = HeapFile::bulk_load_clustered(&disk, schema(), input, 10, 0).unwrap();
        let keys: Vec<i64> =
            h.iter().map(|(_, r)| r[0].as_int().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn clustered_load_is_stable_on_ties() {
        let disk = DiskSim::with_defaults();
        let input = vec![
            vec![Value::Int(1), Value::str("first")],
            vec![Value::Int(0), Value::str("zero")],
            vec![Value::Int(1), Value::str("second")],
        ];
        let h = HeapFile::bulk_load_clustered(&disk, schema(), input, 10, 0).unwrap();
        assert_eq!(h.peek(Rid(1)).unwrap()[1], Value::str("first"));
        assert_eq!(h.peek(Rid(2)).unwrap()[1], Value::str("second"));
    }

    #[test]
    fn append_goes_to_tail_and_charges_write() {
        let disk = DiskSim::with_defaults();
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(5), 4).unwrap();
        let rid = h.append(disk.as_ref(), vec![Value::Int(99), Value::str("new")]).unwrap();
        assert_eq!(rid, Rid(5));
        assert_eq!(h.page_of(rid), 1);
        assert_eq!(disk.stats().page_writes, 1);
        assert_eq!(h.peek(rid).unwrap()[0], Value::Int(99));
    }

    #[test]
    fn append_rejects_schema_violation() {
        let disk = DiskSim::with_defaults();
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(1), 4).unwrap();
        assert!(h.append(disk.as_ref(), vec![Value::Int(0)]).is_err());
        assert!(h
            .append(disk.as_ref(), vec![Value::str("x"), Value::str("y")])
            .is_err());
    }

    #[test]
    fn delete_tombstones_slot() {
        let disk = DiskSim::with_defaults();
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(3), 4).unwrap();
        let old = h.delete(disk.as_ref(), Rid(1)).unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert!(h.peek(Rid(1)).unwrap()[0].is_null());
        assert_eq!(h.len(), 3, "tombstone keeps slots stable");
        assert!(h.delete(disk.as_ref(), Rid(9)).is_err());
    }

    #[test]
    fn tombstone_append_and_restore_roundtrip() {
        let disk = DiskSim::with_defaults();
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(2), 4).unwrap();
        let before = disk.stats();
        let rid = h.append_tombstone();
        assert_eq!(rid, Rid(2));
        assert!(h.peek(rid).unwrap().iter().all(|v| v.is_null()));
        assert_eq!(disk.stats(), before, "placeholder growth is uncharged");
        let row = vec![Value::Int(42), Value::str("back")];
        h.restore_row(disk.as_ref(), rid, row.clone()).unwrap();
        assert_eq!(h.peek(rid).unwrap(), row);
        assert_eq!(disk.stats().page_writes, before.page_writes + 1);
        assert!(h.restore_row(disk.as_ref(), Rid(9), row).is_err());
    }

    fn shared(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn equal_strings_share_one_allocation_however_they_arrive() {
        let disk = DiskSim::with_defaults();
        // `Value::str` allocates per call: five private "x"s and "y"s.
        let input: Vec<Row> =
            (0..10).map(|i| vec![Value::Int(i), Value::str(["x", "y"][i as usize % 2])]).collect();
        assert!(!shared(&input[0][1], &input[2][1]));
        let mut h = HeapFile::bulk_load(&disk, schema(), input, 4).unwrap();
        let appended = h.append(disk.as_ref(), vec![Value::Int(10), Value::str("x")]).unwrap();
        let slot = h.append_tombstone();
        h.restore_row(disk.as_ref(), slot, vec![Value::Int(11), Value::str("y")]).unwrap();
        let x = h.peek(Rid(0)).unwrap()[1].clone();
        let y = h.peek(Rid(1)).unwrap()[1].clone();
        assert!(!shared(&x, &y));
        for (rid, row) in h.iter() {
            let want = if rid.0 % 2 == 0 { &x } else { &y };
            assert!(shared(&row[1], want), "{rid:?} shares its string");
        }
        assert_eq!(h.peek(appended).unwrap()[1], Value::str("x"));
        assert_eq!(h.dict.0.len(), 2);
    }

    #[test]
    fn dictionary_stops_at_its_bound_and_unique_strings_round_trip() {
        let disk = DiskSim::with_defaults();
        let n = DICT_MAX_STRINGS as i64 + 50;
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(n), 64).unwrap();
        assert_eq!(h.dict.0.len(), DICT_MAX_STRINGS);
        for (rid, row) in h.iter() {
            assert_eq!(row[1], Value::str(format!("r{}", rid.0)));
        }
        // A string that made it in is still shared; one that did not
        // keeps its own allocation and its text.
        let early = h.append(disk.as_ref(), vec![Value::Int(0), Value::str("r0")]).unwrap();
        let late = h.append(disk.as_ref(), vec![Value::Int(0), Value::str(format!("r{}", n - 1))]);
        let late = late.unwrap();
        assert!(shared(&h.peek(early).unwrap()[1], &h.peek(Rid(0)).unwrap()[1]));
        assert!(!shared(&h.peek(late).unwrap()[1], &h.peek(Rid(n as u64 - 1)).unwrap()[1]));
        assert_eq!(h.peek(late).unwrap()[1], h.peek(Rid(n as u64 - 1)).unwrap()[1]);
        assert_eq!(h.dict.0.len(), DICT_MAX_STRINGS);
    }

    #[test]
    fn bulk_load_rejects_a_ragged_row() {
        let disk = DiskSim::with_defaults();
        let mut input = rows(3);
        input[2].pop();
        assert!(HeapFile::bulk_load(&disk, schema(), input, 4).is_err());
    }

    #[test]
    fn out_of_range_rid_errors() {
        let disk = DiskSim::with_defaults();
        let h = HeapFile::bulk_load(&disk, schema(), rows(3), 4).unwrap();
        assert!(matches!(
            h.peek(Rid(3)),
            Err(StorageError::RidOutOfRange { rid: 3, len: 3 })
        ));
    }
}
