//! Paged heap files.
//!
//! A [`HeapFile`] stores rows densely, `tups_per_page` per page, in load
//! order. "Clustering on attribute A" — what the paper obtains with
//! PostgreSQL's `CLUSTER` command — is achieved by bulk-loading rows sorted
//! on A; the clustered index and the CM bucket directory are then built on
//! top. Appends go to the tail, which is exactly how a clustered-once table
//! degrades under inserts in PostgreSQL.
//!
//! # Page layout
//!
//! A page is column-major (PAX): one typed vector per column plus a null
//! bitmap, `tups_per_page` slots long (the tail page may be shorter).
//! `Int` columns hold `i64`s, `Date` columns `i32`s, `Float` columns the
//! `f64` bit patterns as stored (compared in [`OrdF64`] order), and `Str`
//! columns `u32` codes into the heap's string [`Dictionary`], which holds
//! each distinct text once, with no cap. A NULL slot sets its bitmap bit
//! and leaves a zero filler in the typed vector. A slot's RID, the page a
//! RID lives on and every I/O charge are those of a row-major page: the
//! layout only changes what a reader touches once a page is charged.
//!
//! # Segments
//!
//! Pages are grouped in segments of [`SEGMENT_PAGES`] pages (the tail
//! segment may hold fewer). Within a segment a column's page vectors lie
//! end to end in one allocation, and its bitmaps in another, so a page
//! run is a sequential read of each column a reader touches — no pointer
//! to chase per page, nothing for the hardware prefetchers to lose track
//! of. A segment sits behind an [`Arc`] and is shared copy-on-write: a
//! [`HeapImage`] is a list of segment pointers, and a write copies a
//! segment only while an image still holds it. So an image costs
//! O(segments) to take, and beside its heap it holds only the segments
//! the heap has written since.
//!
//! # Write-once slots
//!
//! A slot's values are written when it is appended and never after,
//! save by recovery: [`restore_row`] refills a placeholder slot.
//! Whether a slot holds a row is its owner's record (the table's
//! stamps), so a delete writes nothing here, and a deleted slot keeps
//! the values it last held — which is why recovery's undo of a delete,
//! restoring those very values, writes nothing either. Outside recovery
//! only the tail append writes a segment: every segment below the tail
//! is sealed, and an image shares it for as long as both live.
//!
//! # Where rows are materialised
//!
//! Readers that can work on columns get a [`PageRef`] — typed slices,
//! null bitmaps and the dictionary — and a selection of slots; the query
//! layer's kernels, folds and join probes run on those. An owned [`Row`]
//! of [`Value`]s is built only where a row must leave the page, and
//! always by one routine, [`PageRef::append_cols`]: it appends a
//! selection's values to a batch of rows a column at a time, one typed
//! loop per column. [`PageRef::rows_into`] allocates each row once at
//! the page's arity and fills it so (collected results); a join
//! allocates each output row once at its full width and has the probe
//! columns appended to the build columns, or the other way round.
//! [`PageRef::row`], [`PageRef::row_into`] and [`peek`] are the
//! one-slot calls of it (WAL before-images, point reads, the `&[Value]`
//! visitor wrappers). The statistics scan and the structure
//! builds walk [`pages`] uncharged and read their columns as words
//! ([`ColumnSlice::word`]), materialising a value once per distinct key
//! or run, not once per row. Checkpoint images are no rows at all: a
//! [`HeapImage`] shares the typed segments themselves.
//!
//! [`peek`]: HeapFile::peek
//! [`pages`]: HeapFile::pages
//! [`restore_row`]: HeapFile::restore_row

use crate::disk::{DiskSim, FileId, PageAccessor};
use crate::error::StorageError;
use crate::hash::FxHashMap;
use crate::rid::Rid;
use crate::schema::{Column, Row, Schema, ValueType};
use crate::value::{OrdF64, Value};
use crate::Result;
use std::sync::Arc;

/// The distinct strings of one heap, each stored once and named by a
/// dense `u32` code in arrival order. Codes are stable for the heap's
/// life (a deleted row's string keeps its code), so a string predicate
/// or join key is resolved to codes once and then matched by integer
/// compare. Codes carry no order: string ranges compare the texts.
#[derive(Debug, Default)]
pub struct Dictionary {
    strings: Vec<Arc<str>>,
    codes: FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the heap has stored no string.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The text of `code`.
    ///
    /// # Panics
    /// Panics on a code this dictionary never issued.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// The code of `s`, if the heap has ever stored it.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// The code of `s`, issuing the next one if it is new.
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&code) = self.codes.get(&**s) {
            return code;
        }
        let code = u32::try_from(self.strings.len()).expect("fewer than 2^32 strings");
        self.strings.push(s.clone());
        self.codes.insert(s.clone(), code);
        code
    }
}

/// One column's values for every slot of a segment, in RID order,
/// typed by the schema.
#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Date(Vec<i32>),
    Float(Vec<f64>),
    Str(Vec<u32>),
}

/// One column of a segment: its typed values, page after page, and per
/// page a null bitmap.
#[derive(Debug, Clone)]
struct ColumnStore {
    data: ColumnData,
    /// `words` words per page: bit `s % 64` of a page's word `s / 64` is
    /// set when slot `s` is NULL.
    nulls: Vec<u64>,
}

impl ColumnData {
    /// An empty column of type `ty` with room for `slots` values.
    fn with_capacity(ty: ValueType, slots: usize) -> Self {
        match ty {
            ValueType::Int => ColumnData::Int(Vec::with_capacity(slots)),
            ValueType::Date => ColumnData::Date(Vec::with_capacity(slots)),
            ValueType::Float => ColumnData::Float(Vec::with_capacity(slots)),
            ValueType::Str => ColumnData::Str(Vec::with_capacity(slots)),
        }
    }
}

impl ColumnStore {

    /// Store `v` (of the column's type, or NULL) at `at`: the next slot
    /// when `at` is the column's length, else overwriting. `nulls` is
    /// the page's NULL count for this column.
    fn put(&mut self, at: Slot, v: &Value, dict: &mut Dictionary, nulls: &mut u32) {
        fn store<T>(vals: &mut Vec<T>, i: usize, x: T) {
            if i == vals.len() {
                vals.push(x);
            } else {
                vals[i] = x;
            }
        }
        let (word, bit) = (at.seg_page * at.words + at.slot / 64, 1u64 << (at.slot % 64));
        if word == self.nulls.len() {
            // The first slot of a new page opens its bitmap.
            self.nulls.resize(word + at.words, 0);
        }
        let (null, was) = (v.is_null(), self.nulls[word] & bit != 0);
        if null != was {
            self.nulls[word] ^= bit;
            *nulls = if null { *nulls + 1 } else { *nulls - 1 };
        }
        let i = at.index;
        match (&mut self.data, v) {
            (ColumnData::Int(d), Value::Int(x)) => store(d, i, *x),
            (ColumnData::Date(d), Value::Date(x)) => store(d, i, *x),
            (ColumnData::Float(d), Value::Float(x)) => store(d, i, x.0),
            (ColumnData::Str(d), Value::Str(s)) => store(d, i, dict.intern(s)),
            (ColumnData::Int(d), Value::Null) => store(d, i, 0),
            (ColumnData::Date(d), Value::Null) => store(d, i, 0),
            (ColumnData::Float(d), Value::Null) => store(d, i, 0.0),
            (ColumnData::Str(d), Value::Null) => store(d, i, 0),
            (_, v) => unreachable!("a validated row stores {v:?} in a column of its type"),
        }
    }
}

/// Pages per segment: the unit a heap's columns are allocated, shared
/// and copied in (see the module docs). Within a segment a page run is
/// sequential; across segments it follows one pointer per segment.
pub const SEGMENT_PAGES: usize = 64;

/// Where a slot lives: its heap page (what I/O charges name), its
/// segment, its place in the segment's vectors and on its page, and the
/// bitmap words a page takes.
#[derive(Clone, Copy)]
struct Slot {
    page: usize,
    seg: usize,
    seg_page: usize,
    index: usize,
    slot: usize,
    words: usize,
}

impl Slot {
    fn of(rid: usize, tups_per_page: usize) -> Slot {
        let (page, slot) = (rid / tups_per_page, rid % tups_per_page);
        let (seg, seg_page) = (page / SEGMENT_PAGES, page % SEGMENT_PAGES);
        let index = seg_page * tups_per_page + slot;
        Slot { page, seg, seg_page, index, slot, words: tups_per_page.div_ceil(64) }
    }
}

/// [`SEGMENT_PAGES`] pages of every column: the typed values, the page
/// null bitmaps and the page-major null counts.
#[derive(Debug, Clone)]
struct Segment {
    /// One per schema column; page `p` of the segment is slots
    /// `p * tups_per_page ..` of each, and every page but the heap's last
    /// is full.
    columns: Vec<ColumnStore>,
    /// Page-major, one per column: how many of the page's slots are NULL
    /// in that column. Readers skip a bitmap, and the memory it lives
    /// in, when its count is 0; a row read finds every column's count on
    /// one cache line.
    null_counts: Vec<u32>,
}

impl Segment {
    /// Empty segments with room for `slots` slots, each but the last a
    /// full segment. Every column's value vectors are allocated first,
    /// column by column and segment after segment, and the bitmaps and
    /// counts after them: an allocator serving them from fresh memory
    /// then lays a column's segments end to end (16 bytes apart under
    /// glibc), so a scan's stream of a column does not jump at each
    /// segment boundary. Sweeping five columns of four 50 k-row heaps
    /// (60-slot pages, a 2-core x86_64 VM) took ~14 % longer with the
    /// vectors allocated a segment at a time, and ~70 % longer with
    /// 8-page segments so allocated; in this order both run as fast as
    /// one vector per column.
    fn open(schema: &Schema, slots: usize, tups_per_page: usize) -> Vec<Segment> {
        let seg_slots = SEGMENT_PAGES * tups_per_page;
        let sizes: Vec<usize> =
            (0..slots.div_ceil(seg_slots)).map(|s| seg_slots.min(slots - s * seg_slots)).collect();
        let column = |ty| sizes.iter().map(move |&n| ColumnData::with_capacity(ty, n));
        let mut data: Vec<std::vec::IntoIter<ColumnData>> = schema
            .columns()
            .iter()
            .map(|c| column(c.ty).collect::<Vec<_>>().into_iter())
            .collect();
        let words = tups_per_page.div_ceil(64);
        let mut segment = |n: usize| {
            let pages = n.div_ceil(tups_per_page);
            let columns = data.iter_mut().map(|col| ColumnStore {
                data: col.next().expect("one vector per segment"),
                nulls: Vec::with_capacity(pages * words),
            });
            let columns = columns.collect();
            Segment { columns, null_counts: Vec::with_capacity(pages * schema.arity()) }
        };
        sizes.iter().map(|&n| segment(n)).collect()
    }

    /// Store a validated row's values at `at`, opening its page's null
    /// counts when `at` is a page's first slot past the segment's end.
    fn put_row(&mut self, at: Slot, row: &[Value], dict: &mut Dictionary) {
        let arity = self.columns.len();
        if at.seg_page * arity == self.null_counts.len() {
            self.null_counts.resize((at.seg_page + 1) * arity, 0);
        }
        let counts = &mut self.null_counts[at.seg_page * arity..(at.seg_page + 1) * arity];
        for ((col, v), nulls) in self.columns.iter_mut().zip(row).zip(counts) {
            col.put(at, v, dict, nulls);
        }
    }

    /// Bytes the segment's slots take: typed values, bitmaps and null
    /// counts, by length (spare capacity, which only a segment still
    /// being appended to has, is not counted).
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let data = |c: &ColumnStore| match &c.data {
            ColumnData::Int(d) => d.len() * size_of::<i64>(),
            ColumnData::Date(d) => d.len() * size_of::<i32>(),
            ColumnData::Float(d) => d.len() * size_of::<f64>(),
            ColumnData::Str(d) => d.len() * size_of::<u32>(),
        };
        let cols: usize = self.columns.iter().map(|c| data(c) + c.nulls.len() * 8).sum();
        cols + self.null_counts.len() * size_of::<u32>()
    }
}

/// One page column as a reader sees it: the typed values of every slot
/// (a NULL slot holds a zero filler; see [`PageRef::nulls`]).
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// An `Int` column.
    Int(&'a [i64]),
    /// A `Date` column (days since epoch).
    Date(&'a [i32]),
    /// A `Float` column, bit patterns as stored.
    Float(&'a [f64]),
    /// A `Str` column: codes into [`PageRef::dict`].
    Str(&'a [u32]),
}

impl ColumnSlice<'_> {
    /// `slot`'s word as [`key_bits`] gives it for the value stored there:
    /// two slots of one column hold equal values exactly when their
    /// words are equal. A NULL slot's word is its filler's, so test the
    /// null bitmap first.
    #[inline]
    pub fn word(&self, slot: usize) -> u64 {
        match *self {
            ColumnSlice::Int(v) => v[slot] as u64,
            ColumnSlice::Date(v) => v[slot] as u64,
            ColumnSlice::Float(v) => OrdF64(v[slot]).order_key() as u64,
            ColumnSlice::Str(v) => u64::from(v[slot]),
        }
    }
}

/// Whether slot `slot` is set in a null bitmap.
#[inline(always)]
pub fn null_bit(nulls: &[u64], slot: usize) -> bool {
    nulls[slot / 64] >> (slot % 64) & 1 != 0
}

/// A read view of one page: its typed columns, their null bitmaps, the
/// heap's dictionary, and where its slots sit in RID space.
#[derive(Clone, Copy)]
pub struct PageRef<'a> {
    /// Its segment's columns.
    cols: &'a [ColumnStore],
    /// Per column, how many of this page's slots are NULL.
    null_counts: &'a [u32],
    dict: &'a Dictionary,
    /// The page's place in its segment.
    seg_page: usize,
    /// Where slot 0 sits in the segment's vectors.
    at: usize,
    /// The RID of slot 0.
    first: usize,
    len: usize,
    words: usize,
}

impl<'a> PageRef<'a> {
    /// Slots on the page (rows and dead slots alike).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the page has no slot (never true of a stored page).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The RID of slot 0.
    #[inline]
    pub fn first_rid(&self) -> Rid {
        Rid(self.first as u64)
    }

    /// The RID of `slot`.
    #[inline]
    pub fn rid(&self, slot: u32) -> Rid {
        Rid((self.first + slot as usize) as u64)
    }

    /// Column `col`'s typed values.
    #[inline]
    pub fn column(&self, col: usize) -> ColumnSlice<'a> {
        let on_page = self.at..self.at + self.len;
        match &self.cols[col].data {
            ColumnData::Int(d) => ColumnSlice::Int(&d[on_page]),
            ColumnData::Date(d) => ColumnSlice::Date(&d[on_page]),
            ColumnData::Float(d) => ColumnSlice::Float(&d[on_page]),
            ColumnData::Str(d) => ColumnSlice::Str(&d[on_page]),
        }
    }

    /// Column `col`'s null bitmap (test it with [`null_bit`]), or `None`
    /// when no slot of the column is NULL on this page — kernels then
    /// skip the test.
    #[inline]
    pub fn nulls(&self, col: usize) -> Option<&'a [u64]> {
        let words = self.seg_page * self.words..(self.seg_page + 1) * self.words;
        (self.null_counts[col] > 0).then(|| &self.cols[col].nulls[words])
    }

    /// How many of the page's slots are NULL in `col`.
    pub fn null_count(&self, col: usize) -> u32 {
        self.null_counts[col]
    }

    /// Whether `slot`'s value in `col` is NULL.
    #[inline]
    pub fn is_null(&self, slot: usize, col: usize) -> bool {
        self.nulls(col).is_some_and(|n| null_bit(n, slot))
    }

    /// The heap's string dictionary.
    pub fn dict(&self) -> &'a Dictionary {
        self.dict
    }

    /// `slot`'s value in `col`, materialised.
    #[inline]
    pub fn value(&self, slot: usize, col: usize) -> Value {
        if self.is_null(slot, col) {
            return Value::Null;
        }
        match self.column(col) {
            ColumnSlice::Int(v) => Value::Int(v[slot]),
            ColumnSlice::Date(v) => Value::Date(v[slot]),
            ColumnSlice::Float(v) => Value::Float(OrdF64(v[slot])),
            ColumnSlice::Str(v) => Value::Str(self.dict.get(v[slot]).clone()),
        }
    }

    /// `slot` as an owned row.
    pub fn row(&self, slot: usize) -> Row {
        let mut row = Vec::with_capacity(self.cols.len());
        self.row_into(slot, &mut row);
        row
    }

    /// `slot` as a row, written over `buf` (a visitor's reused buffer):
    /// [`PageRef::append_cols`] of one slot.
    pub fn row_into(&self, slot: usize, buf: &mut Row) {
        buf.clear();
        self.append_cols(&[slot as u32], std::slice::from_mut(buf));
    }

    /// Append to `out` one row per slot of `sel`, each allocated once at
    /// the page's arity and filled by [`PageRef::append_cols`].
    pub fn rows_into(&self, sel: &[u32], out: &mut Vec<Row>) {
        let from = out.len();
        out.extend(sel.iter().map(|_| Vec::with_capacity(self.cols.len())));
        self.append_cols(sel, &mut out[from..]);
    }

    /// Append the values of slot `sel[i]`, column after column, to
    /// `rows[i]` for every `i` (`rows` is as long as `sel`): the one
    /// place a page's values become [`Value`]s.
    ///
    /// One typed loop per column: the type is matched once per column,
    /// and the null bitmap is read only when the page column holds a
    /// NULL. A string is first pushed as its code, and the codes are
    /// swapped for the dictionary's `Arc<str>` only after every column
    /// is loaded: cloning one is an atomic increment, which on x86 lets
    /// no later load start early, so interleaved with the column loads
    /// it would make a random row's cache misses wait for one another.
    pub fn append_cols(&self, sel: &[u32], rows: &mut [Row]) {
        debug_assert_eq!(sel.len(), rows.len(), "one row per selected slot");
        debug_assert!(sel.iter().all(|&s| (s as usize) < self.len), "slots on the page");
        let at = self.at;
        let words = self.seg_page * self.words..(self.seg_page + 1) * self.words;
        for (col, &nulls) in self.cols.iter().zip(self.null_counts) {
            let nulls = (nulls > 0).then(|| &col.nulls[words.clone()]);
            match &col.data {
                ColumnData::Int(d) => push_col(sel, rows, nulls, |s| Value::Int(d[at + s])),
                ColumnData::Date(d) => push_col(sel, rows, nulls, |s| Value::Date(d[at + s])),
                ColumnData::Float(d) => {
                    push_col(sel, rows, nulls, |s| Value::Float(OrdF64(d[at + s])))
                }
                ColumnData::Str(d) => {
                    push_col(sel, rows, nulls, |s| Value::Int(i64::from(d[at + s])))
                }
            }
        }
        let arity = self.cols.len();
        for (c, col) in self.cols.iter().enumerate() {
            if !matches!(col.data, ColumnData::Str(_)) {
                continue;
            }
            for row in rows.iter_mut() {
                let i = row.len() - arity + c;
                let v = &mut row[i];
                if let Value::Int(code) = *v {
                    *v = Value::Str(self.dict.get(code as u32).clone());
                }
            }
        }
    }
}

/// Push `value(sel[i])` onto `rows[i]`, or NULL where `nulls` marks the
/// slot: [`PageRef::append_cols`]' loop over one column.
#[inline(always)]
fn push_col(
    sel: &[u32],
    rows: &mut [Row],
    nulls: Option<&[u64]>,
    value: impl Fn(usize) -> Value,
) {
    let slots = sel.iter().map(|&s| s as usize).zip(rows);
    match nulls {
        None => slots.for_each(|(s, row)| row.push(value(s))),
        Some(n) => slots.for_each(|(s, row)| {
            row.push(if null_bit(n, s) { Value::Null } else { value(s) })
        }),
    }
}

/// The word a non-NULL value of a column is identified by under
/// [`Value`]'s equality, given the column's dictionary: an `Int`'s or
/// `Date`'s payload, a `Float`'s [`OrdF64::order_key`], a `Str`'s code.
/// Two values of one column are equal exactly when their words are; the
/// words of different columns are not comparable. `None` for NULL, for
/// a value of another type (which never equals the column's values) and
/// for a string the dictionary lacks.
pub fn key_bits(ty: ValueType, dict: &Dictionary, v: &Value) -> Option<u64> {
    match (ty, v) {
        (ValueType::Int, Value::Int(x)) => Some(*x as u64),
        (ValueType::Date, Value::Date(x)) => Some(*x as u64),
        (ValueType::Float, Value::Float(x)) => Some(x.order_key() as u64),
        (ValueType::Str, Value::Str(s)) => dict.code_of(s).map(u64::from),
        _ => None,
    }
}

/// What a checkpoint keeps of a heap: its segments (typed vectors, page
/// null bitmaps and counts), length, page size and the dictionary's
/// strings. [`HeapFile::image`] shares the segments and
/// [`HeapFile::from_image`] adopts them, building no [`Value`]; string
/// codes are kept as issued (they carry no order). A segment is copied
/// only when the heap writes it while an image holds it: an append to
/// the image's tail segment, or a recovery [`HeapFile::restore_row`] of
/// a placeholder slot.
#[derive(Debug, Clone)]
pub struct HeapImage {
    segments: Vec<Arc<Segment>>,
    len: usize,
    tups_per_page: usize,
    strings: Vec<Arc<str>>,
}

impl HeapImage {
    /// Bytes the image holds: its segments' typed values, bitmaps and
    /// null counts (by length, as [`HeapImage::bytes_apart_from`]
    /// counts them), and its list of the dictionary's strings (whose
    /// texts it shares with the heap). Segments shared with the heap or
    /// with other images are counted in full: this is what the image
    /// would cost alone, not what it adds.
    pub fn bytes(&self) -> usize {
        let segments: usize = self.segments.iter().map(|s| s.bytes()).sum();
        segments + self.strings.len() * std::mem::size_of::<Arc<str>>()
    }

    /// Bytes of this image's segments that `heap` does not share: what
    /// the image holds beside the heap it was taken of. Zero right after
    /// [`HeapFile::image`]; afterwards at most the bytes of the segments
    /// the heap has written since.
    pub fn bytes_apart_from(&self, heap: &HeapFile) -> usize {
        let shared = |i: usize, s: &Arc<Segment>| {
            heap.segments.get(i).is_some_and(|h| Arc::ptr_eq(s, h))
        };
        let apart = self.segments.iter().enumerate().filter(|&(i, s)| !shared(i, s));
        apart.map(|(_, s)| s.bytes()).sum()
    }
}

/// A paged, append-only heap of rows, stored column-major per page in
/// shared segments.
///
/// Slots are write-once (see the module docs): the load,
/// [`HeapFile::append`] and [`HeapFile::append_tombstone`] write only
/// the tail segment, and only recovery's [`HeapFile::restore_row`] of a
/// placeholder rewrites a slot. So while the engine runs, a segment below the tail
/// never changes: it is sealed, and an image shares it for as long as
/// both live.
pub struct HeapFile {
    schema: Arc<Schema>,
    file: FileId,
    /// Segment `s` holds pages `s * SEGMENT_PAGES ..`; every segment but
    /// the last holds [`SEGMENT_PAGES`] full pages.
    segments: Vec<Arc<Segment>>,
    len: usize,
    tups_per_page: usize,
    /// Null-bitmap words a page takes per column.
    words: usize,
    dict: Dictionary,
}

impl HeapFile {
    /// Bulk-load a heap file. The caller controls clustering by sorting
    /// `rows` before loading (see [`HeapFile::bulk_load_clustered`]).
    /// Every row is checked against the schema, arity and types.
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
        assert!(schema.arity() > 0, "a heap row has at least one column");
        let segments = Segment::open(&schema, rows.len(), tups_per_page);
        let mut heap = HeapFile {
            schema,
            file: disk.alloc_file(),
            segments: segments.into_iter().map(Arc::new).collect(),
            len: 0,
            tups_per_page,
            words: tups_per_page.div_ceil(64),
            dict: Dictionary::default(),
        };
        // Rows move into their page one at a time, each freeing its own
        // allocation as it goes: the load never holds two copies.
        for row in rows {
            heap.schema.validate(&row)?;
            heap.push_row(&row);
        }
        Ok(heap)
    }

    /// A heap that adopts `image`'s segments (see [`HeapImage`]) as they
    /// are, still shared with the image: no row is built, no string
    /// re-interned and no vector copied until a write. Its file is
    /// allocated as [`HeapFile::bulk_load`] allocates one, and the load
    /// is uncharged likewise.
    ///
    /// # Panics
    /// Panics if `image` was not taken of a heap with `schema`'s column
    /// types.
    pub fn from_image(disk: &DiskSim, schema: Arc<Schema>, image: HeapImage) -> Self {
        let HeapImage { segments, len, tups_per_page, strings } = image;
        let typed = |c: &Column| std::mem::discriminant(&ColumnData::with_capacity(c.ty, 0));
        for seg in &segments {
            let types = seg.columns.iter().map(|c| std::mem::discriminant(&c.data));
            assert!(types.eq(schema.columns().iter().map(typed)), "an image of another schema");
        }
        let codes = strings.iter().zip(0u32..).map(|(s, code)| (s.clone(), code)).collect();
        HeapFile {
            schema,
            file: disk.alloc_file(),
            segments,
            len,
            tups_per_page,
            words: tups_per_page.div_ceil(64),
            dict: Dictionary { strings, codes },
        }
    }

    /// This heap as a [`HeapImage`]: a pointer to each segment, shared
    /// until the heap next writes it, and a copy of the dictionary's
    /// string list (each text shared). It copies no column.
    pub fn image(&self) -> HeapImage {
        HeapImage {
            segments: self.segments.clone(),
            len: self.len,
            tups_per_page: self.tups_per_page,
            strings: self.dict.strings.clone(),
        }
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

    /// Move a validated row into the next slot (the tail page, or a new
    /// one when the tail is full), opening a segment if it starts one.
    fn push_row(&mut self, row: &[Value]) {
        let at = Slot::of(self.len, self.tups_per_page);
        if at.seg == self.segments.len() {
            let open = Segment::open(&self.schema, 1, self.tups_per_page);
            self.segments.extend(open.into_iter().map(Arc::new));
        }
        self.put_row(at, row);
        self.len += 1;
    }

    /// Store a validated row's values at `at`, copying its segment first
    /// if an image shares it.
    fn put_row(&mut self, at: Slot, row: &[Value]) {
        Arc::make_mut(&mut self.segments[at.seg]).put_row(at, row, &mut self.dict);
    }

    /// Where a stored RID lives.
    fn slot(&self, rid: Rid) -> Result<Slot> {
        let i = rid.0 as usize;
        if i >= self.len {
            return Err(StorageError::RidOutOfRange { rid: rid.0, len: self.len as u64 });
        }
        Ok(Slot::of(i, self.tups_per_page))
    }

    fn page_ref(&self, page: usize) -> PageRef<'_> {
        let (seg, seg_page) = (&self.segments[page / SEGMENT_PAGES], page % SEGMENT_PAGES);
        let arity = seg.columns.len();
        let first = page * self.tups_per_page;
        PageRef {
            cols: &seg.columns,
            null_counts: &seg.null_counts[seg_page * arity..(seg_page + 1) * arity],
            dict: &self.dict,
            seg_page,
            at: seg_page * self.tups_per_page,
            first,
            len: self.tups_per_page.min(self.len - first),
            words: self.words,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The heap's string dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// [`key_bits`] of `v` in column `col`'s representation.
    pub fn key_bits_of(&self, col: usize, v: &Value) -> Option<u64> {
        key_bits(self.schema.columns()[col].ty, &self.dict, v)
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
        self.len.div_ceil(self.tups_per_page) as u64
    }

    /// Page number of a RID.
    pub fn page_of(&self, rid: Rid) -> u64 {
        rid.page(self.tups_per_page)
    }

    /// The page holding `rid`, and `rid`'s slot on it, charging a read of
    /// the page — a point fetch that leaves the row on its page.
    pub fn fetch_page(&self, io: &dyn PageAccessor, rid: Rid) -> Result<(PageRef<'_>, u32)> {
        let at = self.slot(rid)?;
        io.read(self.file, at.page as u64);
        Ok((self.page_ref(at.page), at.slot as u32))
    }

    /// Read one row without charging I/O (for building statistics and
    /// structures outside the measured window).
    pub fn peek(&self, rid: Rid) -> Result<Row> {
        let at = self.slot(rid)?;
        Ok(self.page_ref(at.page).row(at.slot))
    }

    /// One value of one row, uncharged.
    pub fn value(&self, rid: Rid, col: usize) -> Result<Value> {
        let at = self.slot(rid)?;
        Ok(self.page_ref(at.page).value(at.slot, col))
    }

    /// One page, charging a read of it.
    pub fn read_page(&self, io: &dyn PageAccessor, page: u64) -> Result<PageRef<'_>> {
        if page >= self.num_pages() {
            return Err(StorageError::PageOutOfRange { page, pages: self.num_pages() });
        }
        io.read(self.file, page);
        Ok(self.page_ref(page as usize))
    }

    /// Visit the pages of the contiguous run `lo..=hi`, charging the
    /// whole run as **one** vectored read (one seek plus sequential
    /// pages, atomic against concurrent sessions on the same device).
    /// The visitor receives each page in heap order, and the number of
    /// slots visited is returned. An empty run (`lo > hi`) is a free
    /// no-op.
    pub fn read_run_visit(
        &self,
        io: &dyn PageAccessor,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(PageRef<'_>),
    ) -> Result<u64> {
        if lo > hi {
            return Ok(0);
        }
        if hi >= self.num_pages() {
            return Err(StorageError::PageOutOfRange { page: hi, pages: self.num_pages() });
        }
        io.read_run(self.file, lo, hi);
        let mut slots = 0;
        for page in lo as usize..=hi as usize {
            let page = self.page_ref(page);
            slots += page.len() as u64;
            visit(page);
        }
        Ok(slots)
    }

    /// RID range `[lo, hi)` of the rows stored on `page`.
    pub fn page_rid_range(&self, page: u64) -> (Rid, Rid) {
        let lo = page * self.tups_per_page as u64;
        let hi = (lo + self.tups_per_page as u64).min(self.len());
        (Rid(lo), Rid(hi))
    }

    /// Every page in heap order, uncharged: what the statistics scan and
    /// the structure builds read, a column slice at a time.
    pub fn pages(&self) -> impl Iterator<Item = PageRef<'_>> + '_ {
        (0..self.num_pages() as usize).map(move |p| self.page_ref(p))
    }

    /// Append a row to the tail, charging a write of the tail page, and
    /// return its RID. This is the INSERT path of the maintenance
    /// experiments (Experiment 3).
    pub fn append(&mut self, io: &dyn PageAccessor, row: Row) -> Result<Rid> {
        self.append_row(io, &row)
    }

    /// [`HeapFile::append`] of a row the caller keeps (to index it).
    pub fn append_row(&mut self, io: &dyn PageAccessor, row: &[Value]) -> Result<Rid> {
        self.schema.validate(row)?;
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
        self.push_row(&vec![Value::Null; self.schema.arity()]);
        rid
    }

    /// Reinstate a row into a slot that holds none, charging a write of
    /// the page — redo of a logged insert whose slot exists as a
    /// placeholder or a deleted row, and undo of an uncommitted delete.
    /// A deleted slot keeps its values, so it usually still holds
    /// exactly `row`: then nothing is written and only the page write is
    /// charged, and an image keeps sharing the slot's segment. Otherwise
    /// (a placeholder) this is the one write below the tail (see the type
    /// docs). Errors if the slot is out of range. The caller checks that
    /// the slot is dead: recovery must never clobber a row that survived.
    pub fn restore_row(&mut self, io: &dyn PageAccessor, rid: Rid, row: &[Value]) -> Result<()> {
        self.schema.validate(row)?;
        let at = self.slot(rid)?;
        if !self.holds(at, row) {
            self.put_row(at, row);
        }
        io.write(self.file, at.page as u64);
        Ok(())
    }

    /// Whether the slot at `at` already stores a validated `row` as
    /// [`Segment::put_row`] would: each column's null bit, and its
    /// payload, float bits or string code.
    fn holds(&self, at: Slot, row: &[Value]) -> bool {
        let seg = &self.segments[at.seg];
        seg.columns.iter().zip(row).all(|(col, v)| {
            let null = null_bit(&col.nulls[at.seg_page * at.words..], at.slot);
            let i = at.index;
            match (&col.data, v) {
                (_, Value::Null) => null,
                _ if null => false,
                (ColumnData::Int(d), Value::Int(x)) => d[i] == *x,
                (ColumnData::Date(d), Value::Date(x)) => d[i] == *x,
                (ColumnData::Float(d), Value::Float(x)) => d[i].to_bits() == x.0.to_bits(),
                (ColumnData::Str(d), Value::Str(s)) => self.dict.code_of(s) == Some(d[i]),
                _ => false,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("k", ValueType::Int),
            Column::new("v", ValueType::Str),
        ]))
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))]).collect()
    }

    /// Every slot of `h`, materialised, with its RID.
    fn stored(h: &HeapFile) -> impl Iterator<Item = (Rid, Row)> + '_ {
        (0..h.len()).map(Rid).map(|rid| (rid, h.peek(rid).unwrap()))
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
        let (page, slot) = h.fetch_page(disk.as_ref(), Rid(5)).unwrap();
        assert_eq!(page.value(slot as usize, 0), Value::Int(5));
        assert_eq!(disk.stats().seeks, 1);
        // Peek does not charge.
        let _ = h.peek(Rid(6)).unwrap();
        assert_eq!(h.value(Rid(6), 1).unwrap(), Value::str("r6"));
        assert_eq!(disk.stats().pages(), 1);
        let (page, slot) = h.fetch_page(disk.as_ref(), Rid(9)).unwrap();
        assert_eq!((page.first_rid(), slot, page.len()), (Rid(8), 1, 2));
        assert_eq!(disk.stats().pages(), 2);
    }

    #[test]
    fn read_page_returns_partial_tail_page() {
        let disk = DiskSim::with_defaults();
        let h = HeapFile::bulk_load(&disk, schema(), rows(10), 4).unwrap();
        assert_eq!(h.read_page(disk.as_ref(), 0).unwrap().len(), 4);
        assert_eq!(h.read_page(disk.as_ref(), 2).unwrap().len(), 2);
        assert!(h.read_page(disk.as_ref(), 3).is_err());
        // A page without a NULL reports no bitmap.
        assert!(h.read_page(disk.as_ref(), 0).unwrap().nulls(1).is_none());
    }

    #[test]
    fn read_run_visit_charges_one_run_and_visits_every_row() {
        let disk = DiskSim::with_defaults();
        let h = HeapFile::bulk_load(&disk, schema(), rows(10), 4).unwrap();
        let mut seen: Vec<u64> = Vec::new();
        let n = h.read_run_visit(disk.as_ref(), 0, 2, |page| {
            for slot in 0..page.len() {
                let rid = page.rid(slot as u32);
                assert_eq!(page.value(slot, 0), Value::Int(rid.0 as i64));
                seen.push(rid.0);
            }
        });
        assert_eq!(n.unwrap(), 10);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        let s = disk.stats();
        assert_eq!(s.seeks, 1, "whole sweep is one vectored run");
        assert_eq!(s.seq_reads, 2);
        // A run that starts past page 0 starts at that page's first RID.
        let mut first = None;
        h.read_run_visit(disk.as_ref(), 1, 1, |p| first = first.or(Some(p.first_rid()))).unwrap();
        assert_eq!(first, Some(Rid(4)));
        // Out-of-range and empty runs.
        assert!(h.read_run_visit(disk.as_ref(), 0, 3, |_| {}).is_err());
        let before = disk.stats();
        let n = h
            .read_run_visit(disk.as_ref(), 2, 1, |_| panic!("empty run visits nothing"))
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(disk.stats(), before);
    }

    #[test]
    fn typed_columns_and_null_bitmaps_hold_each_type() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("i", ValueType::Int),
            Column::new("d", ValueType::Date),
            Column::new("f", ValueType::Float),
            Column::new("s", ValueType::Str),
        ]));
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let input: Vec<Row> = (0..70)
            .map(|i| match i % 3 {
                0 => vec![Value::Null, Value::Null, Value::Null, Value::Null],
                1 => vec![Value::Int(-i), Value::Date(i as i32), Value::float(-0.0), Value::str("a")],
                _ => vec![Value::Int(i), Value::Date(-7), Value::float(nan), Value::str("b")],
            })
            .collect();
        let h = HeapFile::bulk_load(&disk, schema, input.clone(), 67).unwrap();
        for (rid, row) in stored(&h) {
            assert_eq!(row, input[rid.0 as usize]);
            if let Value::Float(f) = &row[2] {
                // The stored bits, not a canonical float, come back.
                let want = input[rid.0 as usize][2].as_float().unwrap();
                assert_eq!(f.0.to_bits(), want.to_bits());
            }
        }
        let page = h.read_page(disk.as_ref(), 0).unwrap();
        assert!(matches!(page.column(0), ColumnSlice::Int(v) if v.len() == 67));
        assert!(matches!(page.column(1), ColumnSlice::Date(_)));
        assert!(matches!(page.column(2), ColumnSlice::Float(_)));
        assert!(matches!(page.column(3), ColumnSlice::Str(_)));
        // A 67-slot page needs two bitmap words; slot 66 is NULL (66 % 3 == 0).
        let nulls = page.nulls(3).unwrap();
        assert_eq!(nulls.len(), 2);
        assert!(null_bit(nulls, 66) && !null_bit(nulls, 65));
        assert_eq!(h.dict().len(), 2);
        let tail = h.read_page(disk.as_ref(), 1).unwrap();
        assert_eq!(tail.len(), 3);
        assert!(tail.nulls(0).is_some(), "slot 69 is NULL");
        assert_eq!(h.key_bits_of(0, &tail.value(1, 0)), Some(68));
        assert_eq!(h.key_bits_of(0, &tail.value(2, 0)), None);
        assert_eq!(h.key_bits_of(3, &tail.value(0, 3)), Some(u64::from(h.dict().code_of("a").unwrap())));
    }

    #[test]
    fn key_bits_identify_values_as_value_eq_does() {
        let dict = {
            let mut d = Dictionary::default();
            d.intern(&Arc::from("x"));
            d
        };
        let bits = |ty, v: Value| key_bits(ty, &dict, &v);
        assert_eq!(bits(ValueType::Float, Value::float(-0.0)), bits(ValueType::Float, Value::float(0.0)));
        assert_eq!(
            bits(ValueType::Float, Value::float(f64::NAN)),
            bits(ValueType::Float, Value::float(-f64::NAN))
        );
        assert_eq!(bits(ValueType::Int, Value::float(2.0)), None, "Int(2) != Float(2.0)");
        assert_eq!(bits(ValueType::Int, Value::Null), None);
        assert_eq!(bits(ValueType::Str, Value::str("x")), Some(0));
        assert_eq!(bits(ValueType::Str, Value::str("y")), None, "not in the dictionary");
        assert_eq!(bits(ValueType::Date, Value::Int(3)), None);
    }

    #[test]
    fn pages_read_uncharged_words_that_match_key_bits() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("f", ValueType::Float),
            Column::new("s", ValueType::Str),
        ]));
        let floats = [-0.0, 0.0, f64::NAN, -1.5, 2.0];
        let rows = floats
            .iter()
            .enumerate()
            .map(|(i, &f)| vec![Value::float(f), Value::str(["a", "b"][i % 2])])
            .collect();
        let h = HeapFile::bulk_load(&disk, schema.clone(), rows, 2).unwrap();
        let mut slots = 0;
        for page in h.pages() {
            for s in 0..page.len() {
                for (c, col) in schema.columns().iter().enumerate() {
                    let want = key_bits(col.ty, h.dict(), &page.value(s, c));
                    assert_eq!(Some(page.column(c).word(s)), want);
                }
                slots += 1;
            }
        }
        assert_eq!(slots, floats.len());
        assert_eq!(disk.stats().pages(), 0, "uncharged");
    }

    #[test]
    fn clustered_load_sorts_rows() {
        let disk = DiskSim::with_defaults();
        let mut input = rows(50);
        // Shuffle deterministically by reversing.
        input.reverse();
        let h = HeapFile::bulk_load_clustered(&disk, schema(), input, 10, 0).unwrap();
        let keys: Vec<i64> = stored(&h).map(|(_, r)| r[0].as_int().unwrap()).collect();
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
    fn tombstone_append_and_restore_roundtrip() {
        let disk = DiskSim::with_defaults();
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(2), 4).unwrap();
        let before = disk.stats();
        let rid = h.append_tombstone();
        assert_eq!(rid, Rid(2));
        assert!(h.peek(rid).unwrap().iter().all(|v| v.is_null()));
        assert_eq!(disk.stats(), before, "placeholder growth is uncharged");
        let row = vec![Value::Int(42), Value::str("back")];
        h.restore_row(disk.as_ref(), rid, &row).unwrap();
        assert_eq!(h.peek(rid).unwrap(), row);
        assert_eq!(disk.stats().page_writes, before.page_writes + 1);
        assert!(h.restore_row(disk.as_ref(), Rid(9), &row).is_err());
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
        h.restore_row(disk.as_ref(), slot, &[Value::Int(11), Value::str("y")]).unwrap();
        let x = h.peek(Rid(0)).unwrap()[1].clone();
        let y = h.peek(Rid(1)).unwrap()[1].clone();
        assert!(!shared(&x, &y));
        for (rid, row) in stored(&h) {
            let want = if rid.0 % 2 == 0 { &x } else { &y };
            assert!(shared(&row[1], want), "{rid:?} shares its string");
        }
        assert_eq!(h.peek(appended).unwrap()[1], Value::str("x"));
        assert_eq!(h.dict().len(), 2);
    }

    #[test]
    fn unique_strings_each_get_a_code_and_round_trip() {
        let disk = DiskSim::with_defaults();
        // Far more distinct strings than a categorical column holds: the
        // dictionary has no cap.
        let n = 5000;
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(n), 64).unwrap();
        assert_eq!(h.dict().len(), n as usize);
        for (rid, row) in stored(&h) {
            assert_eq!(row[1], Value::str(format!("r{}", rid.0)));
        }
        // A string stored again reuses its code.
        let code = h.dict().code_of("r7").unwrap();
        let again = h.append(disk.as_ref(), vec![Value::Int(7), Value::str("r7")]).unwrap();
        assert_eq!(h.dict().code_of("r7"), Some(code));
        let stored = h.peek(again).unwrap()[1].clone();
        assert!(matches!(&stored, Value::Str(s) if Arc::ptr_eq(s, h.dict().get(code))));
        assert_eq!(h.dict().len(), n as usize);
    }

    #[test]
    fn images_share_segments_until_the_heap_writes_them() {
        let disk = DiskSim::with_defaults();
        // Three segments of 4-slot pages, the last one partial.
        let seg_slots = SEGMENT_PAGES * 4;
        let n = 2 * seg_slots as i64 + 5;
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(n), 4).unwrap();
        assert_eq!(h.segments.len(), 3);
        let image = h.image();
        assert_eq!(image.bytes_apart_from(&h), 0);
        // Recovery's restore in the middle segment copies it, and only it.
        let restored = Rid(seg_slots as u64 + 1);
        h.restore_row(disk.as_ref(), restored, &[Value::Int(-3), Value::str("back")]).unwrap();
        let middle = image.segments[1].bytes();
        assert_eq!(image.bytes_apart_from(&h), middle);
        assert!(!Arc::ptr_eq(&image.segments[1], &h.segments[1]));
        // An append copies the shared tail segment; a second one, now
        // unshared, copies nothing more.
        h.append(disk.as_ref(), vec![Value::Int(-1), Value::str("new")]).unwrap();
        let tail = image.segments[2].bytes();
        assert_eq!(image.bytes_apart_from(&h), middle + tail);
        let copy = Arc::as_ptr(&h.segments[2]);
        h.append(disk.as_ref(), vec![Value::Int(-2), Value::str("new")]).unwrap();
        assert_eq!(Arc::as_ptr(&h.segments[2]), copy);
        // The image still reads what it was taken with.
        let back = HeapFile::from_image(&disk, schema(), image);
        assert_eq!(back.len(), n as u64);
        assert_eq!(back.peek(restored).unwrap()[0], Value::Int(seg_slots as i64 + 1));
        assert_eq!(h.peek(restored).unwrap()[0], Value::Int(-3));
        // A run across the segment boundary reads both sides.
        let (lo, hi) = (SEGMENT_PAGES as u64 - 1, SEGMENT_PAGES as u64);
        let mut firsts = Vec::new();
        back.read_run_visit(disk.as_ref(), lo, hi, |p| firsts.push(p.value(0, 0))).unwrap();
        let first_of = |page: u64| Value::Int(page as i64 * 4);
        assert_eq!(firsts, [first_of(lo), first_of(hi)]);
    }

    #[test]
    fn restoring_the_row_a_slot_holds_writes_nothing() {
        let disk = DiskSim::with_defaults();
        let n = 2 * (SEGMENT_PAGES * 4) as i64 + 5;
        let mut h = HeapFile::bulk_load(&disk, schema(), rows(n), 4).unwrap();
        let image = h.image();
        let writes = disk.stats().page_writes;
        // Undo of a delete: the dead slot still holds its before-image.
        let row = h.peek(Rid(3)).unwrap();
        h.restore_row(disk.as_ref(), Rid(3), &row).unwrap();
        assert_eq!(image.bytes_apart_from(&h), 0, "no segment copied");
        assert_eq!(disk.stats().page_writes, writes + 1, "the page write is still charged");
        // One value apart is a write.
        h.restore_row(disk.as_ref(), Rid(3), &[Value::Int(3), Value::str("r4")]).unwrap();
        assert_eq!(image.bytes_apart_from(&h), image.segments[0].bytes());
        assert_eq!(h.peek(Rid(3)).unwrap()[1], Value::str("r4"));
        // A placeholder holds NULLs: restoring a row into it writes.
        let slot = h.append_tombstone();
        h.restore_row(disk.as_ref(), slot, &[Value::Int(7), Value::Null]).unwrap();
        assert_eq!(h.peek(slot).unwrap(), vec![Value::Int(7), Value::Null]);
    }

    #[test]
    fn bulk_load_rejects_a_ragged_row() {
        let disk = DiskSim::with_defaults();
        let mut input = rows(3);
        input[2].pop();
        assert!(HeapFile::bulk_load(&disk, schema(), input, 4).is_err());
    }

    #[test]
    fn bulk_load_rejects_a_mistyped_row_past_the_first() {
        let disk = DiskSim::with_defaults();
        let two_ints = Arc::new(Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
        ]));
        let mut input: Vec<Row> = (0..100).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
        input[50][1] = Value::str("x");
        assert!(matches!(
            HeapFile::bulk_load(&disk, two_ints, input, 8),
            Err(StorageError::SchemaMismatch { .. })
        ));
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
