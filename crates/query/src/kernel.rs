//! Column kernels: a [`Query`] compiled against one heap, run a page at a
//! time.
//!
//! A [`PageFilter`] holds one kernel per conjunct. Each kernel reads one
//! typed column of a [`PageRef`] and narrows a **selection vector** — the
//! page slots still in the running — so a scan never builds a row to
//! test it. Compilation happens once per leg, against the heap's schema
//! and string dictionary: a literal is turned into the column's
//! representation once (an `Int`'s payload, a `Float`'s
//! [`OrdF64::order_key`], a string's dictionary code), and a string range
//! is decided once per dictionary entry the scan meets.
//!
//! The kernels keep [`Query::matches`]' semantics exactly, NULL included:
//! `Eq` and `In` are [`Value`]'s type-strict equality (`NULL = NULL`
//! holds, `Int(1)` never equals `Float(1.0)`), and `Between` is
//! [`Value`]'s total order (NULL sorts first, `Int` and `Float` compare
//! numerically, other mixed types by type rank). A conjunct whose
//! literals do not fit a typed fast path — a `Float` bound on an `Int`
//! column, say — is evaluated on the materialised value, which is still
//! exact.

use crate::error::QueryError;
use crate::predicate::{PredOp, Query};
use cm_storage::{null_bit, ColumnSlice, Dictionary, HeapFile, OrdF64, PageRef, Value, ValueType};

/// A query compiled for one heap: see the module docs.
pub struct PageFilter {
    kernels: Vec<Kernel>,
    /// The selection [`PageFilter::select`] fills, reused page to page.
    sel: Vec<u32>,
}

/// One conjunct's kernel.
struct Kernel {
    col: usize,
    /// Whether a NULL in `col` satisfies the conjunct.
    nulls_pass: bool,
    /// The test a non-NULL value must pass.
    test: Test,
}

/// What a non-NULL value of the kernel's column must satisfy.
enum Test {
    /// Nothing non-NULL passes (no literal of the column's type).
    Never,
    /// `Int` payloads.
    Int(Typed<i64>),
    /// `Date` payloads.
    Date(Typed<i32>),
    /// `Float` values by [`OrdF64::order_key`].
    Float(Typed<i64>),
    /// `Str` codes (`Eq` and `In` only: codes carry no order).
    Code(Typed<u32>),
    /// A string range, decided once per code as codes turn up:
    /// `memo[code]` is 0 (not yet seen), 1 (passes) or 2 (fails).
    CodeMemo { op: PredOp, memo: Vec<u8> },
    /// Anything else: the conjunct on the materialised value.
    Value(PredOp),
}

/// A typed equality, membership or inclusive range test.
enum Typed<T> {
    Eq(T),
    /// Sorted and deduplicated.
    In(Vec<T>),
    Range(T, T),
}

impl<T: Copy + Ord> Typed<T> {
    /// The membership test for `xs`, or `None` when it is empty.
    fn set(mut xs: impl Iterator<Item = T>) -> Option<Self> {
        let first = xs.next()?;
        let Some(second) = xs.next() else { return Some(Typed::Eq(first)) };
        let mut all: Vec<T> = [first, second].into_iter().chain(xs).collect();
        all.sort_unstable();
        all.dedup();
        Some(if all.len() == 1 { Typed::Eq(first) } else { Typed::In(all) })
    }

    #[inline(always)]
    fn test(&self, v: T) -> bool {
        match self {
            Typed::Eq(x) => v == *x,
            Typed::In(xs) => xs.binary_search(&v).is_ok(),
            Typed::Range(lo, hi) => *lo <= v && v <= *hi,
        }
    }
}

impl Test {
    fn compile(ty: ValueType, op: &PredOp, dict: &Dictionary) -> Test {
        let float_key = |v: &Value| match v {
            Value::Float(f) => Some(f.order_key()),
            _ => None,
        };
        match op {
            PredOp::Eq(_) | PredOp::In(_) => {
                let lits = match op {
                    PredOp::Eq(v) => std::slice::from_ref(v),
                    PredOp::In(vs) => vs.as_slice(),
                    PredOp::Between(..) => unreachable!("matched above"),
                };
                // Equality is type-strict: only literals of the column's
                // own type can equal one of its values.
                let test = match ty {
                    ValueType::Int => Typed::set(lits.iter().filter_map(Value::as_int)).map(Test::Int),
                    ValueType::Date => {
                        Typed::set(lits.iter().filter_map(Value::as_date)).map(Test::Date)
                    }
                    ValueType::Float => Typed::set(lits.iter().filter_map(float_key)).map(Test::Float),
                    ValueType::Str => {
                        Typed::set(lits.iter().filter_map(|v| dict.code_of(v.as_str()?)))
                            .map(Test::Code)
                    }
                };
                test.unwrap_or(Test::Never)
            }
            PredOp::Between(lo, hi) => match (ty, lo, hi) {
                (ValueType::Int, Value::Int(a), Value::Int(b)) => Test::Int(Typed::Range(*a, *b)),
                (ValueType::Date, Value::Date(a), Value::Date(b)) => {
                    Test::Date(Typed::Range(*a, *b))
                }
                (ValueType::Float, lo, hi) => {
                    // A float compares with an `Int` bound as with that
                    // bound converted to a float.
                    let key = |v: &Value| match v {
                        Value::Int(i) => Some(OrdF64(*i as f64).order_key()),
                        v => float_key(v),
                    };
                    match (key(lo), key(hi)) {
                        (Some(a), Some(b)) => Test::Float(Typed::Range(a, b)),
                        _ => Test::Value(op.clone()),
                    }
                }
                (ValueType::Str, ..) => Test::CodeMemo { op: op.clone(), memo: vec![0; dict.len()] },
                _ => Test::Value(op.clone()),
            },
        }
    }
}

impl PageFilter {
    /// Compile `q` against `heap`'s schema and dictionary. A conjunct on
    /// a column the schema does not have is [`QueryError::BadColumn`].
    pub fn compile(q: &Query, heap: &HeapFile) -> Result<Self, QueryError> {
        let cols = heap.schema().columns();
        let kernels = q
            .preds
            .iter()
            .map(|p| {
                let ty = cols.get(p.col).ok_or(QueryError::BadColumn { col: p.col })?.ty;
                Ok(Kernel {
                    col: p.col,
                    nulls_pass: p.op.matches(&Value::Null),
                    test: Test::compile(ty, &p.op, heap.dict()),
                })
            })
            .collect::<Result<_, QueryError>>()?;
        Ok(PageFilter { kernels, sel: Vec::new() })
    }

    /// The slots of `page` that satisfy every conjunct, in slot order —
    /// the filter's own buffer, for the caller to narrow further.
    pub fn select(&mut self, page: PageRef<'_>) -> &mut Vec<u32> {
        self.sel.clear();
        self.sel.extend(0..page.len() as u32);
        narrow(&mut self.kernels, page, &mut self.sel);
        &mut self.sel
    }

    /// Drop from `sel` (slots of `page`) every slot some conjunct
    /// rejects.
    pub fn narrow(&mut self, page: PageRef<'_>, sel: &mut Vec<u32>) {
        narrow(&mut self.kernels, page, sel);
    }
}

/// Run `kernels` over `sel` in turn, stopping once nothing is left.
fn narrow(kernels: &mut [Kernel], page: PageRef<'_>, sel: &mut Vec<u32>) {
    for k in kernels {
        if sel.is_empty() {
            return;
        }
        k.narrow(page, sel);
    }
}

impl Kernel {
    fn narrow(&mut self, page: PageRef<'_>, sel: &mut Vec<u32>) {
        let col = self.col;
        let nulls = page.nulls(col);
        let np = self.nulls_pass;
        match (&mut self.test, page.column(col)) {
            (Test::Never, _) => match nulls {
                Some(n) if np => keep(sel, |s| null_bit(n, s)),
                _ => sel.clear(),
            },
            (Test::Int(t), ColumnSlice::Int(v)) => typed(sel, nulls, np, t, |s| v[s]),
            (Test::Date(t), ColumnSlice::Date(v)) => typed(sel, nulls, np, t, |s| v[s]),
            (Test::Float(t), ColumnSlice::Float(v)) => {
                typed(sel, nulls, np, t, |s| OrdF64(v[s]).order_key())
            }
            (Test::Code(t), ColumnSlice::Str(v)) => typed(sel, nulls, np, t, |s| v[s]),
            (Test::CodeMemo { op, memo }, ColumnSlice::Str(v)) => {
                let dict = page.dict();
                if memo.len() < dict.len() {
                    memo.resize(dict.len(), 0);
                }
                keep(sel, |s| {
                    if nulls.is_some_and(|n| null_bit(n, s)) {
                        return np;
                    }
                    let code = v[s];
                    let verdict = &mut memo[code as usize];
                    if *verdict == 0 {
                        let passes = op.matches(&Value::Str(dict.get(code).clone()));
                        *verdict = if passes { 1 } else { 2 };
                    }
                    *verdict == 1
                })
            }
            (Test::Value(op), _) => keep(sel, |s| op.matches(&page.value(s, col))),
            _ => unreachable!("a kernel is compiled for its column's type"),
        }
    }
}

/// Narrow `sel` to the slots `at` reads a passing value from; NULL slots
/// pass as `nulls_pass` says. The common no-NULL case runs one tight
/// loop per test kind.
#[inline(always)]
fn typed<T: Copy + Ord>(
    sel: &mut Vec<u32>,
    nulls: Option<&[u64]>,
    nulls_pass: bool,
    t: &Typed<T>,
    at: impl Fn(usize) -> T,
) {
    match (t, nulls) {
        (Typed::Eq(x), None) => keep(sel, |s| at(s) == *x),
        (Typed::In(xs), None) => keep(sel, |s| xs.binary_search(&at(s)).is_ok()),
        (Typed::Range(lo, hi), None) => keep(sel, |s| {
            let v = at(s);
            *lo <= v && v <= *hi
        }),
        (t, Some(n)) => keep(sel, |s| if null_bit(n, s) { nulls_pass } else { t.test(at(s)) }),
    }
}

/// The slots of one `(page, selection)` batch as the consumers of a scan
/// — [`crate::BatchAgg`]'s fold and [`crate::KeyProbe`] — walk them.
/// Selections are strictly ascending slots, so one as long as its page is
/// the whole page: [`Dense`] then walks the column slices themselves,
/// with no gather through the selection, and [`Sparse`] walks a filtered
/// one. Both visit slots in ascending order, so a fold adds a group's
/// values in the same order either way. Each walk takes the column's null
/// bitmap and tests it only when the page column has a NULL.
pub(crate) trait Slots: Copy {
    /// Slots in the batch.
    fn len(self) -> usize;

    /// The page slot of the batch's `k`-th slot.
    fn slot(self, k: usize) -> usize;

    /// Call `f(k, vals[slot k])` for each non-NULL slot of the batch.
    fn each<T: Copy>(self, vals: &[T], nulls: Option<&[u64]>, f: impl FnMut(usize, T));

    /// Call `f(k)` for each slot of the batch that `nulls` marks NULL.
    fn each_null(self, nulls: &[u64], f: impl FnMut(usize));

    /// Call `f(&mut out[k], vals[slot k])` for every slot of the batch
    /// (`out` is the batch's length).
    fn zip<T: Copy, U>(self, vals: &[T], out: &mut [U], f: impl FnMut(&mut U, T));

    /// Call `f(side[k], vals[slot k])` for each non-NULL slot of the
    /// batch (`side` is the batch's length, a group id per slot, say).
    fn each_with<T: Copy, U: Copy>(
        self,
        vals: &[T],
        nulls: Option<&[u64]>,
        side: &[U],
        f: impl FnMut(U, T),
    );

    /// Call `f(k, word)` for each non-NULL slot of the batch with its
    /// [`cm_storage::key_bits`] word — with no bitmap, for every slot, a
    /// NULL one giving the word of its zero filler.
    #[inline(always)]
    fn words(self, col: ColumnSlice<'_>, nulls: Option<&[u64]>, mut f: impl FnMut(usize, u64)) {
        match col {
            ColumnSlice::Int(v) => self.each(v, nulls, |k, x| f(k, x as u64)),
            ColumnSlice::Date(v) => self.each(v, nulls, |k, x| f(k, x as u64)),
            ColumnSlice::Float(v) => self.each(v, nulls, |k, x| f(k, OrdF64(x).order_key() as u64)),
            ColumnSlice::Str(v) => self.each(v, nulls, |k, x| f(k, u64::from(x))),
        }
    }
}

/// Every slot of a page: see [`Slots`].
#[derive(Clone, Copy)]
pub(crate) struct Dense(pub usize);

/// The slots a selection names: see [`Slots`].
#[derive(Clone, Copy)]
pub(crate) struct Sparse<'a>(pub &'a [u32]);

impl Slots for Dense {
    #[inline(always)]
    fn len(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn slot(self, k: usize) -> usize {
        k
    }

    #[inline(always)]
    fn each<T: Copy>(self, vals: &[T], nulls: Option<&[u64]>, mut f: impl FnMut(usize, T)) {
        let vals = &vals[..self.0];
        match nulls {
            None => vals.iter().enumerate().for_each(|(k, &x)| f(k, x)),
            Some(n) => vals.iter().enumerate().for_each(|(k, &x)| {
                if !null_bit(n, k) {
                    f(k, x)
                }
            }),
        }
    }

    #[inline(always)]
    fn zip<T: Copy, U>(self, vals: &[T], out: &mut [U], mut f: impl FnMut(&mut U, T)) {
        out.iter_mut().zip(vals).for_each(|(o, &x)| f(o, x));
    }

    #[inline(always)]
    fn each_with<T: Copy, U: Copy>(
        self,
        vals: &[T],
        nulls: Option<&[u64]>,
        side: &[U],
        mut f: impl FnMut(U, T),
    ) {
        let pairs = side.iter().zip(vals);
        match nulls {
            None => pairs.for_each(|(&u, &x)| f(u, x)),
            Some(n) => pairs.enumerate().for_each(|(k, (&u, &x))| {
                if !null_bit(n, k) {
                    f(u, x)
                }
            }),
        }
    }

    #[inline(always)]
    fn each_null(self, nulls: &[u64], mut f: impl FnMut(usize)) {
        for (w, &word) in nulls.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

impl Slots for Sparse<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn slot(self, k: usize) -> usize {
        self.0[k] as usize
    }

    #[inline(always)]
    fn each<T: Copy>(self, vals: &[T], nulls: Option<&[u64]>, mut f: impl FnMut(usize, T)) {
        let sel = self.0.iter().map(|&s| s as usize).enumerate();
        match nulls {
            None => sel.for_each(|(k, s)| f(k, vals[s])),
            Some(n) => sel.for_each(|(k, s)| {
                if !null_bit(n, s) {
                    f(k, vals[s])
                }
            }),
        }
    }

    #[inline(always)]
    fn zip<T: Copy, U>(self, vals: &[T], out: &mut [U], mut f: impl FnMut(&mut U, T)) {
        out.iter_mut()
            .zip(self.0)
            .for_each(|(o, &s)| f(o, vals[s as usize]));
    }

    #[inline(always)]
    fn each_with<T: Copy, U: Copy>(
        self,
        vals: &[T],
        nulls: Option<&[u64]>,
        side: &[U],
        mut f: impl FnMut(U, T),
    ) {
        let pairs = side.iter().zip(self.0).map(|(&u, &s)| (u, s as usize));
        match nulls {
            None => pairs.for_each(|(u, s)| f(u, vals[s])),
            Some(n) => pairs.for_each(|(u, s)| {
                if !null_bit(n, s) {
                    f(u, vals[s])
                }
            }),
        }
    }

    #[inline(always)]
    fn each_null(self, nulls: &[u64], mut f: impl FnMut(usize)) {
        for (k, &s) in self.0.iter().enumerate() {
            if null_bit(nulls, s as usize) {
                f(k);
            }
        }
    }
}

/// Keep the slots of `sel` that `pass`, in order, compacting in place
/// without a branch per slot.
#[inline(always)]
fn keep(sel: &mut Vec<u32>, mut pass: impl FnMut(usize) -> bool) {
    let mut n = 0;
    for k in 0..sel.len() {
        let s = sel[k];
        sel[n] = s;
        n += usize::from(pass(s as usize));
    }
    sel.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pred;
    use cm_storage::{Column, DiskSim, Schema};
    use std::sync::Arc;

    /// The slots of a one-page heap of `vals` (column 0) that `q` selects.
    fn selected(ty: ValueType, vals: Vec<Value>, q: &Query) -> Vec<u32> {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![Column::new("c", ty)]));
        let n = vals.len();
        let rows = vals.into_iter().map(|v| vec![v]).collect();
        let heap = HeapFile::bulk_load(&disk, schema, rows, n).unwrap();
        let mut filter = PageFilter::compile(q, &heap).unwrap();
        filter.select(heap.read_page(disk.as_ref(), 0).unwrap()).clone()
    }

    #[test]
    fn equality_is_type_strict_and_ranges_compare_numerically() {
        // The semantics of `Query::matches` on an Int column of i % 4.
        let vals: Vec<Value> = (0..100).map(|i| Value::Int(i % 4)).collect();
        let eq_float = Query::single(Pred::eq(0, 1.0));
        assert!(selected(ValueType::Int, vals.clone(), &eq_float).is_empty());
        let mixed = Query::single(Pred::between(0, 1i64, 2.5));
        assert_eq!(selected(ValueType::Int, vals, &mixed).len(), 50);
    }

    #[test]
    fn null_literals_select_null_slots() {
        let vals = vec![Value::Null, Value::Int(1), Value::Null];
        let q = Query::single(Pred { col: 0, op: PredOp::Eq(Value::Null) });
        assert_eq!(selected(ValueType::Int, vals.clone(), &q), [0, 2]);
        // NULL sorts first, so a range from NULL takes NULLs in.
        let q = Query::single(Pred { col: 0, op: PredOp::Between(Value::Null, Value::Int(1)) });
        assert_eq!(selected(ValueType::Int, vals, &q), [0, 1, 2]);
    }

    #[test]
    fn strings_match_by_code_and_ranges_by_text() {
        let vals: Vec<Value> = ["b", "a", "c", "b"].iter().map(|s| Value::str(*s)).collect();
        let q = Query::single(Pred::eq(0, "b"));
        assert_eq!(selected(ValueType::Str, vals.clone(), &q), [0, 3]);
        let q = Query::single(Pred::eq(0, "zz"));
        assert!(selected(ValueType::Str, vals.clone(), &q).is_empty(), "not in the dictionary");
        let q = Query::single(Pred::between(0, "a", "b"));
        assert_eq!(selected(ValueType::Str, vals, &q), [0, 1, 3]);
    }

    #[test]
    fn a_column_past_the_schema_is_an_error() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![Column::new("c", ValueType::Int)]));
        let heap = HeapFile::bulk_load(&disk, schema, vec![vec![Value::Int(1)]], 4).unwrap();
        let q = Query::single(Pred::eq(7, 1i64));
        assert!(matches!(PageFilter::compile(&q, &heap), Err(QueryError::BadColumn { col: 7 })));
    }
}
