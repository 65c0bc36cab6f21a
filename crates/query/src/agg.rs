//! Grouped aggregation over visitor-driven scans.
//!
//! The access paths in [`crate::exec`] stream matching rows through a
//! visitor; [`AggState`] is the fold target: a deterministic
//! (key-sorted on output) accumulator for `COUNT` / `SUM` / `MIN` / `MAX`
//! grouped by a column tuple. States are **mergeable** — a sharded
//! engine folds one state per shard leg and merges them in explicit
//! merge-key order, so grouped results are identical however the legs
//! were scheduled (the same determinism contract as PR 3's row fan-out).
//!
//! A leg's scan folds into a [`BatchAgg`] instead: it reads the leg's
//! `(page, selection)` batches a column at a time into typed per-slot
//! accumulators — indexed straight by the key's dictionary codes when
//! every group-by column is a string, by a hashed group number
//! otherwise — and builds no [`Value`] per row. Its
//! [`BatchAgg::finish`] is an [`AggState`] like any other.
//!
//! `DISTINCT` is the degenerate aggregation with an empty aggregate
//! list: the group keys *are* the result. `LIMIT` truncates the final
//! key-sorted group list, so a limited result is always a stable prefix
//! of the unlimited one ("LIMIT-stability").

use crate::error::QueryError;
use crate::kernel::{Dense, Slots, Sparse};
use cm_storage::{ColumnSlice, FxBuildHasher, OrdF64, PageRef, Row, Schema, Value, ValueType};
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// One aggregate function over a column (or over whole rows for
/// [`AggFunc::Count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`: rows in the group (NULLs included — it counts rows,
    /// not values).
    Count,
    /// `SUM(col)`, skipping NULLs. `Int` and `Date` inputs add exactly,
    /// as `i64`; a single `Float` input promotes the sum to `Float`. A
    /// sum that would leave the `i64` range is widened the same way, as
    /// SQL engines widen an overflowing integer sum: the running value
    /// becomes a `Float` and the fold goes on in `f64`. Like a float sum,
    /// a widened one can depend on how the rows were split over legs
    /// (never on worker scheduling). A float sum that turns NaN is the
    /// last NaN added, payload and all. A group with no non-NULL input
    /// sums to `Null` (SQL semantics). A `Str` column is rejected before a
    /// scan runs ([`AggSpec::check_types`]).
    Sum(usize),
    /// `MIN(col)`, skipping NULLs; `Null` if no non-NULL input.
    Min(usize),
    /// `MAX(col)`, skipping NULLs; `Null` if no non-NULL input.
    Max(usize),
}

impl AggFunc {
    /// The column this aggregate reads, if any (`COUNT(*)` reads none).
    pub fn col(&self) -> Option<usize> {
        match self {
            AggFunc::Count => None,
            AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) => Some(*c),
        }
    }
}

/// A grouped-aggregation specification: `SELECT group_by, aggs FROM t
/// WHERE ... GROUP BY group_by ORDER BY group_by LIMIT limit`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Grouping columns, in output order. Empty means one global group.
    pub group_by: Vec<usize>,
    /// Aggregates computed per group, in output order (appended after
    /// the group-key columns in each result row).
    pub aggs: Vec<AggFunc>,
    /// Keep only the first `limit` groups of the key-sorted output.
    pub limit: Option<usize>,
}

impl AggSpec {
    /// Group by `group_by`, computing `aggs` per group.
    pub fn new(group_by: Vec<usize>, aggs: Vec<AggFunc>) -> Self {
        AggSpec { group_by, aggs, limit: None }
    }

    /// `SELECT DISTINCT cols`: group by the projection with no
    /// aggregates.
    pub fn distinct(cols: Vec<usize>) -> Self {
        AggSpec { group_by: cols, aggs: Vec::new(), limit: None }
    }

    /// Truncate the key-sorted output to its first `n` groups.
    pub fn with_limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Check that every aggregate can read its column of `schema`:
    /// a `SUM` over a `Str` column is [`QueryError::NonNumericSum`].
    /// Columns must be in range (the caller checks that first).
    pub fn check_types(&self, schema: &Schema) -> Result<(), QueryError> {
        let cols = schema.columns();
        match self.aggs.iter().find_map(|f| match f {
            AggFunc::Sum(col) if cols[*col].ty == ValueType::Str => Some(*col),
            _ => None,
        }) {
            Some(col) => Err(QueryError::NonNumericSum { col }),
            None => Ok(()),
        }
    }
}

/// A running `SUM`. `Int` and `Date` inputs add as `i64`; a float, or
/// an `i64` overflow, promotes an integer running sum to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sum {
    /// No non-NULL input yet.
    Empty,
    Int(i64),
    Float(f64),
}

impl Sum {
    /// Add one value (NULLs skipped).
    fn add_value(&mut self, v: &Value) {
        match v {
            Value::Null => {}
            Value::Int(i) => self.add_int(*i),
            Value::Date(d) => self.add_int(i64::from(*d)),
            Value::Float(f) => self.add_float(f.0),
            Value::Str(_) => panic!("SUM over a string: see AggSpec::check_types"),
        }
    }

    #[inline]
    fn add_int(&mut self, i: i64) {
        *self = match *self {
            Sum::Empty => Sum::Int(i),
            Sum::Int(s) => int_sum(s, i),
            Sum::Float(s) => Sum::Float(fsum(s, i as f64)),
        };
    }

    #[inline]
    fn add_float(&mut self, x: f64) {
        *self = match *self {
            Sum::Empty => Sum::Float(x),
            Sum::Int(s) => Sum::Float(fsum(s as f64, x)),
            Sum::Float(s) => Sum::Float(fsum(s, x)),
        };
    }

    /// This sum followed by another leg's.
    fn merge(self, other: Sum) -> Sum {
        match (self, other) {
            (a, Sum::Empty) => a,
            (Sum::Empty, b) => b,
            (Sum::Int(a), Sum::Int(b)) => int_sum(a, b),
            (Sum::Int(a), Sum::Float(b)) => Sum::Float(fsum(a as f64, b)),
            (Sum::Float(a), Sum::Int(b)) => Sum::Float(fsum(a, b as f64)),
            (Sum::Float(a), Sum::Float(b)) => Sum::Float(fsum(a, b)),
        }
    }
}

/// `s + x` in a float sum, with a NaN result pinned down: `x` if it is
/// NaN, else `s` if it is, else the machine's own NaN (`inf + -inf`).
/// Which payload a bare `NaN + NaN` keeps depends on the instruction the
/// compiler picks — debug and release builds disagree — so every float
/// sum adds through here, and the row fold and the batch fold agree to
/// the bit.
#[inline(always)]
fn fsum(s: f64, x: f64) -> f64 {
    let r = s + x;
    if !r.is_nan() {
        r
    } else if x.is_nan() {
        x
    } else if s.is_nan() {
        s
    } else {
        r
    }
}

/// `a + b` as an integer sum, widened to a float sum if it overflows
/// `i64`.
fn int_sum(a: i64, b: i64) -> Sum {
    a.checked_add(b).map_or(Sum::Float(a as f64 + b as f64), Sum::Int)
}

/// Keep `v` in `m` if it beats the running minimum or maximum (`f`
/// says which); NULLs are skipped.
fn min_max(m: &mut Option<Value>, f: &AggFunc, v: &Value) {
    let beats = |cur: &Value| match f {
        AggFunc::Min(_) => v < cur,
        _ => v > cur,
    };
    if !v.is_null() && m.as_ref().is_none_or(beats) {
        *m = Some(v.clone());
    }
}

/// One aggregate's running value.
#[derive(Debug, Clone, PartialEq)]
enum Acc {
    Count(u64),
    Sum(Sum),
    MinMax(Option<Value>),
}

impl Acc {
    fn fresh(f: &AggFunc) -> Acc {
        match f {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum(_) => Acc::Sum(Sum::Empty),
            AggFunc::Min(_) | AggFunc::Max(_) => Acc::MinMax(None),
        }
    }

    fn observe(&mut self, f: &AggFunc, row: &[Value]) {
        match (self, *f) {
            (Acc::Count(n), AggFunc::Count) => *n += 1,
            (Acc::Sum(s), AggFunc::Sum(col)) => s.add_value(&row[col]),
            (Acc::MinMax(m), AggFunc::Min(col) | AggFunc::Max(col)) => min_max(m, f, &row[col]),
            _ => unreachable!("accumulator matches its function"),
        }
    }

    /// Fold another leg's accumulator for the same function with this
    /// one. Count/Min/Max merges are order-insensitive; float-sum merges
    /// happen in the caller's explicit merge-key order, so the result is
    /// deterministic across worker schedules. Min/Max resolution needs
    /// the function for its direction.
    fn merge_with(&self, f: &AggFunc, other: &Acc) -> Acc {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => Acc::Count(a + b),
            (Acc::Sum(a), Acc::Sum(b)) => Acc::Sum(a.merge(*b)),
            (Acc::MinMax(a), Acc::MinMax(b)) => {
                let mut m = a.clone();
                if let Some(v) = b {
                    min_max(&mut m, f, v);
                }
                Acc::MinMax(m)
            }
            _ => unreachable!("accumulators merge like with like"),
        }
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n as i64),
            Acc::Sum(Sum::Empty) => Value::Null,
            Acc::Sum(Sum::Int(s)) => Value::Int(*s),
            Acc::Sum(Sum::Float(s)) => Value::float(*s),
            Acc::MinMax(m) => m.clone().unwrap_or(Value::Null),
        }
    }
}

/// The distinct group keys seen so far, in arrival order: `width`
/// key parts per group in one flat array behind an open-addressing
/// index. A row finds its group by hashing and comparing its key parts
/// where they lie, so nothing is cloned or allocated unless the group is
/// new. Keys hash with [`cm_storage::FxHasher`], whose avalanching
/// `finish` keeps the low bits the index masks well spread. The parts
/// are [`Value`]s for [`AggState`] and key words for [`BatchAgg`].
#[derive(Debug, Clone)]
struct GroupKeys<K> {
    width: usize,
    hasher: FxBuildHasher,
    /// `index[hash & mask]`, probed linearly: a group number + 1, or 0
    /// for empty. Power-of-two length, at most half full.
    index: Vec<u32>,
    hashes: Vec<u64>,
    keys: Vec<K>,
}

impl<K: Hash + Eq + Clone> GroupKeys<K> {
    fn new(width: usize) -> Self {
        GroupKeys {
            width,
            hasher: FxBuildHasher::default(),
            index: vec![0; 16],
            hashes: Vec::new(),
            keys: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn key(&self, g: usize) -> &[K] {
        &self.keys[g * self.width..(g + 1) * self.width]
    }

    /// Whether group `g`'s key is `key(0), key(1), …`. Forced inline:
    /// called out of line from the probe loop, it made grouping ~15 %
    /// slower than a loop that compares in place.
    #[inline(always)]
    fn key_is<'a>(&self, g: usize, key: impl Fn(usize) -> &'a K) -> bool
    where
        K: 'a,
    {
        for (i, k) in self.key(g).iter().enumerate() {
            if k != key(i) {
                return false;
            }
        }
        true
    }

    /// The group whose key is `key(0), key(1), …`, and whether this call
    /// created it.
    fn find_or_insert<'a>(&mut self, key: impl Fn(usize) -> &'a K) -> (usize, bool)
    where
        K: 'a,
    {
        let mut h = self.hasher.build_hasher();
        (0..self.width).for_each(|i| key(i).hash(&mut h));
        let hash = h.finish();
        let mask = self.index.len() - 1;
        let mut at = hash as usize & mask;
        while self.index[at] != 0 {
            let g = self.index[at] as usize - 1;
            if self.hashes[g] == hash && self.key_is(g, &key) {
                return (g, false);
            }
            at = (at + 1) & mask;
        }
        let g = self.len();
        self.index[at] = u32::try_from(g + 1).expect("fewer than 2^32 groups");
        self.hashes.push(hash);
        self.keys.extend((0..self.width).map(|i| key(i).clone()));
        if self.len() * 2 > self.index.len() {
            self.grow_index();
        }
        (g, true)
    }

    /// Double the index and re-place every group from its stored hash.
    fn grow_index(&mut self) {
        let mask = self.index.len() * 2 - 1;
        let mut index = vec![0u32; mask + 1];
        for (g, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & mask;
            while index[at] != 0 {
                at = (at + 1) & mask;
            }
            index[at] = g as u32 + 1;
        }
        self.index = index;
    }
}

/// A mergeable grouped-aggregation accumulator. Feed it rows with
/// [`AggState::observe`] (or build a leg's with [`BatchAgg`]), merge
/// per-leg states with [`AggState::merge`] (in explicit merge-key
/// order), and read the key-sorted result rows with
/// [`AggState::finish`]. Groups are kept in arrival order; key order is
/// restored once, by the sort in `finish`.
#[derive(Debug, Clone)]
pub struct AggState {
    spec: AggSpec,
    groups: GroupKeys<Value>,
    /// `spec.aggs.len()` accumulators per group, in group order.
    accs: Vec<Acc>,
}

impl AggState {
    /// An empty state for `spec`.
    pub fn new(spec: &AggSpec) -> Self {
        AggState {
            spec: spec.clone(),
            groups: GroupKeys::new(spec.group_by.len()),
            accs: Vec::new(),
        }
    }

    /// Fold one (already predicate-filtered) row.
    pub fn observe(&mut self, row: &[Value]) {
        let AggSpec { group_by, aggs, .. } = &self.spec;
        let accs = accs_of(&mut self.groups, &mut self.accs, aggs, |i| &row[group_by[i]]);
        for (acc, f) in accs.iter_mut().zip(aggs) {
            acc.observe(f, row);
        }
    }

    /// Fold another leg's state (same spec) into this one. Callers merge
    /// leg states in ascending merge-key order, making even float-sum
    /// results bit-identical across worker counts.
    pub fn merge(&mut self, other: &AggState) {
        debug_assert_eq!(self.spec, other.spec, "merging states of one spec");
        let aggs = &self.spec.aggs;
        for g in 0..other.num_groups() {
            let key = other.groups.key(g);
            let theirs = &other.accs[g * aggs.len()..(g + 1) * aggs.len()];
            let mine = accs_of(&mut self.groups, &mut self.accs, aggs, |i| &key[i]);
            for ((a, b), f) in mine.iter_mut().zip(theirs).zip(aggs) {
                *a = a.merge_with(f, b);
            }
        }
    }

    /// Number of groups accumulated so far.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The result rows — group-key values followed by aggregate values,
    /// ascending by group key, truncated to the spec's `limit`. A global
    /// aggregation (empty `group_by`) over zero rows still yields its
    /// one row (`COUNT = 0`, other aggregates `Null`), as SQL does.
    pub fn finish(mut self) -> Vec<Row> {
        let aggs = &self.spec.aggs;
        if self.spec.group_by.is_empty() {
            accs_of(&mut self.groups, &mut self.accs, aggs, |_| unreachable!("no key columns"));
        }
        let groups = &self.groups;
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_unstable_by(|&a, &b| groups.key(a).cmp(groups.key(b)));
        order.truncate(self.spec.limit.unwrap_or(usize::MAX));
        order
            .into_iter()
            .map(|g| {
                let accs = self.accs[g * aggs.len()..(g + 1) * aggs.len()].iter();
                groups.key(g).iter().cloned().chain(accs.map(Acc::finish)).collect()
            })
            .collect()
    }
}

/// The accumulators of the group keyed `key(0), key(1), …` — fresh ones
/// if the group is new.
fn accs_of<'s, 'a>(
    groups: &mut GroupKeys<Value>,
    accs: &'s mut Vec<Acc>,
    aggs: &[AggFunc],
    key: impl Fn(usize) -> &'a Value,
) -> &'s mut [Acc] {
    let (g, new) = groups.find_or_insert(key);
    if new {
        accs.extend(aggs.iter().map(Acc::fresh));
    }
    &mut accs[g * aggs.len()..(g + 1) * aggs.len()]
}

/// Most slots [`BatchAgg`]'s direct group index may take: a string key
/// whose code combinations (NULL included) number more is grouped by
/// hash instead. The index allocates an entry per combination in each
/// array once a leg, at most 32 KiB an 8-byte array; the low-cardinality
/// keys soft dependencies are found on take a few L1 lines.
const DIRECT_SLOTS: usize = 1 << 12;

/// How a [`BatchAgg`] finds a row's slot, the index of its group's
/// accumulators.
#[derive(Debug)]
enum GroupIndex {
    /// By the key words, hashed (`GroupKeys`): a group's slot is its
    /// number, and the accumulators grow as groups arrive.
    Hash(GroupKeys<u64>),
    /// Every group-by column holds strings: the slot *is* the key, its
    /// dictionary codes as digits base `radix` (the dictionary's size
    /// plus one, the top digit standing for NULL). Every slot's
    /// accumulators exist from the first batch; a slot is a group once it
    /// has a row.
    Direct { radix: u32 },
}

/// One aggregate's accumulators in a [`BatchAgg`], typed arrays indexed
/// by slot. An aggregate over a column also counts, per slot, the rows
/// whose value was NULL — only on pages whose column holds a NULL — so
/// a slot with as many NULLs as rows had no input, and is `Null`.
#[derive(Debug)]
enum Accs {
    /// `COUNT(*)`: the fold's row counts are the answer.
    Count,
    /// `SUM` of an `Int` or `Date` column: exact `i64` sums. A slot whose
    /// sum overflowed goes on in `f64` in `wide`; `spilled` says whether
    /// any has, so the loop reads `wide` only then.
    IntSum { sums: Vec<i64>, wide: Vec<Option<f64>>, spilled: bool, nulls: Vec<u64> },
    /// `SUM` of a `Float` column. Sums start at `-0.0`, the identity of
    /// `+`: `fsum(-0.0, x)` is `x` to the bit, so a slot's first value
    /// needs no branch.
    FloatSum { sums: Vec<f64>, nulls: Vec<u64> },
    /// `MIN` (`want` is `Less`) or `MAX` (`Greater`).
    MinMax { want: Ordering, best: Best, nulls: Vec<u64> },
}

/// Per slot, the `MIN` / `MAX` winner so far. A candidate replaces it
/// only if it compares strictly better, so a tie keeps the first-seen
/// bits (`-0.0` against `0.0`, one NaN payload against another), as
/// [`AggState::observe`] does.
#[derive(Debug)]
enum Best {
    /// Starts at the far end of the type (`MAX` for a `MIN`): a first
    /// value that ties with it is the same value.
    Int(Vec<i64>),
    Date(Vec<i32>),
    /// The winner's [`OrdF64::order_key`] and its bits. Keys start at
    /// `i64::MAX` or `i64::MIN`, which no float's key equals, so a slot's
    /// first value always wins.
    Float(Vec<(i64, f64)>),
    /// The winner's code and its text, compared by text; a winner's
    /// string is shared from the dictionary.
    Str(Vec<Option<(u32, Arc<str>)>>),
}

impl Accs {
    /// Accumulators for `f`, typed by its column on `page`.
    fn new(f: &AggFunc, page: PageRef<'_>) -> Accs {
        let nulls = Vec::new();
        let want = match f {
            AggFunc::Count => return Accs::Count,
            AggFunc::Sum(col) => {
                return match page.column(*col) {
                    ColumnSlice::Float(_) => Accs::FloatSum { sums: Vec::new(), nulls },
                    ColumnSlice::Str(_) => {
                        unreachable!("SUM's input type is checked before a leg runs")
                    }
                    _ => Accs::IntSum { sums: Vec::new(), wide: Vec::new(), spilled: false, nulls },
                }
            }
            AggFunc::Min(_) => Ordering::Less,
            AggFunc::Max(_) => Ordering::Greater,
        };
        let best = match page.column(f.col().expect("MIN / MAX read a column")) {
            ColumnSlice::Int(_) => Best::Int(Vec::new()),
            ColumnSlice::Date(_) => Best::Date(Vec::new()),
            ColumnSlice::Float(_) => Best::Float(Vec::new()),
            ColumnSlice::Str(_) => Best::Str(Vec::new()),
        };
        Accs::MinMax { want, best, nulls }
    }

    /// Room for `n` slots.
    fn resize(&mut self, n: usize) {
        match self {
            Accs::Count => {}
            Accs::IntSum { sums, wide, nulls, .. } => {
                sums.resize(n, 0);
                wide.resize(n, None);
                nulls.resize(n, 0);
            }
            Accs::FloatSum { sums, nulls } => {
                sums.resize(n, -0.0);
                nulls.resize(n, 0);
            }
            Accs::MinMax { want, best, nulls } => {
                let min = *want == Ordering::Less;
                match best {
                    Best::Int(v) => v.resize(n, if min { i64::MAX } else { i64::MIN }),
                    Best::Date(v) => v.resize(n, if min { i32::MAX } else { i32::MIN }),
                    Best::Float(v) => v.resize(n, (if min { i64::MAX } else { i64::MIN }, 0.0)),
                    Best::Str(v) => v.resize(n, None),
                }
                nulls.resize(n, 0);
            }
        }
    }

    /// Fold column `col` of the batch `slots` of `page`, whose rows fall
    /// in the slots `ids`: one typed loop, and one over the NULLs if the
    /// page's column has any.
    fn fold(&mut self, col: Option<usize>, page: PageRef<'_>, slots: impl Slots, ids: &[u32]) {
        let Some(col) = col else { return };
        let nulls = page.nulls(col);
        let count_nulls = |counts: &mut [u64]| {
            if let Some(n) = nulls {
                slots.each_null(n, |k| counts[ids[k] as usize] += 1);
            }
        };
        match (self, page.column(col)) {
            (Accs::FloatSum { sums, nulls: n }, ColumnSlice::Float(v)) => {
                slots.each_with(v, nulls, ids, |s, x| {
                    let sum = &mut sums[s as usize];
                    *sum = fsum(*sum, x);
                });
                count_nulls(n);
            }
            (Accs::IntSum { sums, wide, spilled, nulls: n }, ColumnSlice::Int(v)) => {
                add_ints(sums, wide, spilled, slots, v, nulls, ids);
                count_nulls(n);
            }
            (Accs::IntSum { sums, wide, spilled, nulls: n }, ColumnSlice::Date(v)) => {
                add_ints(sums, wide, spilled, slots, v, nulls, ids);
                count_nulls(n);
            }
            (Accs::MinMax { want, best, nulls: n }, vals) => {
                let want = *want;
                match (best, vals) {
                    (Best::Int(b), ColumnSlice::Int(v)) => {
                        keep_best(b, slots, v, nulls, ids, |x, c| x.cmp(c) == want, |x| x);
                    }
                    (Best::Date(b), ColumnSlice::Date(v)) => {
                        keep_best(b, slots, v, nulls, ids, |x, c| x.cmp(c) == want, |x| x);
                    }
                    (Best::Float(b), ColumnSlice::Float(v)) => {
                        let beats =
                            |x: f64, c: &(i64, f64)| OrdF64(x).order_key().cmp(&c.0) == want;
                        keep_best(b, slots, v, nulls, ids, beats, |x| (OrdF64(x).order_key(), x));
                    }
                    (Best::Str(b), ColumnSlice::Str(v)) => {
                        let dict = page.dict();
                        let beats = |x: u32, c: &Option<(u32, Arc<str>)>| match c {
                            Some((code, text)) => x != *code && (**dict.get(x)).cmp(text) == want,
                            None => true,
                        };
                        keep_best(b, slots, v, nulls, ids, beats, |x| {
                            Some((x, dict.get(x).clone()))
                        });
                    }
                    _ => unreachable!("a column keeps its type"),
                }
                count_nulls(n);
            }
            _ => unreachable!("a column keeps its type"),
        }
    }

    /// Slot `s`'s accumulator for [`AggState`], given its row count.
    fn finish(&self, s: usize, rows: u64) -> Acc {
        match self {
            Accs::Count => Acc::Count(rows),
            Accs::IntSum { nulls, .. } | Accs::FloatSum { nulls, .. } if nulls[s] == rows => {
                Acc::Sum(Sum::Empty)
            }
            Accs::IntSum { sums, wide, .. } => {
                Acc::Sum(wide[s].map_or(Sum::Int(sums[s]), Sum::Float))
            }
            Accs::FloatSum { sums, .. } => Acc::Sum(Sum::Float(sums[s])),
            Accs::MinMax { nulls, .. } if nulls[s] == rows => Acc::MinMax(None),
            Accs::MinMax { best, .. } => Acc::MinMax(Some(match best {
                Best::Int(v) => Value::Int(v[s]),
                Best::Date(v) => Value::Date(v[s]),
                Best::Float(v) => Value::float(v[s].1),
                Best::Str(v) => Value::Str(v[s].clone().expect("a non-NULL input").1),
            })),
        }
    }
}

/// Add the non-NULL `vals` of a batch to the integer sums of their slots
/// `ids`, in order. A sum that would leave `i64` goes on in `f64` from
/// `sum as f64 + x as f64`, as [`Sum::add_int`] widens it.
#[inline(always)]
fn add_ints<T: Copy + Into<i64>>(
    sums: &mut [i64],
    wide: &mut [Option<f64>],
    spilled: &mut bool,
    slots: impl Slots,
    vals: &[T],
    nulls: Option<&[u64]>,
    ids: &[u32],
) {
    let mut any = *spilled;
    slots.each_with(vals, nulls, ids, |s, x| {
        let (s, x) = (s as usize, x.into());
        if any {
            if let Some(w) = &mut wide[s] {
                *w = fsum(*w, x as f64);
                return;
            }
        }
        match sums[s].checked_add(x) {
            Some(sum) => sums[s] = sum,
            None => {
                wide[s] = Some(sums[s] as f64 + x as f64);
                any = true;
            }
        }
    });
    *spilled = any;
}

/// Offer the non-NULL `vals` of a batch to the winners of their slots
/// `ids`: a candidate that `beats` the winner takes its place, made by
/// `keep`.
#[inline(always)]
fn keep_best<T: Copy, B>(
    best: &mut [B],
    slots: impl Slots,
    vals: &[T],
    nulls: Option<&[u64]>,
    ids: &[u32],
    beats: impl Fn(T, &B) -> bool,
    keep: impl Fn(T) -> B,
) {
    slots.each_with(vals, nulls, ids, |s, x| {
        let b = &mut best[s as usize];
        if beats(x, b) {
            *b = keep(x);
        }
    });
}

/// One shard leg's grouped fold over `(page, selection)` batches of a
/// single heap, into typed per-slot accumulators. Each batch runs in
/// column-at-a-time passes:
///
/// 1. **Slots.** When every group-by column holds strings and their code
///    combinations are few, a row's slot is its codes, read as one
///    number — one zipped loop per key column, no table lookup. Any
///    other key is found by its **key words** — per group-by column the
///    value's [`cm_storage::key_bits`] (an `Int`'s or `Date`'s payload, a
///    `Float`'s order key, a `Str`'s dictionary code; 0 for NULL), then a
///    NULL mask — hashed into `GroupKeys`, whose group numbers are the
///    slots.
/// 2. **Rows.** Each slot's row count goes up; a slot's first row makes
///    it a group, and materialises the group's key, once.
/// 3. **Aggregates.** Each aggregate runs one typed loop over its column,
///    indexed by the slots: `f64` and `i64` sums, typed `MIN` / `MAX`.
///
/// No `Value` is built per row — only each new group's key and each
/// winning `MIN` / `MAX` candidate. Words and codes identify values
/// exactly as [`Value`]'s equality does, so the groups are the ones
/// [`AggState::observe`] would form, and each group adds its values in
/// the same order, so counts and sums match it to the bit.
/// [`BatchAgg::finish`] turns the leg's groups back into `Value` keys:
/// the [`AggState`] it returns merges and finishes like any other. Codes
/// are per heap, so one `BatchAgg` folds one leg.
#[derive(Debug)]
pub struct BatchAgg {
    spec: AggSpec,
    /// Chosen at the first batch, from the key columns' types and the
    /// dictionary's size, as are the accumulators' types.
    index: Option<GroupIndex>,
    /// Per aggregate, in spec order.
    accs: Vec<Accs>,
    /// Rows per slot: `COUNT(*)`, and a slot with rows is a group.
    rows: Vec<u64>,
    /// The slots that are groups, in first-seen order, and their keys as
    /// first seen, `group_by.len()` values a group.
    groups: Vec<u32>,
    keys: Vec<Value>,
    /// Reused batch to batch: the key words (hash index) and each row's
    /// slot.
    words: Vec<u64>,
    ids: Vec<u32>,
}

impl BatchAgg {
    /// An empty fold for `spec`.
    pub fn new(spec: &AggSpec) -> Self {
        BatchAgg {
            spec: spec.clone(),
            index: None,
            accs: Vec::new(),
            rows: Vec::new(),
            groups: Vec::new(),
            keys: Vec::new(),
            words: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Choose the group index and type the accumulators for the heap
    /// `page` belongs to.
    fn start(&mut self, page: PageRef<'_>) -> GroupIndex {
        let group_by = &self.spec.group_by;
        self.accs = self.spec.aggs.iter().map(|f| Accs::new(f, page)).collect();
        let radix = u32::try_from(page.dict().len() + 1).unwrap_or(u32::MAX);
        let all_str = group_by.iter().all(|&c| matches!(page.column(c), ColumnSlice::Str(_)));
        let slots = u32::try_from(group_by.len())
            .ok()
            .and_then(|n| radix.checked_pow(n))
            .filter(|&n| n as usize <= DIRECT_SLOTS);
        match slots {
            Some(n) if all_str => {
                self.resize(n as usize);
                GroupIndex::Direct { radix }
            }
            _ => {
                let n = group_by.len();
                GroupIndex::Hash(GroupKeys::new(n + n.div_ceil(64)))
            }
        }
    }

    /// Room for `n` slots in every array.
    fn resize(&mut self, n: usize) {
        self.rows.resize(n, 0);
        self.accs.iter_mut().for_each(|a| a.resize(n));
    }

    /// Fold the slots `sel` of `page` (already filtered and visible). A
    /// selection that covers the whole page is folded densely, straight
    /// off the column slices; the groups and each group's order of
    /// addition are the same either way.
    pub fn fold(&mut self, page: PageRef<'_>, sel: &[u32]) {
        if sel.len() == page.len() {
            self.fold_slots(page, Dense(sel.len()));
        } else {
            self.fold_slots(page, Sparse(sel));
        }
    }

    fn fold_slots(&mut self, page: PageRef<'_>, slots: impl Slots) {
        if self.index.is_none() {
            self.index = Some(self.start(page));
        }
        let (group_by, ids) = (&self.spec.group_by, &mut self.ids);
        // The hash index's arrays grow with its groups.
        let needed = match self.index.as_mut().expect("index chosen above") {
            GroupIndex::Hash(groups) => {
                let width = groups.width;
                key_words(&mut self.words, width, group_by, page, slots);
                ids.clear();
                ids.extend(self.words.chunks_exact(width).map(|key| {
                    u32::try_from(groups.find_or_insert(|i| &key[i]).0).expect("u32 groups")
                }));
                groups.len()
            }
            GroupIndex::Direct { radix } => {
                direct_slots(ids, *radix, group_by, page, slots);
                0
            }
        };
        if needed > self.rows.len() {
            self.resize(needed);
        }
        let (group_by, ids, rows) = (&self.spec.group_by, &self.ids, &mut self.rows[..]);
        for (k, &s) in ids.iter().enumerate() {
            let n = &mut rows[s as usize];
            if *n == 0 {
                new_group(&mut self.groups, &mut self.keys, s, group_by, page, slots.slot(k));
            }
            *n += 1;
        }
        for (f, acc) in self.spec.aggs.iter().zip(&mut self.accs) {
            acc.fold(f.col(), page, slots, ids);
        }
    }

    /// The leg's state with `Value` group keys, ready to merge.
    pub fn finish(self) -> AggState {
        let n = self.spec.group_by.len();
        let mut keys = GroupKeys::new(n);
        let mut accs = Vec::with_capacity(self.groups.len() * self.accs.len());
        for (g, &s) in self.groups.iter().enumerate() {
            keys.find_or_insert(|i| &self.keys[g * n + i]);
            let (s, rows) = (s as usize, self.rows[s as usize]);
            accs.extend(self.accs.iter().map(|a| a.finish(s, rows)));
        }
        AggState { spec: self.spec, groups: keys, accs }
    }
}

/// Slot `s` becomes a group, keyed by the page slot `at`'s values.
/// Out of line, so the row-count loop keeps its slices in registers.
#[cold]
#[inline(never)]
fn new_group(
    groups: &mut Vec<u32>,
    keys: &mut Vec<Value>,
    s: u32,
    group_by: &[usize],
    page: PageRef<'_>,
    at: usize,
) {
    groups.push(s);
    keys.extend(group_by.iter().map(|&c| page.value(at, c)));
}

/// Fill `words` with each batch slot's key words, `width` a slot: the
/// group-by columns' [`cm_storage::key_bits`] (0 for NULL), then one
/// NULL-mask word per 64 columns.
fn key_words(
    words: &mut Vec<u64>,
    width: usize,
    group_by: &[usize],
    page: PageRef<'_>,
    slots: impl Slots,
) {
    words.clear();
    words.resize(slots.len() * width, 0);
    for (i, &c) in group_by.iter().enumerate() {
        let nulls = page.nulls(c);
        slots.words(page.column(c), nulls, |k, word| words[k * width + i] = word);
        if let Some(nulls) = nulls {
            let mask = group_by.len() + i / 64;
            slots.each_null(nulls, |k| words[k * width + mask] |= 1 << (i % 64));
        }
    }
}

/// Fill `out` with each batch slot's direct-index slot: its string
/// columns' codes as digits base `radix`, the first column's most
/// significant, `radix - 1` for NULL. The first column's codes overwrite
/// what the last batch left (a global aggregate's one slot is 0
/// throughout).
fn direct_slots(
    out: &mut Vec<u32>,
    radix: u32,
    group_by: &[usize],
    page: PageRef<'_>,
    slots: impl Slots,
) {
    out.resize(slots.len(), 0);
    for (i, &c) in group_by.iter().enumerate() {
        let ColumnSlice::Str(codes) = page.column(c) else {
            unreachable!("direct keys are strings")
        };
        if i == 0 {
            slots.zip(codes, out, |slot, code| *slot = code);
        } else {
            slots.zip(codes, out, |slot, code| *slot = *slot * radix + code);
        }
        if let Some(nulls) = page.nulls(c) {
            slots.each_null(nulls, |k| out[k] += radix - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::Int(10), Value::float(0.5)],
            vec![Value::Int(2), Value::Int(5), Value::float(1.5)],
            vec![Value::Int(1), Value::Int(7), Value::Null],
            vec![Value::Int(2), Value::Null, Value::float(2.0)],
        ]
    }

    fn fold(spec: &AggSpec, rows: &[Row]) -> Vec<Row> {
        let mut st = AggState::new(spec);
        for r in rows {
            st.observe(r);
        }
        st.finish()
    }

    #[test]
    fn count_sum_min_max_grouped() {
        let spec = AggSpec::new(
            vec![0],
            vec![AggFunc::Count, AggFunc::Sum(1), AggFunc::Min(1), AggFunc::Max(1)],
        );
        let out = fold(&spec, &rows());
        assert_eq!(
            out,
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Int(17), Value::Int(7), Value::Int(10)],
                vec![Value::Int(2), Value::Int(2), Value::Int(5), Value::Int(5), Value::Int(5)],
            ]
        );
    }

    #[test]
    fn sum_promotes_to_float_and_skips_nulls() {
        let spec = AggSpec::new(vec![], vec![AggFunc::Sum(2), AggFunc::Count]);
        let out = fold(&spec, &rows());
        assert_eq!(out, vec![vec![Value::float(4.0), Value::Int(4)]]);
    }

    #[test]
    fn global_agg_over_nothing_yields_one_row() {
        let spec = AggSpec::new(vec![], vec![AggFunc::Count, AggFunc::Sum(1)]);
        let out = fold(&spec, &[]);
        assert_eq!(out, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn grouped_agg_over_nothing_yields_no_rows() {
        let spec = AggSpec::new(vec![0], vec![AggFunc::Count]);
        assert!(fold(&spec, &[]).is_empty());
    }

    #[test]
    fn distinct_is_group_by_without_aggs() {
        let spec = AggSpec::distinct(vec![0]);
        let out = fold(&spec, &rows());
        assert_eq!(out, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn limit_is_a_stable_prefix() {
        let spec = AggSpec::new(vec![0], vec![AggFunc::Count]);
        let full = fold(&spec, &rows());
        let limited = fold(&spec.clone().with_limit(1), &rows());
        assert_eq!(limited, full[..1].to_vec());
    }

    #[test]
    fn merge_equals_single_fold_regardless_of_split() {
        let spec = AggSpec::new(
            vec![0],
            vec![AggFunc::Count, AggFunc::Sum(1), AggFunc::Min(2), AggFunc::Max(2)],
        );
        let rs = rows();
        let whole = fold(&spec, &rs);
        for split in 0..=rs.len() {
            let mut a = AggState::new(&spec);
            let mut b = AggState::new(&spec);
            for r in &rs[..split] {
                a.observe(r);
            }
            for r in &rs[split..] {
                b.observe(r);
            }
            a.merge(&b);
            assert_eq!(a.finish(), whole, "split at {split}");
        }
    }

    /// The most slots one `find_or_insert` of a stored key probes: its
    /// distance from its home slot `hash & mask`, plus one.
    fn longest_probe<K>(groups: &GroupKeys<K>) -> usize {
        let mask = groups.index.len() - 1;
        (0..groups.index.len())
            .filter(|&at| groups.index[at] != 0)
            .map(|at| {
                let home = groups.hashes[groups.index[at] as usize - 1] as usize & mask;
                (at.wrapping_sub(home) & mask) + 1
            })
            .max()
            .unwrap_or(0)
    }

    fn keys_of(values: impl Iterator<Item = Value>) -> GroupKeys<Value> {
        let mut groups = GroupKeys::new(1);
        for v in values {
            groups.find_or_insert(|_| &v);
        }
        groups
    }

    #[test]
    fn group_index_spreads_strided_keys() {
        // Linear probing at most half full keeps runs short for a hash
        // whose low bits are random; a multiply-only hash (no avalanche)
        // gives `Int`s 4096 apart one home slot in 2^12 and these runs
        // reach into the thousands.
        let bound = 64;
        let ints = keys_of((0..1i64 << 16).map(|i| Value::Int(i * 4096)));
        assert_eq!(ints.len(), 1 << 16);
        assert!(longest_probe(&ints) < bound, "strided ints: {}", longest_probe(&ints));
        let dates = keys_of((0..1i32 << 16).map(Value::Date));
        assert!(longest_probe(&dates) < bound, "dates: {}", longest_probe(&dates));
        let bytes = (0..=255u8).map(|a| vec![a]).chain(
            (0..=255u8).flat_map(|a| (0..=255u8).map(move |b| vec![a, b])),
        );
        let strs = keys_of(bytes.filter_map(|b| String::from_utf8(b).ok()).map(Value::str));
        assert!(longest_probe(&strs) < bound, "short strings: {}", longest_probe(&strs));
    }

    #[test]
    fn fresh_states_hash_alike() {
        let spec = AggSpec::new(vec![0, 1], vec![AggFunc::Count]);
        let (mut a, mut b) = (AggState::new(&spec), AggState::new(&spec));
        for r in rows() {
            a.observe(&r);
            b.observe(&r);
        }
        assert!(!a.groups.hashes.is_empty());
        assert_eq!(a.groups.hashes, b.groups.hashes);
        assert_eq!(a.groups.index, b.groups.index);
    }

    #[test]
    fn int_sums_are_exact_above_2_pow_53() {
        let spec = AggSpec::new(vec![], vec![AggFunc::Sum(0)]);
        let big = (1i64 << 53) + 1;
        let out = fold(&spec, &[vec![Value::Int(big)], vec![Value::Int(2)]]);
        assert_eq!(out, vec![vec![Value::Int(big + 2)]]);
        let dates = fold(&spec, &[vec![Value::Date(i32::MAX)], vec![Value::Date(i32::MAX)]]);
        assert_eq!(dates, vec![vec![Value::Int(2 * i64::from(i32::MAX))]]);
    }

    #[test]
    fn int_sum_overflow_widens_to_float() {
        let spec = AggSpec::new(vec![], vec![AggFunc::Sum(0)]);
        let rows = [vec![Value::Int(i64::MAX)], vec![Value::Int(1)], vec![Value::Int(1)]];
        let want = vec![vec![Value::float(i64::MAX as f64 + 1.0 + 1.0)]];
        assert_eq!(fold(&spec, &rows), want);
        let low = fold(&spec, &[vec![Value::Int(i64::MIN)], vec![Value::Int(-1)]]);
        assert_eq!(low, vec![vec![Value::float(i64::MIN as f64 - 1.0)]]);

        // Two legs that each stay in range but overflow when merged.
        let mut a = AggState::new(&spec);
        a.observe(&[Value::Int(i64::MAX)]);
        let mut b = AggState::new(&spec);
        b.observe(&[Value::Int(i64::MAX)]);
        a.merge(&b);
        assert_eq!(a.finish(), vec![vec![Value::float(i64::MAX as f64 * 2.0)]]);
    }

    #[test]
    fn group_keys_compare_values_not_summaries() {
        let keys = [
            (Value::str("AIR"), (0, true)),
            (Value::str("ASR"), (1, true)),
            (Value::str("AIR"), (0, false)),
            (Value::str("ASR"), (1, false)),
            (Value::float(2.0), (2, true)),
            (Value::Int(2), (3, true)),
            (Value::float(-0.0), (4, true)),
            (Value::float(0.0), (4, false)),
        ];
        let mut groups = GroupKeys::new(1);
        for (k, want) in &keys {
            assert_eq!(groups.find_or_insert(|_| k), *want, "{k:?}");
        }
    }

    /// A heap of `rows` under the columns `cols`, `tpp` rows a page.
    fn heap_of(
        disk: &cm_storage::DiskSim,
        cols: &[(&str, ValueType)],
        rows: Vec<Row>,
        tpp: usize,
    ) -> cm_storage::HeapFile {
        let cols = cols.iter().map(|&(name, ty)| cm_storage::Column::new(name, ty)).collect();
        let schema = std::sync::Arc::new(Schema::new(cols));
        cm_storage::HeapFile::bulk_load(disk, schema, rows, tpp).unwrap()
    }

    /// A heap of every column type, NULLs in each, over several pages.
    fn typed_heap(disk: &cm_storage::DiskSim) -> cm_storage::HeapFile {
        let floats = [0.5, -0.0, 0.0, f64::NAN, 2.25];
        let rows = (0..300i64)
            .map(|i| {
                let null = |k: i64| (i / k) % 7 == 3;
                vec![
                    if null(1) { Value::Null } else { Value::str(["x", "y", "z"][i as usize % 3]) },
                    if null(2) { Value::Null } else { Value::Int(i % 5 - 2) },
                    if null(3) { Value::Null } else { Value::Date((i % 4) as i32) },
                    if null(5) { Value::Null } else { Value::float(floats[i as usize % 5]) },
                ]
            })
            .collect();
        let cols = [
            ("s", ValueType::Str),
            ("i", ValueType::Int),
            ("d", ValueType::Date),
            ("f", ValueType::Float),
        ];
        heap_of(disk, &cols, rows, 37)
    }

    /// Result rows with each `Float` as its exact bits (`-0.0` and NaN
    /// payloads included).
    fn bits(rows: Vec<Row>) -> Vec<Vec<String>> {
        let cell = |v: &Value| match v {
            Value::Float(f) => format!("F{:016x}", f.0.to_bits()),
            v => format!("{v:?}"),
        };
        rows.iter().map(|r| r.iter().map(cell).collect()).collect()
    }

    /// `spec` over every `step`-th slot of each page of `heap` (`step` 1:
    /// dense batches, 2: sparse ones), folded by a [`BatchAgg`], which
    /// must equal [`AggState::observe`] over the same rows to the bit.
    fn batch_equals_rows(
        disk: &cm_storage::DiskSim,
        heap: &cm_storage::HeapFile,
        spec: &AggSpec,
        step: usize,
    ) -> Vec<Row> {
        let (mut rows, mut batch) = (AggState::new(spec), BatchAgg::new(spec));
        heap.read_run_visit(disk, 0, heap.num_pages() - 1, |page| {
            let sel: Vec<u32> = (0..page.len() as u32).step_by(step).collect();
            sel.iter().for_each(|&s| rows.observe(&page.row(s as usize)));
            batch.fold(page, &sel);
        })
        .unwrap();
        let (want, got) = (rows.finish(), batch.finish().finish());
        assert_eq!(bits(got), bits(want.clone()), "{spec:?}, every {step}th slot");
        want
    }

    #[test]
    fn batch_fold_equals_row_fold() {
        let disk = cm_storage::DiskSim::with_defaults();
        let heap = typed_heap(&disk);
        let specs = [
            AggSpec::new(vec![0, 1], vec![AggFunc::Count, AggFunc::Sum(3), AggFunc::Min(0)]),
            AggSpec::new(vec![3], vec![AggFunc::Sum(1), AggFunc::Sum(2), AggFunc::Max(3)]),
            AggSpec::new(vec![2, 0, 3], vec![AggFunc::Min(1), AggFunc::Max(0)]),
            AggSpec::new(vec![], vec![AggFunc::Count, AggFunc::Sum(1), AggFunc::Max(2)]),
            // String keys only: the direct index.
            AggSpec::new(vec![0], vec![AggFunc::Count, AggFunc::Sum(3), AggFunc::Max(0)]),
        ];
        for spec in &specs {
            for step in [1, 2] {
                assert!(!batch_equals_rows(&disk, &heap, spec, step).is_empty());
            }
        }
    }

    #[test]
    fn batch_int_sums_widen_like_row_sums() {
        // Four groups in turn on pages of five slots. Group "a" crosses
        // i64::MAX at its third row (mid-page), falls back below it and
        // crosses again two pages on: it stays a float sum from its first
        // overflow on. Group "b" crosses i64::MIN; "c" stays in range
        // while the others widen; "d" is all NULL. Every other slot
        // still overflows "a" and "b".
        let (max, min) = (i64::MAX, i64::MIN);
        let a = [max / 2, max / 2, max / 2, -max, -max, 7, max, max, 0, 3].map(Some);
        let mut b = [min / 2, -5, min / 2, 0, min / 2, min, 2, min / 2, -3, min / 2].map(Some);
        let mut c = [1, -2, 0, 4, 5, 6, 7, 8, 9, 10].map(Some);
        (b[3], c[2]) = (None, None);
        let rows = (0..a.len())
            .flat_map(|j| {
                [("a", a[j]), ("b", b[j]), ("c", c[j]), ("d", None)].into_iter().enumerate().map(
                    |(k, (s, v))| {
                        vec![Value::str(s), Value::Int(k as i64), v.map_or(Value::Null, Value::Int)]
                    },
                )
            })
            .collect();
        let disk = cm_storage::DiskSim::with_defaults();
        let cols = [("s", ValueType::Str), ("k", ValueType::Int), ("v", ValueType::Int)];
        let heap = heap_of(&disk, &cols, rows, 5);
        let aggs = vec![AggFunc::Count, AggFunc::Sum(2)];
        // By the string: the direct index; by the int: the hash index.
        for spec in [AggSpec::new(vec![0], aggs.clone()), AggSpec::new(vec![1], aggs)] {
            for step in [1, 2] {
                let out = batch_equals_rows(&disk, &heap, &spec, step);
                let sums: Vec<&Value> = out.iter().map(|r| &r[2]).collect();
                let widened = matches!(
                    sums[..],
                    [Value::Float(_), Value::Float(_), Value::Int(_), Value::Null]
                );
                assert!(widened, "{sums:?}");
            }
        }
    }

    #[test]
    fn float_sums_keep_the_last_nan() {
        // A bare `NaN + NaN` keeps whichever operand the compiler's
        // instruction favours; a sum pins it, on every fold path.
        let (nan_a, nan_b) = (f64::from_bits(0x7ff8_0000_0000_0001), -f64::NAN);
        let groups = [
            (vec![nan_a, nan_b, 1.0], nan_b),
            (vec![nan_b, 2.0, nan_a], nan_a),
            (vec![nan_a, -0.0], nan_a),
            (vec![-0.0, nan_b], nan_b),
        ];
        let rows: Vec<Row> = (0..3)
            .flat_map(|j| {
                let groups = &groups;
                (0..groups.len()).filter_map(move |g| {
                    let f = *groups[g].0.get(j)?;
                    Some(vec![Value::Int(g as i64), Value::float(f)])
                })
            })
            .collect();
        let disk = cm_storage::DiskSim::with_defaults();
        let heap = heap_of(&disk, &[("g", ValueType::Int), ("f", ValueType::Float)], rows, 3);
        let spec = AggSpec::new(vec![0], vec![AggFunc::Sum(1)]);
        let out = bits(batch_equals_rows(&disk, &heap, &spec, 1));
        let want: Vec<String> =
            groups.iter().map(|(_, nan)| format!("F{:016x}", nan.to_bits())).collect();
        assert_eq!(out.iter().map(|r| r[1].clone()).collect::<Vec<_>>(), want);
        batch_equals_rows(&disk, &heap, &spec, 2);
        let inf = fold(
            &spec,
            &[
                vec![Value::Int(0), Value::float(f64::INFINITY)],
                vec![Value::Int(0), Value::float(f64::NEG_INFINITY)],
            ],
        );
        assert!(matches!(inf[0][1], Value::Float(f) if f.0.is_nan()));
    }

    #[test]
    fn batch_min_max_keep_the_first_of_a_tie() {
        // Four groups, one row each on every page of four slots (and all
        // on one page). `-0.0` and `0.0` tie, and so do NaNs of any
        // payload: the first seen must win, as it does row by row. The
        // string column is NULL on whole pages.
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = -f64::NAN;
        let floats = [
            [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0],
            [0.0, -0.0, 0.0, -0.0, -0.0, 0.0],
            [nan_a, nan_b, 1.0, nan_b, nan_a, 1.0],
            [nan_b, 2.0, nan_a, nan_b, -1.0, nan_a],
        ];
        let strs = ["m", "c", "x", "c"];
        let null_pages = [1, 2, 4];
        let rows = (0..6)
            .flat_map(|j| {
                (0..4).map(move |g| {
                    let t = if null_pages.contains(&j) {
                        Value::Null
                    } else {
                        Value::str(strs[(g + j) % 4])
                    };
                    vec![
                        Value::str(format!("g{g}")),
                        Value::Int(g as i64),
                        Value::float(floats[g][j]),
                        t,
                    ]
                })
            })
            .collect::<Vec<Row>>();
        let disk = cm_storage::DiskSim::with_defaults();
        let cols = [
            ("s", ValueType::Str),
            ("k", ValueType::Int),
            ("f", ValueType::Float),
            ("t", ValueType::Str),
        ];
        let aggs = vec![AggFunc::Min(2), AggFunc::Max(2), AggFunc::Min(3), AggFunc::Max(3)];
        let first = |f: f64| format!("F{:016x}", f.to_bits());
        for tpp in [4, 24] {
            let heap = heap_of(&disk, &cols, rows.clone(), tpp);
            for spec in [AggSpec::new(vec![0], aggs.clone()), AggSpec::new(vec![1], aggs.clone())] {
                let got = bits(batch_equals_rows(&disk, &heap, &spec, 1));
                // MIN and MAX of each group, pinned.
                let want = [(-0.0, -0.0), (0.0, 0.0), (1.0, nan_a), (-1.0, nan_b)];
                for (row, (lo, hi)) in got.iter().zip(want) {
                    assert_eq!(
                        (&row[1], &row[2]),
                        (&first(lo), &first(hi)),
                        "{spec:?}, {tpp} a page"
                    );
                }
                batch_equals_rows(&disk, &heap, &spec, 2);
            }
        }
    }

    #[test]
    fn min_max_merge_is_direction_aware() {
        let spec = AggSpec::new(vec![], vec![AggFunc::Min(0), AggFunc::Max(0)]);
        let mut a = AggState::new(&spec);
        a.observe(&[Value::Int(5)]);
        let mut b = AggState::new(&spec);
        b.observe(&[Value::Int(3)]);
        b.observe(&[Value::Int(9)]);
        a.merge(&b);
        assert_eq!(a.finish(), vec![vec![Value::Int(3), Value::Int(9)]]);
    }
}
