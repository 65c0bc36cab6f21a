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
//! `DISTINCT` is the degenerate aggregation with an empty aggregate
//! list: the group keys *are* the result. `LIMIT` truncates the final
//! key-sorted group list, so a limited result is always a stable prefix
//! of the unlimited one ("LIMIT-stability").

use crate::error::QueryError;
use crate::kernel::{Dense, Slots, Sparse};
use cm_storage::{ColumnSlice, FxBuildHasher, PageRef, Row, Schema, Value, ValueType};
use std::hash::{BuildHasher, Hash, Hasher};

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
    /// (never on worker scheduling). A group with no non-NULL input sums
    /// to `Null` (SQL semantics). A `Str` column is rejected before a
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
            Sum::Float(s) => Sum::Float(s + i as f64),
        };
    }

    #[inline]
    fn add_float(&mut self, x: f64) {
        *self = match *self {
            Sum::Empty => Sum::Float(x),
            Sum::Int(s) => Sum::Float(s as f64 + x),
            Sum::Float(s) => Sum::Float(s + x),
        };
    }

    /// This sum followed by another leg's.
    fn merge(self, other: Sum) -> Sum {
        match (self, other) {
            (a, Sum::Empty) => a,
            (Sum::Empty, b) => b,
            (Sum::Int(a), Sum::Int(b)) => int_sum(a, b),
            (Sum::Int(a), Sum::Float(b)) => Sum::Float(a as f64 + b),
            (Sum::Float(a), Sum::Int(b)) => Sum::Float(a + b as f64),
            (Sum::Float(a), Sum::Float(b)) => Sum::Float(a + b),
        }
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
/// hash instead. 4 096 slots are 16 KiB, a few L1 lines for the
/// low-cardinality keys soft dependencies are found on.
const DIRECT_SLOTS: usize = 1 << 12;

/// How a [`BatchAgg`] finds a row's group.
#[derive(Debug)]
enum GroupIndex {
    /// By the key words, hashed ([`GroupKeys`]).
    Hash(GroupKeys<u64>),
    /// Every group-by column holds strings: by the dictionary codes
    /// directly, as digits base `radix` (the dictionary's size plus one,
    /// the top digit standing for NULL). `slots[key]` is the group + 1,
    /// or 0 before the key's first row.
    Direct { radix: u64, slots: Vec<u32>, groups: usize },
}

/// One aggregate's accumulators in a [`BatchAgg`], one per group.
#[derive(Debug)]
enum Accs {
    Count(Vec<u64>),
    Sum(Vec<Sum>),
    MinMax(Vec<Option<Value>>),
}

/// One shard leg's grouped fold over `(page, selection)` batches of a
/// single heap. A group is found by its **key words** — per group-by
/// column the value's [`cm_storage::key_bits`] (an `Int`'s or `Date`'s
/// payload, a `Float`'s order key, a `Str`'s dictionary code; 0 for
/// NULL), then a NULL mask — or, when every group-by column holds
/// strings and their codes are few, by the codes as an index into a
/// direct table. Either way the fold never materialises a value except
/// each new group's first key, and each aggregate runs one typed loop
/// over its column. Words and codes identify values exactly as
/// [`Value`]'s equality does, so the groups are the ones
/// [`AggState::observe`] would form. [`BatchAgg::finish`] turns the
/// leg's groups back into `Value` keys: the [`AggState`] it returns
/// merges and finishes like any other. Codes are per heap, so one
/// `BatchAgg` folds one leg.
#[derive(Debug)]
pub struct BatchAgg {
    spec: AggSpec,
    /// Chosen at the first batch, from the key columns' types and the
    /// dictionary's size.
    index: Option<GroupIndex>,
    /// Each group's key as first seen, `group_by.len()` values a group.
    keys: Vec<Value>,
    /// Per aggregate, in spec order.
    accs: Vec<Accs>,
    /// Reused batch to batch: its key words (or direct slots) and groups.
    words: Vec<u64>,
    gids: Vec<u32>,
}

impl BatchAgg {
    /// An empty fold for `spec`.
    pub fn new(spec: &AggSpec) -> Self {
        let accs = spec
            .aggs
            .iter()
            .map(|f| match f {
                AggFunc::Count => Accs::Count(Vec::new()),
                AggFunc::Sum(_) => Accs::Sum(Vec::new()),
                AggFunc::Min(_) | AggFunc::Max(_) => Accs::MinMax(Vec::new()),
            })
            .collect();
        BatchAgg {
            spec: spec.clone(),
            index: None,
            keys: Vec::new(),
            accs,
            words: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// The group index for the heap `page` belongs to.
    fn index_for(group_by: &[usize], page: PageRef<'_>) -> GroupIndex {
        let radix = page.dict().len() as u64 + 1;
        let all_str = group_by.iter().all(|&c| matches!(page.column(c), ColumnSlice::Str(_)));
        let slots = u32::try_from(group_by.len())
            .ok()
            .and_then(|n| radix.checked_pow(n))
            .filter(|&n| n as usize <= DIRECT_SLOTS);
        match slots {
            Some(n) if all_str => {
                GroupIndex::Direct { radix, slots: vec![0; n as usize], groups: 0 }
            }
            _ => {
                let n = group_by.len();
                GroupIndex::Hash(GroupKeys::new(n + n.div_ceil(64)))
            }
        }
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
        let group_by = &self.spec.group_by;
        let index = self.index.get_or_insert_with(|| Self::index_for(group_by, page));
        let (words, gids) = (&mut self.words, &mut self.gids);
        gids.clear();
        let first_seen = |k: usize, keys: &mut Vec<Value>, accs: &mut [Accs]| {
            let s = slots.slot(k);
            keys.extend(group_by.iter().map(|&c| page.value(s, c)));
            for acc in accs.iter_mut() {
                match acc {
                    Accs::Count(v) => v.push(0),
                    Accs::Sum(v) => v.push(Sum::Empty),
                    Accs::MinMax(v) => v.push(None),
                }
            }
        };
        match index {
            GroupIndex::Hash(groups) => {
                key_words(words, groups.width, group_by, page, slots);
                let width = groups.width;
                for k in 0..slots.len() {
                    let key = &words[k * width..(k + 1) * width];
                    let (g, new) = groups.find_or_insert(|i| &key[i]);
                    if new {
                        first_seen(k, &mut self.keys, &mut self.accs);
                    }
                    gids.push(g as u32);
                }
            }
            GroupIndex::Direct {
                radix,
                slots: table,
                groups,
            } => {
                direct_slots(words, *radix, group_by, page, slots);
                gids.resize(words.len(), 0);
                for (k, (&slot, gid)) in words.iter().zip(gids.iter_mut()).enumerate() {
                    let entry = &mut table[slot as usize];
                    if *entry == 0 {
                        *groups += 1;
                        *entry = *groups as u32;
                        first_seen(k, &mut self.keys, &mut self.accs);
                    }
                    *gid = *entry - 1;
                }
            }
        }
        for (f, acc) in self.spec.aggs.iter().zip(&mut self.accs) {
            let Some(col) = f.col() else {
                let Accs::Count(counts) = acc else { unreachable!("count accumulators") };
                gids.iter().for_each(|&g| counts[g as usize] += 1);
                continue;
            };
            let nulls = page.nulls(col);
            match (acc, page.column(col)) {
                (Accs::Sum(sums), ColumnSlice::Int(v)) => {
                    slots.each_with(v, nulls, gids, |g, x| sums[g as usize].add_int(x));
                }
                (Accs::Sum(sums), ColumnSlice::Date(v)) => {
                    slots.each_with(v, nulls, gids, |g, x| {
                        sums[g as usize].add_int(i64::from(x))
                    });
                }
                (Accs::Sum(sums), ColumnSlice::Float(v)) => {
                    slots.each_with(v, nulls, gids, |g, x| sums[g as usize].add_float(x));
                }
                (Accs::Sum(_), ColumnSlice::Str(_)) => {
                    unreachable!("SUM's input type is checked before a leg runs")
                }
                (Accs::MinMax(ms), _) => {
                    for (k, &g) in gids.iter().enumerate() {
                        min_max(&mut ms[g as usize], f, &page.value(slots.slot(k), col));
                    }
                }
                (Accs::Count(_), _) => unreachable!("COUNT(*) reads no column"),
            }
        }
    }

    /// The leg's state with `Value` group keys, ready to merge.
    pub fn finish(self) -> AggState {
        let n = self.spec.group_by.len();
        let groups = match self.index {
            Some(GroupIndex::Hash(g)) => g.len(),
            Some(GroupIndex::Direct { groups, .. }) => groups,
            None => 0,
        };
        let mut keys = GroupKeys::new(n);
        let mut accs = Vec::with_capacity(groups * self.accs.len());
        for g in 0..groups {
            keys.find_or_insert(|i| &self.keys[g * n + i]);
            accs.extend(self.accs.iter().map(|a| match a {
                Accs::Count(v) => Acc::Count(v[g]),
                Accs::Sum(v) => Acc::Sum(v[g]),
                Accs::MinMax(v) => Acc::MinMax(v[g].clone()),
            }));
        }
        AggState { spec: self.spec, groups: keys, accs }
    }
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
/// columns' codes as digits base `radix`, `radix - 1` for NULL.
fn direct_slots(
    out: &mut Vec<u64>,
    radix: u64,
    group_by: &[usize],
    page: PageRef<'_>,
    slots: impl Slots,
) {
    out.clear();
    out.resize(slots.len(), 0);
    let mut scale = 1;
    for &c in group_by {
        let ColumnSlice::Str(codes) = page.column(c) else {
            unreachable!("direct keys are strings")
        };
        slots.zip(codes, out, |slot, code| *slot += u64::from(code) * scale);
        if let Some(nulls) = page.nulls(c) {
            slots.each_null(nulls, |k| out[k] += (radix - 1) * scale);
        }
        scale *= radix;
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

    /// A heap of every column type, NULLs in each, over several pages.
    fn typed_heap(disk: &cm_storage::DiskSim) -> cm_storage::HeapFile {
        use cm_storage::{Column, Schema, ValueType};
        let schema = std::sync::Arc::new(Schema::new(vec![
            Column::new("s", ValueType::Str),
            Column::new("i", ValueType::Int),
            Column::new("d", ValueType::Date),
            Column::new("f", ValueType::Float),
        ]));
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
        cm_storage::HeapFile::bulk_load(disk, schema, rows, 37).unwrap()
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
            let mut rows = AggState::new(spec);
            (0..heap.len()).for_each(|r| rows.observe(&heap.peek(cm_storage::Rid(r)).unwrap()));
            let mut batch = BatchAgg::new(spec);
            let last = heap.num_pages() - 1;
            heap.read_run_visit(disk.as_ref(), 0, last, |page| {
                // Every other slot, so selections are sparse.
                let sel: Vec<u32> = (0..page.len() as u32).filter(|s| s % 2 == 0).collect();
                batch.fold(page, &sel);
            })
            .unwrap();
            let mut even = AggState::new(spec);
            let even_slots = (0..heap.len()).filter(|r| r % 37 % 2 == 0);
            even_slots.for_each(|r| even.observe(&heap.peek(cm_storage::Rid(r)).unwrap()));
            let (want, got) = (even.finish(), batch.finish().finish());
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "{spec:?}");
            assert!(!rows.finish().is_empty());
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
