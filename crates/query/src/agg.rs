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

use cm_storage::{FxBuildHasher, Row, Value};
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
    /// to `Null` (SQL semantics).
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
}

/// One aggregate's running value.
#[derive(Debug, Clone, PartialEq)]
enum Acc {
    Count(u64),
    /// No non-NULL input yet.
    SumEmpty,
    SumInt(i64),
    SumFloat(f64),
    MinMax(Option<Value>),
}

impl Acc {
    fn fresh(f: &AggFunc) -> Acc {
        match f {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum(_) => Acc::SumEmpty,
            AggFunc::Min(_) | AggFunc::Max(_) => Acc::MinMax(None),
        }
    }

    fn observe(&mut self, f: &AggFunc, row: &[Value]) {
        match (self, f) {
            (Acc::Count(n), AggFunc::Count) => *n += 1,
            (acc @ (Acc::SumEmpty | Acc::SumInt(_) | Acc::SumFloat(_)), AggFunc::Sum(col)) => {
                acc.add_value(&row[*col]);
            }
            (Acc::MinMax(m), AggFunc::Min(col)) => {
                let v = &row[*col];
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            (Acc::MinMax(m), AggFunc::Max(col)) => {
                let v = &row[*col];
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            _ => unreachable!("accumulator matches its function"),
        }
    }

    /// Add one value into a sum accumulator (NULLs skipped). `Int` and
    /// `Date` inputs add as `i64`; a float, or an `i64` overflow,
    /// promotes an integer running sum to `f64`.
    fn add_value(&mut self, v: &Value) {
        let num = match v {
            Value::Null => return,
            v => v.as_numeric().expect("SUM over a numeric column"),
        };
        let int = match v {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(i64::from(*d)),
            _ => None,
        };
        *self = match (&*self, int) {
            (Acc::SumEmpty, Some(i)) => Acc::SumInt(i),
            (Acc::SumInt(s), Some(i)) => int_sum(*s, i),
            (Acc::SumEmpty, None) => Acc::SumFloat(num),
            (Acc::SumInt(s), None) => Acc::SumFloat(*s as f64 + num),
            (Acc::SumFloat(s), _) => Acc::SumFloat(s + num),
            _ => unreachable!("sum accumulator"),
        };
    }

    /// Fold another leg's accumulator for the same function with this
    /// one. Count/Min/Max merges are order-insensitive; float-sum merges
    /// happen in the caller's explicit merge-key order, so the result is
    /// deterministic across worker schedules. Min/Max resolution needs
    /// the function for its direction.
    fn merge_with(&self, f: &AggFunc, other: &Acc) -> Acc {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => Acc::Count(a + b),
            (a, Acc::SumEmpty) => a.clone(),
            (Acc::SumEmpty, b) => b.clone(),
            (Acc::SumInt(a), Acc::SumInt(b)) => int_sum(*a, *b),
            (Acc::SumInt(a), Acc::SumFloat(b)) => Acc::SumFloat(*a as f64 + b),
            (Acc::SumFloat(a), Acc::SumInt(b)) => Acc::SumFloat(a + *b as f64),
            (Acc::SumFloat(a), Acc::SumFloat(b)) => Acc::SumFloat(a + b),
            (Acc::MinMax(a), Acc::MinMax(b)) => Acc::MinMax(match (a, b) {
                (Some(av), Some(bv)) => {
                    let take_b = match f {
                        AggFunc::Min(_) => bv < av,
                        AggFunc::Max(_) => bv > av,
                        _ => unreachable!("min/max accumulator"),
                    };
                    Some(if take_b { bv.clone() } else { av.clone() })
                }
                (Some(v), None) | (None, Some(v)) => Some(v.clone()),
                (None, None) => None,
            }),
            _ => unreachable!("accumulators merge like with like"),
        }
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n as i64),
            Acc::SumEmpty => Value::Null,
            Acc::SumInt(s) => Value::Int(*s),
            Acc::SumFloat(s) => Value::float(*s),
            Acc::MinMax(m) => m.clone().unwrap_or(Value::Null),
        }
    }
}

/// `a + b` as an integer sum, widened to a float sum if it overflows
/// `i64`.
fn int_sum(a: i64, b: i64) -> Acc {
    a.checked_add(b).map_or(Acc::SumFloat(a as f64 + b as f64), Acc::SumInt)
}

/// Slots in [`GroupKeys`]' memo: a power of two.
const MEMO_SLOTS: usize = 256;

/// [`GroupKeys`] consults its memo only while it holds at most this many
/// groups. A quarter of the slots keeps collisions rare; past it a row's
/// key is less likely to sit in its slot, and a miss costs the memo
/// check on top of the probe it falls back to.
const MEMO_MAX_GROUPS: usize = MEMO_SLOTS / 4;

/// The distinct group keys seen so far, in arrival order: `width` values
/// per group in one flat array behind an open-addressing index. A row
/// finds its group by hashing and comparing its group-by columns where
/// they lie, so nothing is cloned or allocated unless the group is new.
/// Keys hash with [`cm_storage::FxHasher`], whose avalanching `finish`
/// keeps the low bits the index masks well spread.
///
/// While there are few groups — the low-cardinality attributes soft
/// dependencies are found on — a direct-mapped **memo** sits in front of
/// the index. Its slot comes from an O(1) [`fingerprint`] of the key
/// values, and it remembers the last group seen there. A row whose key
/// equals that group's (`Value::eq`, a pointer compare for shared
/// strings) skips hashing and probing; any other row takes the index
/// path and then claims the slot. Fingerprints may collide: the equality
/// check, not the fingerprint, decides the group. Above
/// [`MEMO_MAX_GROUPS`] groups the memo is skipped. Group numbers, and so
/// results, do not depend on it.
#[derive(Debug, Clone)]
struct GroupKeys {
    width: usize,
    hasher: FxBuildHasher,
    /// `index[hash & mask]`, probed linearly: a group number + 1, or 0
    /// for empty. Power-of-two length, at most half full.
    index: Vec<u32>,
    hashes: Vec<u64>,
    keys: Vec<Value>,
    /// `memo[slot]`: the last group whose key fingerprinted to `slot`,
    /// plus one, or 0 for empty.
    memo: Box<[u32; MEMO_SLOTS]>,
}

impl GroupKeys {
    fn new(width: usize) -> Self {
        GroupKeys {
            width,
            hasher: FxBuildHasher::default(),
            index: vec![0; 16],
            hashes: Vec::new(),
            keys: Vec::new(),
            memo: Box::new([0; MEMO_SLOTS]),
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn key(&self, g: usize) -> &[Value] {
        &self.keys[g * self.width..(g + 1) * self.width]
    }

    /// Whether group `g`'s key is `key(0), key(1), …`. Forced inline:
    /// called out of line from the probe loop, it made grouping past the
    /// memo's cutoff ~15 % slower than a loop that compares in place.
    #[inline(always)]
    fn key_is<'a>(&self, g: usize, key: impl Fn(usize) -> &'a Value) -> bool {
        for (i, k) in self.key(g).iter().enumerate() {
            if k != key(i) {
                return false;
            }
        }
        true
    }

    /// The group whose key is `key(0), key(1), …`, and whether this call
    /// created it.
    fn find_or_insert<'a>(&mut self, key: impl Fn(usize) -> &'a Value) -> (usize, bool) {
        let slot = (self.len() <= MEMO_MAX_GROUPS).then(|| memo_slot((0..self.width).map(&key)));
        if let Some(g) = slot.and_then(|s| self.memo[s].checked_sub(1)) {
            if self.key_is(g as usize, &key) {
                return (g as usize, false);
            }
        }
        let found = self.probe(key);
        if let Some(s) = slot {
            self.memo[s] = found.0 as u32 + 1;
        }
        found
    }

    /// `find_or_insert` through the index alone.
    fn probe<'a>(&mut self, key: impl Fn(usize) -> &'a Value) -> (usize, bool) {
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

/// An O(1) summary of one key value that depends only on its content:
/// the payload bits of an `Int`, `Date` or `Float`, a constant for
/// `Null`, and a string's length with its first and last byte (so
/// `"AIR"` and `"ASR"` share one). It never reads a string's other bytes
/// or its address, so memo hits do not depend on whether equal strings
/// share an allocation.
fn fingerprint(v: &Value) -> u64 {
    match v {
        Value::Null => 0x6E75_6C6C,
        Value::Int(i) => *i as u64,
        Value::Date(d) => *d as u64,
        Value::Float(f) => f.0.to_bits(),
        Value::Str(s) => match s.as_bytes() {
            [] => 0,
            [first, .., last] | [first @ last] => {
                s.len() as u64 | u64::from(*first) << 40 | u64::from(*last) << 48
            }
        },
    }
}

/// The memo slot of a key: its values' fingerprints folded together,
/// then Fibonacci-hashed (the top bits of a multiply by 2^64/φ) down to
/// [`MEMO_SLOTS`].
fn memo_slot<'a>(key: impl Iterator<Item = &'a Value>) -> usize {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let folded = key.fold(0u64, |acc, v| (acc ^ fingerprint(v)).wrapping_mul(PHI));
    (folded >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// A mergeable grouped-aggregation accumulator. Feed it rows with
/// [`AggState::observe`], merge per-leg states with [`AggState::merge`]
/// (in explicit merge-key order), and read the key-sorted result rows
/// with [`AggState::finish`]. Groups are kept in arrival order; key
/// order is restored once, by the sort in `finish`. A row finds its group
/// through a small key-fingerprint memo while the state holds few groups
/// and through a hash index otherwise; both find the same group, so
/// results never depend on which one did.
#[derive(Debug, Clone)]
pub struct AggState {
    spec: AggSpec,
    groups: GroupKeys,
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
    groups: &mut GroupKeys,
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
    fn longest_probe(groups: &GroupKeys) -> usize {
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

    fn keys_of(values: impl Iterator<Item = Value>) -> GroupKeys {
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
    fn memo_checks_keys_whose_fingerprints_collide() {
        let (air, asr) = (Value::str("AIR"), Value::str("ASR"));
        assert_eq!(fingerprint(&air), fingerprint(&asr));
        let keys = [
            (air.clone(), (0, true)),
            (asr, (1, true)),
            (air, (0, false)),
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

    #[test]
    fn memo_is_bypassed_past_its_cutoff() {
        let mut groups = GroupKeys::new(1);
        let keys: Vec<Value> = (0..2 * MEMO_MAX_GROUPS as i64).map(Value::Int).collect();
        for (g, k) in keys.iter().enumerate() {
            assert_eq!(groups.find_or_insert(|_| k), (g, true));
        }
        let memo = groups.memo.clone();
        for (g, k) in keys.iter().enumerate().rev() {
            assert_eq!(groups.find_or_insert(|_| k), (g, false));
        }
        assert_eq!(groups.memo, memo, "no memo writes above the cutoff");
        assert!(memo.iter().all(|&m| m as usize <= MEMO_MAX_GROUPS + 1));
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
