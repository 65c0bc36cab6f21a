//! The Correlation Map structure (paper §5, Algorithm 1).
//!
//! A CM maps each distinct (bucketed) value of its key attributes to the
//! set of clustered buckets containing co-occurring tuples, with a
//! co-occurrence count per pair so that deletions can retract mappings
//! when the last co-occurring tuple disappears.
//!
//! The structure is deliberately value-granular, not tuple-granular: the
//! city→state CM of Figure 4 stores `Boston → {MA, NH}` once no matter
//! how many Bostonians the table holds. That is the entire compression
//! argument — and also why maintenance is cheap: the expected CM update
//! for an insert is a counter bump on a memory-resident map.

use crate::bucket::{BucketSpec, CmKey, CmKeyPart};
use crate::cdir::BucketDirectory;
use crate::spec::{CmAttr, CmSpec};
use cm_storage::{null_bit, ColumnSlice, FxHashMap, HeapFile, Rid, Value};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::ops::Bound;

/// A predicate on one CM key attribute, aligned with the spec's attrs.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrConstraint {
    /// No restriction on this attribute.
    Any,
    /// Attribute equals the value.
    Eq(Value),
    /// Attribute is one of the values.
    In(Vec<Value>),
    /// Attribute lies in the inclusive range `[lo, hi]`.
    Range(Value, Value),
}

/// An [`AttrConstraint`] mapped into CM key-part space, once per lookup.
enum PartConstraint {
    Any,
    Eq(CmKeyPart),
    /// Sorted by `Ord`, adjacent duplicates removed.
    In(Vec<CmKeyPart>),
    Range(CmKeyPart, CmKeyPart),
}

impl PartConstraint {
    fn compile(c: &AttrConstraint, bucket: &BucketSpec) -> Self {
        match c {
            AttrConstraint::Any => PartConstraint::Any,
            AttrConstraint::Eq(v) => PartConstraint::Eq(bucket.key_part(v)),
            AttrConstraint::In(vs) => {
                let mut parts: Vec<CmKeyPart> = vs.iter().map(|v| bucket.key_part(v)).collect();
                parts.sort_unstable();
                parts.dedup();
                PartConstraint::In(parts)
            }
            AttrConstraint::Range(lo, hi) => {
                PartConstraint::Range(bucket.key_part(lo), bucket.key_part(hi))
            }
        }
    }

    /// Whether a stored key part satisfies the constraint: `==` for
    /// `Eq`/`In` membership, `Ord` for `Range`.
    fn matches(&self, part: &CmKeyPart) -> bool {
        match self {
            PartConstraint::Any => true,
            PartConstraint::Eq(p) => part == p,
            // `Ord` may call `==`-distinct parts equal (`Int(2)` and
            // `Float(2.0)`): binary-search to the run of order-equal parts,
            // then look for an `==` match in it.
            PartConstraint::In(ps) => ps[ps.partition_point(|p| p < part)..]
                .iter()
                .take_while(|p| *p <= part)
                .any(|p| p == part),
            PartConstraint::Range(lo, hi) => part >= lo && part <= hi,
        }
    }
}

/// The word a CM key part is identified by within its column: a
/// bucketed numeric value's bucket ordinal, else the value's own word.
/// Two non-NULL values of the column map to equal key parts exactly
/// when their words are equal.
#[inline]
fn part_word(bucket: &BucketSpec, col: ColumnSlice<'_>, slot: usize) -> u64 {
    let x = match col {
        _ if !bucket.is_bucketed() => None,
        ColumnSlice::Int(v) => Some(v[slot] as f64),
        ColumnSlice::Date(v) => Some(f64::from(v[slot])),
        ColumnSlice::Float(v) => Some(v[slot]),
        ColumnSlice::Str(_) => None,
    };
    match x.and_then(|x| bucket.ordinal(x)) {
        Some(ordinal) => ordinal as u64,
        None => col.word(slot),
    }
}

/// The scan of [`CorrelationMap::build`]: each live row's key words —
/// its parts' [`part_word`]s, then a NULL mask — keyed by `make_key` and
/// counted per clustered bucket, the bucket found by walking the
/// directory in RID order. Each distinct tuple of words maps to its
/// key, built from its first live row, and the key's bucket counts;
/// distinct words are distinct keys.
fn count_keys<K: Hash + Eq + Borrow<[u64]>>(
    attrs: &[CmAttr],
    heap: &HeapFile,
    live: impl Fn(Rid) -> bool,
    dir: &BucketDirectory,
    make_key: impl Fn(&[u64]) -> K,
) -> FxHashMap<K, (CmKey, BTreeMap<u32, u32>)> {
    let k = attrs.len();
    assert!(k < 64, "the NULL mask has a bit per key attribute");
    let mut keys: FxHashMap<K, (CmKey, BTreeMap<u32, u32>)> = FxHashMap::default();
    let mut words = vec![0u64; k + 1];
    let (mut bucket, mut bucket_end) = (0u32, 0u64);
    for page in heap.pages() {
        let cols: Vec<_> = attrs.iter().map(|a| (page.column(a.col), page.nulls(a.col))).collect();
        for slot in 0..page.len() {
            let rid = page.rid(slot as u32);
            if !live(rid) {
                continue;
            }
            let mut nulls = 0u64;
            for (i, (attr, &(col, col_nulls))) in attrs.iter().zip(&cols).enumerate() {
                words[i] = if col_nulls.is_some_and(|n| null_bit(n, slot)) {
                    nulls |= 1 << i;
                    0
                } else {
                    part_word(&attr.bucket, col, slot)
                };
            }
            words[k] = nulls;
            if rid.0 >= bucket_end {
                bucket = dir.bucket_of(rid);
                bucket_end = dir.rid_range(bucket).1;
            }
            match keys.get_mut(words.as_slice()) {
                // Buckets only grow along the scan: a key's current one
                // is its last.
                Some((_, counts)) => match counts.last_entry() {
                    Some(mut last) if *last.key() == bucket => *last.get_mut() += 1,
                    _ => {
                        counts.insert(bucket, 1);
                    }
                },
                None => {
                    let key = attrs.iter().map(|a| a.bucket.key_part(&page.value(slot, a.col)));
                    keys.insert(make_key(&words), (key.collect(), BTreeMap::from([(bucket, 1)])));
                }
            }
        }
    }
    keys
}

/// A Correlation Map: `u → {(clustered bucket, co-occurrence count)}`.
#[derive(Debug, Clone)]
pub struct CorrelationMap {
    name: String,
    spec: CmSpec,
    /// Ordered by key so equality, `IN` and range lookups can prune on the
    /// first key attribute.
    map: BTreeMap<CmKey, BTreeMap<u32, u32>>,
    /// Total `(key, clustered bucket)` pairs — the CM's "entry count".
    pair_count: u64,
}

impl CorrelationMap {
    /// An empty CM (use [`CorrelationMap::build`] for Algorithm 1).
    pub fn new(name: impl Into<String>, spec: CmSpec) -> Self {
        CorrelationMap { name: name.into(), spec, map: BTreeMap::new(), pair_count: 0 }
    }

    /// Algorithm 1: scan the heap's slots that `live` admits, recording
    /// for every tuple the co-occurrence of its CM key with its clustered
    /// bucket. The scan reads only the key's columns, as words off the
    /// page slices: a row's key is its parts' words (a bucketed numeric
    /// value's bucket ordinal, else the value's
    /// [`word`](cm_storage::ColumnSlice::word)) plus a NULL mask, and
    /// distinct words are distinct keys. Rows are counted per words and
    /// bucket, the bucket found by walking the directory in RID order,
    /// and each distinct key is materialised once, from its first live
    /// row. The map and pair count equal those of
    /// [`CorrelationMap::insert`] row by row.
    ///
    /// The scan is uncharged: DDL-time construction is outside the
    /// measured window in every experiment, exactly as in the paper.
    pub fn build(
        name: impl Into<String>,
        spec: CmSpec,
        heap: &HeapFile,
        live: impl Fn(Rid) -> bool,
        dir: &BucketDirectory,
    ) -> Self {
        let mut cm = Self::new(name, spec);
        let attrs = cm.spec.attrs();
        // A one-attribute key, the common case, hashes two inline words.
        cm.map = if attrs.len() == 1 {
            count_keys(attrs, heap, live, dir, |w| [w[0], w[1]]).into_values().collect()
        } else {
            count_keys(attrs, heap, live, dir, |w| Box::<[u64]>::from(w)).into_values().collect()
        };
        cm.pair_count = cm.map.values().map(|buckets| buckets.len() as u64).sum();
        cm
    }

    /// The CM's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The key specification.
    pub fn spec(&self) -> &CmSpec {
        &self.spec
    }

    /// Number of distinct CM keys.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// Number of `(key, clustered bucket)` pairs.
    pub fn num_pairs(&self) -> u64 {
        self.pair_count
    }

    /// Average clustered buckets per key — the *bucketed* `c_per_u` this
    /// CM exhibits, feeding the cost model.
    pub fn avg_cbuckets_per_key(&self) -> f64 {
        if self.map.is_empty() {
            0.0
        } else {
            self.pair_count as f64 / self.map.len() as f64
        }
    }

    /// Record one tuple (Algorithm 1 inner loop / INSERT maintenance).
    pub fn insert(&mut self, row: &[Value], rid: Rid, dir: &BucketDirectory) {
        let key = self.spec.key_of(row);
        let bucket = dir.bucket_of(rid);
        let per_key = self.map.entry(key).or_default();
        let count = per_key.entry(bucket).or_insert(0);
        if *count == 0 {
            self.pair_count += 1;
        }
        *count += 1;
    }

    /// Retract one tuple (DELETE maintenance): decrement the pair's
    /// co-occurrence count, dropping the pair at zero and the key when its
    /// bucket set empties. Returns `false` if the pair was not present
    /// (caller bug or double delete).
    pub fn delete(&mut self, row: &[Value], rid: Rid, dir: &BucketDirectory) -> bool {
        let key = self.spec.key_of(row);
        let bucket = dir.bucket_of(rid);
        let Some(per_key) = self.map.get_mut(&key) else {
            return false;
        };
        let Some(count) = per_key.get_mut(&bucket) else {
            return false;
        };
        *count -= 1;
        if *count == 0 {
            per_key.remove(&bucket);
            self.pair_count -= 1;
            if per_key.is_empty() {
                self.map.remove(&key);
            }
        }
        true
    }

    /// `cm_lookup({v_u1 .. v_uN})` (paper §5.2): the union of clustered
    /// buckets co-occurring with any of the given single-attribute values.
    /// Only valid for single-attribute CMs.
    pub fn lookup_values(&self, values: &[Value]) -> Vec<u32> {
        assert_eq!(self.spec.arity(), 1, "lookup_values requires a single-attribute CM");
        self.lookup(&[AttrConstraint::In(values.to_vec())])
    }

    /// General lookup: one [`AttrConstraint`] per key attribute, in spec
    /// order. Returns the sorted, deduplicated set of clustered buckets
    /// that *may* contain matching tuples (bucketing introduces false
    /// positives, never false negatives — the executor re-filters rows by
    /// the original predicate as in Figure 4).
    ///
    /// Each constraint is mapped to key parts once per call. The first
    /// attribute's constraint then bounds the ordered map walk: `Eq` and
    /// `Range` scan one key range, and `In` is the paper's union of
    /// per-value lookups (§5.2) — one point probe per distinct key part —
    /// so an `IN` list of `k` values costs `O(k log n + hits)`, not a walk
    /// of all `n` keys. Only `Any` walks the whole map. Every visited key
    /// is then checked against all constraints.
    pub fn lookup(&self, constraints: &[AttrConstraint]) -> Vec<u32> {
        assert_eq!(
            constraints.len(),
            self.spec.arity(),
            "one constraint per CM key attribute"
        );
        let parts: Vec<PartConstraint> = constraints
            .iter()
            .zip(self.spec.attrs())
            .map(|(c, attr)| PartConstraint::compile(c, &attr.bucket))
            .collect();
        let mut out: Vec<u32> = Vec::new();
        // Visit the keys whose leading part lies in `[lo, hi]`.
        let mut scan = |lo: Option<&CmKeyPart>, hi: Option<&CmKeyPart>| {
            let start = lo.map_or(Bound::Unbounded, |p| Bound::Included(std::slice::from_ref(p)));
            for (key, buckets) in self.map.range::<[CmKeyPart], _>((start, Bound::Unbounded)) {
                if hi.is_some_and(|h| &key[0] > h) {
                    break;
                }
                if key.iter().zip(&parts).all(|(part, c)| c.matches(part)) {
                    out.extend(buckets.keys().copied());
                }
            }
        };
        match &parts[0] {
            PartConstraint::Any => scan(None, None),
            PartConstraint::Eq(p) => scan(Some(p), Some(p)),
            PartConstraint::Range(lo, hi) => scan(Some(lo), Some(hi)),
            PartConstraint::In(ps) => ps.iter().for_each(|p| scan(Some(p), Some(p))),
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Modeled serialized size in bytes. The paper's prototype stores a
    /// CM as a PostgreSQL table with one row per `(key value, clustered
    /// value)` pair; we model each pair as key bytes + 4 (bucket id) + 4
    /// (count) + 8 row overhead. This is the figure the size-ratio
    /// experiments (Figure 7, Table 5, Table 6) report.
    pub fn size_bytes(&self) -> u64 {
        let mut total = 0u64;
        for (key, buckets) in &self.map {
            let key_bytes: usize = key.iter().map(CmKeyPart::size_bytes).sum();
            total += buckets.len() as u64 * (key_bytes as u64 + 4 + 4 + 8);
        }
        total
    }

    /// Approximate WAL bytes for one maintenance record: the key, the
    /// bucket id, and a small header. Used by the maintenance experiments
    /// to log CM updates (§7.1: comparable recoverability to a B+Tree).
    pub fn wal_record_bytes(&self, row: &[Value]) -> usize {
        self.spec.key_bytes(row) + 4 + 8
    }

    /// Iterate `(key, buckets)` pairs in key order (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = (&CmKey, &BTreeMap<u32, u32>)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CmAttr;
    use cm_storage::{Column, DiskSim, HeapFile, Schema, ValueType};
    use std::sync::Arc;

    /// The heap from Figure 4: people(state, city, salary) clustered on
    /// state.
    fn figure4_heap(disk: &DiskSim) -> HeapFile {
        let schema = Arc::new(Schema::new(vec![
            Column::new("state", ValueType::Str),
            Column::new("city", ValueType::Str),
            Column::new("salary", ValueType::Int),
        ]));
        let rows: Vec<Vec<Value>> = [
            ("MA", "boston", 25),
            ("MA", "boston", 45),
            ("MA", "boston", 50),
            ("MA", "cambridge", 80),
            ("MA", "springfield", 90),
            ("MN", "manchester", 110),
            ("MS", "jackson", 40),
            ("NH", "boston", 60),
            ("NH", "manchester", 60),
            ("OH", "springfield", 95),
            ("OH", "toledo", 70),
        ]
        .iter()
        .map(|(s, c, v)| vec![Value::str(*s), Value::str(*c), Value::Int(*v)])
        .collect();
        HeapFile::bulk_load(disk, schema, rows, 2).unwrap()
    }

    /// One bucket per distinct state (target 1 stretches to value runs).
    fn state_dir(heap: &HeapFile) -> BucketDirectory {
        BucketDirectory::build(heap, 0, 1)
    }

    #[test]
    fn figure4_city_cm_contents() {
        let disk = DiskSim::with_defaults();
        let heap = figure4_heap(&disk);
        let dir = state_dir(&heap);
        let cm = CorrelationMap::build("city_cm", CmSpec::single_raw(1), &heap, |_| true, &dir);
        // Distinct cities: boston, cambridge, springfield, manchester,
        // jackson, toledo.
        assert_eq!(cm.num_keys(), 6);
        // boston -> {MA, NH}: 2 buckets.
        let boston = cm.lookup(&[AttrConstraint::Eq(Value::str("boston"))]);
        assert_eq!(boston.len(), 2);
        // springfield -> {MA, OH}.
        let spring = cm.lookup(&[AttrConstraint::Eq(Value::str("springfield"))]);
        assert_eq!(spring.len(), 2);
        // The query from Figure 4: boston OR springfield -> {MA, NH, OH}.
        let both = cm.lookup_values(&[Value::str("boston"), Value::str("springfield")]);
        assert_eq!(both.len(), 3);
        // jackson -> {MS} only.
        assert_eq!(cm.lookup(&[AttrConstraint::Eq(Value::str("jackson"))]).len(), 1);
    }

    #[test]
    fn lookup_superset_never_misses_tuples() {
        // No false negatives: every tuple matching a predicate lives in a
        // returned bucket.
        let disk = DiskSim::with_defaults();
        let heap = figure4_heap(&disk);
        let dir = state_dir(&heap);
        let cm = CorrelationMap::build("city_cm", CmSpec::single_raw(1), &heap, |_| true, &dir);
        for city in ["boston", "springfield", "manchester", "toledo"] {
            let buckets = cm.lookup(&[AttrConstraint::Eq(Value::str(city))]);
            for rid in (0..heap.len()).map(Rid) {
                let row = heap.peek(rid).unwrap();
                if row[1] == Value::str(city) {
                    assert!(
                        buckets.contains(&dir.bucket_of(rid)),
                        "tuple {rid} with city {city} outside returned buckets"
                    );
                }
            }
        }
    }

    #[test]
    fn co_occurrence_counts_support_delete() {
        let disk = DiskSim::with_defaults();
        let heap = figure4_heap(&disk);
        let dir = state_dir(&heap);
        let mut cm = CorrelationMap::build("city_cm", CmSpec::single_raw(1), &heap, |_| true, &dir);
        // Three Boston/MA tuples: deleting two must keep the mapping.
        let row0 = heap.peek(Rid(0)).unwrap();
        let row1 = heap.peek(Rid(1)).unwrap();
        let row2 = heap.peek(Rid(2)).unwrap();
        assert!(cm.delete(&row0, Rid(0), &dir));
        assert!(cm.delete(&row1, Rid(1), &dir));
        assert_eq!(cm.lookup(&[AttrConstraint::Eq(Value::str("boston"))]).len(), 2);
        // Deleting the last MA boston retracts the MA mapping.
        assert!(cm.delete(&row2, Rid(2), &dir));
        assert_eq!(cm.lookup(&[AttrConstraint::Eq(Value::str("boston"))]).len(), 1);
        // Double delete reports failure.
        assert!(!cm.delete(&row2, Rid(2), &dir));
    }

    #[test]
    fn delete_then_insert_round_trips() {
        let disk = DiskSim::with_defaults();
        let heap = figure4_heap(&disk);
        let dir = state_dir(&heap);
        let mut cm = CorrelationMap::build("city_cm", CmSpec::single_raw(1), &heap, |_| true, &dir);
        let baseline: Vec<u32> = cm.lookup_values(&[Value::str("boston")]);
        let row = heap.peek(Rid(7)).unwrap(); // NH boston
        cm.delete(&row, Rid(7), &dir);
        cm.insert(&row, Rid(7), &dir);
        assert_eq!(cm.lookup_values(&[Value::str("boston")]), baseline);
    }

    #[test]
    fn maintained_cm_equals_rebuilt_cm() {
        let disk = DiskSim::with_defaults();
        let heap = figure4_heap(&disk);
        let dir = state_dir(&heap);
        let mut maintained = CorrelationMap::new("m", CmSpec::single_raw(1));
        for rid in (0..heap.len()).map(Rid) {
            maintained.insert(&heap.peek(rid).unwrap(), rid, &dir);
        }
        let built = CorrelationMap::build("b", CmSpec::single_raw(1), &heap, |_| true, &dir);
        assert_eq!(maintained.num_keys(), built.num_keys());
        assert_eq!(maintained.num_pairs(), built.num_pairs());
        let a: Vec<_> = maintained.iter().collect();
        let b: Vec<_> = built.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bucketed_numeric_cm_compresses() {
        // Price-style column: 10k tuples, price = catid*100 + noise,
        // clustered on catid.
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..10_000i64)
            .map(|i| vec![Value::Int(i / 100), Value::Int(i / 100 * 100 + (i * 7) % 100)])
            .collect();
        let heap = HeapFile::bulk_load_clustered(&disk, schema, rows, 50, 0).unwrap();
        let dir = BucketDirectory::build(&heap, 0, 100);
        let fine = CorrelationMap::build("p0", CmSpec::single_pow2(1, 0), &heap, |_| true, &dir);
        let coarse = CorrelationMap::build("p6", CmSpec::single_pow2(1, 6), &heap, |_| true, &dir);
        assert!(coarse.num_keys() < fine.num_keys() / 10);
        assert!(coarse.size_bytes() < fine.size_bytes() / 10);
        // Coarser CM still finds everything a fine CM finds.
        let q = AttrConstraint::Range(Value::Int(1000), Value::Int(1100));
        let fine_buckets = fine.lookup(std::slice::from_ref(&q));
        let coarse_buckets = coarse.lookup(std::slice::from_ref(&q));
        for b in &fine_buckets {
            assert!(coarse_buckets.contains(b), "coarse CM lost bucket {b}");
        }
    }

    #[test]
    fn composite_cm_is_tighter_than_single() {
        // (x, y) -> z exact; x alone maps to many z.
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("z", ValueType::Int),
            Column::new("x", ValueType::Int),
            Column::new("y", ValueType::Int),
        ]));
        let mut rows = Vec::new();
        for x in 0..20i64 {
            for y in 0..20i64 {
                for rep in 0..3 {
                    let _ = rep;
                    rows.push(vec![Value::Int(x * 20 + y), Value::Int(x), Value::Int(y)]);
                }
            }
        }
        let heap = HeapFile::bulk_load_clustered(&disk, schema, rows, 10, 0).unwrap();
        let dir = BucketDirectory::build(&heap, 0, 3);
        let single = CorrelationMap::build("x", CmSpec::single_raw(1), &heap, |_| true, &dir);
        let comp = CorrelationMap::build(
            "xy",
            CmSpec::new(vec![CmAttr::raw(1), CmAttr::raw(2)]),
            &heap,
            |_| true,
            &dir,
        );
        assert!((comp.avg_cbuckets_per_key() - 1.0).abs() < 1e-9);
        assert!(single.avg_cbuckets_per_key() > 10.0);
        // Composite lookup with both constraints pinned hits one bucket.
        let hit = comp.lookup(&[
            AttrConstraint::Eq(Value::Int(3)),
            AttrConstraint::Eq(Value::Int(4)),
        ]);
        assert_eq!(hit.len(), 1);
        // Constraining only the prefix returns all y-buckets for that x.
        let prefix = comp.lookup(&[AttrConstraint::Eq(Value::Int(3)), AttrConstraint::Any]);
        assert_eq!(prefix.len(), 20);
    }

    #[test]
    fn range_constraints_on_bucketed_keys() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("c", ValueType::Int),
            Column::new("u", ValueType::Int),
        ]));
        let rows: Vec<Vec<Value>> =
            (0..1000i64).map(|i| vec![Value::Int(i / 10), Value::Int(i)]).collect();
        let heap = HeapFile::bulk_load_clustered(&disk, schema, rows, 10, 0).unwrap();
        let dir = BucketDirectory::build(&heap, 0, 10);
        let cm = CorrelationMap::build("u", CmSpec::single_pow2(1, 4), &heap, |_| true, &dir);
        // u in [100, 131]: buckets 6..8 (width 16), i.e. u in [96, 143].
        let buckets = cm.lookup(&[AttrConstraint::Range(Value::Int(100), Value::Int(131))]);
        // Those u values live at rids 96..144 => clustered values 9..14.
        let expected: Vec<u32> = (96 / 10..=143 / 10).map(|c| c as u32).collect();
        assert_eq!(buckets, expected);
    }

    #[test]
    fn size_model_counts_pairs_not_tuples() {
        let disk = DiskSim::with_defaults();
        let heap = figure4_heap(&disk);
        let dir = state_dir(&heap);
        let cm = CorrelationMap::build("city_cm", CmSpec::single_raw(1), &heap, |_| true, &dir);
        // 9 distinct (city, state) pairs in the data.
        assert_eq!(cm.num_pairs(), 9);
        let expected: u64 = cm
            .iter()
            .map(|(k, b)| {
                b.len() as u64 * (k.iter().map(CmKeyPart::size_bytes).sum::<usize>() as u64 + 16)
            })
            .sum();
        assert_eq!(cm.size_bytes(), expected);
        assert!(cm.size_bytes() < 400, "value-granular: tiny for 11 tuples");
    }

    #[test]
    fn empty_cm_lookups_are_empty() {
        let cm = CorrelationMap::new("empty", CmSpec::single_raw(0));
        assert!(cm.lookup(&[AttrConstraint::Eq(Value::Int(1))]).is_empty());
        assert_eq!(cm.avg_cbuckets_per_key(), 0.0);
        assert_eq!(cm.size_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "one constraint per CM key attribute")]
    fn constraint_arity_checked() {
        let cm = CorrelationMap::new("x", CmSpec::single_raw(0));
        cm.lookup(&[]);
    }

    #[test]
    fn wal_record_is_small() {
        let cm = CorrelationMap::new("city_cm", CmSpec::single_raw(1));
        let row = vec![Value::str("MA"), Value::str("boston"), Value::Int(1)];
        let n = cm.wal_record_bytes(&row);
        assert!(n < 64, "CM log records are tiny ({n} bytes)");
    }

    #[test]
    fn wal_record_bytes_is_the_built_key_size() {
        let specs = [
            CmSpec::single_raw(0),
            CmSpec::single_pow2(1, 3),
            CmSpec::new(vec![CmAttr::raw(2), CmAttr::pow2(1, 2), CmAttr::raw(0)]),
        ];
        let rows = [
            vec![Value::str("boston"), Value::Int(77), Value::float(2.5)],
            vec![Value::Null, Value::Null, Value::Date(9)],
            vec![Value::Int(-4), Value::str("not numeric"), Value::Null],
        ];
        for spec in specs {
            let cm = CorrelationMap::new("cm", spec.clone());
            for row in &rows {
                let built: usize = spec.key_of(row).iter().map(CmKeyPart::size_bytes).sum();
                assert_eq!(cm.wal_record_bytes(row), built + 4 + 8, "{spec:?} {row:?}");
            }
        }
    }
}
