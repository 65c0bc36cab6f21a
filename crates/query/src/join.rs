//! Multi-table execution: equi-join vocabulary, the probe-side hash
//! table, and the CM-clamped probe scan.
//!
//! A join here is a **partitioned hash join** over two range-partitioned
//! tables: the smaller side's shard legs stream their filtered rows into
//! one [`JoinHashTable`] (build phase), then the larger side's shard
//! legs scan and probe it (probe phase). Both phases fan out on the
//! engine's executor exactly like single-table legs.
//!
//! The paper's angle enters at the probe: when the probe table carries a
//! CM on the join column and the column correlates with the clustered
//! key, the engine can *clamp* the probe scan to the clustered bucket
//! ranges the build keys co-cluster with ([`Table::exec_cm_clamp_visit`])
//! instead of sweeping the whole heap — the CM-guided scan of §5.2
//! driven by an `IN`-list of build-side keys, priced against the full
//! scan by [`cm_cost::CostParams::cost_cm_join_probe`] so the planner
//! picks per query.

use crate::error::QueryError;
use crate::exec::{clamp_constraints, rows_of, ExecContext, RunResult};
use crate::kernel::{Dense, PageFilter, Slots, Sparse};
use crate::predicate::{Pred, Query};
use crate::table::Table;
use cm_storage::{FxHashMap, HeapFile, PageRef, Row, Value};
use std::fmt;

/// A single-column equi-join between two tables, each side optionally
/// pre-filtered by a conjunctive predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// Join column on the left table.
    pub left_col: usize,
    /// Join column on the right table.
    pub right_col: usize,
    /// Filter applied to left rows before joining.
    pub left_filter: Query,
    /// Filter applied to right rows before joining.
    pub right_filter: Query,
}

impl JoinQuery {
    /// `left.left_col = right.right_col`, unfiltered.
    pub fn on(left_col: usize, right_col: usize) -> Self {
        JoinQuery {
            left_col,
            right_col,
            left_filter: Query::default(),
            right_filter: Query::default(),
        }
    }

    /// Filter the left side before joining.
    pub fn filter_left(mut self, q: Query) -> Self {
        self.left_filter = q;
        self
    }

    /// Filter the right side before joining.
    pub fn filter_right(mut self, q: Query) -> Self {
        self.right_filter = q;
        self
    }
}

/// Which input of a join an operator refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The left input.
    Left,
    /// The right input.
    Right,
}

/// How the probe phase reads its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Planner-chosen scan of the probe side, probing the hash table
    /// row by row (the classic hash join).
    Hash,
    /// CM-clamped probe through the probe table's CM `id`: the distinct
    /// build keys become an `IN` constraint on the CM, and only the
    /// co-clustered bucket ranges are swept.
    CmClamp(usize),
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinStrategy::Hash => write!(f, "hash"),
            JoinStrategy::CmClamp(id) => write!(f, "cm-clamp({id})"),
        }
    }
}

/// The build side of a partitioned hash join: every filtered build row,
/// hashed by its join-key value with [`cm_storage::FxHasher`] (the probe
/// hashes every probe row, so SipHash would cost more than the lookup).
/// Rows with a NULL join key are dropped at insert — a SQL NULL never
/// equals anything, so they can never produce output.
#[derive(Debug, Default)]
pub struct JoinHashTable {
    rows: Vec<Row>,
    map: FxHashMap<Value, Vec<u32>>,
}

impl JoinHashTable {
    /// An empty table.
    pub fn new() -> Self {
        JoinHashTable::default()
    }

    /// Add one build row under its join-key value (in deterministic
    /// build order: ascending build shard, scan order within the shard).
    /// NULL keys are discarded.
    pub fn insert(&mut self, key: &Value, row: Row) {
        if key.is_null() {
            return;
        }
        post(&mut self.map, key, self.rows.len() as u32);
        self.rows.push(row);
    }

    /// [`JoinHashTable::insert`] keyed by the row's own column `col`, for
    /// a caller that would otherwise clone the key out of the row to
    /// hand both over.
    pub fn insert_keyed(&mut self, col: usize, row: Row) {
        if row[col].is_null() {
            return;
        }
        post(&mut self.map, &row[col], self.rows.len() as u32);
        self.rows.push(row);
    }

    /// Row indices matching a probe key (empty for NULL — NULL never
    /// joins).
    pub fn probe(&self, key: &Value) -> &[u32] {
        if key.is_null() {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A stored build row.
    pub fn row(&self, idx: u32) -> &Row {
        &self.rows[idx as usize]
    }

    /// Build rows stored (NULL-keyed rows excluded).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no build row survived.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of distinct join-key values.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// The distinct join-key values, ascending — the deterministic
    /// `IN`-list the CM-clamped probe feeds to the probe table's CM.
    pub fn sorted_keys(&self) -> Vec<Value> {
        let mut keys: Vec<Value> = self.map.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// The build keys translated once into column `col` of `heap` —
    /// payloads, float order keys or dictionary codes
    /// ([`cm_storage::key_bits`]) — so a probe leg matches that heap's
    /// pages without materialising a probe value. Keys of another type,
    /// and strings the heap never stored, can match nothing and drop out.
    pub fn key_probe(&self, heap: &HeapFile, col: usize) -> KeyProbe<'_> {
        let map: FxHashMap<u64, &[u32]> = self
            .map
            .iter()
            .filter_map(|(k, rows)| Some((heap.key_bits_of(col, k)?, rows.as_slice())))
            .collect();
        let filter = KeyFilter::new(map.keys().copied(), map.len());
        KeyProbe { col, map, filter }
    }
}

/// Record build row `idx` under `key`, cloning the key only when it is
/// new to the table.
fn post(map: &mut FxHashMap<Value, Vec<u32>>, key: &Value, idx: u32) {
    match map.get_mut(key) {
        Some(postings) => postings.push(idx),
        None => {
            map.insert(key.clone(), vec![idx]);
        }
    }
}

/// A [`JoinHashTable`]'s keys in one probe column's representation
/// ([`JoinHashTable::key_probe`]), probed a page batch at a time in two
/// phases: [`KeyProbe::hits`] runs the Bloom filter over the batch's
/// key column, and [`KeyProbe::partners`] looks up the few words that
/// pass. What a hit becomes — a count, or output rows built a batch at a
/// time — is the caller's loop, outside the filter's.
pub struct KeyProbe<'a> {
    col: usize,
    map: FxHashMap<u64, &'a [u32]>,
    filter: KeyFilter,
}

/// A one-hash Bloom filter over a probe's key words, so most probe rows
/// of a small build side are turned away by a multiply, a shift and one
/// bit test instead of a hash lookup. 64 bits a key, at least 1 024 and
/// at most 2^16: a handful of build keys take 128 bytes and let about
/// one other word in 170 through.
struct KeyFilter {
    bits: Vec<u64>,
    /// A word's bit is the top `64 - shift` bits of its Fibonacci hash.
    shift: u32,
}

impl KeyFilter {
    fn new(keys: impl Iterator<Item = u64>, n: usize) -> Self {
        let len = (n * 64).next_power_of_two().clamp(1 << 10, 1 << 16);
        let mut filter = KeyFilter {
            bits: vec![0; len / 64],
            shift: 64 - len.trailing_zeros(),
        };
        for word in keys {
            let bit = filter.bit(word);
            filter.bits[bit / 64] |= 1 << (bit % 64);
        }
        filter
    }

    #[inline(always)]
    fn bit(&self, word: u64) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Whether `word` may be a key (false positives, no false negatives).
    #[inline(always)]
    fn may_hold(&self, word: u64) -> bool {
        let bit = self.bit(word);
        self.bits[bit / 64] >> (bit % 64) & 1 != 0
    }
}

impl KeyProbe<'_> {
    /// The probe's first phase: replace `hits` with `(slot, word)` for
    /// each slot of `sel` (on `page`), in slot order, whose join-key word
    /// passes the Bloom filter. The loop does nothing else, so it stays
    /// tight; [`KeyProbe::partners`] then resolves each word. A NULL key
    /// never joins. A selection that covers the whole page is read
    /// straight off the column slice.
    pub fn hits(&self, page: PageRef<'_>, sel: &[u32], hits: &mut Vec<(u32, u64)>) {
        hits.clear();
        if sel.len() == page.len() {
            self.hits_in(page, Dense(sel.len()), hits);
        } else {
            self.hits_in(page, Sparse(sel), hits);
        }
    }

    fn hits_in(&self, page: PageRef<'_>, slots: impl Slots, hits: &mut Vec<(u32, u64)>) {
        slots.words(page.column(self.col), page.nulls(self.col), |k, word| {
            if self.filter.may_hold(word) {
                hits.push((slots.slot(k) as u32, word));
            }
        });
    }

    /// The probe's second phase: the build rows (indices into the
    /// [`JoinHashTable`], in build order) whose key has word `word`;
    /// empty for a Bloom false positive.
    #[inline]
    pub fn partners(&self, word: u64) -> &[u32] {
        self.map.get(&word).copied().unwrap_or(&[])
    }
}

impl Table {
    /// CM-clamped probe scan: the CM-guided scan of §5.2 driven by a
    /// join's build keys instead of a query predicate.
    ///
    /// 1. Constrain CM attribute `probe_col` to `IN keys` (the distinct
    ///    build-side join keys) — other CM attributes take their
    ///    constraint from `q`, as a regular CM scan would.
    /// 2. Descend the clustered index once per returned bucket and sweep
    ///    the merged bucket page ranges as vectored runs (identical I/O
    ///    shape and pricing to [`Table::exec_cm_scan_visit`]).
    /// 3. Re-filter every visible row against `q` **and** exact key
    ///    membership (`probe_col IN keys`, one more kernel) — bucketing
    ///    introduces false positives, never false negatives — and hand
    ///    each page's survivors to `on_batch` (the engine's hash-table
    ///    probe, now guaranteed to hit).
    ///
    /// `matched` counts probe rows that passed both filters (each may
    /// join with several build rows; output cardinality is the caller's
    /// business). A CM id the table does not have, or a column past its
    /// arity, is a [`QueryError`].
    pub fn exec_cm_clamp_batches(
        &self,
        ctx: &ExecContext<'_>,
        cm_id: usize,
        q: &Query,
        probe_col: usize,
        keys: &[Value],
        mut on_batch: impl FnMut(PageRef<'_>, &[u32]),
    ) -> Result<RunResult, QueryError> {
        let before = ctx.disk.stats();
        let mut clamped = q.clone();
        clamped.preds.push(Pred::is_in(probe_col, keys.to_vec()));
        let mut filter = PageFilter::compile(&clamped, self.heap())?;
        let cm = self.cms().get(cm_id).ok_or(QueryError::UnknownCm { id: cm_id })?;
        let buckets = cm.lookup(&clamp_constraints(cm.spec(), q, probe_col, keys));

        let mut matched = 0u64;
        let mut examined = 0u64;
        let mut visit = |page: PageRef<'_>, sel: &[u32]| {
            matched += sel.len() as u64;
            on_batch(page, sel);
        };
        for (lo, hi) in self.cm_bucket_runs(ctx.io, &buckets) {
            examined += self
                .sweep_run(ctx, &mut filter, lo, hi, &mut visit)
                .expect("bucket pages in range");
        }
        Ok(RunResult { matched, examined, io: ctx.disk.stats().since(&before) })
    }

    /// [`Table::exec_cm_clamp_batches`] handing each match on as a row.
    /// Panics on a CM id the table does not have.
    pub fn exec_cm_clamp_visit(
        &self,
        ctx: &ExecContext<'_>,
        cm_id: usize,
        q: &Query,
        probe_col: usize,
        keys: &[Value],
        on_match: impl FnMut(&[Value]),
    ) -> RunResult {
        self.exec_cm_clamp_batches(ctx, cm_id, q, probe_col, keys, rows_of(on_match))
            .expect("CM id in range")
    }

    /// The id of a CM usable for clamping a probe on `col` — one whose
    /// key includes `col` as an attribute. Single-attribute CMs are
    /// preferred (a composite key would constrain the other attributes
    /// too loosely).
    pub fn clamp_cm_for(&self, col: usize) -> Option<usize> {
        let usable = |id: &usize| {
            self.cms()[*id]
                .spec()
                .attrs()
                .iter()
                .any(|a| a.col == col)
        };
        (0..self.cms().len())
            .find(|id| usable(id) && self.cms()[*id].spec().arity() == 1)
            .or_else(|| (0..self.cms().len()).find(usable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pred;
    use cm_core::CmSpec;
    use cm_storage::{Column, DiskSim, FxHashSet, Schema, ValueType};
    use std::sync::Arc;

    /// catid-clustered table with price correlated to catid.
    fn demo(disk: &Arc<DiskSim>) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
        ]));
        let rows: Vec<Row> = (0..20_000i64)
            .map(|i| {
                let cat = i % 100;
                vec![Value::Int(cat), Value::Int(cat * 100 + (i * 17) % 100)]
            })
            .collect();
        Table::build(disk, schema, rows, 20, 0, 400).unwrap()
    }

    #[test]
    fn hash_table_groups_duplicates_and_drops_nulls() {
        let mut ht = JoinHashTable::new();
        ht.insert(&Value::Int(1), vec![Value::Int(1), Value::Int(10)]);
        ht.insert(&Value::Int(1), vec![Value::Int(1), Value::Int(11)]);
        ht.insert_keyed(0, vec![Value::Int(2), Value::Int(20)]);
        ht.insert(&Value::Null, vec![Value::Null, Value::Int(99)]);
        ht.insert_keyed(0, vec![Value::Null, Value::Int(98)]);
        assert_eq!(ht.len(), 3);
        assert_eq!(ht.num_keys(), 2);
        assert_eq!(ht.probe(&Value::Int(1)).len(), 2);
        assert_eq!(ht.probe(&Value::Int(7)).len(), 0);
        assert_eq!(ht.probe(&Value::Null).len(), 0, "NULL never joins");
        assert_eq!(ht.sorted_keys(), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(ht.row(2), &vec![Value::Int(2), Value::Int(20)]);
    }

    #[test]
    fn clamp_visit_equals_filtered_scan_membership() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let cm = t.add_cm("price_cm", CmSpec::single_raw(1));
        let keys = vec![Value::Int(117), Value::Int(4242), Value::Int(999_999)];
        let q = Query::default();
        let ctx = ExecContext::cold(&disk);

        let mut via_clamp: Vec<Row> = Vec::new();
        let r = t.exec_cm_clamp_visit(&ctx, cm, &q, 1, &keys, |row| {
            via_clamp.push(row.to_vec());
        });

        let key_set: FxHashSet<&Value> = keys.iter().collect();
        let mut via_scan: Vec<Row> = Vec::new();
        let full = t.exec_full_scan_visit(&ctx, &q, |row| {
            if key_set.contains(&row[1]) {
                via_scan.push(row.to_vec());
            }
        });
        via_clamp.sort();
        via_scan.sort();
        assert_eq!(via_clamp, via_scan);
        assert_eq!(r.matched as usize, via_clamp.len());
        assert!(
            r.io.pages() < full.io.pages() / 3,
            "clamp sweeps co-clustered runs only: {} vs {} pages",
            r.io.pages(),
            full.io.pages()
        );
    }

    #[test]
    fn key_probe_matches_value_equality() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("f", ValueType::Float),
            Column::new("s", ValueType::Str),
        ]));
        let rows: Vec<Row> = [(0.0, "a"), (-0.0, "b"), (f64::NAN, "a"), (1.5, "c")]
            .iter()
            .map(|&(f, s)| vec![Value::float(f), Value::str(s)])
            .chain([vec![Value::Null, Value::Null]])
            .collect();
        let heap = cm_storage::HeapFile::bulk_load(&disk, schema, rows.clone(), 8).unwrap();
        let mut ht = JoinHashTable::new();
        for key in [Value::float(-0.0), Value::float(f64::NAN), Value::Int(1), Value::str("c")] {
            ht.insert(&key, vec![key.clone()]);
        }
        ht.insert(&Value::str("zz"), vec![]);
        let page = heap.read_page(disk.as_ref(), 0).unwrap();
        let sel: Vec<u32> = (0..5).collect();
        let mut hits = Vec::new();
        for col in [0, 1] {
            let keys = ht.key_probe(&heap, col);
            keys.hits(page, &sel, &mut hits);
            let got: Vec<(u32, Vec<u32>)> = hits
                .iter()
                .map(|&(s, word)| (s, keys.partners(word).to_vec()))
                .filter(|(_, idx)| !idx.is_empty())
                .collect();
            let want: Vec<(u32, Vec<u32>)> = (0..5u32)
                .map(|s| (s, ht.probe(&rows[s as usize][col]).to_vec()))
                .filter(|(_, idx)| !idx.is_empty())
                .collect();
            assert_eq!(got, want, "column {col}");
        }
    }

    #[test]
    fn clamp_respects_extra_filter() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let cm = t.add_cm("price_cm", CmSpec::single_raw(1));
        // Every cat-42 row carries price 4214; price 117 lives under cat 1.
        let keys = vec![Value::Int(117), Value::Int(4214)];
        // Extra filter on the clustered column: only cat 42 survives.
        let q = Query::single(Pred::eq(0, 42i64));
        let ctx = ExecContext::cold(&disk);
        let mut rows: Vec<Row> = Vec::new();
        t.exec_cm_clamp_visit(&ctx, cm, &q, 1, &keys, |row| rows.push(row.to_vec()));
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r[0] == Value::Int(42) && r[1] == Value::Int(4214)));
    }

    #[test]
    fn clamp_cm_prefers_single_attribute() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let composite =
            t.add_cm("both", CmSpec::new(vec![cm_core::CmAttr::raw(0), cm_core::CmAttr::raw(1)]));
        assert_eq!(t.clamp_cm_for(1), Some(composite), "composite usable as fallback");
        let single = t.add_cm("price", CmSpec::single_raw(1));
        assert_eq!(t.clamp_cm_for(1), Some(single), "single-attr CM preferred");
        assert_eq!(t.clamp_cm_for(5), None);
    }
}
