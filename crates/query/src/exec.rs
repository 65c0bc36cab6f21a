//! The four physical access paths.
//!
//! Each executor charges page accesses through an [`ExecContext`] and
//! reports the simulated I/O it caused. "Runtime" in every reproduced
//! figure is the simulated elapsed milliseconds of the access pattern,
//! priced with the paper's Table 1 constants by
//! [`cm_storage::DiskSim`].

use crate::error::QueryError;
use crate::kernel::PageFilter;
use crate::plan::AccessPath;
use crate::predicate::{PredOp, Query};
use crate::table::Table;
use cm_core::AttrConstraint;
use cm_index::IndexKey;
use cm_storage::{DiskSim, IoStats, PageAccessor, PageRef, ReadCache, Rid, Snapshot, Value};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// Where an execution charges I/O, reads its clock, and (under MVCC)
/// which snapshot decides row visibility.
pub struct ExecContext<'a> {
    /// The simulated disk (source of truth for elapsed time).
    pub disk: &'a Arc<DiskSim>,
    /// Charging target: the disk itself (cold runs, as in the paper's
    /// flushed-cache experiments) or a buffer pool (warm / mixed
    /// workloads).
    pub io: &'a dyn PageAccessor,
    /// MVCC read snapshot. `None` (the non-MVCC engine mode) reads
    /// everything the heap holds — the pre-MVCC behaviour, where
    /// exclusion is the shard lock's job.
    pub snap: Option<&'a Snapshot>,
    /// The heap pages the run may visit ([`ALL_PAGES`] by default): every
    /// access path reads only its pages inside this window, so a search
    /// can cover a large heap a window at a time.
    pub pages: Range<u64>,
}

/// The page window that admits every heap page.
pub const ALL_PAGES: Range<u64> = 0..u64::MAX;

impl<'a> ExecContext<'a> {
    /// Charge straight to the disk (cold cache).
    pub fn cold(disk: &'a Arc<DiskSim>) -> Self {
        ExecContext { disk, io: disk, snap: None, pages: ALL_PAGES }
    }

    /// Charge through an arbitrary accessor (e.g. a buffer pool).
    pub fn through(disk: &'a Arc<DiskSim>, io: &'a dyn PageAccessor) -> Self {
        ExecContext { disk, io, snap: None, pages: ALL_PAGES }
    }

    /// Read at an MVCC snapshot: rows whose version is not visible to
    /// `snap` are filtered at visit time in every access path.
    pub fn at_snapshot(mut self, snap: &'a Snapshot) -> Self {
        self.snap = Some(snap);
        self
    }
}

/// Outcome of one query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Rows satisfying the query.
    pub matched: u64,
    /// Rows examined (matched + false positives the path had to filter).
    pub examined: u64,
    /// I/O charged to the simulated disk during the run.
    pub io: IoStats,
}

impl RunResult {
    /// Simulated elapsed milliseconds.
    pub fn ms(&self) -> f64 {
        self.io.elapsed_ms
    }

    /// Add `other`'s rows and I/O to this run.
    pub fn add(&mut self, other: &RunResult) {
        self.matched += other.matched;
        self.examined += other.examined;
        self.io.add(&other.io);
    }
}

impl Table {
    /// Run access path `path` for `q`, handing the matches visible at
    /// `ctx.snap` to `on_batch` a page at a time: the page and the slots
    /// selected on it, in slot order. This is the one dispatch every
    /// engine leg executes through. `q` is compiled once into column
    /// kernels ([`PageFilter`]); each swept page's selection vector comes
    /// from the kernels, then the slot stamps filter it. A page with no
    /// match is not handed on. A path naming a secondary index or CM
    /// this table does not have, a secondary path with no predicate on
    /// the index's first key column, or a predicate past the table's
    /// arity is a [`QueryError`], not a panic.
    ///
    /// The scan-shaped paths (full, sorted, CM) sweep their pages as
    /// vectored runs; the pipelined path deliberately keeps per-fetch
    /// charging (the paper's §3.1 model), handing each fetched match on
    /// as a one-slot selection.
    pub fn exec_batches(
        &self,
        ctx: &ExecContext<'_>,
        path: AccessPath,
        q: &Query,
        mut on_batch: impl FnMut(PageRef<'_>, &[u32]),
    ) -> Result<RunResult, QueryError> {
        let before = ctx.disk.stats();
        let mut filter = PageFilter::compile(q, self.heap())?;
        let mut matched = 0u64;
        let mut visit = |page: PageRef<'_>, sel: &[u32]| {
            matched += sel.len() as u64;
            on_batch(page, sel);
        };
        let mut sweep = |lo: u64, hi: u64| {
            self.sweep_run(ctx, &mut filter, lo, hi, &mut visit)
                .expect("swept pages in range")
        };
        let examined = match path {
            // The whole heap is one vectored run: a single seek plus
            // sequential pages, atomic against concurrent sessions.
            AccessPath::FullScan => {
                self.heap().num_pages().checked_sub(1).map_or(0, |last| sweep(0, last))
            }
            AccessPath::SecondarySorted(id) => {
                // Index pages (notably upper levels) are cached within the
                // query, as PostgreSQL's shared buffers would; the heap
                // sweep is not.
                let rids = self.secondary_rids(&ReadCache::new(ctx.io), id, q)?;
                let mut pages: Vec<u64> = rids.iter().map(|&r| self.heap().page_of(r)).collect();
                pages.sort_unstable();
                pages.dedup();
                // Maximal contiguous runs, one vectored read each:
                // co-located results price one seek per run even under
                // concurrent sessions.
                let mut examined = 0;
                cm_storage::for_each_page_run(&pages, |lo, hi| examined += sweep(lo, hi));
                examined
            }
            AccessPath::SecondaryPipelined(id) => {
                // Pipelined probes are deliberately uncached: the paper's
                // model charges every lookup a full descent (§3.1).
                let mut rids = self.secondary_rids(ctx.io, id, q)?;
                rids.retain(|&rid| ctx.pages.contains(&self.heap().page_of(rid)));
                let mut sel = Vec::with_capacity(1);
                for &rid in &rids {
                    let (page, slot) = self.heap().fetch_page(ctx.io, rid).expect("index rid valid");
                    sel.clear();
                    sel.push(slot);
                    filter.narrow(page, &mut sel);
                    self.retain_visible(ctx.snap, page, &mut sel);
                    if !sel.is_empty() {
                        visit(page, &sel);
                    }
                }
                rids.len() as u64
            }
            AccessPath::CmScan(id) => {
                let cm = self.cms().get(id).ok_or(QueryError::UnknownCm { id })?;
                let buckets = cm.lookup(&cm_constraints(cm.spec(), q));
                let runs = self.cm_bucket_runs(ctx.io, &buckets);
                runs.into_iter().map(|(lo, hi)| sweep(lo, hi)).sum()
            }
        };
        Ok(RunResult { matched, examined, io: ctx.disk.stats().since(&before) })
    }

    /// Access path 1: full sequential scan (§3), with a visitor over
    /// matching rows. Panics on a predicate past the table's arity
    /// ([`Table::exec_batches`] reports it).
    pub fn exec_full_scan_visit(
        &self,
        ctx: &ExecContext<'_>,
        q: &Query,
        on_match: impl FnMut(&[Value]),
    ) -> RunResult {
        self.exec_batches(ctx, AccessPath::FullScan, q, rows_of(on_match))
            .expect("a full scan uses no access structure")
    }

    /// Gather the RIDs a secondary index yields for the query's predicate
    /// on its key (charging index I/O). Composite indexes use an
    /// all-equality composite probe when possible, otherwise fall back to
    /// a range over the first (prefix) column — exactly the prefix
    /// limitation of composite B+Trees that Experiment 5 exposes.
    ///
    /// Errors (instead of panicking) when the index does not exist or the
    /// query has no predicate on its first key column — an unusable
    /// forced path.
    fn secondary_rids(
        &self,
        io: &dyn PageAccessor,
        sec_id: usize,
        q: &Query,
    ) -> Result<Vec<Rid>, QueryError> {
        let sec =
            self.secondaries().get(sec_id).ok_or(QueryError::UnknownIndex { id: sec_id })?;
        let cols = sec.cols();
        // All-equality composite probe.
        let eq_vals: Option<Vec<Value>> = cols
            .iter()
            .map(|&c| match q.pred_on(c).map(|p| &p.op) {
                Some(PredOp::Eq(v)) => Some(v.clone()),
                _ => None,
            })
            .collect();
        if let Some(vals) = eq_vals {
            return Ok(sec.probe(io, &IndexKey::composite(vals)).to_vec());
        }
        // Otherwise only the first (prefix) key column can narrow the
        // scan — the composite-index limitation Experiment 5 exposes.
        let first = cols[0];
        let rids = match q.pred_on(first).map(|p| &p.op) {
            Some(PredOp::Eq(v)) => sec.probe_first_col_range(io, v, v),
            Some(PredOp::In(vs)) => {
                // Duplicate IN values probe the same postings; dedup the
                // RIDs (preserving probe order, so the pipelined path's
                // access pattern is otherwise unchanged) rather than
                // fetching the same heap rows twice.
                let mut seen: HashSet<Rid> = HashSet::new();
                let mut rids = Vec::new();
                for v in vs {
                    for rid in sec.probe_first_col_range(io, v, v) {
                        if seen.insert(rid) {
                            rids.push(rid);
                        }
                    }
                }
                rids
            }
            Some(PredOp::Between(lo, hi)) => sec.probe_first_col_range(io, lo, hi),
            None => {
                return Err(QueryError::NoIndexPredicate {
                    index: sec.name().to_string(),
                    col: first,
                })
            }
        };
        Ok(rids)
    }

    /// Access path 2: pipelined secondary index scan (§3.1): every
    /// posting triggers an uncoordinated heap fetch. The visitor gets
    /// every matching row.
    pub fn exec_secondary_pipelined_visit(
        &self,
        ctx: &ExecContext<'_>,
        sec_id: usize,
        q: &Query,
        on_match: impl FnMut(&[Value]),
    ) -> Result<RunResult, QueryError> {
        self.exec_batches(ctx, AccessPath::SecondaryPipelined(sec_id), q, rows_of(on_match))
    }

    /// Access path 3: sorted (bitmap) secondary index scan (§3.2):
    /// collect RIDs, sort and deduplicate their pages, then sweep the
    /// heap in page order so co-located results cost sequential reads.
    /// The visitor gets every matching row.
    pub fn exec_secondary_sorted_visit(
        &self,
        ctx: &ExecContext<'_>,
        sec_id: usize,
        q: &Query,
        on_match: impl FnMut(&[Value]),
    ) -> Result<RunResult, QueryError> {
        self.exec_batches(ctx, AccessPath::SecondarySorted(sec_id), q, rows_of(on_match))
    }

    /// Access path 4: CM-guided scan (§5.2, Figure 4).
    ///
    /// 1. `cm_lookup` on the memory-resident CM → candidate clustered
    ///    buckets (no I/O — the CM fits in RAM, the paper's core claim).
    /// 2. One clustered-index descent per bucket (the
    ///    `seek · btree_height` term of the cost model; the paper's
    ///    prototype reaches the same pattern by rewriting the query with
    ///    an `IN` list over the clustered attribute).
    /// 3. A page-ordered sweep of the merged bucket ranges, re-filtering
    ///    every row against the original predicate — bucketing introduces
    ///    false positives, never false negatives.
    ///
    /// The visitor gets every matching row. Panics on a CM id the table
    /// does not have ([`Table::exec_batches`] reports it).
    pub fn exec_cm_scan_visit(
        &self,
        ctx: &ExecContext<'_>,
        cm_id: usize,
        q: &Query,
        on_match: impl FnMut(&[Value]),
    ) -> RunResult {
        self.exec_batches(ctx, AccessPath::CmScan(cm_id), q, rows_of(on_match))
            .expect("CM id in range")
    }

    /// The page runs a CM lookup's `buckets` cover, after charging one
    /// clustered-index descent per bucket, keyed by the clustered value
    /// stored in the bucket's first slot (a deleted row keeps its
    /// values, so a delete does not move the descent). Upper index
    /// levels are cached within the query (adjacent buckets share
    /// leaves, so contiguous lookups charge little beyond the first).
    /// Each merged range is a maximal contiguous run, swept with one
    /// vectored read, so the CM's central promise — a few sequential
    /// clustered ranges — holds its sequential pricing even when
    /// concurrent sessions share the shard disk.
    pub(crate) fn cm_bucket_runs(&self, io: &dyn PageAccessor, buckets: &[u32]) -> Vec<(u64, u64)> {
        let index_io = ReadCache::new(io);
        for &b in buckets {
            let (start, _) = self.dir().rid_range(b);
            let key = self.heap().value(Rid(start), self.clustered_col());
            self.clustered().charge_probe(&index_io, &key.expect("bucket start valid"));
        }
        // Adjacent buckets share boundary pages.
        merge_page_ranges(buckets.iter().map(|&b| self.dir().page_range(b)).collect())
    }
}

/// A batch visitor that hands each selected slot on as a row, built
/// into one reused buffer: the materialising adapter behind the
/// `exec_*_visit` wrappers.
pub(crate) fn rows_of(mut on_match: impl FnMut(&[Value])) -> impl FnMut(PageRef<'_>, &[u32]) {
    let mut row = Vec::new();
    move |page, sel| {
        for &s in sel {
            page.row_into(s as usize, &mut row);
            on_match(&row);
        }
    }
}

/// Merge inclusive page ranges into maximal contiguous runs: sorted,
/// with ranges that touch or overlap (`lo <= prev_hi + 1`) coalesced.
/// This is *the* unit of CM-guided I/O — every executor sweep issues
/// one vectored read per merged run, and the cost model prices a
/// clamped probe by run count, so both sides must merge identically.
pub fn merge_page_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match merged.last_mut() {
            Some((_, mhi)) if lo <= *mhi + 1 => *mhi = (*mhi).max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// Translate the query's predicates into per-attribute CM constraints
/// (attributes without a predicate become `Any`; predicates on columns
/// outside the CM key are applied by the row re-filter).
pub fn cm_constraints(spec: &cm_core::CmSpec, q: &Query) -> Vec<AttrConstraint> {
    spec.attrs()
        .iter()
        .map(|attr| match q.pred_on(attr.col).map(|p| &p.op) {
            Some(PredOp::Eq(v)) => AttrConstraint::Eq(v.clone()),
            Some(PredOp::In(vs)) => AttrConstraint::In(vs.clone()),
            Some(PredOp::Between(lo, hi)) => AttrConstraint::Range(lo.clone(), hi.clone()),
            None => AttrConstraint::Any,
        })
        .collect()
}

/// [`cm_constraints`] for a CM-clamped join probe: the attribute on
/// `probe_col` takes `IN keys` (the build side's distinct join keys);
/// every other attribute takes its constraint from `q`.
pub fn clamp_constraints(
    spec: &cm_core::CmSpec,
    q: &Query,
    probe_col: usize,
    keys: &[Value],
) -> Vec<AttrConstraint> {
    spec.attrs()
        .iter()
        .zip(cm_constraints(spec, q))
        .map(|(attr, from_q)| {
            if attr.col == probe_col {
                AttrConstraint::In(keys.to_vec())
            } else {
                from_q
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pred;
    use cm_core::{CmAttr, CmSpec};
    use cm_storage::{Column, Schema, ValueType};

    /// catid-clustered table where price is strongly correlated with
    /// catid and `tag` is uncorrelated.
    fn demo(disk: &Arc<DiskSim>) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
            Column::new("tag", ValueType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..40_000i64)
            .map(|i| {
                let cat = i % 100;
                vec![
                    Value::Int(cat),
                    Value::Int(cat * 100 + (i * 17) % 100),
                    Value::Int((i * 31) % 97),
                ]
            })
            .collect();
        // 100 cats × 400 tuples; one bucket per cat (20 pages each).
        Table::build(disk, schema, rows, 20, 0, 400).unwrap()
    }

    /// Run `path` for `q` without a visitor.
    fn run(
        t: &Table,
        ctx: &ExecContext<'_>,
        path: AccessPath,
        q: &Query,
    ) -> Result<RunResult, QueryError> {
        t.exec_batches(ctx, path, q, |_, _| {})
    }

    fn count_by_scan(t: &Table, disk: &Arc<DiskSim>, q: &Query) -> u64 {
        let ctx = ExecContext::cold(disk);
        run(t, &ctx, AccessPath::FullScan, q).unwrap().matched
    }

    #[test]
    fn all_paths_agree_on_matched_count() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price", vec![1]);
        let cm = t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 5)]));
        let queries = [
            Query::single(Pred::eq(1, 4217i64)),
            Query::single(Pred::between(1, 4200i64, 4400i64)),
            Query::single(Pred::is_in(
                1,
                vec![Value::Int(100), Value::Int(4217), Value::Int(9999)],
            )),
            Query::new(vec![Pred::between(1, 0i64, 500i64), Pred::eq(2, 5i64)]),
        ];
        for q in &queries {
            let truth = count_by_scan(&t, &disk, q);
            let ctx = ExecContext::cold(&disk);
            for path in [
                AccessPath::SecondarySorted(sec),
                AccessPath::SecondaryPipelined(sec),
                AccessPath::CmScan(cm),
            ] {
                assert_eq!(run(&t, &ctx, path, q).unwrap().matched, truth, "{path:?} {q:?}");
            }
        }
    }

    #[test]
    fn deleting_bucket_starts_leaves_cm_scan_io_unchanged() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        // `tag` is uncorrelated: the lookup names every bucket.
        let cm = t.add_cm("tag_cm", CmSpec::single_raw(2));
        let q = Query::single(Pred::eq(2, 5i64));
        let ctx = ExecContext::cold(&disk);
        // Each run starts from a reset disk, so its sim-ms is summed the
        // same way.
        disk.reset();
        let before = run(&t, &ctx, AccessPath::CmScan(cm), &q).unwrap();
        let starts: Vec<Rid> = t.dir().iter().map(|(_, (lo, _))| Rid(lo)).collect();
        assert_eq!(starts.len(), 100);
        for &rid in &starts {
            t.delete_row(disk.as_ref(), None, rid).unwrap();
        }
        // Each clustered-index descent is keyed by the bucket's first
        // slot, whose values a delete leaves in place.
        disk.reset();
        let after = run(&t, &ctx, AccessPath::CmScan(cm), &q).unwrap();
        assert_eq!(after.io, before.io);
        assert_eq!(after.examined, before.examined);
    }

    #[test]
    fn full_scan_is_sequential() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let ctx = ExecContext::cold(&disk);
        let r = run(&t, &ctx, AccessPath::FullScan, &Query::single(Pred::eq(1, 1i64))).unwrap();
        assert_eq!(r.io.seeks, 1, "one initial seek");
        assert_eq!(r.io.seq_reads, t.heap().num_pages() - 1);
        assert_eq!(r.examined, t.heap().len());
    }

    #[test]
    fn sorted_scan_beats_pipelined_on_correlated_range() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price", vec![1]);
        let q = Query::single(Pred::between(1, 2000i64, 2500i64));
        let ctx = ExecContext::cold(&disk);
        let sorted = run(&t, &ctx, AccessPath::SecondarySorted(sec), &q).unwrap();
        let pipelined = run(&t, &ctx, AccessPath::SecondaryPipelined(sec), &q).unwrap();
        assert!(sorted.ms() < pipelined.ms() / 2.0, "{} vs {}", sorted.ms(), pipelined.ms());
    }

    #[test]
    fn cm_scan_examines_superset_but_matches_exactly() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let cm = t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 8)]));
        let q = Query::single(Pred::between(1, 4200i64, 4300i64));
        let ctx = ExecContext::cold(&disk);
        let r = run(&t, &ctx, AccessPath::CmScan(cm), &q).unwrap();
        let truth = count_by_scan(&t, &disk, &q);
        assert_eq!(r.matched, truth);
        assert!(r.examined >= r.matched, "bucketing adds false positives");
    }

    #[test]
    fn cm_on_correlated_attr_beats_full_scan() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let cm = t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 5)]));
        let q = Query::single(Pred::between(1, 4200i64, 4300i64));
        let ctx = ExecContext::cold(&disk);
        let cm_run = run(&t, &ctx, AccessPath::CmScan(cm), &q).unwrap();
        let scan = run(&t, &ctx, AccessPath::FullScan, &q).unwrap();
        assert!(
            cm_run.ms() < scan.ms() / 3.0,
            "CM {} ms vs scan {} ms",
            cm_run.ms(),
            scan.ms()
        );
    }

    #[test]
    fn cm_on_uncorrelated_attr_approaches_scan() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let cm = t.add_cm("tag_cm", CmSpec::single_raw(2));
        // tag is uncorrelated with catid: one value appears in most
        // buckets, so the CM sweeps most of the table.
        let q = Query::single(Pred::eq(2, 5i64));
        let ctx = ExecContext::cold(&disk);
        let cm_run = run(&t, &ctx, AccessPath::CmScan(cm), &q).unwrap();
        let scan = run(&t, &ctx, AccessPath::FullScan, &q).unwrap();
        assert!(
            cm_run.io.pages() as f64 > 0.5 * scan.io.pages() as f64,
            "uncorrelated CM touches most pages ({} vs {})",
            cm_run.io.pages(),
            scan.io.pages()
        );
    }

    #[test]
    fn composite_index_uses_prefix_only() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price_tag", vec![1, 2]);
        // Range on price (prefix) + range on tag: the index can narrow by
        // price only; tag filters afterwards.
        let q = Query::new(vec![
            Pred::between(1, 2000i64, 2200i64),
            Pred::between(2, 0i64, 10i64),
        ]);
        let ctx = ExecContext::cold(&disk);
        let r = run(&t, &ctx, AccessPath::SecondarySorted(sec), &q).unwrap();
        assert_eq!(r.matched, count_by_scan(&t, &disk, &q));
    }

    #[test]
    fn composite_all_equality_probe() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "cat_price", vec![0, 1]);
        let q = Query::new(vec![Pred::eq(0, 42i64), Pred::eq(1, 4217i64)]);
        let ctx = ExecContext::cold(&disk);
        let r = run(&t, &ctx, AccessPath::SecondarySorted(sec), &q).unwrap();
        assert_eq!(r.matched, count_by_scan(&t, &disk, &q));
    }

    #[test]
    fn visitor_receives_matching_rows() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let cm = t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 5)]));
        let q = Query::single(Pred::between(1, 100i64, 199i64));
        let ctx = ExecContext::cold(&disk);
        let mut sum = 0i64;
        let mut n = 0u64;
        let r = t.exec_cm_scan_visit(&ctx, cm, &q, |row| {
            sum += row[1].as_int().unwrap();
            n += 1;
        });
        assert_eq!(n, r.matched);
        assert!(sum >= 100 * n as i64 && sum <= 199 * n as i64);
    }

    #[test]
    fn forced_secondary_without_prefix_predicate_errors() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price_tag", vec![1, 2]);
        // Predicate only on `tag` (col 2): the (price, tag) index cannot
        // narrow at all — a clean error, not a panic.
        let q = Query::single(Pred::eq(2, 5i64));
        let ctx = ExecContext::cold(&disk);
        let err = run(&t, &ctx, AccessPath::SecondarySorted(sec), &q).unwrap_err();
        assert_eq!(
            err,
            QueryError::NoIndexPredicate { index: "price_tag".into(), col: 1 }
        );
        assert!(run(&t, &ctx, AccessPath::SecondaryPipelined(sec), &q).is_err());
        assert!(err.to_string().contains("price_tag"), "{err}");
    }

    #[test]
    fn in_list_probes_dedup_rids() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price", vec![1]);
        let ctx = ExecContext::cold(&disk);
        let unique = Query::single(Pred::is_in(1, vec![Value::Int(4217), Value::Int(100)]));
        let dup = Query::single(Pred::is_in(
            1,
            vec![Value::Int(4217), Value::Int(100), Value::Int(4217), Value::Int(4217)],
        ));
        let a = run(&t, &ctx, AccessPath::SecondaryPipelined(sec), &unique).unwrap();
        let b = run(&t, &ctx, AccessPath::SecondaryPipelined(sec), &dup).unwrap();
        assert_eq!(a.matched, b.matched);
        assert_eq!(
            a.examined, b.examined,
            "duplicate IN values must not re-fetch the same heap rows"
        );
    }

    #[test]
    fn sorted_scan_coalesces_contiguous_pages_into_runs() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price", vec![1]);
        // A contiguous price band on the cat-correlated column maps to a
        // handful of contiguous heap page runs.
        let q = Query::single(Pred::between(1, 2000i64, 2499i64));
        let ctx = ExecContext::cold(&disk);
        let r = run(&t, &ctx, AccessPath::SecondarySorted(sec), &q).unwrap();
        let heap_pages = (r.io.seeks + r.io.seq_reads) as f64;
        assert!(
            (r.io.seeks as f64) < 0.3 * heap_pages,
            "coalesced runs: {} seeks over {} read pages",
            r.io.seeks,
            heap_pages
        );
        assert_eq!(r.matched, count_by_scan(&t, &disk, &q));
    }

    #[test]
    fn snapshot_filters_versions_in_every_path() {
        use cm_storage::{pending_stamp, MvccState};
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price", vec![1]);
        let cm = t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 5)]));
        let q = Query::single(Pred::between(1, 4200i64, 4300i64));
        let truth = run(&t, &ExecContext::cold(&disk), AccessPath::FullScan, &q).unwrap().matched;
        assert!(truth > 0);
        let victim = t.live_rids(0).find(|&rid| q.matches(&t.heap().peek(rid).unwrap())).unwrap();

        let mv = std::sync::Arc::new(MvccState::new());
        let old_snap = mv.begin();
        // Delete one matching row at ts 2 and add a matching row that a
        // still-pending transaction wrote.
        let ts = mv.next_ts();
        t.end_version(disk.as_ref(), victim, ts).unwrap();
        let pending = t
            .insert_row(disk.as_ref(), None, &[Value::Int(42), Value::Int(4250), Value::Int(0)])
            .unwrap();
        t.set_begin_stamp(pending, pending_stamp(9));
        let new_snap = mv.begin();

        let counts = |snap: &cm_storage::Snapshot| {
            let ctx = ExecContext::cold(&disk).at_snapshot(snap);
            [
                run(&t, &ctx, AccessPath::FullScan, &q).unwrap().matched,
                run(&t, &ctx, AccessPath::SecondarySorted(sec), &q).unwrap().matched,
                run(&t, &ctx, AccessPath::SecondaryPipelined(sec), &q).unwrap().matched,
                run(&t, &ctx, AccessPath::CmScan(cm), &q).unwrap().matched,
            ]
        };
        assert_eq!(counts(&old_snap), [truth; 4], "old snapshot: delete + pending invisible");
        assert_eq!(counts(&new_snap), [truth - 1; 4], "new snapshot: delete visible");
        mv.commit_txn(9);
        let after_commit = mv.begin();
        assert_eq!(counts(&after_commit), [truth; 4], "commit publishes the pending row");
        assert_eq!(counts(&old_snap), [truth; 4], "old snapshot unchanged by the commit");
        // No snapshot: the pre-MVCC reader sees every heap row, pending
        // or ended (lock-based engines rely on exclusion instead).
        let ctx = ExecContext::cold(&disk);
        assert_eq!(run(&t, &ctx, AccessPath::FullScan, &q).unwrap().matched, truth + 1);
    }

    #[test]
    fn cm_constraint_translation() {
        let spec = CmSpec::new(vec![CmAttr::raw(1), CmAttr::raw(2)]);
        let q = Query::new(vec![Pred::eq(1, 5i64)]);
        let cs = cm_constraints(&spec, &q);
        assert_eq!(cs[0], AttrConstraint::Eq(Value::Int(5)));
        assert_eq!(cs[1], AttrConstraint::Any);
    }
}
