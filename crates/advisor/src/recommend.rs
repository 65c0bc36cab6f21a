//! The recommendation pipeline (paper §6.2).
//!
//! For one training query:
//!
//! 1. extract the predicated attributes, pruning predicates less
//!    selective than the threshold (§6.2.2);
//! 2. enumerate every non-empty attribute subset × bucketing combination
//!    (`∏(bucketings + 1) − 1` designs, §6.1.3);
//! 3. estimate each design's composite distinct counts with the Adaptive
//!    Estimator over one shared random sample (the paper uses 30,000
//!    rows) and price the training query with the cost model;
//! 4. report all designs Table 5-style and recommend the **smallest**
//!    design whose estimated slowdown vs. the best candidate is within
//!    the user's threshold.

use crate::candidates::{bucketing_candidates, AttrCandidates};
use crate::design::{CmDesign, DesignEstimate};
use crate::sample::Sample;
use cm_core::{BucketSpec, CmAttr};
use cm_cost::CostParams;
use cm_query::{Planner, Pred, PredOp, Query, Table};
use cm_storage::DiskConfig;

/// Predicates whose estimated selectivity exceeds this are pruned
/// (paper: 0.5).
const SELECTIVITY_THRESHOLD: f64 = 0.5;

/// Hard cap on enumerated designs (a safety valve; the paper's queries
/// stay well below it).
const MAX_DESIGNS: usize = 8192;

/// Rows the dense B+Tree size model averages key widths over.
const KEY_WIDTH_ROWS: usize = 256;

/// The advisor's output for one training query.
#[derive(Debug)]
pub struct Recommendation {
    /// Attributes considered, with their candidate bucketings (Table 4).
    pub candidates: Vec<AttrCandidates>,
    /// All estimated designs, sorted by estimated cost ascending
    /// (Table 5).
    pub designs: Vec<DesignEstimate>,
    /// Index into `designs` of the recommended design (smallest within
    /// the slowdown threshold), if any design qualifies.
    pub chosen: Option<usize>,
    /// Modeled size of the dense secondary B+Tree over the same
    /// attributes, the denominator of the size-ratio column.
    pub btree_size_bytes: f64,
}

impl Recommendation {
    /// The recommended design, if any.
    pub fn chosen_design(&self) -> Option<&DesignEstimate> {
        self.chosen.map(|i| &self.designs[i])
    }

    /// Render the top `n` designs as a Table 5-style listing.
    pub fn table5(&self, schema: &cm_storage::Schema, n: usize) -> String {
        let mut out = String::from("Runtime | CM Design                                    | Size Ratio\n");
        for e in self.designs.iter().take(n) {
            out.push_str(&e.table5_row(schema));
            out.push('\n');
        }
        out
    }
}

/// The CM Advisor.
pub struct Advisor;

impl Advisor {
    /// Estimated selectivity of one predicate, used for pruning.
    fn selectivity(table: &Table, pred: &Pred) -> f64 {
        let Some(st) = table.col_stats(pred.col) else { return 1.0 };
        match &pred.op {
            PredOp::Eq(_) => 1.0 / st.corr.distinct_u.max(1) as f64,
            PredOp::In(vs) => vs.len() as f64 / st.corr.distinct_u.max(1) as f64,
            PredOp::Between(lo, hi) => {
                Planner::range_fraction(table, pred.col, lo, hi).unwrap_or(1.0)
            }
        }
    }

    /// Run the full pipeline for one training query over `sample`'s
    /// table.
    ///
    /// `slowdown_threshold` is the user's tolerance (e.g. `0.10` accepts
    /// designs up to 10% slower than the best candidate; the paper's
    /// Table 5 example).
    ///
    /// Requires [`Table::analyze_cols`] on the query's predicated columns.
    pub fn recommend(
        sample: &Sample<'_>,
        disk: &DiskConfig,
        query: &Query,
        slowdown_threshold: f64,
    ) -> Recommendation {
        let table = sample.table();
        // 1. Candidate attributes: predicated and selective enough.
        let attrs: Vec<usize> = query
            .predicated_cols()
            .into_iter()
            .filter(|&c| {
                query
                    .pred_on(c)
                    .is_some_and(|p| Self::selectivity(table, p) <= SELECTIVITY_THRESHOLD)
            })
            .collect();
        let candidates: Vec<AttrCandidates> =
            attrs.iter().map(|&c| bucketing_candidates(table, c)).collect();

        // Per (attribute, spec), the bucketed key-part hash of every
        // sampled row, so each design's composite key is a cheap fold
        // (this is what makes ~5 ms/candidate feasible, §6.1.3).
        let parts: Vec<Vec<Vec<u64>>> = candidates
            .iter()
            .map(|c| c.specs.iter().map(|spec| sample.key_parts(c.col, spec)).collect())
            .collect();
        let cbuckets = sample.clustered_buckets();

        // 2. Enumerate subsets × bucketings: `choice[i]` is 0 when
        // attribute `i` is left out, `k` when it is keyed on its
        // `(k-1)`-th bucketing; the last attribute turns fastest.
        let mut designs: Vec<DesignEstimate> = Vec::new();
        let mut choice = vec![0usize; candidates.len()];
        while designs.len() < MAX_DESIGNS {
            let Some(i) = (0..choice.len()).rev().find(|&i| choice[i] < candidates[i].specs.len())
            else {
                break;
            };
            choice[i] += 1;
            choice[i + 1..].fill(0);
            let chosen: Vec<(usize, usize)> =
                (0..choice.len()).filter(|&i| choice[i] > 0).map(|i| (i, choice[i] - 1)).collect();
            let key: Vec<&[u64]> = chosen.iter().map(|&(i, s)| parts[i][s].as_slice()).collect();
            let (c_per_u, d_keys) = sample.strength(&key, &cbuckets);
            let key_attrs = chosen.iter().map(|&(i, s)| CmAttr {
                col: candidates[i].col,
                bucket: candidates[i].specs[s].clone(),
            });
            let design = CmDesign { attrs: key_attrs.collect() };
            designs.push(Self::estimate(table, disk, query, design, c_per_u, d_keys));
        }

        // 3. Rank and choose.
        designs.sort_by(|a, b| a.cost_ms.total_cmp(&b.cost_ms));
        let btree_size_bytes = Self::btree_size(sample, &attrs);
        if let Some(best) = designs.first().map(|d| d.cost_ms) {
            for d in &mut designs {
                d.slowdown = if best > 0.0 { d.cost_ms / best - 1.0 } else { 0.0 };
                d.size_ratio = d.size_bytes / btree_size_bytes.max(1.0);
            }
        }
        let chosen = designs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.slowdown <= slowdown_threshold)
            .min_by(|a, b| a.1.size_bytes.total_cmp(&b.1.size_bytes))
            .map(|(i, _)| i);
        Recommendation { candidates, designs, chosen, btree_size_bytes }
    }

    /// Modeled dense B+Tree size over `attrs` (one posting per live
    /// row), with key widths averaged over the first live rows.
    fn btree_size(sample: &Sample<'_>, attrs: &[usize]) -> f64 {
        let table = sample.table();
        let mut key_bytes = 0.0;
        let mut rows = 0usize;
        for rid in table.live_rids(0).take(KEY_WIDTH_ROWS) {
            rows += 1;
            for &c in attrs {
                key_bytes += table.heap().value(rid, c).expect("live rid").size_bytes() as f64;
            }
        }
        let avg_key = if attrs.is_empty() { 8.0 } else { key_bytes / rows.max(1) as f64 };
        sample.population() as f64 * (avg_key + 16.0) / 0.9
    }

    /// Price one design from its sampled strength: size model plus the
    /// training query's cost through it.
    fn estimate(
        table: &Table,
        disk: &DiskConfig,
        query: &Query,
        design: CmDesign,
        c_per_u: f64,
        d_keys: f64,
    ) -> DesignEstimate {
        let d_pairs = c_per_u * d_keys;
        // Every key part is modeled at 8 bytes (raw values in these
        // schemas are ints/floats/short strings; buckets store an i64
        // lower bound).
        let key_bytes: f64 = design.attrs.len() as f64 * 8.0;
        let size_bytes = d_pairs * (key_bytes + 16.0);

        // Training-query cost through this design.
        let n_keys_selected = Self::keys_selected(table, query, &design.attrs, d_keys);
        let params = CostParams::new(
            disk,
            table.heap().tups_per_page(),
            table.heap().len(),
            table.clustered().height(),
        );
        let cost_ms = params.cost_cm_unbounded(
            n_keys_selected,
            c_per_u,
            table.dir().avg_pages_per_bucket(),
            table.clustered().height() as f64,
        );
        DesignEstimate {
            design,
            c_per_u,
            keys: d_keys,
            pairs: d_pairs,
            size_bytes,
            cost_ms,
            slowdown: 0.0,
            size_ratio: 0.0,
        }
    }

    /// Estimate how many distinct CM keys the training query selects
    /// under a design: the product over key attributes of the per-
    /// attribute selected-key counts, capped by the design's total keys.
    fn keys_selected(
        table: &Table,
        query: &Query,
        attrs: &[CmAttr],
        d_keys: f64,
    ) -> f64 {
        let mut product = 1.0;
        for a in attrs {
            let st = table.col_stats(a.col);
            let factor = match query.pred_on(a.col).map(|p| &p.op) {
                Some(PredOp::Eq(_)) => 1.0,
                Some(PredOp::In(vs)) => vs.len() as f64,
                Some(PredOp::Between(lo, hi)) => match &a.bucket {
                    BucketSpec::EquiWidth { width, .. } => {
                        match (lo.as_numeric(), hi.as_numeric()) {
                            (Some(lo), Some(hi)) if hi >= lo => ((hi - lo) / width).ceil() + 1.0,
                            _ => 1.0,
                        }
                    }
                    BucketSpec::EquiDepth { bounds } => {
                        match (lo.as_numeric(), hi.as_numeric()) {
                            (Some(lo), Some(hi)) if hi >= lo => {
                                (bounds.partition_point(|&b| b <= hi) as f64
                                    - bounds.partition_point(|&b| b <= lo) as f64)
                                    + 1.0
                            }
                            _ => 1.0,
                        }
                    }
                    BucketSpec::None => Planner::range_keys(table, a.col, lo, hi)
                        .unwrap_or_else(|| all_keys(st)),
                },
                // Unpredicated attribute: every one of its key values may
                // be selected.
                None => match &a.bucket {
                    BucketSpec::EquiWidth { width, .. } => {
                        // Domain span / width.
                        match st.and_then(|s| {
                            Some((s.min.as_ref()?.as_numeric()?, s.max.as_ref()?.as_numeric()?))
                        }) {
                            Some((mn, mx)) if mx > mn => ((mx - mn) / width).ceil(),
                            _ => 1.0,
                        }
                    }
                    BucketSpec::EquiDepth { bounds } => bounds.len() as f64 + 1.0,
                    BucketSpec::None => all_keys(st),
                },
            };
            product *= factor.max(1.0);
        }
        product.min(d_keys).max(1.0)
    }
}

/// Every key of an unbucketed attribute: its distinct count, or one
/// without statistics.
fn all_keys(st: Option<&cm_query::ColumnStats>) -> f64 {
    st.map(|s| s.corr.distinct_u as f64).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
    use std::sync::Arc;

    /// eBay-like table: price softly determines catid; noise does not.
    fn table(disk: &DiskSim) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
            Column::new("noise", ValueType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..30_000i64)
            .map(|i| {
                let cat = i % 500;
                vec![
                    Value::Int(cat),
                    Value::Int(cat * 2000 + (i * 37) % 2000),
                    Value::Int((i * 31) % 1000),
                ]
            })
            .collect();
        let mut t = Table::build(disk, schema, rows, 50, 0, 60).unwrap();
        t.analyze_cols(&[1, 2]);
        t
    }

    fn recommend(t: &Table, disk: &DiskSim, q: &Query, threshold: f64) -> Recommendation {
        Advisor::recommend(&Sample::live(t, 5_000), &disk.config(), q, threshold)
    }

    #[test]
    fn recommends_a_bucketed_design_within_threshold() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::single(Pred::between(1, 100_000i64, 101_000i64));
        let rec = recommend(&t, &disk, &q, 0.10);
        assert!(!rec.designs.is_empty());
        let chosen = rec.chosen_design().expect("a design qualifies");
        assert!(chosen.slowdown <= 0.10 + 1e-9);
        // The chosen design is the smallest qualifying one.
        for d in &rec.designs {
            if d.slowdown <= 0.10 {
                assert!(chosen.size_bytes <= d.size_bytes + 1e-9);
            }
        }
        // And dramatically smaller than the dense B+Tree.
        assert!(chosen.size_bytes < 0.2 * rec.btree_size_bytes);
    }

    #[test]
    fn coarser_bucketings_estimate_smaller_sizes() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::single(Pred::between(1, 100_000i64, 101_000i64));
        let rec = recommend(&t, &disk, &q, 0.5);
        // Among single-attribute price designs, size must decrease as
        // width grows.
        let mut price_designs: Vec<(f64, f64)> = rec
            .designs
            .iter()
            .filter(|d| d.design.attrs.len() == 1 && d.design.attrs[0].col == 1)
            .filter_map(|d| match &d.design.attrs[0].bucket {
                BucketSpec::EquiWidth { width, .. } => Some((*width, d.size_bytes)),
                _ => None,
            })
            .collect();
        price_designs.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(price_designs.len() >= 3);
        for w in price_designs.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.15,
                "size should shrink (or stay) as width grows: {price_designs:?}"
            );
        }
    }

    #[test]
    fn unselective_predicates_are_pruned() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        // noise BETWEEN covers ~90% of the domain: pruned; price Eq kept.
        let q = Query::new(vec![
            Pred::eq(1, 100_123i64),
            Pred::between(2, 0i64, 900i64),
        ]);
        let rec = recommend(&t, &disk, &q, 0.10);
        assert_eq!(rec.candidates.len(), 1);
        assert_eq!(rec.candidates[0].col, 1);
    }

    #[test]
    fn design_count_matches_formula() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::new(vec![
            Pred::eq(1, 100_123i64),
            Pred::eq(2, 5i64), // selective: 1/1000
        ]);
        let rec = recommend(&t, &disk, &q, 0.10);
        let expected: usize =
            rec.candidates.iter().map(|c| c.specs.len() + 1).product::<usize>() - 1;
        assert_eq!(rec.designs.len(), expected, "∏(bucketings+1) − 1 (§6.1.3)");
    }

    #[test]
    fn tables_render() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::single(Pred::eq(1, 100_123i64));
        let rec = recommend(&t, &disk, &q, 0.10);
        let t5 = rec.table5(t.heap().schema(), 5);
        assert!(t5.contains("price"), "{t5}");
        assert!(t5.contains('%'));
    }

    #[test]
    fn estimated_c_per_u_tracks_truth_for_correlated_attr() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::single(Pred::eq(1, 100_123i64));
        let rec = recommend(&t, &disk, &q, 0.5);
        // The raw price design: price → catid is (nearly) functional, and
        // each catid spans ~2 buckets at target 60/bucket ⇒ c_per_u small.
        let raw = rec
            .designs
            .iter()
            .find(|d| {
                d.design.attrs.len() == 1 && matches!(d.design.attrs[0].bucket, BucketSpec::None)
            })
            .expect("raw design present");
        assert!(raw.c_per_u < 3.0, "estimated c_per_u {}", raw.c_per_u);
    }
}
