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
use cm_core::{BucketSpec, CmAttr};
use cm_cost::CostParams;
use cm_query::{Pred, PredOp, Query, Table};
use cm_stats::{estimate_distinct, EstimatorKind, FreqTable, ReservoirSampler};
use cm_storage::{DiskConfig, Rid};

/// Advisor tuning knobs (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Random sample size (paper: 30,000; "similar sample size was chosen
    /// in CORDS").
    pub sample_size: usize,
    /// Prune predicates whose estimated selectivity exceeds this (paper:
    /// 0.5).
    pub selectivity_threshold: f64,
    /// Hard cap on enumerated designs (safety valve; the paper's queries
    /// stay well below it).
    pub max_designs: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            sample_size: 30_000,
            selectivity_threshold: 0.5,
            max_designs: 8192,
            seed: 0xAD71,
        }
    }
}

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

    /// Render the Table 4-style bucketing-candidate listing.
    pub fn table4(&self) -> String {
        let mut out =
            String::from("Column       | Cardinality | Bucket Widths\n");
        for c in &self.candidates {
            out.push_str(&format!(
                "{:<12} | {:>11} | {}\n",
                c.name, c.cardinality, c.widths_label()
            ));
        }
        out
    }
}

/// The CM Advisor.
pub struct Advisor {
    config: AdvisorConfig,
}

impl Advisor {
    /// An advisor with the given knobs.
    pub fn new(config: AdvisorConfig) -> Self {
        Advisor { config }
    }

    /// An advisor with paper defaults.
    pub fn with_defaults() -> Self {
        Self::new(AdvisorConfig::default())
    }

    /// Estimated selectivity of one predicate, used for pruning.
    fn selectivity(table: &Table, pred: &Pred) -> f64 {
        let Some(st) = table.col_stats(pred.col) else { return 1.0 };
        match &pred.op {
            PredOp::Eq(_) => 1.0 / st.corr.distinct_u.max(1) as f64,
            PredOp::In(vs) => vs.len() as f64 / st.corr.distinct_u.max(1) as f64,
            PredOp::Between(lo, hi) => {
                cm_query::Planner::range_fraction(table, pred.col, lo, hi).unwrap_or(1.0)
            }
        }
    }

    /// Run the full pipeline for one training query.
    ///
    /// `slowdown_threshold` is the user's tolerance (e.g. `0.10` accepts
    /// designs up to 10% slower than the best candidate; the paper's
    /// Table 5 example).
    ///
    /// Requires [`Table::analyze_cols`] on the query's predicated columns.
    pub fn recommend(
        &self,
        table: &Table,
        disk: &DiskConfig,
        query: &Query,
        slowdown_threshold: f64,
    ) -> Recommendation {
        // 1. Candidate attributes: predicated and selective enough.
        let attrs: Vec<usize> = query
            .predicated_cols()
            .into_iter()
            .filter(|&c| {
                query
                    .pred_on(c)
                    .map(|p| Self::selectivity(table, p) <= self.config.selectivity_threshold)
                    .unwrap_or(false)
            })
            .collect();
        let candidates: Vec<AttrCandidates> =
            attrs.iter().map(|&c| bucketing_candidates(table, c)).collect();

        // 2. One shared random sample of RIDs.
        let mut reservoir = ReservoirSampler::new(self.config.sample_size, self.config.seed);
        for rid in (0..table.heap().len()).map(Rid) {
            reservoir.observe(rid);
        }
        let sample: Vec<Rid> = reservoir.into_sample();
        let n_total = table.heap().len();
        let r_sample = sample.len() as u64;

        // Precompute, per (attribute, spec), the bucketed key-part hash of
        // every sampled row, so each design's composite key hashes are a
        // cheap fold (this is what makes ~5 ms/candidate feasible, §6.1.3).
        let mut part_hashes: Vec<Vec<u64>> = Vec::new(); // flat over (attr, spec)
        let mut spec_offset: Vec<usize> = Vec::with_capacity(candidates.len());
        {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            for cand in &candidates {
                spec_offset.push(part_hashes.len());
                for spec in &cand.specs {
                    let mut v = Vec::with_capacity(sample.len());
                    for &rid in &sample {
                        let value = table.heap().value(rid, cand.col).expect("sampled rid valid");
                        let part = spec.key_part(&value);
                        let mut h = DefaultHasher::new();
                        part.hash(&mut h);
                        v.push(h.finish());
                    }
                    part_hashes.push(v);
                }
            }
        }
        let cbuckets: Vec<u32> =
            sample.iter().map(|&rid| table.dir().bucket_of(rid)).collect();

        // 3. Enumerate subsets × bucketings.
        let mut designs: Vec<DesignEstimate> = Vec::new();
        let mut stack: Vec<Option<usize>> = vec![None; candidates.len()];
        self.enumerate(
            table,
            disk,
            query,
            &candidates,
            &spec_offset,
            &part_hashes,
            &cbuckets,
            n_total,
            r_sample,
            0,
            &mut stack,
            &mut designs,
        );

        // 4. Rank and choose.
        designs.sort_by(|a, b| a.cost_ms.total_cmp(&b.cost_ms));
        let btree_size_bytes = self.btree_size(table, &attrs);
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

    /// Modeled dense B+Tree size over `attrs` (one posting per tuple).
    fn btree_size(&self, table: &Table, attrs: &[usize]) -> f64 {
        let mut key_bytes = 0.0;
        for rid in (0..table.heap().len().min(256)).map(Rid) {
            for &c in attrs {
                key_bytes += table.heap().value(rid, c).expect("rid in range").size_bytes() as f64;
            }
        }
        let avg_key = if attrs.is_empty() { 8.0 } else { key_bytes / 256.0 };
        table.heap().len() as f64 * (avg_key + 16.0) / 0.9
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        &self,
        table: &Table,
        disk: &DiskConfig,
        query: &Query,
        candidates: &[AttrCandidates],
        spec_offset: &[usize],
        part_hashes: &[Vec<u64>],
        cbuckets: &[u32],
        n_total: u64,
        r_sample: u64,
        depth: usize,
        stack: &mut Vec<Option<usize>>,
        out: &mut Vec<DesignEstimate>,
    ) {
        if out.len() >= self.config.max_designs {
            return;
        }
        if depth == candidates.len() {
            if stack.iter().all(Option::is_none) {
                return; // the empty design
            }
            out.push(self.estimate(
                table,
                disk,
                query,
                candidates,
                spec_offset,
                part_hashes,
                cbuckets,
                n_total,
                r_sample,
                stack,
            ));
            return;
        }
        // Option: exclude this attribute.
        stack[depth] = None;
        self.enumerate(
            table, disk, query, candidates, spec_offset, part_hashes, cbuckets, n_total,
            r_sample, depth + 1, stack, out,
        );
        // Option: include with each bucketing.
        for spec_idx in 0..candidates[depth].specs.len() {
            stack[depth] = Some(spec_idx);
            self.enumerate(
                table, disk, query, candidates, spec_offset, part_hashes, cbuckets, n_total,
                r_sample, depth + 1, stack, out,
            );
        }
        stack[depth] = None;
    }

    #[allow(clippy::too_many_arguments)]
    fn estimate(
        &self,
        table: &Table,
        disk: &DiskConfig,
        query: &Query,
        candidates: &[AttrCandidates],
        spec_offset: &[usize],
        part_hashes: &[Vec<u64>],
        cbuckets: &[u32],
        n_total: u64,
        r_sample: u64,
        stack: &[Option<usize>],
    ) -> DesignEstimate {
        // Composite key hash per sampled row: mix the chosen parts.
        let chosen: Vec<&Vec<u64>> = stack
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|spec_idx| &part_hashes[spec_offset[i] + spec_idx]))
            .collect();
        let mut keys = FreqTable::new();
        let mut pairs = FreqTable::new();
        for row_i in 0..cbuckets.len() {
            let mut h = 0xcbf29ce484222325u64;
            for part in &chosen {
                h ^= part[row_i];
                h = h.wrapping_mul(0x100000001b3);
            }
            keys.observe(h);
            pairs.observe(h ^ (u64::from(cbuckets[row_i]).wrapping_mul(0x9E3779B97F4A7C15)));
        }
        let d_keys = estimate_distinct(
            EstimatorKind::Adaptive,
            n_total,
            r_sample,
            &keys.freq_of_freq(),
        )
        .max(1.0);
        let d_pairs = estimate_distinct(
            EstimatorKind::Adaptive,
            n_total,
            r_sample,
            &pairs.freq_of_freq(),
        )
        .max(d_keys);
        let c_per_u = d_pairs / d_keys;

        // Design attrs + size model.
        let attrs: Vec<CmAttr> = stack
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.map(|spec_idx| CmAttr {
                    col: candidates[i].col,
                    bucket: candidates[i].specs[spec_idx].clone(),
                })
            })
            .collect();
        // Every key part is modeled at 8 bytes (raw values in these
        // schemas are ints/floats/short strings; buckets store an i64
        // lower bound).
        let key_bytes: f64 = attrs.len() as f64 * 8.0;
        let size_bytes = d_pairs * (key_bytes + 16.0);

        // Training-query cost through this design.
        let n_keys_selected = self.keys_selected(table, query, &attrs, d_keys);
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
            design: CmDesign { attrs },
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
        &self,
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
                    BucketSpec::None => {
                        let frac = cm_query::Planner::range_fraction(table, a.col, lo, hi)
                            .unwrap_or(1.0);
                        (frac * st.map(|s| s.corr.distinct_u as f64).unwrap_or(1.0)).max(1.0)
                    }
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
                    BucketSpec::None => st.map(|s| s.corr.distinct_u as f64).unwrap_or(1.0),
                },
            };
            product *= factor.max(1.0);
        }
        product.min(d_keys).max(1.0)
    }
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

    fn advisor() -> Advisor {
        Advisor::new(AdvisorConfig { sample_size: 5_000, ..AdvisorConfig::default() })
    }

    #[test]
    fn recommends_a_bucketed_design_within_threshold() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::single(Pred::between(1, 100_000i64, 101_000i64));
        let rec = advisor().recommend(&t, &disk.config(), &q, 0.10);
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
        let rec = advisor().recommend(&t, &disk.config(), &q, 0.5);
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
        let rec = advisor().recommend(&t, &disk.config(), &q, 0.10);
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
        let rec = advisor().recommend(&t, &disk.config(), &q, 0.10);
        let expected: usize =
            rec.candidates.iter().map(|c| c.specs.len() + 1).product::<usize>() - 1;
        assert_eq!(rec.designs.len(), expected, "∏(bucketings+1) − 1 (§6.1.3)");
    }

    #[test]
    fn tables_render() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::single(Pred::eq(1, 100_123i64));
        let rec = advisor().recommend(&t, &disk.config(), &q, 0.10);
        let t4 = rec.table4();
        assert!(t4.contains("price"));
        let t5 = rec.table5(t.heap().schema(), 5);
        assert!(t5.contains("price"), "{t5}");
        assert!(t5.contains('%'));
    }

    #[test]
    fn estimated_c_per_u_tracks_truth_for_correlated_attr() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk);
        let q = Query::single(Pred::eq(1, 100_123i64));
        let rec = advisor().recommend(&t, &disk.config(), &q, 0.5);
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
