//! Clustered-index recommendation (the paper's §8 direction).
//!
//! "If we had the freedom to choose the clustered index ... to have
//! stronger correlations with predicated attributes in the workload, we
//! would likely achieve even greater improvement." This module is that
//! designer's core: given a workload of queries, score every candidate
//! clustered attribute by the total modeled workload cost when each query
//! runs through the best correlated access path available under that
//! clustering — the decision procedure behind the paper's Figure 2 sweep,
//! packaged as a library API.

use crate::discovery::DiscoveryConfig;
use cm_cost::CostParams;
use cm_query::{PredOp, Query, Table};
use cm_stats::{estimate_distinct, EstimatorKind, FreqTable, ReservoirSampler};
use cm_storage::{DiskConfig, Rid};

/// One candidate clustering with its modeled workload cost.
#[derive(Debug, Clone)]
pub struct ClusteringChoice {
    /// The candidate clustered column.
    pub col: usize,
    /// Total modeled cost of the workload (ms).
    pub workload_ms: f64,
    /// Number of workload queries whose best path beats a table scan by
    /// at least 2× under this clustering (the Figure 2 statistic).
    pub accelerated: usize,
}

/// Rank candidate clustered attributes for a workload.
///
/// For every candidate clustering and every query, the query's cost is
/// `min(cost_scan, cost_sorted)` where the sorted-scan estimate uses the
/// sampled correlation between the predicated attribute and the
/// candidate clustering (`c_per_u = D(pred, cand) / D(pred)`); the
/// cheapest candidate comes first.
pub fn recommend_clustering(
    table: &Table,
    disk: &DiskConfig,
    workload: &[Query],
    candidates: &[usize],
    config: &DiscoveryConfig,
) -> Vec<ClusteringChoice> {
    // One shared sample of row ids.
    let mut reservoir = ReservoirSampler::new(config.sample_size, config.seed);
    for rid in (0..table.heap().len()).map(Rid) {
        reservoir.observe(rid);
    }
    let sample: Vec<Rid> = reservoir.into_sample();
    let n_total = table.heap().len();
    let r = sample.len() as u64;
    let hash_col = |col: usize| -> Vec<u64> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        sample
            .iter()
            .map(|&rid| {
                let mut h = DefaultHasher::new();
                table.heap().value(rid, col).expect("sampled rid valid").hash(&mut h);
                h.finish()
            })
            .collect()
    };

    // All columns any query predicates.
    let mut pred_cols: Vec<usize> =
        workload.iter().flat_map(Query::predicated_cols).collect();
    pred_cols.sort_unstable();
    pred_cols.dedup();
    let pred_hashes: Vec<(usize, Vec<u64>)> =
        pred_cols.iter().map(|&c| (c, hash_col(c))).collect();

    let estimate = |hashes: &[u64]| -> f64 {
        let mut t = FreqTable::new();
        for &h in hashes {
            t.observe(h);
        }
        estimate_distinct(EstimatorKind::Adaptive, n_total, r, &t.freq_of_freq()).max(1.0)
    };

    let params = CostParams::new(disk, table.heap().tups_per_page(), n_total, 3);
    let scan = params.cost_scan();
    let mut out = Vec::with_capacity(candidates.len());
    for &cand in candidates {
        let cand_hashes = hash_col(cand);
        let d_cand = estimate(&cand_hashes);
        let c_tups = n_total as f64 / d_cand;
        let mut workload_ms = 0.0;
        let mut accelerated = 0;
        for q in workload {
            let mut best = scan;
            for pred in &q.preds {
                let Some((_, ph)) =
                    pred_hashes.iter().find(|(c, _)| *c == pred.col)
                else {
                    continue;
                };
                if pred.col == cand {
                    // Clustered-attribute predicate: a direct clustered
                    // range scan.
                    let frac = 1.0 / estimate(ph);
                    best = best.min(params.seek_ms * 3.0 + scan * frac);
                    continue;
                }
                // Correlation between the predicated column and the
                // candidate clustering.
                let d_pred = estimate(ph);
                let mut pairs = FreqTable::new();
                for i in 0..ph.len() {
                    pairs.observe(ph[i] ^ cand_hashes[i].wrapping_mul(0x9E3779B97F4A7C15));
                }
                let d_pairs = estimate_distinct(
                    EstimatorKind::Adaptive,
                    n_total,
                    r,
                    &pairs.freq_of_freq(),
                )
                .max(d_pred);
                let c_per_u = d_pairs / d_pred;
                let n_lookups = match &pred.op {
                    PredOp::Eq(_) => 1.0,
                    PredOp::In(vs) => vs.len() as f64,
                    PredOp::Between(..) => (d_pred * 0.01).max(1.0),
                };
                best = best.min(params.cost_sorted(n_lookups, c_per_u, c_tups));
            }
            workload_ms += best;
            if best * 2.0 <= scan {
                accelerated += 1;
            }
        }
        out.push(ClusteringChoice { col: cand, workload_ms, accelerated });
    }
    out.sort_by(|a, b| a.workload_ms.total_cmp(&b.workload_ms));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_query::Pred;
    use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
    use std::sync::Arc;

    /// Columns a and b are tightly coupled; z is independent of both.
    fn demo(disk: &DiskSim) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
            Column::new("z", ValueType::Int),
        ]));
        let rows = (0..200_000i64)
            .map(|i| {
                let a = i % 500;
                vec![
                    Value::Int(a),
                    Value::Int(a * 3 + (i % 3)),
                    Value::Int((i * 37) % 499),
                ]
            })
            .collect();
        Table::build(disk, schema, rows, 50, 0, 100).unwrap()
    }

    #[test]
    fn workload_on_b_prefers_clustering_on_a_or_b() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let workload: Vec<Query> =
            (0..10).map(|i| Query::single(Pred::eq(1, (i * 147) as i64))).collect();
        let cfg = DiscoveryConfig { sample_size: 5_000, ..Default::default() };
        let ranked = recommend_clustering(&t, &disk.config(), &workload, &[0, 2], &cfg);
        assert_eq!(ranked[0].col, 0, "a (correlated with b) beats z: {ranked:?}");
        assert!(ranked[0].workload_ms < ranked[1].workload_ms);
    }

    #[test]
    fn clustering_on_the_predicated_column_itself_wins() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let workload: Vec<Query> =
            (0..10).map(|i| Query::single(Pred::eq(2, (i * 31) as i64))).collect();
        let cfg = DiscoveryConfig { sample_size: 5_000, ..Default::default() };
        let ranked = recommend_clustering(&t, &disk.config(), &workload, &[0, 2], &cfg);
        assert_eq!(ranked[0].col, 2, "{ranked:?}");
        assert!(ranked[0].accelerated >= 8);
    }

    #[test]
    fn mixed_workload_counts_accelerated_queries() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        // Half the queries on b (helped by clustering a), half on z (not).
        let mut workload: Vec<Query> =
            (0..5).map(|i| Query::single(Pred::eq(1, (i * 147) as i64))).collect();
        workload.extend((0..5).map(|i| Query::single(Pred::eq(2, (i * 31) as i64))));
        let cfg = DiscoveryConfig { sample_size: 5_000, ..Default::default() };
        let ranked = recommend_clustering(&t, &disk.config(), &workload, &[0], &cfg);
        assert!(
            (4..=6).contains(&ranked[0].accelerated),
            "only the b-queries accelerate: {ranked:?}"
        );
    }
}
