//! Cost-based access-path selection.
//!
//! The paper argues its cost model is "suitable for integration with
//! existing query optimizers" (§8); [`Planner`] is that integration: it
//! estimates every available access path with the §3–§4 formulas and
//! picks the cheapest. CM estimates follow §6.2's guidance — a CM is
//! memory-resident, so the planner consults it directly for the bucket
//! count a predicate implies (the paper's optimizer likewise decides
//! "whether a given query should use the CM or not" from CM statistics).

use crate::exec::cm_constraints;
use crate::predicate::{PredOp, Query};
use crate::table::Table;
use cm_cost::CostParams;
use cm_storage::{DiskConfig, Value};

/// A physical access path over a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Sequential scan of the heap.
    FullScan,
    /// Sorted (bitmap) scan through secondary index `id`.
    SecondarySorted(usize),
    /// Pipelined probe-per-tuple scan through secondary index `id`.
    SecondaryPipelined(usize),
    /// CM-guided clustered scan through CM `id`.
    CmScan(usize),
}

/// The planner's decision with its estimates.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The chosen path.
    pub path: AccessPath,
    /// Its estimated cost in milliseconds.
    pub est_ms: f64,
    /// Every candidate considered, with estimates (diagnostics; sorted by
    /// cost ascending).
    pub alternatives: Vec<(AccessPath, f64)>,
}

impl PlanChoice {
    /// The choice for a query that touches nothing (every shard pruned):
    /// a zero-cost scan with no alternatives.
    pub fn empty() -> Self {
        PlanChoice { path: AccessPath::FullScan, est_ms: 0.0, alternatives: Vec::new() }
    }
}

/// Cost-based path selection over a table's access structures.
pub struct Planner {
    disk: DiskConfig,
}

impl Planner {
    /// A planner pricing with the given disk parameters.
    pub fn new(disk: DiskConfig) -> Self {
        Planner { disk }
    }

    /// Estimate how many index point-lookups a predicate implies
    /// (`n_lookups`): exact for Eq/In, estimated from column min/max and
    /// distinct count for ranges.
    fn n_lookups(&self, table: &Table, col: usize, op: &PredOp) -> Option<f64> {
        match op {
            PredOp::Eq(_) => Some(1.0),
            PredOp::In(vs) => Some(vs.len() as f64),
            PredOp::Between(lo, hi) => Self::range_keys(table, col, lo, hi),
        }
    }

    /// Choose the cheapest access path for `q` over `table`.
    ///
    /// Index paths require [`Table::analyze_cols`] to have been run on the
    /// predicated columns; columns without statistics only compete via
    /// the full scan (mirroring an optimizer that refuses an index
    /// without statistics).
    pub fn choose(&self, table: &Table, q: &Query) -> PlanChoice {
        let tpp = table.heap().tups_per_page();
        let total = table.heap().len();
        let mut candidates: Vec<(AccessPath, f64)> = Vec::new();

        let scan_params = CostParams::new(&self.disk, tpp, total, 1);
        candidates.push((AccessPath::FullScan, scan_params.cost_scan()));

        // Secondary indexes whose first key column is predicated.
        for (id, sec) in table.secondaries().iter().enumerate() {
            let first = sec.cols()[0];
            let Some(pred) = q.pred_on(first) else { continue };
            let Some(st) = table.col_stats(first) else { continue };
            let Some(n) = self.n_lookups(table, first, &pred.op) else { continue };
            let params = CostParams::new(&self.disk, tpp, total, sec.height());
            candidates.push((
                AccessPath::SecondarySorted(id),
                params.cost_sorted(n, st.corr.c_per_u, st.corr.c_tups),
            ));
            candidates.push((
                AccessPath::SecondaryPipelined(id),
                params.cost_pipelined(n, st.corr.u_tups),
            ));
        }

        // CMs with at least one predicated key attribute. The CM is
        // memory-resident: consult it for the exact bucket count.
        for (id, cm) in table.cms().iter().enumerate() {
            let spec = cm.spec();
            if !spec.attrs().iter().any(|a| q.pred_on(a.col).is_some()) {
                continue;
            }
            let buckets = cm.lookup(&cm_constraints(spec, q));
            let params =
                CostParams::new(&self.disk, tpp, total, table.clustered().height());
            let cost = params.cost_cm(
                buckets.len() as f64,
                1.0,
                table.dir().avg_pages_per_bucket(),
                table.clustered().height() as f64,
            );
            candidates.push((AccessPath::CmScan(id), cost));
        }

        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (path, est_ms) = candidates[0];
        PlanChoice { path, est_ms, alternatives: candidates }
    }

    /// Estimated fraction of the value domain a range predicate covers
    /// (diagnostics).
    pub fn range_fraction(table: &Table, col: usize, lo: &Value, hi: &Value) -> Option<f64> {
        let st = table.col_stats(col)?;
        let (min, max) = (st.min.as_ref()?.as_numeric()?, st.max.as_ref()?.as_numeric()?);
        if max <= min {
            return Some(1.0);
        }
        Some(((hi.as_numeric()?.min(max) - lo.as_numeric()?.max(min)) / (max - min)).clamp(0.0, 1.0))
    }

    /// Estimated distinct keys a range predicate selects: the range
    /// fraction of the column's distinct values, at least one (a
    /// single-valued domain has exactly one). `None` without numeric
    /// statistics for the column.
    pub fn range_keys(table: &Table, col: usize, lo: &Value, hi: &Value) -> Option<f64> {
        let frac = Self::range_fraction(table, col, lo, hi)?;
        let st = table.col_stats(col)?;
        if st.max <= st.min {
            return Some(1.0);
        }
        Some((frac * st.corr.distinct_u as f64).max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use crate::predicate::Pred;
    use cm_core::{CmAttr, CmSpec};
    use cm_storage::{Column, DiskSim, Schema, ValueType};
    use std::sync::Arc;

    /// Table with one correlated attribute (price ~ catid) and one
    /// uncorrelated attribute (tag).
    fn demo(disk: &Arc<DiskSim>) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
            Column::new("tag", ValueType::Int),
        ]));
        let rows: Vec<Vec<cm_storage::Value>> = (0..8000i64)
            .map(|i| {
                let cat = i % 200;
                vec![
                    cm_storage::Value::Int(cat),
                    cm_storage::Value::Int(cat * 50 + (i * 7) % 50),
                    cm_storage::Value::Int((i * 31) % 977),
                ]
            })
            .collect();
        let mut t = Table::build(disk, schema, rows, 20, 0, 40).unwrap();
        t.analyze_cols(&[1, 2]);
        t
    }

    #[test]
    fn selective_eq_on_correlated_column_uses_index() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price", vec![1]);
        let planner = Planner::new(disk.config());
        let choice = planner.choose(&t, &Query::single(Pred::eq(1, 1234i64)));
        assert!(
            matches!(choice.path, AccessPath::SecondarySorted(id) | AccessPath::SecondaryPipelined(id) if id == sec),
            "chose {:?}",
            choice.path
        );
    }

    #[test]
    fn wide_range_on_uncorrelated_column_falls_back_to_scan() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        t.add_secondary(&disk, "tag", vec![2]);
        let planner = Planner::new(disk.config());
        // tag is uncorrelated: a wide IN-list must degrade to a scan cost
        // (the min() bound) and the planner may as well scan.
        let vals: Vec<cm_storage::Value> =
            (0..400).map(|i| cm_storage::Value::Int(i * 2)).collect();
        let choice = planner.choose(&t, &Query::single(Pred::is_in(2, vals)));
        assert_eq!(choice.est_ms, planner_scan_cost(&disk, &t), "cost capped at scan");
        assert!(matches!(choice.path, AccessPath::FullScan | AccessPath::SecondarySorted(_)));
    }

    fn planner_scan_cost(disk: &Arc<DiskSim>, t: &Table) -> f64 {
        CostParams::new(&disk.config(), t.heap().tups_per_page(), t.heap().len(), 1).cost_scan()
    }

    #[test]
    fn cm_chosen_when_cheapest() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let cm = t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 4)]));
        let planner = Planner::new(disk.config());
        let choice = planner.choose(&t, &Query::single(Pred::eq(1, 1234i64)));
        assert_eq!(choice.path, AccessPath::CmScan(cm), "alts: {:?}", choice.alternatives);
    }

    #[test]
    fn plan_estimates_track_execution() {
        // The planner's cost ordering should agree with simulated reality
        // for clearly-separated alternatives.
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        let sec = t.add_secondary(&disk, "price", vec![1]);
        let q = Query::single(Pred::eq(1, 1234i64));
        let planner = Planner::new(disk.config());
        let choice = planner.choose(&t, &q);
        let ctx = ExecContext::cold(&disk);
        let sorted = t.exec_batches(&ctx, AccessPath::SecondarySorted(sec), &q, |_, _| {}).unwrap();
        let scan = t.exec_batches(&ctx, AccessPath::FullScan, &q, |_, _| {}).unwrap();
        assert!(sorted.ms() < scan.ms());
        // Planner agreed: its chosen estimate is below its scan estimate.
        let scan_est = choice
            .alternatives
            .iter()
            .find(|(p, _)| *p == AccessPath::FullScan)
            .unwrap()
            .1;
        assert!(choice.est_ms <= scan_est);
    }

    #[test]
    fn unanalyzed_columns_only_scan() {
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
        ]));
        let rows = (0..100i64)
            .map(|i| vec![cm_storage::Value::Int(i), cm_storage::Value::Int(i)])
            .collect();
        let mut t = Table::build(&disk, schema, rows, 10, 0, 10).unwrap();
        t.add_secondary(&disk, "b", vec![1]); // no analyze_cols(&[1])
        let planner = Planner::new(disk.config());
        let choice = planner.choose(&t, &Query::single(Pred::eq(1, 5i64)));
        assert_eq!(choice.path, AccessPath::FullScan);
    }

    #[test]
    fn range_lookup_estimate_scales_with_width() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let planner = Planner::new(disk.config());
        let narrow = planner
            .n_lookups(&t, 1, &PredOp::Between(cm_storage::Value::Int(0), cm_storage::Value::Int(99)))
            .unwrap();
        let wide = planner
            .n_lookups(&t, 1, &PredOp::Between(cm_storage::Value::Int(0), cm_storage::Value::Int(4999)))
            .unwrap();
        assert!(wide > 10.0 * narrow, "narrow {narrow}, wide {wide}");
    }

    #[test]
    fn alternatives_are_sorted() {
        let disk = DiskSim::with_defaults();
        let mut t = demo(&disk);
        t.add_secondary(&disk, "price", vec![1]);
        t.add_cm("price_cm", CmSpec::new(vec![CmAttr::pow2(1, 4)]));
        let planner = Planner::new(disk.config());
        let choice = planner.choose(&t, &Query::single(Pred::eq(1, 10i64)));
        let costs: Vec<f64> = choice.alternatives.iter().map(|(_, c)| *c).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
        assert!(choice.alternatives.len() >= 4, "scan + 2 index paths + CM");
    }
}
