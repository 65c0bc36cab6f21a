//! **Figure 3** — secondary B+Tree on `shipdate` with a correlated
//! (`receiptdate`) vs. uncorrelated (primary-key) clustered index, for
//! `shipdate IN (1..100 dates)`.
//!
//! The paper: the uncorrelated layout degrades to the cost of a
//! sequential scan within ~4 shipdates; the correlated layout stays far
//! below it through 100 shipdates, and the §4 cost model tracks the
//! correlated curve closely.

use crate::datasets::{tpch_data, tpch_table, BenchScale};
use crate::report::{ms, Report};
use cm_cost::CostParams;
use cm_datagen::tpch::{COL_ORDERKEY, COL_RECEIPTDATE, COL_SHIPDATE};
use cm_query::{AccessPath, ExecContext, Pred, Query};
use cm_storage::DiskSim;

/// Run the experiment.
pub fn run(scale: BenchScale) -> Report {
    let data = tpch_data(scale);
    let ns: Vec<usize> = match scale {
        BenchScale::Full => vec![1, 2, 5, 10, 20, 40, 70, 100],
        BenchScale::Smoke => vec![1, 5, 10],
    };

    // Correlated layout: clustered on receiptdate.
    let disk_a = DiskSim::with_defaults();
    let mut corr = tpch_table(&disk_a, &data, COL_RECEIPTDATE);
    let sec_a = corr.add_secondary(&disk_a, "shipdate_idx", vec![COL_SHIPDATE]);
    corr.analyze_cols(&[COL_SHIPDATE]);

    // Uncorrelated layout: clustered on the primary key.
    let disk_b = DiskSim::with_defaults();
    let mut uncorr = tpch_table(&disk_b, &data, COL_ORDERKEY);
    let sec_b = uncorr.add_secondary(&disk_b, "shipdate_idx", vec![COL_SHIPDATE]);

    // Cost model for the correlated case (§4.1).
    let st = corr.col_stats(COL_SHIPDATE).expect("analyzed").corr.clone();
    let params = CostParams::new(
        &disk_a.config(),
        corr.heap().tups_per_page(),
        corr.heap().len(),
        corr.secondary(sec_a).height(),
    );

    let mut report = Report::new(
        "fig3",
        "B+Tree on shipdate: correlated vs uncorrelated clustering (TPC-H)",
        "uncorrelated curve hits the sequential-scan ceiling within ~4 shipdates; \
         correlated curve stays linear and far below; the cost model tracks it",
        vec![
            "#shipdates",
            "B+Tree (corr)",
            "B+Tree (uncorr)",
            "table scan",
            "model (corr)",
        ],
    );

    let scan_ms = {
        let ctx = ExecContext::cold(&disk_a);
        corr.exec_batches(&ctx, AccessPath::FullScan, &Query::default(), |_, _| {})
            .expect("a full scan uses no access structure")
            .ms()
    };

    let mut corr_at_max = 0.0;
    let mut uncorr_hit_ceiling_at: Option<usize> = None;
    for &n in &ns {
        let dates = data.random_shipdates(n, 0xF3);
        let q = Query::single(Pred::is_in(COL_SHIPDATE, dates));
        disk_a.reset();
        let ctx_a = ExecContext::cold(&disk_a);
        let r_corr = corr
            .exec_batches(&ctx_a, AccessPath::SecondarySorted(sec_a), &q, |_, _| {})
            .expect("shipdate predicate");
        disk_b.reset();
        let ctx_b = ExecContext::cold(&disk_b);
        let r_uncorr = uncorr
            .exec_batches(&ctx_b, AccessPath::SecondarySorted(sec_b), &q, |_, _| {})
            .expect("shipdate predicate");
        let model = params.cost_sorted(n as f64, st.c_per_u, st.c_tups);
        corr_at_max = r_corr.ms();
        if uncorr_hit_ceiling_at.is_none() && r_uncorr.ms() > 0.8 * scan_ms {
            uncorr_hit_ceiling_at = Some(n);
        }
        report.push(
            n.to_string(),
            vec![ms(r_corr.ms()), ms(r_uncorr.ms()), ms(scan_ms), ms(model)],
        );
    }

    report.commentary = format!(
        "uncorrelated reaches >=80% of the scan ceiling at n={} lookups and stays \
         pinned at/above it; correlated grows linearly and is at {:.0}% of the scan at \
         n={}. The model line shares the correlated shape but overestimates it — the \
         paper's own §4.1 caveat (overlapping Ac sets for adjacent lookups make the \
         model conservative), amplified here by intra-query index-page caching",
        uncorr_hit_ceiling_at.map_or_else(|| "-".into(), |n| n.to_string()),
        100.0 * corr_at_max / scan_ms,
        ns.last().unwrap()
    );
    report
}
