//! **Figure 6 / Experiment 1** — CM vs. secondary B+Tree for price-range
//! queries over the eBay catalog clustered on CATID, served end-to-end by
//! the `cm-engine` facade (catalog + cost-routed execution) instead of a
//! hand-wired `Table`.
//!
//! The paper: both are an order of magnitude faster than a table scan
//! (>100 s, omitted from their plot); the CM runs 1–4 s behind the
//! B+Tree because bucketing reads extraneous heap pages — while being
//! three orders of magnitude smaller (0.9 MB vs 860 MB).

use crate::datasets::{ebay_data, ebay_engine, BenchScale};
use crate::report::{bytes, ms, Report};
use cm_core::CmSpec;
use cm_datagen::ebay::COL_PRICE;
use cm_engine::EngineConfig;
use cm_query::{AccessPath, Pred, Query};

/// Run the experiment.
pub fn run(scale: BenchScale) -> Report {
    let data = ebay_data(scale);
    let engine = ebay_engine(&data, EngineConfig::default());
    let sec = engine
        .create_btree("items", "price_idx", vec![COL_PRICE])
        .expect("index");
    // Experiment 1's bucket choice: 4096 price values per bucket (2^12).
    let cm = engine
        .create_cm("items", "price_cm", CmSpec::single_pow2(COL_PRICE, 12))
        .expect("CM");

    let ranges: Vec<i64> = match scale {
        BenchScale::Full => (0..=10).map(|i| i * 1000).collect(),
        BenchScale::Smoke => vec![0, 5000, 10_000],
    };

    let mut report = Report::new(
        "fig6",
        "CM vs B+Tree for Price BETWEEN 1000 AND 1000+range (eBay, clustered CATID, \
         via cm-engine)",
        "CM runs slightly behind the B+Tree (extraneous bucketed pages) but an order \
         of magnitude ahead of a scan, at ~1/1000th the B+Tree's size",
        vec![
            "range [$]",
            "CM",
            "B+Tree",
            "table scan",
            "CM examined/matched",
        ],
    );

    // Cold session, as in the paper's flushed-cache query runs.
    let mut session = engine.session();
    session.set_cold_reads(true);

    let mut worst_ratio: f64 = 0.0;
    let mut scan_ms_last = 0.0;
    for &r in &ranges {
        let q = Query::single(Pred::between(COL_PRICE, 1000i64, 1000 + r));
        engine.disk().reset();
        let cm_run = session
            .execute_via("items", AccessPath::CmScan(cm), &q)
            .unwrap();
        let bt_run = session
            .execute_via("items", AccessPath::SecondarySorted(sec), &q)
            .unwrap();
        let scan = session
            .execute_via("items", AccessPath::FullScan, &q)
            .unwrap();
        scan_ms_last = scan.run.ms();
        worst_ratio = worst_ratio.max(cm_run.run.ms() / bt_run.run.ms().max(1e-9));
        report.push(
            r.to_string(),
            vec![
                ms(cm_run.run.ms()),
                ms(bt_run.run.ms()),
                ms(scan.run.ms()),
                format!("{}/{}", cm_run.run.examined, cm_run.run.matched),
            ],
        );
    }

    let (cm_size, bt_size) = engine
        .with_table("items", |t| {
            (t.cm(cm).size_bytes(), t.secondary(sec).size_bytes())
        })
        .unwrap();
    report.commentary = format!(
        "CM stays within {:.1}x of the B+Tree and far below the {} scan; sizes: CM {} \
         vs B+Tree {} ({}x smaller)",
        worst_ratio,
        ms(scan_ms_last),
        bytes(cm_size),
        bytes(bt_size),
        bt_size / cm_size.max(1)
    );
    report
}
