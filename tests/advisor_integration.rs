//! Integration: the CM Advisor's recommendations are *actionable* — a
//! recommended design, once materialized as a real CM, answers the
//! training query correctly, beats the advisor's own size bound, and its
//! estimated statistics track the materialized structure.

use cm_advisor::{Advisor, Recommendation, Sample};
use cm_core::CmSpec;
use cm_datagen::ebay::{self, ebay, EbayConfig};
use cm_datagen::sdss;
use cm_query::{AccessPath, ExecContext, Pred, Query, Table};
use cm_storage::{DiskSim, Value};

fn recommend(t: &Table, disk: &DiskSim, q: &Query, threshold: f64) -> Recommendation {
    Advisor::recommend(&Sample::live(t, 5_000), &disk.config(), q, threshold)
}

#[test]
fn recommended_design_materializes_and_answers_correctly() {
    let data = ebay(EbayConfig { categories: 400, min_items: 8, max_items: 16, seed: 21 });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 900)
        .unwrap();
    t.analyze_cols(&[ebay::COL_PRICE]);
    let q = Query::single(Pred::between(ebay::COL_PRICE, 200_000i64, 205_000i64));
    let rec = recommend(&t, &disk, &q, 0.25);
    let chosen = rec.chosen_design().expect("qualifying design").clone();

    let cm = t.add_cm("advisor_cm", CmSpec::new(chosen.design.attrs.clone()));
    let ctx = ExecContext::cold(&disk);
    let truth = t.exec_batches(&ctx, AccessPath::FullScan, &q, |_, _| {}).unwrap().matched;
    let r = t.exec_batches(&ctx, AccessPath::CmScan(cm), &q, |_, _| {}).unwrap();
    assert_eq!(r.matched, truth, "materialized recommendation answers correctly");

    // The estimated size tracks the materialized size within a small
    // factor (both are pair-count models; the estimate uses AE).
    let actual = t.cm(cm).size_bytes() as f64;
    assert!(
        chosen.size_bytes < 6.0 * actual && chosen.size_bytes * 6.0 > actual,
        "estimated {} vs actual {actual}",
        chosen.size_bytes
    );
}

#[test]
fn estimated_c_per_u_tracks_materialized_cm() {
    let data = ebay(EbayConfig { categories: 300, min_items: 6, max_items: 12, seed: 22 });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 450)
        .unwrap();
    t.analyze_cols(&[ebay::COL_PRICE]);
    let q = Query::single(Pred::eq(ebay::COL_PRICE, 123_456i64));
    let rec = recommend(&t, &disk, &q, 0.5);
    for est in rec.designs.iter().take(6) {
        let cm = t.add_cm("probe", CmSpec::new(est.design.attrs.clone()));
        let actual = t.cm(cm).avg_cbuckets_per_key();
        assert!(
            est.c_per_u < 4.0 * actual + 2.0 && actual < 4.0 * est.c_per_u + 2.0,
            "design {:?}: estimated {} vs actual {}",
            est.design.attrs,
            est.c_per_u,
            actual
        );
    }
}

#[test]
fn advisor_prefers_composite_for_jointly_determining_attrs() {
    // The Experiment 5 situation: (ra, dec) jointly determine objID.
    let data = sdss::sdss(sdss::SdssConfig { rows: 20_000, fields: 251, stripes: 20, seed: 23 });
    let disk = DiskSim::with_defaults();
    let mut t =
        Table::build(&disk, data.schema.clone(), data.rows.clone(), 25, sdss::COL_OBJID, 250)
            .unwrap();
    t.analyze_cols(&[sdss::COL_RA, sdss::COL_DEC]);
    let q = Query::new(vec![
        Pred::between(sdss::COL_RA, 100.0, 101.4),
        Pred::between(sdss::COL_DEC, 2.0, 2.144),
    ]);
    let rec = recommend(&t, &disk, &q, 0.10);
    // Among the cheapest few designs there must be a composite one, and
    // the single-attribute ra design must not be the best.
    let best = &rec.designs[0];
    assert!(
        rec.designs.iter().take(5).any(|d| d.design.attrs.len() == 2),
        "a composite design ranks near the top"
    );
    let ra_raw_cost = rec
        .designs
        .iter()
        .find(|d| d.design.attrs.len() == 1 && d.design.attrs[0].col == sdss::COL_RA)
        .map(|d| d.cost_ms);
    if let Some(ra_cost) = ra_raw_cost {
        assert!(best.cost_ms <= ra_cost, "best ({}) beats ra-alone ({ra_cost})", best.cost_ms);
    }
}

#[test]
fn advisor_never_recommends_over_threshold() {
    let data = ebay(EbayConfig { categories: 300, min_items: 6, max_items: 12, seed: 24 });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 450)
        .unwrap();
    t.analyze_cols(&[ebay::COL_PRICE, ebay::COL_CAT5]);
    let q = Query::new(vec![
        Pred::between(ebay::COL_PRICE, 100_000i64, 140_000i64),
        Pred::eq(ebay::COL_CAT5, Value::str("L5-00003")),
    ]);
    for threshold in [0.01, 0.10, 0.50] {
        let rec = recommend(&t, &disk, &q, threshold);
        if let Some(c) = rec.chosen_design() {
            assert!(c.slowdown <= threshold + 1e-9, "threshold {threshold}: {}", c.slowdown);
        }
        // Designs are sorted by cost.
        for w in rec.designs.windows(2) {
            assert!(w[0].cost_ms <= w[1].cost_ms + 1e-9);
        }
    }
}

#[test]
fn tighter_thresholds_recommend_larger_faster_designs() {
    let data = ebay(EbayConfig { categories: 400, min_items: 8, max_items: 16, seed: 25 });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 900)
        .unwrap();
    t.analyze_cols(&[ebay::COL_PRICE]);
    let q = Query::single(Pred::between(ebay::COL_PRICE, 300_000i64, 302_000i64));
    let tight = recommend(&t, &disk, &q, 0.02);
    let loose = recommend(&t, &disk, &q, 1.0);
    let (Some(tc), Some(lc)) = (tight.chosen_design(), loose.chosen_design()) else {
        panic!("both thresholds should yield a recommendation");
    };
    assert!(
        lc.size_bytes <= tc.size_bytes + 1e-9,
        "looser threshold admits smaller designs: {} vs {}",
        lc.size_bytes,
        tc.size_bytes
    );
}
