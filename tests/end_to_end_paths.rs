//! Integration: all four physical access paths return identical answers
//! on all three generated datasets, and the simulated costs order the
//! way the paper's experiments say they should.

use cm_core::{BucketSpec, CmAttr, CmSpec};
use cm_datagen::{ebay, sdss, tpch};
use cm_query::{AccessPath, ExecContext, Pred, Query, Table};
use cm_storage::{DiskSim, Value};

fn assert_paths_agree(table: &Table, disk: &std::sync::Arc<DiskSim>, sec: usize, cm: usize, q: &Query) {
    let ctx = ExecContext::cold(disk);
    let matched = |path| table.exec_batches(&ctx, path, q, |_, _| {}).unwrap().matched;
    let truth = matched(AccessPath::FullScan);
    for path in [
        AccessPath::SecondarySorted(sec),
        AccessPath::SecondaryPipelined(sec),
        AccessPath::CmScan(cm),
    ] {
        assert_eq!(matched(path), truth, "{path:?} {q:?}");
    }
}

#[test]
fn ebay_price_queries_agree_on_all_paths() {
    let data = ebay::ebay(ebay::EbayConfig {
        categories: 300,
        min_items: 5,
        max_items: 15,
        seed: 1,
    });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 900)
        .unwrap();
    let sec = t.add_secondary(&disk, "price", vec![ebay::COL_PRICE]);
    let cm = t.add_cm("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 12));
    for q in [
        Query::single(Pred::between(ebay::COL_PRICE, 100_000i64, 150_000i64)),
        Query::single(Pred::eq(ebay::COL_PRICE, data.rows[42][ebay::COL_PRICE].clone().as_int().unwrap())),
        Query::single(Pred::is_in(
            ebay::COL_PRICE,
            (0..5).map(|i| data.rows[i * 37][ebay::COL_PRICE].clone()).collect(),
        )),
        Query::new(vec![
            Pred::between(ebay::COL_PRICE, 0i64, 500_000i64),
            Pred::eq(ebay::COL_CATID, 17i64),
        ]),
    ] {
        assert_paths_agree(&t, &disk, sec, cm, &q);
    }
}

#[test]
fn tpch_shipdate_queries_agree_and_order_correctly() {
    let data = tpch::tpch_lineitem(tpch::TpchConfig {
        rows: 30_000,
        parts: 1_000,
        suppliers: 50,
        seed: 2,
    });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(
        &disk,
        data.schema.clone(),
        data.rows.clone(),
        60,
        tpch::COL_RECEIPTDATE,
        600,
    )
    .unwrap();
    let sec = t.add_secondary(&disk, "ship", vec![tpch::COL_SHIPDATE]);
    let cm = t.add_cm("ship_cm", CmSpec::single_raw(tpch::COL_SHIPDATE));
    let q = Query::single(Pred::is_in(tpch::COL_SHIPDATE, data.random_shipdates(5, 3)));
    assert_paths_agree(&t, &disk, sec, cm, &q);

    // Ordering: correlated sorted scan beats pipelined by a wide margin.
    let ctx = ExecContext::cold(&disk);
    let sorted = t.exec_batches(&ctx, AccessPath::SecondarySorted(sec), &q, |_, _| {}).unwrap();
    let pipelined = t.exec_batches(&ctx, AccessPath::SecondaryPipelined(sec), &q, |_, _| {}).unwrap();
    // Postings come back rid-ascending per value, so even the pipelined
    // path gets some short-skip locality; the sorted scan still wins
    // clearly by merging across values.
    assert!(sorted.ms() * 1.5 < pipelined.ms(), "{} vs {}", sorted.ms(), pipelined.ms());
}

#[test]
fn sdss_composite_cm_agrees_and_wins() {
    let data = sdss::sdss(sdss::SdssConfig { rows: 20_000, fields: 251, stripes: 20, seed: 3 });
    let disk = DiskSim::with_defaults();
    let mut t =
        Table::build(&disk, data.schema.clone(), data.rows.clone(), 25, sdss::COL_OBJID, 250)
            .unwrap();
    let bt = t.add_secondary(&disk, "ra_dec", vec![sdss::COL_RA, sdss::COL_DEC]);
    let cm_pair = t.add_cm(
        "cm_pair",
        CmSpec::new(vec![
            CmAttr { col: sdss::COL_RA, bucket: BucketSpec::covering(0.0, 360.0, 4096) },
            CmAttr { col: sdss::COL_DEC, bucket: BucketSpec::covering(-10.0, 10.0, 16_384) },
        ]),
    );
    let cm_ra = t.add_cm(
        "cm_ra",
        CmSpec::new(vec![CmAttr { col: sdss::COL_RA, bucket: BucketSpec::covering(0.0, 360.0, 4096) }]),
    );
    let q = Query::new(vec![
        Pred::between(sdss::COL_RA, 120.0, 130.0),
        Pred::between(sdss::COL_DEC, 3.1, 3.4),
    ]);
    let ctx = ExecContext::cold(&disk);
    let matched = |path| t.exec_batches(&ctx, path, &q, |_, _| {}).unwrap().matched;
    let truth = matched(AccessPath::FullScan);
    assert!(truth > 0, "query selects something");
    assert_eq!(matched(AccessPath::SecondarySorted(bt)), truth);
    assert_eq!(matched(AccessPath::CmScan(cm_pair)), truth);
    assert_eq!(matched(AccessPath::CmScan(cm_ra)), truth);

    // Experiment 5's ordering: composite CM beats the single-attribute CM
    // and the composite B+Tree on this two-range query.
    let r_pair = t.exec_batches(&ctx, AccessPath::CmScan(cm_pair), &q, |_, _| {}).unwrap();
    let r_ra = t.exec_batches(&ctx, AccessPath::CmScan(cm_ra), &q, |_, _| {}).unwrap();
    let r_bt = t.exec_batches(&ctx, AccessPath::SecondarySorted(bt), &q, |_, _| {}).unwrap();
    assert!(r_pair.ms() < r_ra.ms(), "pair {} vs ra {}", r_pair.ms(), r_ra.ms());
    assert!(r_pair.ms() < r_bt.ms(), "pair {} vs btree {}", r_pair.ms(), r_bt.ms());
    // The fine-bucketed pair CM is smaller than the dense index even at
    // this tiny scale (where almost every object owns its own bucket
    // pair); a coarser composite shows the real compression, since its
    // entry count is bounded by occupied sky cells, not rows.
    assert!(t.cm(cm_pair).size_bytes() < t.secondary(bt).size_bytes());
    let mut t2 = Table::build(&disk, data.schema.clone(), data.rows.clone(), 25, sdss::COL_OBJID, 250)
        .unwrap();
    let coarse = t2.add_cm(
        "cm_coarse",
        CmSpec::new(vec![
            CmAttr { col: sdss::COL_RA, bucket: BucketSpec::covering(0.0, 360.0, 64) },
            CmAttr { col: sdss::COL_DEC, bucket: BucketSpec::covering(-10.0, 10.0, 64) },
        ]),
    );
    let bt2 = t2.add_secondary(&disk, "ra_dec", vec![sdss::COL_RA, sdss::COL_DEC]);
    assert!(
        t2.cm(coarse).size_bytes() * 4 < t2.secondary(bt2).size_bytes(),
        "coarse composite CM {} vs B+Tree {}",
        t2.cm(coarse).size_bytes(),
        t2.secondary(bt2).size_bytes()
    );
}

#[test]
fn cm_examined_rows_are_superset_of_matches() {
    let data = ebay::ebay(ebay::EbayConfig {
        categories: 200,
        min_items: 5,
        max_items: 10,
        seed: 9,
    });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 450)
        .unwrap();
    let cm = t.add_cm("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 14));
    let q = Query::single(Pred::between(ebay::COL_PRICE, 200_000i64, 220_000i64));
    let ctx = ExecContext::cold(&disk);
    let r = t.exec_batches(&ctx, AccessPath::CmScan(cm), &q, |_, _| {}).unwrap();
    assert!(r.examined >= r.matched);
    assert_eq!(r.matched, t.exec_batches(&ctx, AccessPath::FullScan, &q, |_, _| {}).unwrap().matched);
}

#[test]
fn uncorrelated_cm_approaches_scan_cost() {
    // The §5.3 caveat: a CM over an attribute uncorrelated with the
    // clustering cannot localize access.
    let data = tpch::tpch_lineitem(tpch::TpchConfig {
        rows: 20_000,
        parts: 500,
        suppliers: 25,
        seed: 4,
    });
    let disk = DiskSim::with_defaults();
    // Cluster on orderkey; suppkey is uncorrelated with insertion order.
    let mut t = Table::build(
        &disk,
        data.schema.clone(),
        data.rows.clone(),
        60,
        tpch::COL_ORDERKEY,
        600,
    )
    .unwrap();
    let cm = t.add_cm("supp_cm", CmSpec::single_raw(tpch::COL_SUPPKEY));
    let q = Query::single(Pred::eq(tpch::COL_SUPPKEY, 7i64));
    let ctx = ExecContext::cold(&disk);
    let r = t.exec_batches(&ctx, AccessPath::CmScan(cm), &q, |_, _| {}).unwrap();
    let scan = t.exec_batches(&ctx, AccessPath::FullScan, &q, |_, _| {}).unwrap();
    assert!(
        r.io.pages() as f64 > 0.5 * scan.io.pages() as f64,
        "uncorrelated CM touches most of the table ({} vs {} pages)",
        r.io.pages(),
        scan.io.pages()
    );
}

#[test]
fn warm_pool_executions_cost_less_than_cold() {
    let data = ebay::ebay(ebay::EbayConfig {
        categories: 200,
        min_items: 5,
        max_items: 10,
        seed: 5,
    });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 450)
        .unwrap();
    let cm = t.add_cm("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 12));
    let q = Query::single(Pred::between(ebay::COL_PRICE, 100_000i64, 120_000i64));
    let pool = cm_storage::BufferPool::new(disk.clone(), 4096);
    let ctx = ExecContext::through(&disk, &pool);
    let cold = t.exec_batches(&ctx, AccessPath::CmScan(cm), &q, |_, _| {}).unwrap();
    let warm = t.exec_batches(&ctx, AccessPath::CmScan(cm), &q, |_, _| {}).unwrap();
    assert_eq!(cold.matched, warm.matched);
    assert!(warm.ms() < 0.1 * cold.ms(), "warm {} vs cold {}", warm.ms(), cold.ms());
}

#[test]
fn planner_prefers_index_paths_for_selective_lookup() {
    // Large enough that a scan clearly exceeds a few CM bucket visits.
    let data = ebay::ebay(ebay::EbayConfig {
        categories: 2_000,
        min_items: 10,
        max_items: 20,
        seed: 6,
    });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(&disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 900)
        .unwrap();
    t.analyze_cols(&[ebay::COL_PRICE]);
    t.add_secondary(&disk, "price", vec![ebay::COL_PRICE]);
    let cm = t.add_cm("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 12));
    let planner = cm_query::Planner::new(disk.config());
    let some_price = data.rows[100][ebay::COL_PRICE].clone();
    let choice = planner.choose(&t, &Query::single(Pred { col: ebay::COL_PRICE, op: cm_query::PredOp::Eq(some_price) }));
    // The planner must leave the scan behind for a selective correlated
    // lookup; whether the sorted index or the CM wins depends on the
    // estimated bucket fan-out, and both estimates must beat the scan.
    assert_ne!(choice.path, cm_query::AccessPath::FullScan, "alts {:?}", choice.alternatives);
    let scan_est = choice
        .alternatives
        .iter()
        .find(|(p, _)| *p == cm_query::AccessPath::FullScan)
        .unwrap()
        .1;
    assert!(choice.est_ms < scan_est);
    let cm_est = choice
        .alternatives
        .iter()
        .find(|(p, _)| *p == cm_query::AccessPath::CmScan(cm))
        .unwrap()
        .1;
    assert!(cm_est <= scan_est, "CM never estimated above the scan ceiling");
}

#[test]
fn values_survive_round_trip_through_all_layers() {
    // A smoke test that strings, floats, dates, and ints all work as CM
    // attributes and index keys simultaneously.
    let data = tpch::tpch_lineitem(tpch::TpchConfig {
        rows: 5_000,
        parts: 200,
        suppliers: 20,
        seed: 8,
    });
    let disk = DiskSim::with_defaults();
    let mut t = Table::build(
        &disk,
        data.schema.clone(),
        data.rows.clone(),
        60,
        tpch::COL_RECEIPTDATE,
        300,
    )
    .unwrap();
    let sec = t.add_secondary(&disk, "mode", vec![tpch::COL_SHIPMODE]);
    let cm = t.add_cm("mode_cm", CmSpec::single_raw(tpch::COL_SHIPMODE));
    let q = Query::single(Pred::eq(tpch::COL_SHIPMODE, Value::str("AIR")));
    assert_paths_agree(&t, &disk, sec, cm, &q);
}
