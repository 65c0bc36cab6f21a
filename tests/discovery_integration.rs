//! Integration: soft-FD discovery and the clustering designer find the
//! correlations the generated datasets were built to contain.

use cm_advisor::{discover_soft_fds, recommend_clustering, Sample};
use cm_datagen::{sdss, tpch};
use cm_query::{Pred, Query, Table};
use cm_storage::{DiskSim, Value};

fn sample(t: &Table) -> Sample<'_> {
    Sample::live(t, 8_000)
}

#[test]
fn tpch_shipdate_receiptdate_fd_is_discovered() {
    let data = tpch::tpch_lineitem(tpch::TpchConfig {
        rows: 40_000,
        parts: 2_000,
        suppliers: 100,
        seed: 31,
    });
    let disk = DiskSim::with_defaults();
    let t = Table::build(
        &disk,
        data.schema.clone(),
        data.rows.clone(),
        60,
        tpch::COL_RECEIPTDATE,
        600,
    )
    .unwrap();
    let fds = discover_soft_fds(
        &sample(&t),
        &[tpch::COL_SHIPDATE, tpch::COL_SHIPMODE, tpch::COL_QUANTITY],
        tpch::COL_RECEIPTDATE,
    );
    let ship = fds
        .iter()
        .find(|f| f.determinant == vec![tpch::COL_SHIPDATE])
        .expect("shipdate -> receiptdate discovered");
    assert!(ship.c_per_u < 8.0, "strength {}", ship.c_per_u);
    // shipmode (7 values) and quantity (50 values) do not determine
    // receiptdate.
    assert!(!fds.iter().any(|f| f.determinant == vec![tpch::COL_SHIPMODE]));
    assert!(!fds.iter().any(|f| f.determinant == vec![tpch::COL_QUANTITY]));
}

#[test]
fn tpch_partkey_suppkey_fd_is_discovered() {
    let data = tpch::tpch_lineitem(tpch::TpchConfig {
        rows: 40_000,
        parts: 2_000,
        suppliers: 100,
        seed: 32,
    });
    let disk = DiskSim::with_defaults();
    let t = Table::build(
        &disk,
        data.schema.clone(),
        data.rows.clone(),
        60,
        tpch::COL_SUPPKEY,
        600,
    )
    .unwrap();
    let fds = discover_soft_fds(&sample(&t), &[tpch::COL_PARTKEY], tpch::COL_SUPPKEY);
    let part = fds.first().expect("partkey -> suppkey discovered");
    assert!(part.c_per_u <= 4.5, "each part has at most 4 suppliers: {}", part.c_per_u);
}

#[test]
fn sdss_ra_dec_pair_fd_is_discovered() {
    // The Experiment 5 discovery: neither ra nor dec determines the sky
    // block, the pair does. Discovery runs against a coarse position
    // column (objID blocks) like the CM advisor's clustered bucketing.
    let data = sdss::sdss(sdss::SdssConfig { rows: 30_000, fields: 251, stripes: 20, seed: 33 });
    let disk = DiskSim::with_defaults();
    // Derive a block column so the dependent has workable cardinality.
    let mut rows = data.rows.clone();
    let block_col = data.schema.arity();
    let schema = {
        let mut cols = data.schema.columns().to_vec();
        cols.push(cm_storage::Column::new("objBlock", cm_storage::ValueType::Int));
        std::sync::Arc::new(cm_storage::Schema::new(cols))
    };
    for (i, row) in rows.iter_mut().enumerate() {
        row.push(Value::Int(i as i64 / 100));
    }
    let t = Table::build(&disk, schema, rows, 25, block_col, 250).unwrap();

    // Discretize ra/dec as the advisor's bucketings would.
    let fds = discover_soft_fds(&sample(&t), &[sdss::COL_FIELDID, sdss::COL_MODE], block_col);
    let field = fds
        .iter()
        .find(|f| f.determinant == vec![sdss::COL_FIELDID])
        .expect("fieldID determines the position block");
    assert!(field.c_per_u < 3.0);
    assert!(!fds.iter().any(|f| f.determinant == vec![sdss::COL_MODE]));
}

#[test]
fn clustering_designer_picks_position_attr_for_position_workload() {
    // Large enough that a few correlated clustered-value groups beat
    // half the scan cost.
    let data = sdss::sdss(sdss::SdssConfig { rows: 80_000, fields: 251, stripes: 20, seed: 34 });
    let disk = DiskSim::with_defaults();
    let t = Table::build(
        &disk,
        data.schema.clone(),
        data.rows.clone(),
        25,
        sdss::COL_OBJID,
        250,
    )
    .unwrap();
    // Workload of fieldID point lookups.
    let workload: Vec<Query> = (0..8)
        .map(|i| Query::single(Pred::eq(sdss::COL_FIELDID, (i * 30) as i64)))
        .collect();
    // Candidates: a position-family attribute vs an independent one.
    let mjd = t.heap().schema().col_index("mjd").unwrap();
    let status = t.heap().schema().col_index("status").unwrap();
    let ranked = recommend_clustering(&sample(&t), &disk.config(), &workload, &[mjd, status]);
    assert_eq!(ranked[0].col, mjd, "position attr wins: {ranked:?}");
    assert!(ranked[0].workload_ms < ranked[1].workload_ms);
    assert!(
        ranked[0].accelerated >= ranked[1].accelerated,
        "correlated clustering accelerates at least as many queries: {ranked:?}"
    );
    assert!(ranked[0].accelerated >= 6, "{ranked:?}");
}
