//! Criterion wrappers over the paper's access-path comparisons, so that
//! `cargo bench` exercises the full query paths end-to-end (simulated
//! I/O included). One benchmark per headline comparison:
//!
//! * Experiment 1 (Figure 6): CM vs. B+Tree vs. scan on an eBay price
//!   range.
//! * Figure 3: correlated vs. uncorrelated sorted index scan on TPC-H.
//! * Experiment 5 (Table 6): composite CM vs. composite B+Tree on SDSS.

use cm_bench::datasets::{
    ebay_data, ebay_table, sdss_data, sdss_table, tpch_data, tpch_table, BenchScale,
};
use cm_core::{BucketSpec, CmAttr, CmSpec};
use cm_datagen::{ebay::COL_PRICE, sdss, tpch};
use cm_query::{AccessPath, ExecContext, Pred, Query};
use cm_storage::DiskSim;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_experiment1_ebay(c: &mut Criterion) {
    let data = ebay_data(BenchScale::Smoke);
    let disk = DiskSim::with_defaults();
    let mut table = ebay_table(&disk, &data);
    let sec = table.add_secondary(&disk, "price", vec![COL_PRICE]);
    let cm = table.add_cm("price_cm", CmSpec::single_pow2(COL_PRICE, 12));
    let q = Query::single(Pred::between(COL_PRICE, 1000i64, 6000i64));

    let mut g = c.benchmark_group("exp1_ebay_price_range");
    g.bench_function("cm_scan", |b| {
        b.iter(|| {
            disk.reset();
            let ctx = ExecContext::cold(&disk);
            black_box(table.exec_batches(&ctx, AccessPath::CmScan(cm), &q, |_, _| {}).unwrap())
        })
    });
    g.bench_function("btree_sorted_scan", |b| {
        b.iter(|| {
            disk.reset();
            let ctx = ExecContext::cold(&disk);
            black_box(table.exec_batches(&ctx, AccessPath::SecondarySorted(sec), &q, |_, _| {}))
        })
    });
    g.bench_function("full_scan", |b| {
        b.iter(|| {
            disk.reset();
            let ctx = ExecContext::cold(&disk);
            black_box(table.exec_batches(&ctx, AccessPath::FullScan, &q, |_, _| {}).unwrap())
        })
    });
    g.finish();
}

fn bench_figure3_tpch(c: &mut Criterion) {
    let data = tpch_data(BenchScale::Smoke);
    let disk_a = DiskSim::with_defaults();
    let mut corr = tpch_table(&disk_a, &data, tpch::COL_RECEIPTDATE);
    let sec_a = corr.add_secondary(&disk_a, "ship", vec![tpch::COL_SHIPDATE]);
    let disk_b = DiskSim::with_defaults();
    let mut uncorr = tpch_table(&disk_b, &data, tpch::COL_ORDERKEY);
    let sec_b = uncorr.add_secondary(&disk_b, "ship", vec![tpch::COL_SHIPDATE]);
    let q = Query::single(Pred::is_in(
        tpch::COL_SHIPDATE,
        data.random_shipdates(10, 1),
    ));

    let mut g = c.benchmark_group("fig3_shipdate_in10");
    g.bench_function("correlated_clustering", |b| {
        b.iter(|| {
            disk_a.reset();
            let ctx = ExecContext::cold(&disk_a);
            black_box(corr.exec_batches(&ctx, AccessPath::SecondarySorted(sec_a), &q, |_, _| {}))
        })
    });
    g.bench_function("uncorrelated_clustering", |b| {
        b.iter(|| {
            disk_b.reset();
            let ctx = ExecContext::cold(&disk_b);
            black_box(uncorr.exec_batches(&ctx, AccessPath::SecondarySorted(sec_b), &q, |_, _| {}))
        })
    });
    g.finish();
}

fn bench_experiment5_sdss(c: &mut Criterion) {
    let data = sdss_data(BenchScale::Smoke);
    let disk = DiskSim::with_defaults();
    let mut table = sdss_table(&disk, &data, sdss::COL_OBJID);
    let cm_pair = table.add_cm(
        "ra_dec",
        CmSpec::new(vec![
            CmAttr {
                col: sdss::COL_RA,
                bucket: BucketSpec::covering(0.0, 360.0, 1 << 14),
            },
            CmAttr {
                col: sdss::COL_DEC,
                bucket: BucketSpec::covering(-10.0, 10.0, 1 << 16),
            },
        ]),
    );
    let bt = table.add_secondary(&disk, "ra_dec", vec![sdss::COL_RA, sdss::COL_DEC]);
    let q = Query::new(vec![
        Pred::between(sdss::COL_RA, 100.0, 110.0),
        Pred::between(sdss::COL_DEC, 1.0, 2.0),
    ]);

    let mut g = c.benchmark_group("exp5_sdss_two_ranges");
    g.bench_function("composite_cm", |b| {
        b.iter(|| {
            disk.reset();
            let ctx = ExecContext::cold(&disk);
            black_box(table.exec_batches(&ctx, AccessPath::CmScan(cm_pair), &q, |_, _| {}).unwrap())
        })
    });
    g.bench_function("composite_btree", |b| {
        b.iter(|| {
            disk.reset();
            let ctx = ExecContext::cold(&disk);
            black_box(table.exec_batches(&ctx, AccessPath::SecondarySorted(bt), &q, |_, _| {}))
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_experiment1_ebay, bench_figure3_tpch, bench_experiment5_sdss
);
criterion_main!(benches);
