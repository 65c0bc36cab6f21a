//! Property tests for vectored run I/O: for arbitrary data, queries, and
//! pool capacities, the run-based full-scan / sorted / CM sweeps return
//! row-for-row identical results and touch identical page *counts* to
//! the per-page oracle (`run_io`'s [`PerPageIo`] restores the
//! page-at-a-time charging the engine used before vectoring). Only the
//! seek/sequential pricing under concurrency may differ — which is the
//! entire point of the conversion.

use cm_bench::experiments::run_io::PerPageIo;
use cm_core::CmSpec;
use cm_query::{ExecContext, Pred, Query, Table};
use cm_storage::{
    BufferPool, Column, DiskConfig, DiskSim, FileDisk, IoStats, PageAccessor, Row, Schema,
    TempDir, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("k", ValueType::Int),
        Column::new("v", ValueType::Int),
    ]))
}

/// Clustered keys from a small domain with a correlated second column —
/// CM buckets then map value ranges to a few clustered page runs, the
/// access pattern under study.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..40, 0i64..30), 1..600)
        .prop_map(|v| v.into_iter().map(|(k, noise)| (k, k * 10 + noise)).collect())
}

fn build_table(disk: &Arc<DiskSim>, data: &[(i64, i64)]) -> Table {
    let rows: Vec<Row> =
        data.iter().map(|&(k, v)| vec![Value::Int(k), Value::Int(v)]).collect();
    let mut t = Table::build(disk, schema(), rows, 8, 0, 16).expect("rows conform");
    t.add_secondary(disk, "v_idx", vec![1]);
    t.add_cm("v_cm", CmSpec::single_pow2(1, 3));
    t
}

/// Brute-force oracle in heap (RID) order — every converted path visits
/// matching rows in ascending page order, so plain equality must hold.
fn oracle(t: &Table, q: &Query) -> Vec<Row> {
    let rows = t.live_rids(0).map(|rid| t.heap().peek(rid).unwrap());
    rows.filter(|r| q.matches(r)).collect()
}

fn queries(lo: i64, span: i64, point: i64) -> Vec<Query> {
    vec![
        Query::single(Pred::eq(1, point)),
        Query::single(Pred::between(1, lo, lo + span)),
        Query::single(Pred::is_in(
            1,
            vec![Value::Int(point), Value::Int(lo), Value::Int(point), Value::Int(lo + span)],
        )),
        Query::new(vec![Pred::between(1, lo, lo + span), Pred::eq(0, point / 10)]),
        Query::single(Pred::between(1, 0, 1_000)),
    ]
}

/// Execute one access path through `io`, collecting the matched rows.
fn run_path(t: &Table, disk: &Arc<DiskSim>, io: &dyn PageAccessor, path: usize, q: &Query) -> Vec<Row> {
    let ctx = ExecContext::through(disk, io);
    let mut rows: Vec<Row> = Vec::new();
    let mut visit = |r: &[Value]| rows.push(r.to_vec());
    match path {
        0 => {
            t.exec_full_scan_visit(&ctx, q, &mut visit);
        }
        1 => {
            t.exec_secondary_sorted_visit(&ctx, 0, q, &mut visit).expect("v predicate");
        }
        _ => {
            t.exec_cm_scan_visit(&ctx, 0, q, &mut visit);
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_sweeps_match_per_page_oracle_cold(
        data in rows_strategy(),
        lo in 0i64..400,
        span in 0i64..120,
        point in 0i64..400,
    ) {
        let disk = DiskSim::with_defaults();
        let t = build_table(&disk, &data);
        for q in queries(lo, span, point) {
            for path in 0..3usize {
                let before = disk.stats();
                let vectored = run_path(&t, &disk, disk.as_ref(), path, &q);
                let vec_io = disk.stats().since(&before);

                let per_page_io = PerPageIo(disk.as_ref());
                let before = disk.stats();
                let per_page = run_path(&t, &disk, &per_page_io, path, &q);
                let pp_io = disk.stats().since(&before);

                let want = oracle(&t, &q);
                prop_assert_eq!(&vectored, &want, "path {} q {:?}", path, &q);
                prop_assert_eq!(&per_page, &want, "path {} q {:?}", path, &q);
                prop_assert_eq!(
                    vec_io.pages(), pp_io.pages(),
                    "identical page counts: path {} q {:?}", path, &q
                );
            }
        }
    }

    #[test]
    fn run_sweeps_match_per_page_oracle_through_bounded_pool(
        data in rows_strategy(),
        capacity in 2usize..48,
        lo in 0i64..400,
        span in 0i64..120,
        point in 0i64..400,
    ) {
        // Two pools with the same capacity over the same disk: one serves
        // vectored runs, the other the per-page decomposition. Residency
        // evolves across the whole query sequence; classification,
        // eviction victims, and disk page counts must stay identical.
        let disk = DiskSim::with_defaults();
        let t = build_table(&disk, &data);
        let run_pool = BufferPool::new(disk.clone(), capacity);
        let page_pool = BufferPool::new(disk.clone(), capacity);
        for q in queries(lo, span, point) {
            for path in 0..3usize {
                let pool_before = run_pool.stats();
                let disk_before = disk.stats();
                let vectored = run_path(&t, &disk, &run_pool, path, &q);
                let run_pool_delta = run_pool.stats().since(&pool_before);
                let run_disk_delta = disk.stats().since(&disk_before);

                let per_page_io = PerPageIo(&page_pool);
                let pool_before = page_pool.stats();
                let disk_before = disk.stats();
                let per_page = run_path(&t, &disk, &per_page_io, path, &q);
                let page_pool_delta = page_pool.stats().since(&pool_before);
                let page_disk_delta = disk.stats().since(&disk_before);

                let want = oracle(&t, &q);
                prop_assert_eq!(&vectored, &want, "path {} q {:?}", path, &q);
                prop_assert_eq!(&per_page, &want, "path {} q {:?}", path, &q);
                prop_assert_eq!(
                    run_pool_delta, page_pool_delta,
                    "identical hit/miss/eviction behaviour: path {} q {:?}", path, &q
                );
                prop_assert_eq!(
                    run_disk_delta.pages(), page_disk_delta.pages(),
                    "identical disk page counts: path {} q {:?}", path, &q
                );
            }
        }
    }
}

/// Sim counters equal (the backing must never perturb the accounting);
/// the wall-clock fields are the only permitted difference.
fn sim_counters_equal(a: &IoStats, b: &IoStats) -> bool {
    a.seeks == b.seeks
        && a.seq_reads == b.seq_reads
        && a.page_writes == b.page_writes
        && a.write_seeks == b.write_seeks
        && (a.elapsed_ms - b.elapsed_ms).abs() < 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A `FileDisk`-backed disk is oracle-equal to the pure simulator on
    /// the same sweeps: row-for-row identical results, identical sim
    /// counters — only the clock (real `pread`/`pwrite` wall time)
    /// differs, and it must be nonzero where pages moved.
    #[test]
    fn filedisk_backed_sweeps_are_oracle_equal(
        data in rows_strategy(),
        lo in 0i64..400,
        span in 0i64..120,
        point in 0i64..400,
    ) {
        let tmp = TempDir::new("cm-runio-prop").expect("tempdir");
        let cfg = DiskConfig::default();
        let sim = DiskSim::new(cfg);
        let backed = DiskSim::with_backing(
            cfg,
            FileDisk::new(tmp.path().join("d"), cfg.page_bytes, false).expect("filedisk"),
        );
        let t_sim = build_table(&sim, &data);
        let t_backed = build_table(&backed, &data);
        prop_assert!(
            sim_counters_equal(&sim.stats(), &backed.stats()),
            "table build accounting: {:?} vs {:?}", sim.stats(), backed.stats()
        );
        for q in queries(lo, span, point) {
            for path in 0..3usize {
                let before_sim = sim.stats();
                let before_backed = backed.stats();
                let rows_sim = run_path(&t_sim, &sim, sim.as_ref(), path, &q);
                let rows_backed = run_path(&t_backed, &backed, backed.as_ref(), path, &q);
                let d_sim = sim.stats().since(&before_sim);
                let d_backed = backed.stats().since(&before_backed);

                let want = oracle(&t_sim, &q);
                prop_assert_eq!(&rows_sim, &want, "sim path {} q {:?}", path, &q);
                prop_assert_eq!(&rows_backed, &want, "backed path {} q {:?}", path, &q);
                prop_assert!(
                    sim_counters_equal(&d_sim, &d_backed),
                    "path {} q {:?}: {:?} vs {:?}", path, &q, d_sim, d_backed
                );
                prop_assert_eq!(d_sim.read_wall_ns, 0, "pure sim never touches a device");
                prop_assert!(
                    d_backed.pages() == 0 || d_backed.read_wall_ns > 0,
                    "backed reads must take wall time when pages moved: {:?}", d_backed
                );
            }
        }
    }
}
