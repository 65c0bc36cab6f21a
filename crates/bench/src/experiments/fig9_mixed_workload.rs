//! **Figure 9 / Experiment 3 (mixed)** — 500k INSERTs interleaved with
//! 5k SELECTs over 5 B+Trees vs. 5 CMs.
//!
//! The paper: inserts get more expensive for both (SELECTs consume
//! buffer-pool space and accelerate dirty-page overflow), but CMs win
//! even on SELECTs in the mixed workload because B+Tree queries keep
//! re-reading pages evicted by update traffic; in total, 5 CMs are >4×
//! faster than 5 B+Trees.

use crate::datasets::{ebay_table, selective_cat_pred, BenchScale};
use crate::report::{ms, Report};
use cm_core::CmSpec;
use cm_datagen::ebay::{ebay, EbayConfig, COL_PRICE};
use cm_query::{ExecContext, Pred, Query};
use cm_storage::{BufferPool, DiskSim, Row, Wal};

const POOL_PAGES: usize = 512;
/// Number of hierarchy-level indexes/CMs (the paper uses 5).
const N_INDEXES: usize = 5;

struct Workload {
    batches: Vec<Vec<Row>>,
    /// Per batch, the predicates of the follow-up SELECTs.
    selects: Vec<Vec<Pred>>,
}

fn workload(cfg: EbayConfig, runs: usize, batch: usize, selects_per_run: usize) -> Workload {
    let mut data = ebay(cfg);
    let mut batches = Vec::with_capacity(runs);
    let mut selects = Vec::with_capacity(runs);
    for r in 0..runs {
        batches.push(data.insert_batch(batch, r as u64));
        selects.push(
            (0..selects_per_run)
                .map(|s| selective_cat_pred(&data, (r * 1000 + s) as u64))
                .collect(),
        );
    }
    Workload { batches, selects }
}

/// Run one configuration; returns (insert_ms, select_ms).
fn run_config(cfg: EbayConfig, wl: &Workload, use_cms: bool, with_selects: bool) -> (f64, f64) {
    let disk = DiskSim::with_defaults();
    let data = ebay(cfg);
    let mut table = ebay_table(&disk, &data);
    for i in 0..N_INDEXES {
        if use_cms {
            table.add_cm(format!("cm_cat{}", i + 1), CmSpec::single_raw(1 + i));
        } else {
            table.add_secondary(&disk, format!("idx_cat{}", i + 1), vec![1 + i]);
        }
    }
    let pool = BufferPool::new(disk.clone(), POOL_PAGES);
    let mut wal = Wal::new(disk.clone());
    disk.reset();
    let mut insert_ms = 0.0;
    let mut select_ms = 0.0;
    for (batch, sels) in wl.batches.iter().zip(&wl.selects) {
        let before = disk.stats();
        for row in batch {
            table
                .insert_row(&pool, Some(&mut wal), row)
                .expect("row conforms");
        }
        wal.commit();
        insert_ms += disk.stats().since(&before).elapsed_ms;

        if with_selects {
            let before = disk.stats();
            for pred in sels {
                let q = Query::single(pred.clone());
                let ctx = ExecContext::through(&disk, &pool);
                let idx = pred.col - 1; // structure i covers CAT{i+1}
                let mut sum = 0i64;
                let mut n = 0u64;
                if use_cms {
                    table.exec_cm_scan_visit(&ctx, idx, &q, |row| {
                        sum += row[COL_PRICE].as_int().unwrap_or(0);
                        n += 1;
                    });
                } else {
                    table
                        .exec_secondary_sorted_visit(&ctx, idx, &q, |row| {
                            sum += row[COL_PRICE].as_int().unwrap_or(0);
                            n += 1;
                        })
                        .expect("price predicate");
                }
                let _avg = if n > 0 { sum / n as i64 } else { 0 };
            }
            select_ms += disk.stats().since(&before).elapsed_ms;
        }
    }
    let before = disk.stats();
    pool.flush_all();
    insert_ms += disk.stats().since(&before).elapsed_ms;
    (insert_ms, select_ms)
}

/// Run the experiment.
pub fn run(scale: BenchScale) -> Report {
    // Categories span ~1.7 pages (the paper's categories span ~30), so
    // the clustered buckets below are sized to ~2 pages; see
    // datasets::ebay_table for the rationale.
    let cfg = EbayConfig {
        categories: scale.n(2_000, 200),
        min_items: scale.n(100, 3),
        max_items: scale.n(200, 8),
        seed: 0xF19,
    };
    let runs = scale.n(25, 3);
    let batch = scale.n(1_000, 100);
    let selects_per_run = scale.n(50, 5);
    let wl = workload(cfg, runs, batch, selects_per_run);

    let (bt_mix_ins, bt_mix_sel) = run_config(cfg, &wl, false, true);
    let (bt_ins, _) = run_config(cfg, &wl, false, false);
    let (cm_mix_ins, cm_mix_sel) = run_config(cfg, &wl, true, true);
    let (cm_ins, _) = run_config(cfg, &wl, true, false);

    let mut report = Report::new(
        "fig9",
        "Mixed workload: INSERT batches + SELECTs over 5 B+Trees vs 5 CMs (eBay)",
        "CMs beat B+Trees on BOTH phases in the mix (B+Tree SELECTs re-read pages \
         evicted by update traffic); overall >4x in the paper",
        vec!["configuration", "INSERT time", "SELECT time", "total"],
    );
    report.push(
        "B+Tree-mix",
        vec![ms(bt_mix_ins), ms(bt_mix_sel), ms(bt_mix_ins + bt_mix_sel)],
    );
    report.push(
        "B+Tree (insert only)",
        vec![ms(bt_ins), "-".into(), ms(bt_ins)],
    );
    report.push(
        "CM-mix",
        vec![ms(cm_mix_ins), ms(cm_mix_sel), ms(cm_mix_ins + cm_mix_sel)],
    );
    report.push("CM (insert only)", vec![ms(cm_ins), "-".into(), ms(cm_ins)]);

    report.commentary = format!(
        "mixed totals: B+Trees {} vs CMs {} ({:.1}x); insert-only: {:.1}x — the mixed \
         gap is wider, as in the paper",
        ms(bt_mix_ins + bt_mix_sel),
        ms(cm_mix_ins + cm_mix_sel),
        (bt_mix_ins + bt_mix_sel) / (cm_mix_ins + cm_mix_sel).max(1e-9),
        bt_ins / cm_ins.max(1e-9),
    );
    report
}
