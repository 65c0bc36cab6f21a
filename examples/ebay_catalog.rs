//! Product-catalog scenario (the paper's eBay dataset, Experiments 1–3),
//! served by the `cm-engine` facade.
//!
//! Loads the hierarchical catalog clustered on `CATID`, lets the **CM
//! Advisor** recommend a bucketed CM for a price-range training query,
//! materializes it through the engine, compares the three access paths,
//! and demonstrates cheap CM maintenance by inserting a batch through an
//! engine session (shared buffer pool + WAL).
//!
//! ```text
//! cargo run --release -p examples-host --example ebay_catalog
//! ```

use cm_advisor::{Advisor, Sample};
use cm_core::CmSpec;
use cm_datagen::ebay::{ebay, EbayConfig, COL_CATID, COL_PRICE};
use cm_engine::{Engine, EngineConfig};
use cm_query::{AccessPath, Pred, Query};

fn main() {
    // ---- 1. Generate and load the catalog ------------------------------
    let mut data = ebay(EbayConfig { categories: 4_000, min_items: 10, max_items: 30, seed: 7 });
    let engine = Engine::new(EngineConfig { pool_pages: 256, ..EngineConfig::default() });
    engine
        .create_table("items", data.schema.clone(), COL_CATID, 90, 900)
        .expect("fresh catalog");
    engine.load("items", data.rows.clone()).expect("generated rows conform");
    let info = engine.table_info("items").expect("table exists");
    println!(
        "ITEMS: {} rows over {} pages, clustered on CATID",
        info.rows, info.pages
    );

    // ---- 2. Ask the advisor for a CM design ----------------------------
    engine.analyze("items", &[COL_PRICE]).expect("stats scan");
    let training = Query::single(Pred::between(COL_PRICE, 100_000i64, 101_000i64));
    let disk_cfg = engine.disk().config();
    let chosen = engine
        .with_table("items", |items| {
            let rec = Advisor::recommend(&Sample::live(items, 10_000), &disk_cfg, &training, 0.10);
            let chosen = rec.chosen_design().expect("a design qualifies").clone();
            println!(
                "\nadvisor recommends: [{}] — est. {:.1} clustered buckets per key, ~{} bytes \
                 ({:.3}% of the equivalent B+Tree)",
                chosen.design.label(items.heap().schema()),
                chosen.c_per_u,
                chosen.size_bytes as u64,
                chosen.size_ratio * 100.0
            );
            chosen
        })
        .expect("table exists");

    // ---- 3. Materialize it through the engine and run the workload -----
    let cm = engine
        .create_cm("items", "advisor_cm", CmSpec::new(chosen.design.attrs.clone()))
        .expect("advisor design materializes");
    let sec = engine
        .create_btree("items", "price_btree", vec![COL_PRICE])
        .expect("price index builds");
    let q = Query::single(Pred::between(COL_PRICE, 100_000i64, 101_000i64));

    // Cold session: reads charge straight to the disk, as in the paper's
    // flushed-cache query experiments.
    let mut session = engine.session();
    session.set_cold_reads(true);
    let cm_run = session.execute_via("items", AccessPath::CmScan(cm), &q).unwrap();
    let bt_run = session.execute_via("items", AccessPath::SecondarySorted(sec), &q).unwrap();
    let scan = session.execute_via("items", AccessPath::FullScan, &q).unwrap();
    println!("\nPrice BETWEEN $100.0k AND $101.0k ({} matches):", cm_run.run.matched);
    println!(
        "  CM-guided scan : {:>9.1} ms ({} pages)",
        cm_run.run.ms(),
        cm_run.run.io.pages()
    );
    println!(
        "  B+Tree bitmap  : {:>9.1} ms ({} pages)",
        bt_run.run.ms(),
        bt_run.run.io.pages()
    );
    println!(
        "  full table scan: {:>9.1} ms ({} pages)",
        scan.run.ms(),
        scan.run.io.pages()
    );
    let (cm_kb, bt_kb) = engine
        .with_table("items", |t| (t.cm(cm).size_bytes() / 1024, t.secondary(sec).size_bytes() / 1024))
        .unwrap();
    println!("  sizes: CM {cm_kb} KB vs B+Tree {bt_kb} KB");

    // The engine's own router agrees: the query leaves the scan behind.
    let routed = engine.execute("items", &q).expect("routed execution");
    println!(
        "  router picks {:?} (estimated {:.1} ms)",
        routed.plan.path, routed.plan.est_ms
    );
    assert_ne!(routed.plan.path, AccessPath::FullScan);

    // ---- 4. Maintenance: insert a batch through the session ------------
    let io_before = engine.stats().io;
    let batch = data.insert_batch(5_000, 99);
    session.insert_many("items", batch).expect("rows conform");
    engine.flush_pool();
    let io = engine.stats().io.since(&io_before);
    let stats = engine.stats();
    println!(
        "\ninserted 5000 rows maintaining 1 B+Tree + 1 CM: {:.1} ms simulated \
         ({} dirty evictions, {} WAL records)",
        io.elapsed_ms,
        stats.pool.dirty_evictions,
        stats.wal_records
    );
    // Fresh rows are immediately visible through the CM.
    let after = session.execute_via("items", AccessPath::CmScan(cm), &q).unwrap();
    assert!(after.run.matched >= cm_run.run.matched);
    println!(
        "CM still answers correctly after maintenance ({} matches)",
        after.run.matched
    );
}
