//! Benchmark-scale dataset builders shared across experiments.
//!
//! Every builder takes a [`BenchScale`] so integration tests can smoke-run
//! experiments in milliseconds while `--release` binaries run the full
//! laptop-scale configuration.

use cm_core::{CmAttr, CmSpec};
use cm_datagen::ebay::{COL_CATID, COL_ITEMID, COL_PRICE};
use cm_datagen::{
    ebay, sdss, tpch_lineitem, EbayConfig, EbayData, SdssConfig, SdssData, TpchConfig, TpchData,
};
use cm_engine::{Engine, EngineConfig};
use cm_query::{Pred, Query, Table};
use cm_storage::DiskSim;
use std::sync::Arc;

/// Rough tuples-per-page figures derived from the schemas' row widths and
/// an 8 KB page (lineitem is ~136 B in the paper → ~60/page).
pub const EBAY_TPP: usize = 90;
/// lineitem tuples per page.
pub const TPCH_TPP: usize = 60;
/// PhotoTag tuples per page (wide rows).
pub const SDSS_TPP: usize = 25;

/// Experiment scale: `Full` for the binaries, `Smoke` for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Full laptop-scale runs (default for the binaries).
    Full,
    /// Tiny runs for integration-test smoke coverage.
    Smoke,
}

impl BenchScale {
    /// Scale a full-size count down for smoke runs.
    pub fn n(&self, full: usize, smoke: usize) -> usize {
        match self {
            BenchScale::Full => full,
            BenchScale::Smoke => smoke,
        }
    }
}

/// eBay catalog at benchmark scale.
pub fn ebay_data(scale: BenchScale) -> EbayData {
    // The paper's proportions matter more than its absolute count: each
    // category must span multiple heap pages (they use 500-3000 items per
    // category) so that a clustered bucket covers only a few categories.
    ebay(EbayConfig {
        categories: scale.n(4_000, 400),
        min_items: scale.n(100, 3),
        max_items: scale.n(200, 8),
        seed: 0xEBA1,
    })
}

/// eBay `ITEMS` table clustered on `CATID`. The clustered bucket targets
/// ~2 pages: buckets should track `c_tups` (one category spans ~1.7
/// pages here), otherwise every CM hit drags in several unrelated
/// categories — the same tuning §6.1.1 performs for SDSS, where larger
/// `c_tups` makes ~10-page buckets the sweet spot.
pub fn ebay_table(disk: &Arc<DiskSim>, data: &EbayData) -> Table {
    Table::build(
        disk,
        data.schema.clone(),
        data.rows.clone(),
        EBAY_TPP,
        COL_CATID,
        (EBAY_TPP * 2) as u64,
    )
    .expect("generated rows conform to schema")
}

/// The same `ITEMS` layout as [`ebay_table`], as the table `"items"` of
/// a fresh engine built from `config`, loaded with a clone of the rows.
pub fn ebay_engine(data: &EbayData, config: EngineConfig) -> Arc<Engine> {
    let engine = Engine::new(config);
    engine
        .create_table("items", data.schema.clone(), COL_CATID, EBAY_TPP, (EBAY_TPP * 2) as u64)
        .expect("fresh catalog");
    engine.load("items", data.rows.clone()).expect("rows conform");
    engine
}

/// Create Experiment 3's five structures on `items`, as CMs `cm0..cm4`
/// or as B+Trees `idx0..idx4` on the same columns: the two selective
/// hierarchy levels the SELECTs predicate (CAT4, CAT5), the
/// high-cardinality Price and ItemID columns (bucketed in the CMs), and
/// a (CAT6, Price) composite whose random leaf positions put real insert
/// pressure on the shared pool.
pub fn create_ladder(engine: &Engine, use_cms: bool) {
    let ladder = [
        (vec![4], CmSpec::single_raw(4)),
        (vec![5], CmSpec::single_raw(5)),
        (vec![COL_PRICE], CmSpec::single_pow2(COL_PRICE, 12)),
        (vec![COL_ITEMID], CmSpec::single_pow2(COL_ITEMID, 16)),
        (vec![6, COL_PRICE], CmSpec::new(vec![CmAttr::raw(6), CmAttr::pow2(COL_PRICE, 12)])),
    ];
    for (i, (cols, spec)) in ladder.into_iter().enumerate() {
        if use_cms {
            engine.create_cm("items", format!("cm{i}"), spec).expect("CM");
        } else {
            engine.create_btree("items", format!("idx{i}"), cols).expect("index");
        }
    }
}

/// Experiment 3's SELECT predicate, `CATX = X` on a selective hierarchy
/// level (CAT4 or CAT5), drawn from `seed` and redrawn at `seed + 7919`
/// until the level fits. Each such value maps to a handful of
/// categories, as in the paper's per-category selects; shallow levels
/// (CAT1 covers 1/30th of the table) would measure bucketing false
/// positives, not the buffer-pool effect.
pub fn selective_cat_pred(data: &EbayData, mut seed: u64) -> Pred {
    loop {
        let (col, v) = data.random_cat_predicate(seed);
        if (4..=5).contains(&col) {
            return Pred::eq(col, v);
        }
        seed += 7919;
    }
}

/// The `s`-th clustered `CATID` range over `categories` categories:
/// widths from ~1/16 of the table up to ~1/2, with a sliding start.
pub fn catid_range(categories: usize, s: usize) -> Query {
    let (cats, s) = (categories as i64, s as i64);
    let span = (cats / 16).max(1) * (1 + s % 8);
    let lo = (s * 613) % (cats - span).max(1);
    Query::single(Pred::between(COL_CATID, lo, lo + span))
}

/// TPC-H lineitem at benchmark scale.
pub fn tpch_data(scale: BenchScale) -> TpchData {
    tpch_lineitem(TpchConfig {
        rows: scale.n(400_000, 6_000),
        parts: scale.n(20_000, 500) as i64,
        suppliers: scale.n(1_000, 50) as i64,
        seed: 0x79C8,
    })
}

/// lineitem clustered on an arbitrary column.
pub fn tpch_table(disk: &Arc<DiskSim>, data: &TpchData, cluster_col: usize) -> Table {
    Table::build(
        disk,
        data.schema.clone(),
        data.rows.clone(),
        TPCH_TPP,
        cluster_col,
        (TPCH_TPP * 10) as u64,
    )
    .expect("generated rows conform to schema")
}

/// SDSS sky table at benchmark scale.
pub fn sdss_data(scale: BenchScale) -> SdssData {
    sdss(SdssConfig {
        rows: scale.n(200_000, 5_000),
        fields: 251,
        stripes: 20,
        seed: 0x5D55,
    })
}

/// PhotoTag clustered on an arbitrary column (objID by default).
pub fn sdss_table(disk: &Arc<DiskSim>, data: &SdssData, cluster_col: usize) -> Table {
    Table::build(
        disk,
        data.schema.clone(),
        data.rows.clone(),
        SDSS_TPP,
        cluster_col,
        (SDSS_TPP * 10) as u64,
    )
    .expect("generated rows conform to schema")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_builders_produce_small_tables() {
        let disk = DiskSim::with_defaults();
        let e = ebay_data(BenchScale::Smoke);
        let t = ebay_table(&disk, &e);
        assert!(t.heap().len() < 10_000);
        let td = tpch_data(BenchScale::Smoke);
        let tt = tpch_table(&disk, &td, cm_datagen::tpch::COL_RECEIPTDATE);
        assert_eq!(tt.clustered_col(), cm_datagen::tpch::COL_RECEIPTDATE);
        let sd = sdss_data(BenchScale::Smoke);
        let st = sdss_table(&disk, &sd, cm_datagen::sdss::COL_OBJID);
        assert_eq!(st.heap().len(), 5_000);
    }

    #[test]
    fn scale_helper() {
        assert_eq!(BenchScale::Full.n(100, 5), 100);
        assert_eq!(BenchScale::Smoke.n(100, 5), 5);
    }
}
