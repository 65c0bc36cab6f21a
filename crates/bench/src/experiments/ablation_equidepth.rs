//! **Ablation (paper §8, future work)** — variable-width (equi-depth)
//! buckets for skewed value distributions.
//!
//! The paper closes with: "Another extension is to design even more
//! flexible bucketing for skewed value distributions ... variable-width
//! buckets that pack more predicated attribute values into a bucket ...
//! might further reduce the size of CMs without affecting the query
//! performance." This ablation implements that extension
//! ([`cm_core::BucketSpec::EquiDepth`]) and tests the claim on a skewed
//! price distribution: at an equal bucket *count*, equi-depth bucketing
//! should match or beat equi-width on size while not degrading the query.

use crate::datasets::{ebay_table, BenchScale};
use crate::report::{bytes, ms, Report};
use cm_core::{BucketSpec, CmAttr, CmSpec};
use cm_datagen::ebay::{ebay, EbayConfig, COL_CATID, COL_PRICE};
use cm_query::{AccessPath, ExecContext, Pred, Query};
use cm_storage::{DiskSim, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run the ablation.
pub fn run(scale: BenchScale) -> Report {
    // A log-skewed catalog: category medians span six decades
    // exponentially (most categories are cheap, a long tail is
    // expensive), with *multiplicative* price noise so each category
    // still owns a narrow price band. Equi-width buckets then cram
    // hundreds of cheap categories into their first few buckets while
    // wasting thousands on the sparse tail — exactly the skew the
    // paper's future-work paragraph targets.
    let mut data = ebay(EbayConfig {
        categories: scale.n(2_000, 200),
        min_items: scale.n(60, 4),
        max_items: scale.n(120, 8),
        seed: 0xAB1A,
    });
    let mut rng = StdRng::seed_from_u64(0xAB1A);
    let n_cats = data.medians.len();
    for (catid, m) in data.medians.iter_mut().enumerate() {
        *m = 10f64.powf(6.0 * (catid as f64 + 1.0) / n_cats as f64) as i64;
    }
    // Regenerate prices around the skewed medians (±0.2% noise).
    for row in &mut data.rows {
        let catid = row[COL_CATID].as_int().unwrap() as usize;
        let m = data.medians[catid] as f64;
        let noisy = m * rng.gen_range(0.998..1.002);
        row[COL_PRICE] = Value::Int(noisy.max(0.0) as i64);
    }

    let disk = DiskSim::with_defaults();
    let mut table = ebay_table(&disk, &data);

    // Equal bucket counts for both schemes.
    let buckets = 1u32 << 10;
    let sample: Vec<f64> = data
        .rows
        .iter()
        .step_by(7)
        .filter_map(|r| r[COL_PRICE].as_numeric())
        .collect();
    let eq_width = table.add_cm(
        "price_eqw",
        CmSpec::new(vec![CmAttr {
            col: COL_PRICE,
            bucket: BucketSpec::covering(0.0, 1_000_000.0, buckets),
        }]),
    );
    let eq_depth = table.add_cm(
        "price_eqd",
        CmSpec::new(vec![CmAttr {
            col: COL_PRICE,
            bucket: BucketSpec::equi_depth_from_sample(&sample, buckets),
        }]),
    );

    // Queries in the crowded low-price region (where one equi-width
    // bucket swallows hundreds of categories) and in the sparse tail.
    let queries = [
        (
            "crowded: 100..110",
            Query::single(Pred::between(COL_PRICE, 100i64, 110i64)),
        ),
        (
            "crowded: 950..990",
            Query::single(Pred::between(COL_PRICE, 950i64, 990i64)),
        ),
        (
            "tail: 500k..550k",
            Query::single(Pred::between(COL_PRICE, 500_000i64, 550_000i64)),
        ),
    ];

    let mut report = Report::new(
        "ablation_eqd",
        "Equi-depth vs equi-width bucketing on skewed prices (paper future work)",
        "the paper conjectures variable-width buckets reduce CM size/lookup cost on \
         skew without hurting performance",
        vec![
            "query",
            "equi-width",
            "equi-depth",
            "eqw examined",
            "eqd examined",
        ],
    );

    let ctx = ExecContext::cold(&disk);
    let mut eqd_total = 0.0;
    let mut eqw_total = 0.0;
    for (label, q) in &queries {
        disk.reset();
        let run = |cm| table.exec_batches(&ctx, AccessPath::CmScan(cm), q, |_, _| {});
        let w = run(eq_width).expect("CM id in range");
        let d = run(eq_depth).expect("CM id in range");
        assert_eq!(w.matched, d.matched, "both schemes answer identically");
        eqw_total += w.ms();
        eqd_total += d.ms();
        report.push(
            label.to_string(),
            vec![
                ms(w.ms()),
                ms(d.ms()),
                w.examined.to_string(),
                d.examined.to_string(),
            ],
        );
    }

    let w_size = table.cm(eq_width).size_bytes();
    let d_size = table.cm(eq_depth).size_bytes();
    report.commentary = format!(
        "at equal bucket counts: sizes equi-depth {} vs equi-width {}; total query \
         runtime {:.0} ms vs {:.0} ms ({:.1}x) — variable-width buckets resolve the \
         crowded region at comparable map size, supporting the paper's conjecture that \
         skew-aware bucketing improves the size/performance trade-off",
        bytes(d_size),
        bytes(w_size),
        eqd_total,
        eqw_total,
        eqw_total / eqd_total.max(1e-9),
    );
    report
}
