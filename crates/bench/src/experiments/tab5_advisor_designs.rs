//! **Table 5** — advisor-estimated CM designs for the SX6 query, sorted
//! by estimated slowdown vs. the best design, with size ratios against
//! the dense secondary B+Tree.
//!
//! The paper: the best design (0%) is the full composite at fine
//! bucketing with 100% relative size; coarser/narrower designs trade a
//! few percent of runtime for order-of-magnitude size reductions (+7% →
//! 1.4%, +10% → 0.8%); the advisor recommends the smallest design within
//! the user's threshold.

use crate::datasets::{sdss_data, sdss_table, BenchScale};
use crate::report::{bytes, Report};
use cm_advisor::{Advisor, Sample};
use cm_datagen::sdss::{COL_FIELDID, COL_MODE, COL_OBJID, COL_PSFMAG_G, COL_TYPE};
use cm_query::{Pred, Query};
use cm_storage::{DiskSim, Value};

/// The SX6-style training query: two fieldID values, mode = 1, type = 3,
/// psfMag_g < 20 (the paper's SX6 selects on exactly these attributes).
pub fn sx6_query() -> Query {
    Query::new(vec![
        Pred::is_in(COL_FIELDID, vec![Value::Int(60), Value::Int(170)]),
        Pred::eq(COL_MODE, 1i64),
        Pred::eq(COL_TYPE, 3i64),
        Pred::between(COL_PSFMAG_G, 14.0, 20.0),
    ])
}

/// Run the experiment.
pub fn run(scale: BenchScale) -> Report {
    let data = sdss_data(scale);
    let disk = DiskSim::with_defaults();
    let mut table = sdss_table(&disk, &data, COL_OBJID);
    table.analyze_cols(&[COL_FIELDID, COL_MODE, COL_TYPE, COL_PSFMAG_G]);

    let sample = Sample::live(&table, scale.n(30_000, 2_000));
    let rec = Advisor::recommend(&sample, &disk.config(), &sx6_query(), 0.10);

    let mut report = Report::new(
        "tab5",
        "Advisor CM designs for SX6: estimated slowdown vs size ratio",
        "designs span 0% slowdown at 100% relative size down to ~+10% at <1%; the \
         advisor recommends the smallest design within the 10% threshold",
        vec!["slowdown", "design", "size", "size ratio", "est c_per_u"],
    );

    let schema = table.heap().schema();
    for d in rec.designs.iter().take(12) {
        report.push(
            format!("{:+.0}%", d.slowdown * 100.0),
            vec![
                d.design.label(schema),
                bytes(d.size_bytes as u64),
                format!("{:.2}%", d.size_ratio * 100.0),
                format!("{:.1}", d.c_per_u),
            ],
        );
    }
    report.preformatted = Some(rec.table5(schema, 12));

    let chosen = rec.chosen_design();
    report.commentary = match chosen {
        Some(c) => format!(
            "recommended: [{}] at {:+.0}% slowdown, {} ({:.2}% of the {} B+Tree)",
            c.design.label(schema),
            c.slowdown * 100.0,
            bytes(c.size_bytes as u64),
            c.size_ratio * 100.0,
            bytes(rec.btree_size_bytes as u64),
        ),
        None => "no design within threshold".into(),
    };
    report
}
