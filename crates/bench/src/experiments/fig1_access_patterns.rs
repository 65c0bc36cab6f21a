//! **Figure 1** — access patterns in `lineitem` for an unclustered
//! B+Tree lookup with and without a correlated clustered attribute.
//!
//! The paper's strips: lookups of 3 `suppkey` values touch scattered
//! pages when the table is unclustered but small sequential groups when
//! clustered on the correlated `partkey`; lookups of 3 `shipdate` values
//! collapse to "a handful of large seeks" when clustered on
//! `receiptdate` (~1/20th the access cost).

use crate::datasets::{tpch_data, tpch_table, BenchScale};
use crate::report::Report;
use cm_datagen::tpch::{COL_ORDERKEY, COL_PARTKEY, COL_RECEIPTDATE, COL_SHIPDATE, COL_SUPPKEY};
use cm_query::Table;
use cm_storage::{DiskSim, Value};
use std::collections::BTreeSet;

/// Width of the rendered strip in characters.
const STRIP_WIDTH: usize = 100;

/// Pages touched by a lookup of `values` on `col`, plus contiguity stats.
fn touched_pages(table: &Table, col: usize, values: &[Value]) -> BTreeSet<u64> {
    let mut pages = BTreeSet::new();
    for page in table.heap().pages() {
        if (0..page.len()).any(|slot| values.contains(&page.value(slot, col))) {
            pages.insert(table.heap().page_of(page.first_rid()));
        }
    }
    pages
}

fn strip(pages: &BTreeSet<u64>, total_pages: u64) -> String {
    let mut s = vec!['.'; STRIP_WIDTH];
    for &p in pages {
        let pos = (p as usize * STRIP_WIDTH / total_pages.max(1) as usize).min(STRIP_WIDTH - 1);
        s[pos] = '#';
    }
    s.into_iter().collect()
}

fn runs(pages: &BTreeSet<u64>) -> usize {
    let mut runs = 0;
    let mut last: Option<u64> = None;
    for &p in pages {
        if last != p.checked_sub(1) && last != Some(p) {
            runs += 1;
        }
        last = Some(p);
    }
    runs
}

/// Run the experiment.
pub fn run(scale: BenchScale) -> Report {
    let data = tpch_data(scale);
    let disk = DiskSim::with_defaults();

    // Four layouts of the same rows.
    let by_partkey = tpch_table(&disk, &data, COL_PARTKEY);
    let by_receipt = tpch_table(&disk, &data, COL_RECEIPTDATE);
    let by_pk = tpch_table(&disk, &data, COL_ORDERKEY);

    // 3 suppkey values and 3 shipdate values present in the data.
    let suppkeys: Vec<Value> = (0..3)
        .map(|i| data.rows[i * data.rows.len() / 3][COL_SUPPKEY].clone())
        .collect();
    let shipdates = data.random_shipdates(3, 0xF1);

    let mut report = Report::new(
        "fig1",
        "Access patterns for unclustered lookups (lineitem)",
        "with correlation the sorted index scan visits a few sequential page groups; \
         without it, pages scatter — receiptdate clustering cuts the shipdate access \
         cost to ~1/20th",
        vec!["case", "pages touched", "contiguous runs"],
    );

    let cases = [
        (
            "suppkey | clustered partkey   ",
            &by_partkey,
            COL_SUPPKEY,
            &suppkeys,
        ),
        (
            "suppkey | unclustered (pk)    ",
            &by_pk,
            COL_SUPPKEY,
            &suppkeys,
        ),
        (
            "shipdate | clustered receiptdt",
            &by_receipt,
            COL_SHIPDATE,
            &shipdates,
        ),
        (
            "shipdate | unclustered (pk)   ",
            &by_pk,
            COL_SHIPDATE,
            &shipdates,
        ),
    ];

    let mut strips = String::new();
    let mut stats: Vec<(usize, usize)> = Vec::new();
    for (label, table, col, values) in &cases {
        let pages = touched_pages(table, *col, values);
        strips.push_str(&format!(
            "{label}  {}\n",
            strip(&pages, table.heap().num_pages())
        ));
        stats.push((pages.len(), runs(&pages)));
        report.push(
            label.trim().to_string(),
            vec![pages.len().to_string(), runs(&pages).to_string()],
        );
    }
    report.preformatted = Some(strips);

    // Shape checks baked into the commentary.
    let (supp_cl, supp_un) = (stats[0], stats[1]);
    let (ship_cl, ship_un) = (stats[2], stats[3]);
    report.commentary = format!(
        "clustered-correlated lookups form {}x fewer runs for suppkey ({} vs {}) and {}x \
         fewer for shipdate ({} vs {}), reproducing the paper's strips",
        (supp_un.1 as f64 / supp_cl.1.max(1) as f64).round(),
        supp_cl.1,
        supp_un.1,
        (ship_un.1 as f64 / ship_cl.1.max(1) as f64).round(),
        ship_cl.1,
        ship_un.1,
    );
    report
}
