//! Workload-aware physical-design advisor.
//!
//! The paper's advisor (§6, Tables 4/5) picks a CM design from **query
//! cost alone** — the right frame when every access structure is a CM.
//! A running engine faces a broader question: for each frequently-read
//! column, should it carry a dense secondary **B+Tree**, a memory-
//! resident **CM**, or **nothing at all**? The answer depends on the
//! read/write mix: B+Trees serve reads tightly but tax every INSERT with
//! a descent and a leaf write, while CMs are free to maintain but drag
//! bucket-granularity false positives into every read (and, under a
//! bounded buffer pool, a larger working set).
//!
//! This module prices that trade-off end to end:
//!
//! * a [`WorkloadProfile`] accumulates per-column read counts, lookup-key
//!   widths, and (sketched) distinct queried values, plus the global
//!   write count — the engine records it online from the queries and
//!   writes it executes;
//! * [`recommend_for_workload`] enumerates mixed candidate **design
//!   sets** (`{B+Tree, CM, none}` per candidate column), prices each
//!   with the §3–§6 read-cost formulas *plus* the per-write maintenance
//!   model ([`cm_cost::CostParams::cost_secondary_maintenance`]) and a
//!   pool-residency discount, and returns the cheapest [`DesignSet`];
//! * the engine applies a chosen set with `Engine::apply_design`
//!   (build/drop per shard), closing the loop the ROADMAP asks for:
//!   *pick the structure set from the workload's read/write ratio, not
//!   just query cost*.
//!
//! Deliberate approximations (each an upper bound, so the comparison
//! stays conservative): multi-predicate queries are charged to every
//! predicated column as if it alone served them; bucketed CM lookups are
//! priced at the raw lookup-key count; and maintenance is priced cold
//! (a warm pool absorbs part of the B+Tree descent).

use crate::candidates::bucketing_candidates;
use cm_core::{BucketSpec, CmAttr, CmSpec};
use cm_cost::CostParams;
use cm_query::{Table, DEFAULT_TREE_ORDER};
use cm_stats::{estimate_distinct, DistinctSampler, EstimatorKind, FreqTable, ReservoirSampler};
use cm_storage::{DiskConfig, Rid, Schema};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Bounded size of the per-column distinct-queried-values sketch.
const DISTINCT_SKETCH_CAP: usize = 2048;

/// Per-structure tie-break penalty (ms): with equal estimated cost the
/// advisor prefers the design with fewer structures.
const STRUCTURE_EPSILON_MS: f64 = 1e-6;

/// What one column's read traffic looked like.
#[derive(Debug, Clone)]
pub struct ColumnAccess {
    /// Column position.
    pub col: usize,
    /// Queries with a predicate on this column.
    pub reads: u64,
    /// Cumulative estimated lookup keys across those queries (1 per Eq,
    /// list length per IN, estimated distinct values per range).
    pub lookup_keys: f64,
    /// Joins that probed this column (the build side's distinct keys
    /// arriving as one wide IN-shaped lookup). A column that is hot as a
    /// join key benefits from a CM exactly like a hot IN column — the
    /// clamped probe is priced with the same formulas — so these reads
    /// count toward structure selection too.
    pub join_probes: u64,
    /// Sketch of distinct predicate values queried (bounded space).
    distinct: DistinctSampler,
}

impl ColumnAccess {
    fn new(col: usize) -> Self {
        ColumnAccess {
            col,
            reads: 0,
            lookup_keys: 0.0,
            join_probes: 0,
            distinct: DistinctSampler::new(DISTINCT_SKETCH_CAP),
        }
    }

    /// Average lookup keys per query on this column.
    pub fn avg_lookup_keys(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            (self.lookup_keys / self.reads as f64).max(1.0)
        }
    }

    /// Estimated distinct predicate values queried on this column — the
    /// column's hot set, which sizes its share of the buffer-pool
    /// working set.
    pub fn distinct_queried(&self) -> f64 {
        self.distinct.estimate().max(1.0)
    }
}

/// Per-column read/write traffic accumulated online by the engine.
///
/// `reads` counts queries (a query predicating two columns counts once
/// globally but contributes to both columns' [`ColumnAccess`]);
/// `writes` counts row inserts/deletes — every write touches the whole
/// row, so each candidate structure pays its maintenance for each one.
#[derive(Debug, Clone, Default)]
pub struct WorkloadProfile {
    /// Read queries observed.
    pub reads: u64,
    /// Row writes (inserts + deletes) observed.
    pub writes: u64,
    cols: Vec<ColumnAccess>,
}

impl WorkloadProfile {
    /// An empty profile.
    pub fn new() -> Self {
        WorkloadProfile::default()
    }

    /// Record one read query (call once per query, then
    /// [`WorkloadProfile::note_pred`] once per predicate).
    pub fn note_read(&mut self) {
        self.reads += 1;
    }

    /// Record one predicate of a read query: the column, the estimated
    /// lookup-key count, and the hashes of the predicated values (for
    /// the distinct-queried sketch).
    pub fn note_pred(&mut self, col: usize, lookup_keys: f64, value_hashes: &[u64]) {
        let access = match self.cols.iter_mut().find(|c| c.col == col) {
            Some(a) => a,
            None => {
                self.cols.push(ColumnAccess::new(col));
                self.cols.sort_by_key(|c| c.col);
                self.cols.iter_mut().find(|c| c.col == col).expect("just inserted")
            }
        };
        access.reads += 1;
        access.lookup_keys += lookup_keys.max(1.0);
        for &h in value_hashes {
            access.distinct.observe_hash(h);
        }
    }

    /// Record one join probing `col` with `lookup_keys` distinct
    /// build-side keys: counted like a wide IN predicate (so the advisor
    /// prices hot join keys into structure selection) plus a join-probe
    /// tally (so the profile shows *why* the column is hot).
    pub fn note_join_probe(&mut self, col: usize, lookup_keys: f64, value_hashes: &[u64]) {
        self.note_pred(col, lookup_keys, value_hashes);
        let access = self
            .cols
            .iter_mut()
            .find(|c| c.col == col)
            .expect("note_pred inserted the column");
        access.join_probes += 1;
    }

    /// Record one row write (insert or delete).
    pub fn note_write(&mut self) {
        self.writes += 1;
    }

    /// Record `n` row writes at once (batched deletes).
    pub fn note_writes(&mut self, n: u64) {
        self.writes += n;
    }

    /// Per-column accesses, ascending by column.
    pub fn cols(&self) -> &[ColumnAccess] {
        &self.cols
    }

    /// One column's access record, if it was ever predicated.
    pub fn col(&self, col: usize) -> Option<&ColumnAccess> {
        self.cols.iter().find(|c| c.col == col)
    }

    /// Total operations observed.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of operations that were reads (0 when nothing ran).
    pub fn read_fraction(&self) -> f64 {
        if self.ops() == 0 {
            0.0
        } else {
            self.reads as f64 / self.ops() as f64
        }
    }

    /// Forget everything (start a fresh observation window).
    pub fn reset(&mut self) {
        *self = WorkloadProfile::default();
    }

    /// Hash a predicate value for [`WorkloadProfile::note_pred`].
    pub fn hash_value<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }
}

/// The structure a design assigns to one column.
#[derive(Debug, Clone, PartialEq)]
pub enum Structure {
    /// No secondary structure: reads on this column scan.
    None,
    /// A dense secondary B+Tree on the column.
    BTree,
    /// A Correlation Map with the given (possibly bucketed) spec.
    Cm(CmSpec),
}

impl Structure {
    /// Whether this choice materializes a structure.
    pub fn is_some(&self) -> bool {
        !matches!(self, Structure::None)
    }
}

/// One column's slot in a [`DesignSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDesign {
    /// Column position.
    pub col: usize,
    /// The structure assigned.
    pub structure: Structure,
    /// Estimated cold cost of one read query on this column through the
    /// structure (ms).
    pub cold_read_ms: f64,
    /// Estimated maintenance cost one row write charges this structure
    /// (ms).
    pub maintenance_ms: f64,
}

/// A candidate physical design: one [`Structure`] per candidate column,
/// priced against the profiled workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSet {
    /// Per-column choices, ascending by column. Columns absent from the
    /// set carry no structure.
    pub columns: Vec<ColumnDesign>,
    /// Estimated total read cost of the profiled reads through this set
    /// (ms, pool-discounted).
    pub read_ms: f64,
    /// Estimated total maintenance cost of the profiled writes (ms).
    pub write_ms: f64,
    /// `read_ms + write_ms` (the ranking key).
    pub total_ms: f64,
    /// Estimated steady-state working set of the set's structures
    /// (heap pages the profiled hot reads keep touching).
    pub working_set_pages: f64,
    /// The pool-miss fraction applied to structure-served reads.
    pub miss_rate: f64,
}

impl DesignSet {
    /// Number of B+Trees in the set.
    pub fn btrees(&self) -> usize {
        self.columns.iter().filter(|c| matches!(c.structure, Structure::BTree)).count()
    }

    /// Number of CMs in the set.
    pub fn cms(&self) -> usize {
        self.columns.iter().filter(|c| matches!(c.structure, Structure::Cm(_))).count()
    }

    /// Human-readable summary, e.g. `CAT4:btree CAT5:cm(2^12) Price:-`.
    pub fn label(&self, schema: &Schema) -> String {
        self.columns
            .iter()
            .map(|c| {
                let name = schema.col_name(c.col);
                match &c.structure {
                    Structure::None => format!("{name}:-"),
                    Structure::BTree => format!("{name}:btree"),
                    Structure::Cm(spec) => match &spec.attrs()[0].bucket {
                        BucketSpec::None => format!("{name}:cm"),
                        BucketSpec::EquiWidth { width, .. } => {
                            let log = width.log2();
                            if (log - log.round()).abs() < 1e-9 && log >= 0.0 {
                                format!("{name}:cm(2^{})", log.round() as i64)
                            } else {
                                format!("{name}:cm(w={width:.2})")
                            }
                        }
                        BucketSpec::EquiDepth { bounds } => {
                            format!("{name}:cm(eqd:{})", bounds.len() + 1)
                        }
                    },
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Workload-advisor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadAdvisorConfig {
    /// Random heap sample used to estimate bucketed `c_per_u` per CM
    /// candidate (the §4.2 Adaptive Estimator over one shared sample).
    pub sample_size: usize,
    /// Columns read fewer times than this get no structure at all.
    pub min_reads: u64,
    /// Floor on the modeled pool-miss fraction: even a fully resident
    /// working set pays this share of cold reads (first touches,
    /// eviction churn from concurrent writes).
    pub miss_floor: f64,
    /// Cap on enumerated design sets; beyond it the advisor falls back
    /// to independent per-column choices (still optimal when the pool
    /// discount does not couple the columns).
    pub max_sets: usize,
    /// CM bucketing candidates evaluated per column (evenly spaced over
    /// the Table 4 sweep).
    pub max_cm_specs: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for WorkloadAdvisorConfig {
    fn default() -> Self {
        WorkloadAdvisorConfig {
            sample_size: 10_000,
            min_reads: 1,
            miss_floor: 0.05,
            max_sets: 4096,
            max_cm_specs: 4,
            seed: 0x00AD_7177,
        }
    }
}

/// The advisor's output for one profiled workload.
#[derive(Debug, Clone)]
pub struct WorkloadRecommendation {
    /// The cheapest design set.
    pub best: DesignSet,
    /// Every enumerated set, ascending by estimated total cost (capped
    /// at the config's `max_sets`).
    pub sets: Vec<DesignSet>,
    /// The profile snapshot the recommendation was computed from.
    pub profile: WorkloadProfile,
}

impl WorkloadRecommendation {
    /// Render the top `n` sets as a comparison listing.
    pub fn table(&self, schema: &Schema, n: usize) -> String {
        let mut out = String::from("est total | est reads | est writes | design set\n");
        for s in self.sets.iter().take(n) {
            out.push_str(&format!(
                "{:>9.1} | {:>9.1} | {:>10.1} | {}\n",
                s.total_ms,
                s.read_ms,
                s.write_ms,
                s.label(schema)
            ));
        }
        out
    }
}

/// One per-column structure option with its precomputed pricing inputs.
#[derive(Debug, Clone)]
struct OptionCost {
    structure: Structure,
    /// Cold per-read cost through this structure (ms).
    cold_read_ms: f64,
    /// Steady-state heap pages this column's hot reads keep touching.
    ws_pages: f64,
    /// Per-write maintenance (ms).
    maintenance_ms: f64,
    /// Whether the pool discount applies (scans always pay cold).
    pool_aware: bool,
}

#[derive(Debug, Clone)]
struct ColOptions {
    col: usize,
    reads: f64,
    options: Vec<OptionCost>,
}

/// Estimated height of a dense secondary B+Tree over `entries` postings
/// at the workspace's [`DEFAULT_TREE_ORDER`] (half-full nodes).
fn est_btree_height(entries: u64) -> usize {
    let fanout = (DEFAULT_TREE_ORDER / 2).max(2) as f64;
    let mut height = 1usize;
    let mut capacity = fanout;
    while capacity < entries as f64 && height < 10 {
        height += 1;
        capacity *= fanout;
    }
    height
}

/// Estimate the bucketed `c_per_u` of `(col, spec)` — distinct clustered
/// buckets per distinct bucketed key — from one shared random sample,
/// with the §4.2 Adaptive Estimator (exactly the offline advisor's
/// method, [`crate::Advisor`]).
fn bucketed_c_per_u(
    table: &Table,
    col: usize,
    spec: &BucketSpec,
    sample: &[Rid],
    cbuckets: &[u32],
) -> f64 {
    let mut keys = FreqTable::new();
    let mut pairs = FreqTable::new();
    for (i, &rid) in sample.iter().enumerate() {
        let v = table.heap().value(rid, col).expect("sampled rid valid");
        let mut h = DefaultHasher::new();
        spec.key_part(&v).hash(&mut h);
        let kh = h.finish();
        keys.observe(kh);
        pairs.observe(kh ^ (u64::from(cbuckets[i]).wrapping_mul(0x9E3779B97F4A7C15)));
    }
    let n_total = table.heap().len();
    let r_sample = sample.len() as u64;
    let d_keys =
        estimate_distinct(EstimatorKind::Adaptive, n_total, r_sample, &keys.freq_of_freq())
            .max(1.0);
    let d_pairs =
        estimate_distinct(EstimatorKind::Adaptive, n_total, r_sample, &pairs.freq_of_freq())
            .max(d_keys);
    d_pairs / d_keys
}

/// Recommend the per-column structure set for a profiled workload.
///
/// `table` supplies statistics and the sampling substrate (on a sharded
/// engine: the largest partition); `total_rows` is the table-wide row
/// count so scan and tree-height estimates price the whole table;
/// `pool_pages` bounds the buffer pool the read working set competes
/// for. Candidate columns are the profiled read columns (minus the
/// clustered column, which the clustered index already serves) that
/// have statistics — run [`Table::analyze_cols`] on them first.
///
/// Every candidate set's cost is
/// `Σ_col reads(col) · read_ms(col, structure) · miss + writes · Σ maintenance`,
/// where `miss` is the pool-miss fraction implied by the **whole set's**
/// working footprint — the coupling that makes this a set enumeration
/// rather than independent per-column picks.
pub fn recommend_for_workload(
    table: &Table,
    disk: &DiskConfig,
    total_rows: u64,
    pool_pages: usize,
    profile: &WorkloadProfile,
    cfg: &WorkloadAdvisorConfig,
) -> WorkloadRecommendation {
    let tpp = table.heap().tups_per_page();
    let clustered_height = table.clustered().height();
    let sec_height = est_btree_height(total_rows);
    let scan_params = CostParams::new(disk, tpp, total_rows, 1);
    let scan_ms = scan_params.cost_scan();
    let heap_pages = scan_params.pages();
    let pages_per_bucket = table.dir().avg_pages_per_bucket();

    // Candidate columns: profiled read columns with statistics, minus
    // the clustered column.
    let candidates: Vec<&ColumnAccess> = profile
        .cols()
        .iter()
        .filter(|c| {
            c.reads >= cfg.min_reads.max(1)
                && c.col != table.clustered_col()
                && table.col_stats(c.col).is_some()
        })
        .collect();

    // One shared random sample for every CM candidate's c_per_u.
    let (sample, cbuckets) = if candidates.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        let mut reservoir = ReservoirSampler::new(cfg.sample_size, cfg.seed);
        for rid in (0..table.heap().len()).map(Rid) {
            reservoir.observe(rid);
        }
        let sample: Vec<Rid> = reservoir.into_sample();
        let cbuckets: Vec<u32> =
            sample.iter().map(|&rid| table.dir().bucket_of(rid)).collect();
        (sample, cbuckets)
    };

    // Per-column structure options.
    let mut cols: Vec<ColOptions> = Vec::with_capacity(candidates.len());
    for access in &candidates {
        let col = access.col;
        let st = table.col_stats(col).expect("filtered above");
        let n = access.avg_lookup_keys();
        let hot = access.distinct_queried();
        let mut options = vec![OptionCost {
            structure: Structure::None,
            cold_read_ms: scan_ms,
            ws_pages: 0.0,
            maintenance_ms: 0.0,
            pool_aware: false,
        }];

        // B+Tree: the planner will pick the cheaper of sorted/pipelined.
        let bt_params = CostParams::new(disk, tpp, total_rows, sec_height);
        let bt_read = bt_params
            .cost_sorted_from_stats(n, &st.corr)
            .min(bt_params.cost_pipelined(n, st.corr.u_tups))
            .min(scan_ms);
        options.push(OptionCost {
            structure: Structure::BTree,
            cold_read_ms: bt_read,
            ws_pages: (hot * st.corr.c_per_u * bt_params.c_pages(st.corr.c_tups))
                .min(heap_pages),
            maintenance_ms: bt_params.cost_secondary_maintenance(DEFAULT_TREE_ORDER as f64),
            pool_aware: true,
        });

        // CM: the cheapest of a few bucketings from the Table 4 sweep.
        let cand = bucketing_candidates(table, col);
        let specs = spaced(&cand.specs, cfg.max_cm_specs);
        let cm_params = CostParams::new(disk, tpp, total_rows, clustered_height);
        let mut best_cm: Option<(BucketSpec, f64, f64)> = None;
        for spec in specs {
            let cpu = bucketed_c_per_u(table, col, &spec, &sample, &cbuckets);
            let cost = cm_params
                .cost_cm_unbounded(n, cpu, pages_per_bucket, clustered_height as f64)
                .min(scan_ms);
            if best_cm.as_ref().is_none_or(|(_, best_cost, _)| cost < *best_cost) {
                best_cm = Some((spec, cost, cpu));
            }
        }
        if let Some((spec, cost, cpu)) = best_cm {
            options.push(OptionCost {
                structure: Structure::Cm(CmSpec::new(vec![CmAttr { col, bucket: spec }])),
                cold_read_ms: cost,
                ws_pages: (hot * cpu * pages_per_bucket).min(heap_pages),
                maintenance_ms: cm_params.cost_cm_maintenance(),
                pool_aware: true,
            });
        }
        cols.push(ColOptions { col, reads: access.reads as f64, options });
    }

    // Enumerate the cross product of per-column options, pricing each
    // set with the shared-pool miss fraction its combined footprint
    // implies.
    let writes = profile.writes as f64;
    let price = |choice: &[usize]| -> DesignSet {
        let ws: f64 = choice
            .iter()
            .zip(&cols)
            .map(|(&o, c)| c.options[o].ws_pages)
            .sum();
        let miss = if ws > 0.0 {
            (1.0 - pool_pages as f64 / ws).clamp(cfg.miss_floor, 1.0)
        } else {
            cfg.miss_floor
        };
        let mut read_ms = 0.0;
        let mut write_ms = 0.0;
        let mut total_ms = 0.0;
        let mut columns = Vec::with_capacity(cols.len());
        for (&o, c) in choice.iter().zip(&cols) {
            let opt = &c.options[o];
            let eff_miss = if opt.pool_aware { miss } else { 1.0 };
            let eff_read = opt.cold_read_ms * eff_miss;
            read_ms += c.reads * eff_read;
            write_ms += writes * opt.maintenance_ms;
            total_ms += scan_params.cost_mixed(c.reads, eff_read, writes, opt.maintenance_ms)
                + f64::from(u8::from(opt.structure.is_some())) * STRUCTURE_EPSILON_MS;
            columns.push(ColumnDesign {
                col: c.col,
                structure: opt.structure.clone(),
                cold_read_ms: opt.cold_read_ms,
                maintenance_ms: opt.maintenance_ms,
            });
        }
        DesignSet { columns, read_ms, write_ms, total_ms, working_set_pages: ws, miss_rate: miss }
    };

    let n_sets: usize = cols.iter().map(|c| c.options.len()).product::<usize>().max(1);
    let mut sets: Vec<DesignSet> = Vec::new();
    if cols.is_empty() {
        sets.push(price(&[]));
    } else if n_sets <= cfg.max_sets {
        let mut choice = vec![0usize; cols.len()];
        loop {
            sets.push(price(&choice));
            // Odometer increment over the per-column option counts.
            let mut i = 0;
            loop {
                choice[i] += 1;
                if choice[i] < cols[i].options.len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
                if i == cols.len() {
                    break;
                }
            }
            if i == cols.len() {
                break;
            }
        }
    } else {
        // Too many columns to enumerate: two-pass greedy — pick per-column
        // minima cold, then re-pick with the implied shared-pool miss.
        let mut choice = vec![0usize; cols.len()];
        for _ in 0..2 {
            let miss = price(&choice).miss_rate;
            for (i, c) in cols.iter().enumerate() {
                choice[i] = c
                    .options
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        let cost = |o: &OptionCost| {
                            let eff_read =
                                o.cold_read_ms * if o.pool_aware { miss } else { 1.0 };
                            scan_params.cost_mixed(c.reads, eff_read, writes, o.maintenance_ms)
                                + f64::from(u8::from(o.structure.is_some()))
                                    * STRUCTURE_EPSILON_MS
                        };
                        cost(a.1).total_cmp(&cost(b.1))
                    })
                    .map(|(i, _)| i)
                    .expect("every column has options");
            }
        }
        sets.push(price(&choice));
    }
    sets.sort_by(|a, b| a.total_ms.total_cmp(&b.total_ms));
    let best = sets.first().cloned().expect("at least one set");
    WorkloadRecommendation { best, sets, profile: profile.clone() }
}

/// Up to `n` evenly spaced elements of `specs` (always including the
/// first and last).
fn spaced(specs: &[BucketSpec], n: usize) -> Vec<BucketSpec> {
    if specs.len() <= n.max(1) {
        return specs.to_vec();
    }
    let n = n.max(2);
    (0..n)
        .map(|i| specs[i * (specs.len() - 1) / (n - 1)].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
    use std::sync::Arc;

    /// Correlated table: `price` softly determines `catid`; `noise`
    /// does not.
    fn table(disk: &DiskSim, bucket_target: u64) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
            Column::new("noise", ValueType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..30_000i64)
            .map(|i| {
                let cat = i % 500;
                vec![
                    Value::Int(cat),
                    Value::Int(cat * 2000 + (i * 37) % 2000),
                    Value::Int((i * 31) % 1000),
                ]
            })
            .collect();
        let mut t = Table::build(disk, schema, rows, 50, 0, bucket_target).unwrap();
        t.analyze_cols(&[1, 2]);
        t
    }

    fn profile(reads_per_col: &[(usize, u64)], writes: u64) -> WorkloadProfile {
        let mut p = WorkloadProfile::new();
        for &(col, reads) in reads_per_col {
            for i in 0..reads {
                p.note_read();
                p.note_pred(col, 1.0, &[WorkloadProfile::hash_value(&(i % 64))]);
            }
        }
        for _ in 0..writes {
            p.note_write();
        }
        p
    }

    fn cfg() -> WorkloadAdvisorConfig {
        WorkloadAdvisorConfig { sample_size: 5_000, ..WorkloadAdvisorConfig::default() }
    }

    #[test]
    fn profile_accumulates_and_resets() {
        let mut p = WorkloadProfile::new();
        p.note_read();
        p.note_pred(3, 1.0, &[1]);
        p.note_pred(1, 4.0, &[2, 3]);
        p.note_read();
        p.note_pred(3, 2.0, &[4]);
        p.note_write();
        assert_eq!(p.reads, 2);
        assert_eq!(p.writes, 1);
        assert_eq!(p.ops(), 3);
        assert!((p.read_fraction() - 2.0 / 3.0).abs() < 1e-9);
        // Columns are kept sorted.
        let cols: Vec<usize> = p.cols().iter().map(|c| c.col).collect();
        assert_eq!(cols, vec![1, 3]);
        let c3 = p.col(3).unwrap();
        assert_eq!(c3.reads, 2);
        assert!((c3.avg_lookup_keys() - 1.5).abs() < 1e-9);
        assert!((c3.distinct_queried() - 2.0).abs() < 1e-9);
        assert!(p.col(0).is_none());
        p.reset();
        assert_eq!(p.ops(), 0);
        assert!(p.cols().is_empty());
    }

    #[test]
    fn join_probes_count_as_wide_in_lookups() {
        let mut p = WorkloadProfile::new();
        p.note_read();
        p.note_join_probe(2, 40.0, &[1, 2, 3]);
        p.note_read();
        p.note_pred(2, 1.0, &[4]);
        let c = p.col(2).unwrap();
        assert_eq!(c.join_probes, 1);
        assert_eq!(c.reads, 2, "a join probe is also a read of the column");
        assert!((c.lookup_keys - 41.0).abs() < 1e-9);
        assert!((c.distinct_queried() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn write_heavy_mix_drops_the_btree() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk, 60);
        // 10/90: B+Tree maintenance dwarfs its read advantage.
        let p = profile(&[(1, 100)], 900);
        let rec = recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &cfg());
        assert_eq!(rec.best.btrees(), 0, "best: {:?}", rec.best);
        // The read column still deserves a free-to-maintain CM.
        assert_eq!(rec.best.cms(), 1);
        assert_eq!(rec.best.columns[0].col, 1);
    }

    #[test]
    fn read_heavy_mix_on_a_tight_pool_prefers_the_btree() {
        let disk = DiskSim::with_defaults();
        // Wide buckets (600 tuples = 12 pages): CM reads drag a large
        // working set, the B+Tree's tight postings fit the pool.
        let t = table(&disk, 600);
        let p = profile(&[(1, 900)], 100);
        let rec = recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &cfg());
        assert_eq!(
            rec.best.btrees(),
            1,
            "best: {} ({:?})",
            rec.best.label(t.heap().schema()),
            rec.best
        );
    }

    #[test]
    fn unread_columns_get_no_structure() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk, 60);
        let p = profile(&[(1, 10)], 10);
        let rec = recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &cfg());
        // Only the read column appears in the set; noise was never read.
        assert_eq!(rec.best.columns.len(), 1);
        assert_eq!(rec.best.columns[0].col, 1);
    }

    #[test]
    fn empty_profile_recommends_nothing() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk, 60);
        let p = WorkloadProfile::new();
        let rec = recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &cfg());
        assert!(rec.best.columns.is_empty());
        assert_eq!(rec.best.total_ms, 0.0);
    }

    #[test]
    fn sets_are_sorted_and_the_full_product_is_enumerated() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk, 60);
        let p = profile(&[(1, 50), (2, 50)], 50);
        let rec = recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &cfg());
        // Two candidate columns, three options each.
        assert_eq!(rec.sets.len(), 9);
        let costs: Vec<f64> = rec.sets.iter().map(|s| s.total_ms).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        assert_eq!(rec.best, rec.sets[0]);
        // The listing renders.
        let table_str = rec.table(t.heap().schema(), 3);
        assert!(table_str.contains("price"), "{table_str}");
    }

    #[test]
    fn greedy_fallback_matches_enumeration_on_a_small_case() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk, 60);
        let p = profile(&[(1, 200), (2, 200)], 100);
        let full = recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &cfg());
        let greedy_cfg = WorkloadAdvisorConfig { max_sets: 1, ..cfg() };
        let greedy =
            recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &greedy_cfg);
        assert_eq!(greedy.sets.len(), 1);
        assert_eq!(
            greedy.best.label(t.heap().schema()),
            full.best.label(t.heap().schema())
        );
    }

    #[test]
    fn tie_breaks_toward_no_structure() {
        let disk = DiskSim::with_defaults();
        let t = table(&disk, 60);
        // Writes only on a column that was read once long ago: CM and
        // None tie on cost 0 writes... force a pure-write profile with a
        // token read so the column is a candidate, and every structure's
        // read gain is negligible at 1 read.
        let mut p = WorkloadProfile::new();
        p.note_read();
        // noise is uncorrelated: every structure's read cost ≈ scan, so
        // the epsilon must pick None over an equal-cost CM.
        p.note_pred(2, 1.0, &[1]);
        for _ in 0..1000 {
            p.note_write();
        }
        let rec = recommend_for_workload(&t, &disk.config(), t.heap().len(), 256, &p, &cfg());
        assert_eq!(rec.best.btrees(), 0);
    }

    #[test]
    fn btree_height_estimate_grows_with_entries() {
        assert_eq!(est_btree_height(10), 1);
        assert!(est_btree_height(100_000) >= 3);
        assert!(est_btree_height(100_000) <= est_btree_height(10_000_000));
    }

    #[test]
    fn spaced_keeps_ends() {
        let specs: Vec<BucketSpec> =
            (1..=9).map(BucketSpec::pow2).collect();
        let s = spaced(&specs, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], specs[0]);
        assert_eq!(s[2], specs[8]);
        assert_eq!(spaced(&specs, 20).len(), 9);
    }
}
