//! The catalogue of workloads and metrics: the one place their names,
//! units, directions and bounds are written down. `BENCHMARK.json` is
//! rendered from here (`perf manifest`), and a test keeps the committed
//! file equal to that rendering.

use crate::json::Json;
use crate::ops::Class;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LookupCold,
    ScanWarm,
    WriteChurn,
    Mixed2s,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LookupCold,
        Workload::ScanWarm,
        Workload::WriteChurn,
        Workload::Mixed2s,
    ];

    /// The workloads `BENCHMARK.json` lists, and so the ones a later
    /// change is judged on. `mixed_2s` runs two threads, and on this
    /// two-vCPU sandbox its reader's medians move 15–35 % between runs of
    /// one binary (the writer costs the reader +60–90 % on the long
    /// classes, by a lock race): too unsteady for a 25 % bound. It stays
    /// in `--workload all` and in the committed results.
    pub const GATED: [Workload; 3] = [
        Workload::LookupCold,
        Workload::ScanWarm,
        Workload::WriteChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupCold => "lookup_cold",
            Workload::ScanWarm => "scan_warm",
            Workload::WriteChurn => "write_churn",
            Workload::Mixed2s => "mixed_2s",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's four operation classes. The medians of the first
    /// two — the two that hold steadiest on this sandbox — are its
    /// `op1_p50_us` and `op2_p50_us`; all four get an
    /// `engine.unattributed_opN_us`, and every class its own
    /// `engine.<class>_p50_us`.
    pub fn slots(self) -> [Class; 4] {
        match self {
            Workload::LookupCold => [
                Class::Point,
                Class::MultiPoint,
                Class::Cat5Eq,
                Class::PriceRange,
            ],
            Workload::ScanWarm => [
                Class::JoinHash,
                Class::Agg,
                Class::ShipRange,
                Class::JoinClamp,
            ],
            Workload::WriteChurn => [
                Class::Insert,
                Class::Commit,
                Class::InsertMany,
                Class::Delete,
            ],
            // The reader's classes: the writer's latencies turn on a lock
            // race and are reported, with their spread, per layer.
            Workload::Mixed2s => [
                Class::Point,
                Class::MultiPoint,
                Class::Cat5Eq,
                Class::PriceRange,
            ],
        }
    }

    /// One line (for `BENCHMARK.json` and every result): why the workload
    /// exists and what its four op slots are.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LookupCold => "selective reads, data 13x the pool, real preads: plan, probe, pool misses, device; op1=ItemID point, op2=4-key IN; CAT5 eq and Price range via CMs weigh most in ops_per_s",
            Workload::ScanWarm => "analytic reads, all pages resident, no device: executor CPU, MVCC visibility, four legs and their merge; op1=hash join, op2=grouped aggregate; shipdate ranges and clamped joins are per-layer",
            Workload::WriteChurn => "the same layers used for writes plus WAL, vacuum, checkpoint, restart; op1=insert, op2=commit; 128-row insert_many, delete_where of 256 ids and vacuum count in ops_per_s",
            Workload::Mixed2s => "lookup_cold's reads on the simulator beside an open-loop writer (2000 inserts/s) on one shard under locking: lock waits, pool mutex, group commit; ops_per_s counts reads; op1, op2 as lookup_cold",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the engine sees. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op1_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op2_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// One layer's numbers, from the traced run. A metric a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [PerLayer; 83] = [
    // engine: latencies by class name, across workloads
    lower("engine.point_p50_us", "us"),
    lower("engine.multipoint_p50_us", "us"),
    lower("engine.cat5_eq_p50_us", "us"),
    lower("engine.range_p50_us", "us"),
    lower("engine.join_clamp_p50_us", "us"),
    lower("engine.join_hash_p50_us", "us"),
    lower("engine.agg_p50_us", "us"),
    lower("engine.read_p99_us", "us"),
    lower("engine.tail_us", "us"),
    lower("engine.insert_p50_us", "us"),
    lower("engine.insert_many_p50_us", "us"),
    lower("engine.delete_p50_us", "us"),
    lower("engine.commit_p50_us", "us"),
    lower("engine.recover_s", "s"),
    // engine: what the decomposed path accounts for, and what it does not
    lower("engine.plan_us", "us"),
    lower("engine.fanout_us", "us"),
    lower("engine.merge_us", "us"),
    lower("engine.unattributed_op1_us", "us"),
    lower("engine.unattributed_op2_us", "us"),
    lower("engine.unattributed_op3_us", "us"),
    lower("engine.unattributed_op4_us", "us"),
    lower("engine.legs_per_query", "count"),
    higher("engine.route_cm_share", "%"),
    lower("engine.route_fullscan_share", "%"),
    lower("engine.read_stalls", "count"),
    lower("engine.read_stall_us", "us"),
    lower("engine.checkpoint_ms", "ms"),
    lower("engine.vacuum_ms", "ms"),
    higher("engine.vacuum_reclaimed", "count"),
    lower("engine.recover_records", "count"),
    lower("engine.recover_redone", "count"),
    lower("engine.recover_undone", "count"),
    lower("engine.load_s", "s"),
    lower("engine.build_cm_s", "s"),
    lower("engine.build_btree_s", "s"),
    // query
    lower("query.planner_us", "us"),
    lower("query.exec_us", "us"),
    lower("query.exec_self_us", "us"),
    lower("query.collect_us", "us"),
    lower("query.rows_examined_per_match", "count"),
    lower("query.pages_per_read", "count"),
    lower("query.join_build_rows", "count"),
    lower("query.join_probe_pages", "count"),
    // core
    lower("core.cm_lookup_us", "us"),
    lower("core.cm_buckets_per_lookup", "count"),
    lower("core.cm_insert_ns", "ns"),
    lower("core.cm_bytes", "bytes"),
    // index
    lower("index.probe_us", "us"),
    lower("index.height", "count"),
    lower("index.insert_us", "us"),
    lower("index.bytes", "bytes"),
    // storage.pool
    higher("storage.pool_hit_rate", "%"),
    lower("storage.pool_evictions", "count"),
    lower("storage.pool_read_us", "us"),
    lower("storage.pool_calls_per_read", "count"),
    // storage.disk
    lower("storage.disk_pages_read", "count"),
    lower("storage.disk_pages_written", "count"),
    lower("storage.disk_seeks", "count"),
    lower("storage.disk_sim_ms", "ms"),
    lower("storage.disk_read_wall_us", "us"),
    lower("storage.disk_write_wall_us", "us"),
    lower("storage.disk_bytes", "bytes"),
    // storage.wal
    lower("storage.wal_records", "count"),
    lower("storage.wal_bytes", "bytes"),
    lower("storage.wal_bytes_per_user_byte", "count"),
    lower("storage.wal_flushes", "count"),
    lower("storage.wal_pages_flushed", "count"),
    higher("storage.wal_absorbed_share", "%"),
    lower("storage.wal_append_ns", "ns"),
    lower("storage.wal_flush_us", "us"),
    // storage.heap / storage.mvcc
    lower("storage.heap_pages", "count"),
    lower("storage.heap_pages_per_live_krow", "count"),
    lower("storage.heap_append_ns", "ns"),
    lower("storage.mvcc_dead_versions", "count"),
    lower("storage.mvcc_begin_ns", "ns"),
    // cost
    lower("cost.est_over_actual_p50", "count"),
    // the benchmark itself
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.writer_lag_p99_us", "us"),
    lower("bench.tail_pct", "%"),
    higher("bench.rounds", "count"),
    higher("bench.ops_per_round", "count"),
    lower("bench.spans_per_op", "count"),
    lower("bench.generate_s", "s"),
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 25;

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perfbench"];

pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perf",
    "--",
];

fn better(higher_is_better: bool) -> Json {
    Json::str(if higher_is_better { "higher" } else { "lower" })
}

/// `BENCHMARK.json`, exactly.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        (
            "paths",
            Json::Arr(PATHS.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("run_seconds", Json::count(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::GATED
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
            names.push(w.name());
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "every name is used once");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        // 4 + 22 runs per workload and two builds of a minute each must
        // fit in 3420 s, with a third to spare. A run adds up to 12 s of
        // set-up, warm-up and restart to its measurement; `write_churn`
        // stops at its round cap after some 10 s.
        let (full, capped) = (4 + 22 * (Workload::GATED.len() as u64 - 1), 22);
        assert!((full * (RUN_SECONDS + 12) + capped * 22 + 2 * 60) * 4 / 3 < 3420);
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with `perf manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
