//! From what the rounds recorded to metrics: medians over rounds with
//! their quartiles, span aggregation, and the run's result document.

use crate::bench::{FixedPoint, Recovery, Round, RunArgs};
use crate::json::Json;
use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::ops::Class;
use crate::replay::WriteCosts;
use crate::stats::{self, med, Summary};
use crate::sut::{Counters, Footprint, SetupTimes, SutConfig};
use crate::trace::{Span, Tracer, NO_PARENT};
use std::collections::BTreeMap;

pub fn write_spans(path: &std::path::Path, rounds: &[Round]) -> std::io::Result<()> {
    let span_json = |s: &Span| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("op", Json::count(u64::from(s.op))),
            (
                "parent",
                if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::count(u64::from(s.parent))
                },
            ),
            ("start_ns", Json::count(s.start_ns)),
            ("end_ns", Json::count(s.end_ns)),
            ("replayed", Json::Bool(s.replayed)),
        ])
    };
    let traced: Vec<Json> = rounds
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.tracer.as_ref().map(|t| (i, t)))
        .map(|(i, t)| {
            Json::obj([
                ("round", Json::count(i as u64 + 1)),
                ("spans", Json::Arr(t.spans.iter().map(span_json).collect())),
            ])
        })
        .collect();
    std::fs::write(path, Json::Arr(traced).render())
}

/// Per traced operation: the summed duration (ns) of its spans, by name,
/// and the summed self time of its `query.exec` spans.
struct OpSpans {
    class: Class,
    root_ns: u64,
    by_name: BTreeMap<&'static str, u64>,
    exec_self_ns: u64,
    spans: u64,
}

fn op_spans(tr: &Tracer) -> Vec<OpSpans> {
    let own = tr.self_ns();
    let mut ops: Vec<OpSpans> = tr
        .op_class
        .iter()
        .map(|c| OpSpans {
            class: *c,
            root_ns: 0,
            by_name: BTreeMap::new(),
            exec_self_ns: 0,
            spans: 0,
        })
        .collect();
    for (s, own_ns) in tr.spans.iter().zip(own) {
        let op = &mut ops[s.op as usize];
        op.spans += 1;
        if s.parent == NO_PARENT {
            op.root_ns = s.dur_ns();
        } else {
            *op.by_name.entry(s.name).or_default() += s.dur_ns();
            if s.name == "query.exec" {
                op.exec_self_ns += own_ns;
            }
        }
    }
    ops
}

pub struct Summarizer<'a> {
    pub w: Workload,
    pub args: &'a RunArgs,
    pub rounds: &'a [Round],
    pub setup_s: &'a [f64],
    pub setup_times: SetupTimes,
    pub fixed: &'a FixedPoint,
    pub recovery: Recovery,
    pub footprint: Footprint,
    pub live_rows: u64,
    pub write_costs: Option<WriteCosts>,
    pub generate_s: f64,
    /// Over the generated rows and the op scripts.
    pub input_digest: u64,
    pub config: SutConfig,
}

impl Summarizer<'_> {
    fn untraced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    /// Median, over the untraced rounds, of a per-round value.
    fn per_round(&self, f: impl Fn(&Round) -> Option<f64>) -> Option<Summary> {
        Summary::of(&self.untraced().filter_map(f).collect::<Vec<_>>())
    }

    fn class_p50(&self, classes: &[Class]) -> Option<Summary> {
        self.per_round(|r| {
            let pooled: Vec<f64> = classes
                .iter()
                .flat_map(|c| r.acc.of(*c).iter().copied())
                .collect();
            stats::median(&stats::sorted(pooled))
        })
    }

    pub fn metrics(&self) -> (Vec<(&'static str, &'static str, f64)>, Json) {
        let w = self.w;
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut summaries: Vec<(String, Json)> = Vec::new();
        let mut put = |name: &'static str, s: Option<Summary>| {
            let s = s.unwrap_or(Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n: 0,
            });
            values.insert(name, s.median);
            summaries.push((
                name.to_string(),
                Json::obj([
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::count(s.n as u64)),
                ]),
            ));
        };
        let one = |v: f64| Summary::of(&[v]);

        // ---- end to end ------------------------------------------------
        put("setup_s", Summary::of(self.setup_s));
        put(
            "ops_per_s",
            self.per_round(|r| Some(r.client_ops(w) as f64 / r.busy_s(w))),
        );
        let slots = w.slots();
        for (name, class) in ["op1_p50_us", "op2_p50_us"].into_iter().zip(slots) {
            put(name, self.class_p50(&[class]));
        }
        put("peak_rss_mb", one(self.fixed.peak_rss_mb));

        // ---- engine: latencies under their class names ------------------
        let reads: Vec<Class> = Class::ALL.into_iter().filter(|c| c.is_read()).collect();
        put("engine.point_p50_us", self.class_p50(&[Class::Point]));
        put(
            "engine.range_p50_us",
            self.class_p50(&[Class::PriceRange, Class::ShipRange]),
        );
        put(
            "engine.multipoint_p50_us",
            self.class_p50(&[Class::MultiPoint]),
        );
        put("engine.cat5_eq_p50_us", self.class_p50(&[Class::Cat5Eq]));
        put(
            "engine.join_clamp_p50_us",
            self.class_p50(&[Class::JoinClamp]),
        );
        put(
            "engine.join_hash_p50_us",
            self.class_p50(&[Class::JoinHash]),
        );
        put("engine.agg_p50_us", self.class_p50(&[Class::Agg]));
        put(
            "engine.read_p99_us",
            self.per_round(|r| {
                let pooled: Vec<f64> = reads
                    .iter()
                    .flat_map(|c| r.acc.of(*c).iter().copied())
                    .collect();
                stats::tail_percentile(&stats::sorted(pooled), 99.0)
            }),
        );
        let all_ops: Vec<f64> = self
            .untraced()
            .flat_map(|r| r.acc.samples.iter().flatten().copied())
            .collect();
        let tail = stats::highest_tail(&stats::sorted(all_ops));
        put("engine.tail_us", tail.and_then(|(_, v)| one(v)));
        put("bench.tail_pct", tail.and_then(|(p, _)| one(p)));
        put("engine.insert_p50_us", self.class_p50(&[Class::Insert]));
        put(
            "engine.insert_many_p50_us",
            self.class_p50(&[Class::InsertMany]),
        );
        put("engine.delete_p50_us", self.class_p50(&[Class::Delete]));
        put("engine.commit_p50_us", self.class_p50(&[Class::Commit]));
        put("engine.recover_s", one(self.recovery.seconds));
        put("engine.recover_records", one(self.recovery.records as f64));
        put("engine.recover_redone", one(self.recovery.redone as f64));
        put("engine.recover_undone", one(self.recovery.undone as f64));
        put("engine.load_s", one(self.setup_times.load_s));
        put("engine.build_cm_s", one(self.setup_times.build_cm_s));
        put("engine.build_btree_s", one(self.setup_times.build_btree_s));
        put("engine.checkpoint_ms", one(self.fixed.checkpoint_ms));
        put(
            "engine.vacuum_ms",
            self.class_p50(&[Class::Vacuum]).map(|s| scale(s, 1e-3)),
        );
        put(
            "engine.vacuum_reclaimed",
            self.per_round(|r| Some(r.counters.vacuum_reclaimed as f64)),
        );
        put(
            "engine.read_stalls",
            self.per_round(|r| Some(r.counters.read_stalls as f64)),
        );
        put(
            "engine.read_stall_us",
            self.per_round(|r| Some(r.counters.read_stall_us)),
        );

        // ---- counts: untraced rounds, per round -------------------------
        let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
        put(
            "engine.legs_per_query",
            self.per_round(|r| ratio(r.acc.legs, r.acc.reads - r.acc.joins)),
        );
        let routed = |c: &Counters| c.route_full + c.route_sorted + c.route_pipelined + c.route_cm;
        put(
            "engine.route_cm_share",
            self.per_round(|r| ratio(100 * r.counters.route_cm, routed(&r.counters))),
        );
        put(
            "engine.route_fullscan_share",
            self.per_round(|r| ratio(100 * r.counters.route_full, routed(&r.counters))),
        );
        put(
            "query.rows_examined_per_match",
            self.per_round(|r| ratio(r.acc.examined, r.acc.matched)),
        );
        put(
            "query.pages_per_read",
            self.per_round(|r| ratio(r.acc.pages, r.acc.reads)),
        );
        put(
            "query.join_build_rows",
            self.per_round(|r| ratio(r.acc.join_build_rows, r.acc.joins)),
        );
        put(
            "query.join_probe_pages",
            self.per_round(|r| ratio(r.acc.join_probe_pages, r.acc.joins)),
        );
        put(
            "cost.est_over_actual_p50",
            one(med(self
                .untraced()
                .flat_map(|r| r.acc.est_over_actual.iter().copied())
                .collect())),
        );
        // Every round, traced or not, must charge the same pages.
        let any_round = |f: fn(&Counters) -> f64| {
            Summary::of(
                &self
                    .rounds
                    .iter()
                    .map(|r| f(&r.counters))
                    .collect::<Vec<_>>(),
            )
        };
        put(
            "storage.pool_hit_rate",
            any_round(|c| {
                if c.pool_hits + c.pool_misses == 0 {
                    0.0
                } else {
                    100.0 * c.pool_hits as f64 / (c.pool_hits + c.pool_misses) as f64
                }
            }),
        );
        put(
            "storage.pool_evictions",
            any_round(|c| c.pool_evictions as f64),
        );
        put(
            "storage.disk_pages_read",
            any_round(|c| c.disk_pages_read as f64),
        );
        put(
            "storage.disk_pages_written",
            any_round(|c| c.disk_pages_written as f64),
        );
        put("storage.disk_seeks", any_round(|c| c.disk_seeks as f64));
        put("storage.disk_sim_ms", any_round(|c| c.disk_sim_ms));
        put(
            "storage.disk_read_wall_us",
            any_round(|c| c.disk_read_wall_ns as f64 / 1e3),
        );
        put(
            "storage.disk_write_wall_us",
            any_round(|c| c.disk_write_wall_ns as f64 / 1e3),
        );
        put("storage.wal_records", any_round(|c| c.wal_records as f64));
        put("storage.wal_bytes", any_round(|c| c.wal_bytes as f64));
        put("storage.wal_flushes", any_round(|c| c.wal_flushes as f64));
        put(
            "storage.wal_pages_flushed",
            any_round(|c| c.wal_pages_flushed as f64),
        );
        put(
            "storage.wal_absorbed_share",
            any_round(|c| {
                if c.wal_commits == 0 {
                    0.0
                } else {
                    100.0 * c.wal_absorbed as f64 / c.wal_commits as f64
                }
            }),
        );
        put(
            "storage.wal_bytes_per_user_byte",
            Summary::of(
                &self
                    .rounds
                    .iter()
                    .filter_map(|r| ratio(r.counters.wal_bytes, r.acc.user_bytes))
                    .collect::<Vec<_>>(),
            ),
        );

        // ---- sizes, at the end of the run -------------------------------
        let f = &self.footprint;
        put("core.cm_bytes", one(f.cm_bytes as f64));
        put("index.bytes", one(f.index_bytes as f64));
        put("index.height", one(f.index_height as f64));
        put("storage.disk_bytes", one(f.disk_bytes as f64));
        put("storage.heap_pages", one(f.heap_pages as f64));
        put(
            "storage.heap_pages_per_live_krow",
            one(f.heap_pages as f64 * 1e3 / self.live_rows.max(1) as f64),
        );
        put("storage.mvcc_dead_versions", one(f.dead_versions as f64));

        // ---- spans: traced rounds ---------------------------------------
        let traced_ops: Vec<OpSpans> = self
            .rounds
            .iter()
            .filter_map(|r| r.tracer.as_ref())
            .flat_map(op_spans)
            .collect();
        let read_ops: Vec<&OpSpans> = traced_ops.iter().filter(|o| o.class.is_read()).collect();
        let span_us = |name: &str| {
            let v: Vec<f64> = read_ops
                .iter()
                .filter_map(|o| o.by_name.get(name))
                .map(|ns| *ns as f64 / 1e3)
                .collect();
            one(med(v))
        };
        put("engine.plan_us", span_us("engine.plan"));
        put("engine.fanout_us", span_us("engine.fanout"));
        put("engine.merge_us", span_us("engine.merge"));
        put("query.planner_us", span_us("query.planner"));
        put("query.exec_us", span_us("query.exec"));
        put("query.collect_us", span_us("query.collect"));
        put("core.cm_lookup_us", span_us("core.cm_lookup"));
        put("index.probe_us", span_us("index.probe"));
        put("storage.pool_read_us", span_us("storage.pool"));
        put(
            "query.exec_self_us",
            one(med(read_ops
                .iter()
                .filter(|o| o.by_name.contains_key("query.exec"))
                .map(|o| o.exec_self_ns as f64 / 1e3)
                .collect())),
        );
        let layer = self.rounds.iter().filter_map(|r| r.tracer.as_ref()).fold(
            (0u64, 0u64, 0u64),
            |t, tr| {
                (
                    t.0 + tr.counts.pool_calls,
                    t.1 + tr.counts.cm_lookups,
                    t.2 + tr.counts.cm_buckets,
                )
            },
        );
        put(
            "storage.pool_calls_per_read",
            ratio(layer.0, read_ops.len() as u64).and_then(one),
        );
        put(
            "core.cm_buckets_per_lookup",
            ratio(layer.2, layer.1).and_then(one),
        );
        put(
            "bench.spans_per_op",
            ratio(
                traced_ops.iter().map(|o| o.spans).sum(),
                traced_ops.len() as u64,
            )
            .and_then(one),
        );

        // ---- replayed write layers --------------------------------------
        let costs = self.write_costs.unwrap_or_default();
        put("core.cm_insert_ns", one(costs.cm_insert_ns));
        put("index.insert_us", one(costs.index_insert_us));
        put("storage.heap_append_ns", one(costs.heap_append_ns));
        put("storage.wal_append_ns", one(costs.wal_append_ns));
        put("storage.wal_flush_us", one(costs.wal_flush_us));
        let begin_span = med(read_ops
            .iter()
            .filter_map(|o| o.by_name.get("storage.mvcc_begin"))
            .map(|ns| *ns as f64)
            .collect());
        put(
            "storage.mvcc_begin_ns",
            one(if read_ops.is_empty() {
                costs.mvcc_begin_ns
            } else {
                begin_span
            }),
        );

        // ---- what the layers do not account for, per op slot ------------
        let secondaries = if w == Workload::WriteChurn { 2.0 } else { 1.0 };
        for (name, class) in [
            "engine.unattributed_op1_us",
            "engine.unattributed_op2_us",
            "engine.unattributed_op3_us",
            "engine.unattributed_op4_us",
        ]
        .into_iter()
        .zip(slots)
        {
            let whole = self.class_p50(&[class]).map_or(0.0, |s| s.median);
            let accounted = match class {
                c if c.is_read() => med(traced_ops
                    .iter()
                    .filter(|o| o.class == c)
                    .map(|o| o.root_ns as f64 / 1e3)
                    .collect()),
                // One heap append, an insert per B+Tree and per CM (two
                // CMs in every items design), one log append.
                Class::Insert => {
                    costs.heap_append_ns / 1e3
                        + secondaries * costs.index_insert_us
                        + 2.0 * costs.cm_insert_ns / 1e3
                        + costs.wal_append_ns / 1e3
                }
                Class::Commit => costs.wal_flush_us,
                _ => 0.0,
            };
            put(
                name,
                one(if self.args.trace {
                    whole - accounted
                } else {
                    0.0
                }),
            );
        }

        // ---- the benchmark itself ---------------------------------------
        let wall = |traced: bool| {
            med(self
                .rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall_s)
                .collect())
        };
        let overhead = if wall(false) > 0.0 && self.args.trace {
            100.0 * (wall(true) / wall(false) - 1.0)
        } else {
            0.0
        };
        put("bench.trace_overhead_pct", one(overhead));
        let lag = stats::sorted(
            self.rounds
                .iter()
                .flat_map(|r| r.writer_lag_us.iter().copied())
                .collect(),
        );
        put(
            "bench.writer_lag_p99_us",
            stats::tail_percentile(&lag, 99.0).and_then(one),
        );
        put("bench.rounds", one(self.rounds.len() as f64));
        put(
            "bench.ops_per_round",
            self.per_round(|r| Some(r.acc.ops() as f64)),
        );
        put("bench.generate_s", one(self.generate_s));

        let listed: Vec<(&'static str, &'static str)> = if self.args.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = listed
            .into_iter()
            .map(|(name, unit)| {
                (
                    name,
                    unit,
                    *values
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} is never computed")),
                )
            })
            .collect();
        (metrics, self.detail(summaries))
    }

    fn detail(&self, summaries: Vec<(String, Json)>) -> Json {
        let w = self.w;
        let classes: Vec<(String, Json)> = Class::ALL
            .into_iter()
            .filter_map(|c| {
                let s = self.class_p50(&[c])?;
                let n: usize = self.untraced().map(|r| r.acc.of(c).len()).sum();
                Some((
                    c.name().to_string(),
                    Json::obj([
                        ("p50_us", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("rounds", Json::count(s.n as u64)),
                        ("samples", Json::count(n as u64)),
                    ]),
                ))
            })
            .collect();
        // Counts of the first measured round: with one client they repeat
        // exactly from run to run, traced or not.
        let exact = self.rounds.first().map_or(Json::Null, |r| {
            let c = &r.counters;
            Json::obj([
                ("storage.disk_pages_read", Json::count(c.disk_pages_read)),
                (
                    "storage.disk_pages_written",
                    Json::count(c.disk_pages_written),
                ),
                ("storage.disk_seeks", Json::count(c.disk_seeks)),
                ("storage.disk_sim_ms", Json::Num(c.disk_sim_ms)),
                ("storage.pool_hits", Json::count(c.pool_hits)),
                ("storage.pool_misses", Json::count(c.pool_misses)),
                ("storage.wal_records", Json::count(c.wal_records)),
                ("query.rows_examined", Json::count(r.acc.examined)),
                ("query.rows_matched", Json::count(r.acc.matched)),
            ])
        });
        Json::obj([
            ("workload", Json::str(w.name())),
            ("why", Json::str(w.why())),
            ("seed", Json::count(self.args.seed)),
            (
                "input_digest",
                Json::str(format!("{:016x}", self.input_digest)),
            ),
            ("engine_config", config_json(self.config)),
            ("trace", Json::Bool(self.args.trace)),
            (
                "scale",
                Json::str(if self.args.scale.smoke {
                    "smoke"
                } else {
                    "full"
                }),
            ),
            ("seconds", Json::Num(self.args.seconds)),
            (
                "threads_available",
                Json::count(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            (
                "slots",
                Json::obj(
                    ["op1", "op2", "op3", "op4"]
                        .into_iter()
                        .zip(w.slots())
                        .map(|(k, c)| (k, Json::str(c.name()))),
                ),
            ),
            (
                "rounds",
                Json::obj([
                    ("measured", Json::count(self.rounds.len() as u64)),
                    (
                        "traced",
                        Json::count(self.rounds.iter().filter(|r| r.traced).count() as u64),
                    ),
                    (
                        "ops_per_round",
                        Json::count(self.rounds.first().map_or(0, |r| r.acc.ops() as u64)),
                    ),
                ]),
            ),
            ("metrics", Json::Obj(summaries)),
            ("classes", Json::Obj(classes)),
            ("exact_round1", exact),
        ])
    }
}

fn config_json(c: SutConfig) -> Json {
    Json::obj([
        (
            "backend",
            Json::str(if c.file_backend {
                "file (buffered, no fsync)"
            } else {
                "sim"
            }),
        ),
        ("shards", Json::count(c.shards as u64)),
        ("workers", Json::count(c.workers as u64)),
        ("mvcc", Json::Bool(c.mvcc)),
        ("pool_pages", Json::count(c.pool_pages as u64)),
    ])
}

fn scale(s: Summary, k: f64) -> Summary {
    Summary {
        median: s.median * k,
        q1: s.q1 * k,
        q3: s.q3 * k,
        n: s.n,
    }
}
