//! `perf diff a.json b.json`: compare two result files, metric by metric
//! against the catalogue's bounds, and the exact counts one by one.

use crate::json::Json;
use crate::metrics::{Workload, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// The median is worse by more than the bound and the quartile boxes
    /// do not overlap.
    Worse,
    /// The rounds of one side spread wider than the bound, or the median
    /// moved past the bound while the boxes still overlap.
    Unresolved,
}

/// Judge `b` against `a` for one metric.
pub fn judge(a: Summary, b: Summary, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    // Orient both so that larger is worse.
    let flip = |s: Summary| {
        if higher_is_better {
            Summary {
                median: -s.median,
                q1: -s.q3,
                q3: -s.q1,
                n: s.n,
            }
        } else {
            s
        }
    };
    let (fa, fb) = (flip(a), flip(b));
    let worse_by = if a.median == 0.0 {
        0.0
    } else {
        (fb.median - fa.median) / a.median.abs()
    };
    let verdict = if worse_by > bound {
        if fb.q1 > fa.q3 {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if a.spread().max(b.spread()) > bound && fb.q3 > fa.q1 {
        // Too noisy to call unchanged — unless every quartile of b is on
        // the better side of every quartile of a.
        Verdict::Unresolved
    } else {
        Verdict::Pass
    };
    (worse_by, verdict)
}

/// The runs in a result file: one run's document, or `{"runs": [...]}`.
fn runs(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(list) => list.iter().collect(),
        None => vec![doc],
    }
}

fn find<'a>(runs: &[&'a Json], workload: &str, trace: bool) -> Option<&'a Json> {
    runs.iter().copied().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace") == Some(&Json::Bool(trace))
    })
}

fn summary_of(run: &Json, metric: &str) -> Option<Summary> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Summary {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

fn failed_share(run: &Json) -> f64 {
    let get = |k| {
        run.get("result")
            .and_then(|r| r.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    get("failed") / get("attempted").max(1.0)
}

/// The counts that must repeat exactly, as `name=value` strings.
fn exact_counts(run: &Json) -> Vec<String> {
    run.get("exact_round1")
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", v.render()))
                .collect()
        })
        .unwrap_or_default()
}

/// Print the comparison; `true` when `b` is acceptable (nothing WORSE,
/// no larger failed share).
pub fn diff(a: &Json, b: &Json) -> bool {
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut acceptable = true;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    for w in Workload::ALL {
        let (Some(ra), Some(rb)) = (
            find(&runs_a, w.name(), false),
            find(&runs_b, w.name(), false),
        ) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary_of(ra, m.name), summary_of(rb, m.name)) else {
                println!("{:<12} {:<12} missing on one side", w.name(), m.name);
                continue;
            };
            let (worse_by, verdict) = judge(sa, sb, m.higher_is_better, m.bound);
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{:<12} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%  {}",
                w.name(),
                m.name,
                sa.median,
                sb.median,
                worse_by * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Pass => "PASS",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        if fb > fa {
            println!("{:<12} failed share grew: {fa:.6} -> {fb:.6}", w.name());
            acceptable = false;
        }
        // With two threads the counts depend on the interleaving.
        if w != Workload::Mixed2s {
            for trace in [false, true] {
                let (Some(ra), Some(rb)) = (
                    find(&runs_a, w.name(), trace),
                    find(&runs_b, w.name(), trace),
                ) else {
                    continue;
                };
                let (ca, cb) = (exact_counts(ra), exact_counts(rb));
                let pass = if trace { "traced" } else { "untraced" };
                if ca == cb {
                    println!("{:<12} exact counts ({pass}): identical", w.name());
                } else {
                    for (x, y) in ca.iter().zip(&cb).filter(|(x, y)| x != y) {
                        println!("{:<12} exact count differs ({pass}): {x} -> {y}", w.name());
                    }
                }
            }
        }
    }
    acceptable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 9,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_boxes() {
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(s(99., 100., 101.), s(103., 104., 105.), false, 0.1).1,
            Verdict::Pass
        );
        assert_eq!(
            judge(s(99., 100., 101.), s(118., 120., 122.), false, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(s(80., 100., 125.), s(100., 120., 140.), false, 0.1).1,
            Verdict::Unresolved
        );
        // Noisy but nominally unchanged is not "unchanged".
        assert_eq!(
            judge(s(80., 100., 125.), s(82., 101., 120.), false, 0.1).1,
            Verdict::Unresolved
        );
        // Noisy, yet every quartile of b beats every quartile of a.
        assert_eq!(
            judge(s(80., 100., 125.), s(50., 60., 70.), false, 0.1).1,
            Verdict::Pass
        );
        // Higher is better: a drop is what is worse.
        let (by, v) = judge(s(990., 1000., 1010.), s(790., 800., 810.), true, 0.1);
        assert!((by - 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        assert_eq!(
            judge(s(990., 1000., 1010.), s(1190., 1200., 1210.), true, 0.1).1,
            Verdict::Pass
        );
    }

    #[test]
    fn a_worse_run_is_not_acceptable_and_counts_are_compared() {
        let run = |p50: f64, failed: u64, pages: u64| {
            let m = |v: f64| {
                Json::obj([
                    ("median", Json::Num(v)),
                    ("q1", Json::Num(v * 0.99)),
                    ("q3", Json::Num(v * 1.01)),
                    ("n", Json::count(9)),
                ])
            };
            Json::obj([
                ("workload", Json::str("lookup_cold")),
                ("trace", Json::Bool(false)),
                (
                    "metrics",
                    Json::Obj(
                        END_TO_END
                            .iter()
                            .map(|e| (e.name.to_string(), m(p50)))
                            .collect(),
                    ),
                ),
                (
                    "exact_round1",
                    Json::obj([("storage.disk_pages_read", Json::count(pages))]),
                ),
                (
                    "result",
                    Json::obj([
                        ("attempted", Json::count(100)),
                        ("failed", Json::count(failed)),
                    ]),
                ),
            ])
        };
        assert!(diff(&run(100.0, 0, 7), &run(100.0, 0, 7)));
        assert!(
            diff(&run(100.0, 0, 7), &run(100.0, 0, 8)),
            "a count difference is flagged, not fatal"
        );
        assert!(!diff(&run(100.0, 0, 7), &run(100.0, 1, 7)), "more failures");
        // ops_per_s (higher is better) rising with the rest is WORSE for
        // every lower-is-better metric.
        assert!(!diff(&run(100.0, 0, 7), &run(150.0, 0, 7)));
        let both = Json::obj([("runs", Json::Arr(vec![run(100.0, 0, 7)]))]);
        assert!(
            diff(&both, &run(100.0, 0, 7)),
            "a file of runs and a single run compare"
        );
    }
}
