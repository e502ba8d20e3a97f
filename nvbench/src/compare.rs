//! `nvbench compare A B`: applies each end-to-end metric's bound to two
//! `nvbench run` documents and says, per workload × metric, whether B is
//! `ok`, `regressed` or `unresolved` against A.
//!
//! * `regressed`: B's value is worse than A's by more than the bound (a
//!   share of A's value, or the metric's absolute slack if larger).
//! * `unresolved`: not regressed, but either side's own trial-to-trial
//!   spread is wider than that allowance, so the comparison cannot tell a
//!   change of that size from noise. The spread is the interquartile range
//!   of the trials behind a median; behind a fastest-sample metric it is
//!   the distance from the fastest sample to the first quartile — how far
//!   the value stands from the fastest quarter of its own samples.

use crate::json::{self, Value};
use crate::spec::{self, Better};

/// One row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the bound is wider than the noise.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Trial spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for baseline value `a` against candidate `b`, given each
/// side's trial-to-trial spread.
pub fn judge(m: &spec::Metric, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let allowed = (m.bound * a.abs()).max(m.abs_slack);
    let worse_by = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by > allowed {
        Verdict::Regressed
    } else if spread_a.max(spread_b) > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("smoke") != Some(&Value::Bool(false)) {
        return Err(format!("{path}: not a full-size nvbench run document (smoke runs validate the harness, not performance)"));
    }
    Ok(doc)
}

/// `(value, spread)` of an untraced workload's metric in a run document.
fn reading(doc: &Value, workload: &str, m: &spec::Metric) -> Option<(f64, f64)> {
    let metric = m.name;
    let entry = doc.get("workloads")?.as_arr()?.iter().find(|w| {
        w.get("name").and_then(Value::as_str) == Some(workload)
            && w.get("trace").and_then(Value::as_f64) == Some(0.0)
    })?;
    let value = entry.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
    let spread = entry.get("spread").and_then(|s| s.get(metric));
    let (upper, lower) = if m.fastest {
        ("q1", "min")
    } else {
        ("q3", "q1")
    };
    let spread = spread
        .and_then(|s| Some(s.get(upper)?.as_f64()? - s.get(lower)?.as_f64()?))
        .unwrap_or(0.0);
    Some((value, spread))
}

/// Compares the documents at `a` and `b`; prints one row per workload ×
/// metric. `Ok(true)` when nothing regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["frozen", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the documents differ in {key:?}: they did not measure the same work"
            ));
        }
    }
    if a.get("host") != b.get("host") {
        println!("note: host stamps differ (rev, cores, flush instruction or pool-dir fs) — read times with that in mind");
    }
    println!(
        "{:<16} {:<15} {:<7} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "better", "A", "B", "change", "bound"
    );
    let mut counts = [0usize; 3];
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some((va, spread_a)), Some((vb, spread_b))) =
                (reading(&a, w.name, m), reading(&b, w.name, m))
            else {
                return Err(format!(
                    "{}/{} is missing from one of the documents",
                    w.name, m.name
                ));
            };
            let verdict = judge(m, va, vb, spread_a, spread_b);
            counts[verdict as usize] += 1;
            let change = if va == 0.0 {
                0.0
            } else {
                (vb - va) / va.abs() * 100.0
            };
            println!(
                "{:<16} {:<15} {:<7} {:>14.4} {:>14.4} {:>+7.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                m.better.name(),
                va,
                vb,
                change,
                m.bound * 100.0,
                verdict.name()
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved",
        counts[0], counts[1], counts[2]
    );
    Ok(counts[Verdict::Regressed as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_respect_direction_slack_and_noise() {
        let ops = spec::metric("ops_per_s").unwrap();
        assert_eq!(judge(ops, 100.0, 76.0, 1.0, 1.0), Verdict::Ok);
        assert_eq!(judge(ops, 100.0, 74.0, 1.0, 1.0), Verdict::Regressed);
        assert_eq!(
            judge(ops, 100.0, 150.0, 1.0, 1.0),
            Verdict::Ok,
            "faster is never a regression"
        );
        assert_eq!(judge(ops, 100.0, 99.0, 30.0, 1.0), Verdict::Unresolved);
        let p50 = spec::metric("lat_p50_us").unwrap();
        assert_eq!(judge(p50, 20.0, 25.5, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(p50, 20.0, 10.0, 0.0, 0.0), Verdict::Ok);
        // 1/64 fences per op: 2 % of it is 0.0003, the absolute slack rules.
        let fences = spec::metric("fences_per_op").unwrap();
        assert_eq!(judge(fences, 0.015625, 0.0195, 0.0, 0.0), Verdict::Ok);
        assert_eq!(
            judge(fences, 0.015625, 0.0210, 0.0, 0.0),
            Verdict::Regressed
        );
        assert_eq!(judge(fences, 1.0, 1.03, 0.0, 0.0), Verdict::Regressed);
    }
}
