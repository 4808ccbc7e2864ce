//! `--compare <A> <B>`: per workload × end-to-end metric, both medians,
//! how much worse B is than A, and a verdict against the metric's bound.
//! Files are result files or set files as this binary writes them.

use crate::json::{entries, get, num};
use crate::spec::{Better, END_TO_END};
use serde::Value;

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    BeyondBound,
    /// One of the medians is itself uncertain by more than the bound, so
    /// the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::BeyondBound => "beyond-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict for medians `a`, `b` that are themselves uncertain by `spread`.
pub fn verdict(a: f64, b: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::BeyondBound
    } else {
        Verdict::Ok
    }
}

/// The per-workload results of a result file or a set file.
fn results(doc: &Value) -> Vec<&Value> {
    match get(doc, "workloads") {
        Value::Array(items) => items.iter().collect(),
        _ => vec![doc],
    }
}

/// How far a run's median is expected to move by itself, as a share of it:
/// the interquartile distance of the samples behind it over the root of
/// their count. Two single runs carry no run-to-run spread, so this stands
/// in for it; the samples' own spread would call every tight bound
/// unresolved (36 ops of `gemm_1t` spread 25 % while their median repeats
/// within 6 %).
fn spread_of(metric: &Value) -> f64 {
    let (Some(v), Some(q1), Some(q3), Some(n)) = (
        num(get(metric, "value")),
        num(get(metric, "q1")),
        num(get(metric, "q3")),
        num(get(metric, "n")),
    ) else {
        return 0.0;
    };
    if v == 0.0 || n < 1.0 {
        0.0
    } else {
        ((q3 - q1) / v).abs() / n.sqrt()
    }
}

/// Prints the comparison; returns true when any pairing is beyond its bound,
/// an exact count differs, or either side has a failed op.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut bad = false;
    println!(
        "{:<22} {:<16} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for ra in results(a) {
        let name = get(ra, "workload").as_str().unwrap_or("?");
        let Some(rb) = results(b)
            .into_iter()
            .find(|r| get(r, "workload").as_str().ok() == Some(name))
        else {
            println!("{name:<22} missing from B");
            continue;
        };
        for (side, r) in [("A", ra), ("B", rb)] {
            // A child that crashed or hung is a failed op too (main.rs).
            if get(r, "correct") != &Value::Bool(true) {
                println!(
                    "{name:<22} FAILED in {side}: {} of {} ops",
                    num(get(r, "failed")).unwrap_or(0.0),
                    num(get(r, "attempted")).unwrap_or(0.0)
                );
                bad = true;
            }
        }
        for m in &END_TO_END {
            let (ma, mb) = (
                get(get(ra, "metrics"), m.name),
                get(get(rb, "metrics"), m.name),
            );
            let (Some(va), Some(vb)) = (num(get(ma, "value")), num(get(mb, "value"))) else {
                continue;
            };
            let spread = spread_of(ma).max(spread_of(mb));
            let bound = m.bound_on(name);
            let v = verdict(va, vb, spread, m.better, bound);
            bad |= v == Verdict::BeyondBound;
            println!(
                "{:<22} {:<16} {:>12.4} {:>12.4} {:>8.2}% {:>7.2}% {:>6.0}%  {}",
                name,
                m.name,
                va,
                vb,
                100.0 * worse_by(va, vb, m.better),
                100.0 * spread,
                100.0 * bound,
                v.as_str()
            );
        }
        // Counts must repeat exactly between two runs of one commit.
        for (key, ca) in entries(get(ra, "exact")) {
            let cb = get(get(rb, "exact"), key);
            if ca != cb {
                println!("{name:<22} exact count {key} differs: {ca:?} vs {cb:?}");
                bad = true;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(10.0, 10.4, 0.01, Lower, 0.05), Verdict::Ok);
        assert_eq!(verdict(10.0, 10.6, 0.01, Lower, 0.05), Verdict::BeyondBound);
        assert_eq!(verdict(10.0, 9.0, 0.01, Lower, 0.05), Verdict::Ok);
        assert_eq!(verdict(10.0, 9.4, 0.01, Higher, 0.05), Verdict::BeyondBound);
        assert_eq!(verdict(10.0, 11.0, 0.01, Higher, 0.05), Verdict::Ok);
        assert_eq!(verdict(10.0, 20.0, 0.30, Lower, 0.05), Verdict::Unresolved);
    }
}
