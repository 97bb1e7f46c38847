//! `run.sh compare A.json B.json`: two `--out` documents side by side. Per
//! workload and end-to-end metric it prints both values, how much worse B
//! is than A as a share of A, and a verdict against the metric's bound:
//! `fail` when B is worse by more than the bound, `unresolved` when either
//! run's own pass-to-pass spread is wider than the bound (so the difference
//! cannot be told from noise), `pass` otherwise. Exact facts must be equal.

use bench::jsonout::{self, JVal};

use crate::metrics::{ratio, Better, END_TO_END};

/// The outcome of one comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Pass,
    /// The spread of a run exceeds the bound.
    Unresolved,
    /// Worse by more than the bound, or an exact fact differs.
    Fail,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => ratio(b - a, a),
        Better::Higher => ratio(a - b, a),
    }
}

/// The verdict for one metric given both runs' value and quartiles.
pub fn judge(better: Better, bound: f64, a: (f64, f64, f64), b: (f64, f64, f64)) -> Verdict {
    let spread = |(v, q1, q3): (f64, f64, f64)| ratio(q3 - q1, v);
    if worse_by(better, a.0, b.0) > bound {
        Verdict::Fail
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

fn load(path: &str) -> Result<JVal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    jsonout::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when no row failed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |d: &JVal| match d.get("workloads") {
        Some(JVal::Obj(w)) => Ok(w.clone()),
        _ => Err("not a benchmark --out document".to_string()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let same_inputs = ["seed", "scale"].iter().all(|k| a.get(k) == b.get(k));
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<16} only in {path_a}");
            continue;
        };
        let stat = |r: &JVal, metric: &str| {
            let m = r.get("metrics")?.get(metric)?;
            let f = |k: &str| m.get(k).and_then(JVal::as_f64);
            Some((f("value")?, f("q1")?, f("q3")?))
        };
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (stat(ra, m.name), stat(rb, m.name)) else {
                continue;
            };
            let v = judge(m.better, m.bound, sa, sb);
            ok &= v != Verdict::Fail;
            println!(
                "{name:<16} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>5.0}%  {}",
                m.name,
                sa.0,
                sb.0,
                100.0 * worse_by(m.better, sa.0, sb.0),
                100.0 * m.bound,
                match v {
                    Verdict::Pass => "pass",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Fail => "FAIL",
                }
            );
        }
        for key in ["correct", "attempted", "failed"] {
            if ra.get(key) != rb.get(key) {
                ok = false;
                println!(
                    "{name:<16} {key}: {:?} vs {:?}  FAIL",
                    ra.get(key),
                    rb.get(key)
                );
            }
        }
        if same_inputs {
            let (fa, fb) = (ra.get("facts"), rb.get("facts"));
            let differing = match (fa, fb) {
                (Some(JVal::Obj(fa)), Some(JVal::Obj(fb))) => fa
                    .iter()
                    .filter(|(k, v)| {
                        fb.iter()
                            .find(|(kb, _)| kb == k)
                            .is_some_and(|(_, vb)| vb != v)
                    })
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>(),
                _ => Vec::new(),
            };
            ok &= differing.is_empty();
            match differing.len() {
                0 => println!("{name:<16} exact counters identical"),
                n => println!(
                    "{name:<16} {n} exact counters differ (first: {})  FAIL",
                    differing[0]
                ),
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |v: f64| (v, v * 0.99, v * 1.01);
        assert_eq!(
            judge(Better::Lower, 0.1, tight(10.0), tight(10.5)),
            Verdict::Pass
        );
        assert_eq!(
            judge(Better::Lower, 0.1, tight(10.0), tight(11.5)),
            Verdict::Fail
        );
        assert_eq!(
            judge(Better::Higher, 0.1, tight(10.0), tight(11.5)),
            Verdict::Pass
        );
        assert_eq!(
            judge(Better::Higher, 0.1, tight(10.0), tight(8.0)),
            Verdict::Fail
        );
        assert_eq!(
            judge(Better::Lower, 0.1, (10.0, 9.0, 11.0), tight(10.2)),
            Verdict::Unresolved
        );
    }
}
