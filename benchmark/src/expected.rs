//! `expected.json`: the exact facts of every workload at the default seed,
//! per scale. A run at the default seed fails on any drift; a run at another
//! seed checks only the invariants the passes count themselves (no false
//! positive, every ACE find, byte-identical campaign merge).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bench::jsonout::{self, JVal};

use crate::workloads::Scale;

type Facts = BTreeMap<String, String>;

fn file(home: &Path) -> PathBuf {
    home.join("expected.json")
}

fn load(home: &Path) -> Result<JVal, String> {
    let path = file(home);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    jsonout::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Facts of the staged pipeline exist only in a traced run.
fn is_staged(key: &str) -> bool {
    key.starts_with("staged.")
}

/// Every way `facts` differs from what is pinned for `(scale, workload)`.
/// Empty when the seed is not the default or nothing is pinned.
pub fn check(
    home: &Path,
    scale: Scale,
    workload: &str,
    default_seed: bool,
    facts: &Facts,
) -> Vec<String> {
    if !default_seed {
        return Vec::new();
    }
    let doc = match load(home) {
        Ok(d) => d,
        Err(e) => return vec![format!("cannot check exact counters: {e}")],
    };
    let Some(JVal::Obj(pinned)) = doc.get(scale.as_str()).and_then(|s| s.get(workload)) else {
        return Vec::new();
    };
    let traced = facts.keys().any(|k| is_staged(k));
    let mut drift = Vec::new();
    for (k, want) in pinned {
        let want = want.as_str().unwrap_or("<not a string>");
        match facts.get(k) {
            Some(got) if got == want => {}
            Some(got) => drift.push(format!(
                "{workload}: {k} = {got}, expected.json pins {want}"
            )),
            None if is_staged(k) && !traced => {}
            None => drift.push(format!(
                "{workload}: {k} missing, expected.json pins {want}"
            )),
        }
    }
    for k in facts
        .keys()
        .filter(|k| !pinned.iter().any(|(p, _)| p == *k))
    {
        drift.push(format!(
            "{workload}: {k} = {} is not pinned in expected.json",
            facts[k]
        ));
    }
    drift
}

/// Pins `facts` for `(scale, workload)`, keeping staged facts already pinned
/// when this run was not traced.
pub fn update(
    home: &Path,
    scale: Scale,
    workload: &str,
    seed: u64,
    facts: &Facts,
) -> Result<(), String> {
    let mut doc = match load(home) {
        Ok(JVal::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    let traced = facts.keys().any(|k| is_staged(k));
    let slot = |fields: &mut Vec<(String, JVal)>, key: &str| -> usize {
        match fields.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                fields.push((key.to_string(), JVal::Obj(Vec::new())));
                fields.len() - 1
            }
        }
    };
    doc.retain(|(k, _)| k != "seed");
    doc.insert(0, ("seed".into(), JVal::Str(format!("{seed:#x}"))));
    let si = slot(&mut doc, scale.as_str());
    let JVal::Obj(scale_fields) = &mut doc[si].1 else {
        return Err("malformed expected.json".into());
    };
    let wi = slot(scale_fields, workload);
    let JVal::Obj(old) = &scale_fields[wi].1 else {
        return Err("malformed expected.json".into());
    };
    let mut merged: Facts = old
        .iter()
        .filter(|(k, _)| is_staged(k) && !traced)
        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
        .collect();
    merged.extend(facts.iter().map(|(k, v)| (k.clone(), v.clone())));
    scale_fields[wi].1 = JVal::Obj(merged.into_iter().map(|(k, v)| (k, JVal::Str(v))).collect());
    let path = file(home);
    std::fs::write(&path, pretty(&JVal::Obj(doc), 0) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `v` with one field per line, so a drift shows as a one-line diff.
pub fn pretty(v: &JVal, depth: usize) -> String {
    match v {
        JVal::Obj(fields) if !fields.is_empty() => {
            let pad = "  ".repeat(depth + 1);
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        JVal::Str(k.clone()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_check_round_trips_and_flags_drift() {
        let home = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-expected-{}", std::process::id()));
        std::fs::create_dir_all(&home).unwrap();
        let mut facts = Facts::new();
        facts.insert("nova.states".into(), "12".into());
        update(&home, Scale::Tiny, "ace_clean", 7, &facts).unwrap();
        let mut traced = facts.clone();
        traced.insert("staged.checked".into(), "3".into());
        update(&home, Scale::Tiny, "ace_clean", 7, &traced).unwrap();
        // An untraced update keeps the staged facts; an untraced check
        // ignores them.
        update(&home, Scale::Tiny, "ace_clean", 7, &facts).unwrap();
        assert!(check(&home, Scale::Tiny, "ace_clean", true, &facts).is_empty());
        assert!(check(&home, Scale::Tiny, "ace_clean", true, &traced).is_empty());
        traced.insert("staged.checked".into(), "4".into());
        assert_eq!(
            check(&home, Scale::Tiny, "ace_clean", true, &traced).len(),
            1
        );
        facts.insert("nova.states".into(), "13".into());
        assert_eq!(
            check(&home, Scale::Tiny, "ace_clean", true, &facts).len(),
            1
        );
        assert!(check(&home, Scale::Tiny, "ace_clean", false, &facts).is_empty());
        let _ = std::fs::remove_dir_all(&home);
    }
}
