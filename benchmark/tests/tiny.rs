//! Runs every workload at `--scale tiny`, timed and traced, and validates
//! what comes out: the contract's result shape, the metric registry, the
//! trace file and the staged pipeline's agreement with the production run.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bench::jsonout::{self, JVal};
use chipmunk_benchmark::{
    metrics::{self, per_layer, result_line, END_TO_END, WORKLOADS},
    nproc, run_workload,
    workloads::Scale,
    Options, DEFAULT_SEED,
};

fn home() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

fn opts(workload: &str, traced: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced,
        scale: Scale::Tiny,
        home: home(),
        update_expected: false,
    }
}

/// One test, so the runs (which share `out/`) never overlap.
#[test]
fn every_workload_runs_at_tiny_scale_timed_and_traced() {
    let layer_names: BTreeSet<String> = per_layer().into_iter().map(|m| m.name).collect();
    let e2e_names: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    for (name, _) in WORKLOADS {
        if name == "ace_clean_t2" && nproc() < 2 {
            assert!(
                run_workload(&opts(name, false)).is_err(),
                "refused on one core"
            );
            continue;
        }

        // Timed run: correct, pinned counters match, every end-to-end metric
        // present and non-zero, and the line parses as the contract's object.
        let r = run_workload(&opts(name, false)).expect("timed run");
        assert!(
            r.correct && r.failed == 0 && r.attempted >= 1,
            "{name}: {:?}",
            r.problems
        );
        assert_eq!(
            r.metrics.keys().cloned().collect::<BTreeSet<_>>(),
            e2e_names
        );
        for (k, v) in &r.metrics {
            assert!(v.is_finite() && *v > 0.0, "{name}: {k} = {v}");
        }
        let units: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect();
        let line = jsonout::parse(&result_line(
            r.correct,
            r.attempted,
            r.failed,
            &units,
            &r.metrics,
        ))
        .unwrap();
        let JVal::Obj(fields) = &line else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        // Traced run: every per-layer metric by name, a well-formed trace,
        // and sampled-state verdicts that agree with the production run.
        let r = run_workload(&opts(name, true)).expect("traced run");
        assert!(r.correct, "{name} traced: {:?}", r.problems);
        assert_eq!(
            r.metrics.keys().cloned().collect::<BTreeSet<_>>(),
            layer_names,
            "{name}"
        );
        assert!(r.metrics.values().all(|v| v.is_finite()), "{name}");
        assert_eq!(r.metrics["failed_share"], 0.0);
        assert_eq!(r.metrics["false_positives"], 0.0);
        if name != "campaign_resume" {
            let compared: u64 = r.facts["staged.verdicts_compared"].parse().unwrap();
            assert!(
                compared > 0,
                "{name}: the staged pipeline compared no verdict"
            );
            assert!(
                r.metrics["checker.mount_us.nova"] > 0.0
                    || r.metrics["checker.mount_us.pmfs"] > 0.0
            );
        }
        let text = std::fs::read_to_string(r.trace_file.as_ref().expect("trace file")).unwrap();
        let trace = jsonout::parse(&text).expect("trace parses");
        let inputs = trace
            .get("inputs")
            .and_then(JVal::as_arr)
            .expect("inputs")
            .len() as u64;
        let spans = trace.get("spans").and_then(JVal::as_arr).expect("spans");
        assert!(!spans.is_empty());
        for (i, s) in spans.iter().enumerate() {
            let num = |k: &str| s.get(k).and_then(JVal::as_u64);
            assert_eq!(num("id"), Some(i as u64));
            assert!(num("start") <= num("end"));
            assert!(
                num("input").is_some_and(|x| x < inputs),
                "{name}: span {i} input"
            );
            match s.get("parent") {
                Some(JVal::Null) => {}
                Some(p) => {
                    let p = p.as_u64().expect("parent id") as usize;
                    assert!(p < i, "{name}: span {i} has parent {p}");
                    let parent = &spans[p];
                    assert!(parent.get("start").and_then(JVal::as_u64) <= num("start"));
                    assert!(parent.get("end").and_then(JVal::as_u64) >= num("end"));
                }
                None => panic!("{name}: span {i} has no parent field"),
            }
        }
    }
}

/// `BENCHMARK.json` at the repo root is the registry, verbatim.
#[test]
fn benchmark_json_matches_the_registry() {
    let path = home().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside benchmark/");
    assert_eq!(
        text,
        metrics::manifest(),
        "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
    );
    let doc = jsonout::parse(&text).expect("BENCHMARK.json parses");
    let JVal::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(text.len() <= 64 * 1024);
}
