//! Command line of the benchmark; `run.sh` builds and calls this.
//!
//! ```text
//! chipmunk-benchmark [--workload NAME|all] [--seed N|0xHEX] [--seconds S]
//!                    [--trace 0|1 | --traced] [--scale tiny|bench|full]
//!                    [--out FILE] [--update-expected]
//! chipmunk-benchmark compare A.json B.json
//! chipmunk-benchmark manifest          # prints BENCHMARK.json from the registry
//! ```
//!
//! For one workload the last line of standard output is the driver's result
//! object. Exit code: 0 when every run was correct, 1 when one was not, 2 on
//! a usage error, 3 when the host cannot run the workload asked for.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use chipmunk_benchmark::{
    compare,
    metrics::{manifest, per_layer, result_line, END_TO_END, RUN_SECONDS, WORKLOADS},
    nproc, run_workload,
    workloads::Scale,
    Options, RunResult, DEFAULT_SEED,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME|all] [--seed N|0xHEX] [--seconds S] [--trace 0|1 | --traced]\n\
         \x20             [--scale tiny|bench|full] [--out FILE] [--update-expected]\n\
         \x20      run.sh compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The metric table of one run, one line per metric: name, value, unit,
/// direction, bound.
fn table(workload: &str, o: &Options, r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {workload}  seed {:#x}  scale {}  {}  {} passes  nproc {} ==",
        o.seed,
        o.scale.as_str(),
        if o.traced { "traced" } else { "timed" },
        r.passes,
        nproc()
    );
    let v = |name: &str| r.metrics.get(name).copied().unwrap_or(0.0);
    if o.traced {
        for m in per_layer() {
            let _ = writeln!(
                s,
                "{:<40} {:>18.6} {:<6} {} is better",
                m.name,
                v(&m.name),
                m.unit,
                m.better.as_str()
            );
        }
    } else {
        for m in END_TO_END {
            let _ = writeln!(
                s,
                "{:<40} {:>18.6} {:<6} {} is better, may worsen by {:.0}%",
                m.name,
                v(m.name),
                m.unit,
                m.better.as_str(),
                100.0 * m.bound
            );
        }
        // The exact counters the timed run's public results carry (per-row
        // values are in `--out` and pinned in expected.json).
        for (k, val) in &r.totals {
            let _ = writeln!(s, "  {k:<38} {val:>18} count", k = format!("counter.{k}"));
        }
    }
    let _ = writeln!(
        s,
        "attempted {}  failed {}  correct {}",
        r.attempted, r.failed, r.correct
    );
    for line in r
        .skipped
        .iter()
        .map(|l| format!("skipped: {l}"))
        .chain(r.problems.iter().map(|l| format!("PROBLEM: {l}")))
    {
        let _ = writeln!(s, "{line}");
    }
    if let Some(f) = &r.trace_file {
        let _ = writeln!(s, "trace written to {}", f.display());
    }
    s
}

/// `(name, unit)` of every metric a run reports: the per-layer set when
/// traced, the end-to-end set otherwise.
fn reported_metrics(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// One workload's entry in the `--out` document.
fn out_entry(o: &Options, r: &RunResult) -> String {
    let units = reported_metrics(o.traced);
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = r.metrics.get(name).copied().unwrap_or(0.0);
            let (q1, q3) = r.quartiles.get(name).copied().unwrap_or((v, v));
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\", \"q1\": {q1}, \"q3\": {q3}}}"
            )
        })
        .collect();
    let facts: Vec<String> = r
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"passes\": {},\n   \"metrics\": {{{}}},\n   \"facts\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        r.passes,
        metrics.join(", "),
        facts.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["manifest"] {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage(),
        };
    }

    let home = std::env::var_os("CHIPMUNK_BENCH_HOME")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let mut o = Options {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        scale: Scale::Bench,
        home,
        update_expected: false,
    };
    let mut out_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let ok = match flag.as_str() {
            "--workload" => value().map(|v| o.workload = v.to_string()).is_some(),
            "--seed" => value().and_then(parse_seed).map(|v| o.seed = v).is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                .map(|v| o.seconds = v)
                .is_some(),
            "--trace" => match value() {
                Some("0") => true,
                Some("1") => {
                    o.traced = true;
                    true
                }
                _ => false,
            },
            "--traced" => {
                o.traced = true;
                true
            }
            "--scale" => value()
                .and_then(Scale::parse)
                .map(|v| o.scale = v)
                .is_some(),
            "--out" => value().map(|v| out_file = Some(v.to_string())).is_some(),
            "--update-expected" => {
                o.update_expected = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {flag:?}");
            return usage();
        }
    }
    let all = o.workload == "all";
    if !all && !WORKLOADS.iter().any(|w| w.0 == o.workload) {
        eprintln!("unknown workload {:?}", o.workload);
        return usage();
    }
    if o.update_expected && o.seed != DEFAULT_SEED {
        eprintln!("--update-expected pins the default seed only");
        return usage();
    }

    let names: Vec<&str> = if all {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![o.workload.as_str()]
    };
    let units = reported_metrics(o.traced);
    let mut entries = Vec::new();
    let mut all_correct = true;
    for name in names {
        let opts = Options {
            workload: name.to_string(),
            ..o.clone()
        };
        let r = match run_workload(&opts) {
            Ok(r) => r,
            // In a sweep a workload this host cannot run is skipped, not
            // failed; asked for by name it is refused.
            Err(e) if all => {
                println!("== {name} ==\nskipped: {e}");
                continue;
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(3);
            }
        };
        all_correct &= r.correct;
        print!("{}", table(name, &opts, &r));
        println!(
            "{}",
            result_line(r.correct, r.attempted, r.failed, &units, &r.metrics)
        );
        entries.push(format!("  \"{name}\": {}", out_entry(&opts, &r)));
    }
    if let Some(path) = out_file {
        let doc = format!(
            "{{\"seed\": \"{:#x}\", \"scale\": \"{}\", \"traced\": {}, \"seconds\": {}, \"nproc\": {},\n \"workloads\": {{\n{}\n }}}}\n",
            o.seed,
            o.scale.as_str(),
            o.traced,
            o.seconds,
            nproc(),
            entries.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
