//! `chipmunk`: the one command-line front door to the evaluation. Every
//! paper table and figure, the single-bug hunt and its repro bundles, the
//! chaos smoke, the find → triage → fix campaign and the persistent
//! `campaignd` service are subcommands (DESIGN.md §4 indexes them).
//!
//! ```sh
//! cargo run --release -p bench --bin chipmunk -- <subcommand> [args]
//! ```
//!
//! Argument parsing is strict and shared by every subcommand: no
//! subcommand, an unknown one, an unknown flag, a malformed number, a flag
//! without its value or an extra argument prints the problem and the usage
//! text and exits 2 — never a silent default.

mod calibrate;
mod campaign;
mod chaos;
mod figure3;
mod fixcost;
mod hunt;
mod paper;

use std::{fmt::Display, str::FromStr, time::Duration};

use bench::{hunt_with_ace, hunt_with_fuzzer, HuntResult};
use chipmunk::TestConfig;
use vfs::bugs::{bug_table, BugInfo};

/// A subcommand: its name, its usage (what follows the name; further lines
/// are printed as they are) and its entry point, which receives the
/// arguments after the name.
type Command = (&'static str, &'static str, fn(&Cli, Vec<String>));

const COMMANDS: &[Command] = &[
    ("table1", "[fuzz_budget]", paper::table1),
    ("table2", "", paper::table2),
    ("figure3", "[fuzz_budget] [threads] [norep] [--json <path>]", figure3::run),
    ("ace_counts", "", paper::ace_counts),
    ("crash_states", "", paper::crash_states),
    ("inflight", "", paper::inflight),
    ("cap_sweep", "[fuzz_budget]", paper::cap_sweep),
    ("eadr", "[fuzz_budget]", paper::eadr),
    ("ablation", "", paper::ablation),
    ("fixcost", "", fixcost::run),
    ("calibrate", "[iters]", calibrate::run),
    (
        "hunt",
        "[bug#] [threads] [fuzz_budget] [seed] [--json <path>] [--shrink] [--out <path>]\n       \
         chipmunk hunt --repro <bundle.json>",
        hunt::run,
    ),
    ("chaos", "[threads] [--json <path>]", chaos::run),
    ("campaign", "[threads]", campaign::campaign),
    (
        "campaignd",
        "--store <dir> [--fs NAME] [--bug N] [--seq1-take N] [--seq2-step N]\n\
         \x20                         [--fuzz-budget N] [--seed HEX] [--batch N] [--cap N|none]\n\
         \x20                         [--bitmap-bits N] [--workers N] [--torture HEX]\n\
         \x20      chipmunk campaignd --resume <dir> [--workers N] [--torture HEX]\n\
         \x20      chipmunk campaignd --worker --store <dir> [--worker-id ID] [--die-after N]\n\
         \x20                         [--torture HEX]",
        campaign::campaignd,
    ),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| no_command("missing subcommand"));
    let Some(&(name, usage, run)) = COMMANDS.iter().find(|c| c.0 == name) else {
        no_command(format_args!("unknown subcommand {name:?}"))
    };
    run(&Cli { name, usage }, args.collect());
}

/// Prints `problem` and every subcommand's usage, then exits 2.
fn no_command(problem: impl Display) -> ! {
    eprintln!("{problem}\nusage: chipmunk <subcommand> [args], one of:");
    for (name, usage, _) in COMMANDS {
        eprintln!("  {}", format!("chipmunk {name} {usage}").trim_end());
    }
    std::process::exit(2);
}

/// One subcommand's command line, for its strict argument checks.
struct Cli {
    name: &'static str,
    usage: &'static str,
}

impl Cli {
    /// Prints the usage text and exits 2.
    fn usage(&self) -> ! {
        eprintln!("usage: {}", format!("chipmunk {} {}", self.name, self.usage).trim_end());
        std::process::exit(2);
    }

    /// Prints `problem`, then [`Cli::usage`].
    fn fail(&self, problem: impl Display) -> ! {
        eprintln!("{problem}");
        self.usage()
    }

    /// The value following `flag` in the argument stream.
    fn flag_value(&self, flag: &str, it: &mut impl Iterator<Item = String>) -> String {
        it.next().unwrap_or_else(|| self.fail(format_args!("{flag} needs a value")))
    }

    /// Parses `s` as the argument called `what`.
    fn parse<T: FromStr>(&self, what: &str, s: &str) -> T {
        s.parse().unwrap_or_else(|_| self.fail(format_args!("bad {what}: {s:?}")))
    }

    /// Parses an optional positional; only an absent one takes `default`.
    fn parse_pos<T: FromStr>(&self, v: Option<&String>, what: &str, default: T) -> T {
        v.map_or(default, |s| self.parse(what, s))
    }

    /// Pulls `flag <value>` out of a raw argument list (any position),
    /// leaving the other arguments in place.
    fn take_flag(&self, args: &mut Vec<String>, flag: &str) -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.remove(i);
        if i == args.len() {
            self.fail(format_args!("{flag} needs a value"));
        }
        Some(args.remove(i))
    }

    /// Pulls every occurrence of the valueless `switch` out of `args`;
    /// whether there was one.
    fn take_switch(&self, args: &mut Vec<String>, switch: &str) -> bool {
        let before = args.len();
        args.retain(|a| a != switch);
        args.len() != before
    }

    /// Checks that what is left of the arguments is at most `max`
    /// positionals and no flag.
    fn positionals(&self, args: Vec<String>, max: usize) -> Vec<String> {
        if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
            self.fail(format_args!("unknown flag {flag:?}"));
        }
        if let Some(extra) = args.get(max) {
            self.fail(format_args!("unexpected argument {extra:?}"));
        }
        args
    }

    /// The corpus bug numbered `n` in Table 1.
    fn corpus_bug(&self, n: u32) -> &'static BugInfo {
        bug_table()
            .iter()
            .find(|b| b.id.number() == n)
            .unwrap_or_else(|| self.fail(format_args!("no bug #{n} in the Table 1 corpus")))
    }
}

/// `(the find, workloads examined, crash states examined)`, as
/// `bench::hunt_with_*` return them.
type Hunt = (Option<HuntResult>, u64, u64);

/// Hunts corpus bug `info` in isolation down the paper's frontend
/// hierarchy: ACE (`ace`: its config and seq-3 sample size) when ACE can
/// reach the bug, the fuzzer (`fuzz`: its config, seed base — the bug number
/// is added — and budget) otherwise. A frontend given as `None` is skipped,
/// which reads as a miss over no work.
fn hunt_corpus_bug(
    info: &BugInfo,
    ace: Option<(&TestConfig, usize)>,
    fuzz: Option<(&TestConfig, u64, u64)>,
) -> Hunt {
    match (ace, fuzz) {
        (Some((cfg, max_seq3)), _) if info.ace_findable => hunt_with_ace(info.id, cfg, max_seq3),
        (_, Some((cfg, seed_base, budget))) => {
            hunt_with_fuzzer(info.id, cfg, seed_base + info.id.number() as u64, budget)
        }
        _ => (None, 0, 0),
    }
}

/// Formats a duration compactly for tables.
fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}
