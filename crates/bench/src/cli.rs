//! Strict argument parsing shared by the binaries: an unknown flag, a
//! malformed number, a flag without its value or an extra argument prints
//! the problem and the usage text and exits 2 — never a silent default.

use std::{fmt::Display, str::FromStr};

/// One binary's command line, identified by its usage text (what follows
/// `usage: `; further lines are printed as they are).
pub struct Cli(pub &'static str);

impl Cli {
    /// Prints the usage text and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {}", self.0);
        std::process::exit(2);
    }

    /// Prints `problem`, then [`Cli::usage`].
    pub fn fail(&self, problem: impl Display) -> ! {
        eprintln!("{problem}");
        self.usage()
    }

    /// The value following `flag` in the argument stream.
    pub fn flag_value(&self, flag: &str, it: &mut impl Iterator<Item = String>) -> String {
        it.next().unwrap_or_else(|| self.fail(format_args!("{flag} needs a value")))
    }

    /// Parses `s` as the argument called `what`.
    pub fn parse<T: FromStr>(&self, what: &str, s: &str) -> T {
        s.parse().unwrap_or_else(|_| self.fail(format_args!("bad {what}: {s:?}")))
    }

    /// Parses an optional positional; only an absent one takes `default`.
    pub fn parse_pos<T: FromStr>(&self, v: Option<&String>, what: &str, default: T) -> T {
        v.map_or(default, |s| self.parse(what, s))
    }

    /// Pulls `flag <value>` out of a raw argument list (any position),
    /// leaving the other arguments in place.
    pub fn take_flag(&self, args: &mut Vec<String>, flag: &str) -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.remove(i);
        if i == args.len() {
            self.fail(format_args!("{flag} needs a value"));
        }
        Some(args.remove(i))
    }

    /// Checks that what is left of the arguments is at most `max`
    /// positionals and no flag.
    pub fn positionals(&self, args: Vec<String>, max: usize) -> Vec<String> {
        if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
            self.fail(format_args!("unknown flag {flag:?}"));
        }
        if let Some(extra) = args.get(max) {
            self.fail(format_args!("unexpected argument {extra:?}"));
        }
        args
    }
}
