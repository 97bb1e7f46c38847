//! Regenerates the Observation 7 replay-cap sensitivity result: "A cap of
//! two is enough to find all bugs presented in this paper; a cap of five is
//! sufficient to check all crash states for most system calls"; and "of the
//! 11 bugs that involve a crash in the middle of a system call, 10 can be
//! exposed by a crash state that replays only a single write; the final bug
//! requires two writes."
//!
//! ```sh
//! cargo run --release -p bench --bin cap_sweep [fuzz_budget]
//! ```
//!
//! A malformed or extra argument exits 2 with the usage line.

use bench::{cli::Cli, hunt_with_ace, hunt_with_fuzzer};
use chipmunk::TestConfig;
use vfs::bugs::bug_table;

const CLI: Cli = Cli("cap_sweep [fuzz_budget]");

fn main() {
    let pos = CLI.positionals(std::env::args().skip(1).collect(), 1);
    let fuzz_budget: u64 = CLI.parse_pos(pos.first(), "fuzz budget", 6000);
    let caps: [Option<usize>; 4] = [Some(1), Some(2), Some(5), None];

    println!("bugs found at each replay cap (each bug hunted in isolation)\n");
    print!("{:>4} {:<12}", "Bug", "FS");
    for cap in caps {
        match cap {
            Some(c) => print!(" {:>7}", format!("cap={c}")),
            None => print!(" {:>7}", "exhst"),
        }
    }
    println!();
    println!("{}", "-".repeat(50));

    let mut found_at: Vec<usize> = vec![0; caps.len()];
    for info in bug_table() {
        print!("{:>4} {:<12}", info.id.number(), info.fs.to_string());
        for (ci, cap) in caps.iter().enumerate() {
            let cfg = TestConfig { cap: *cap, stop_on_first: true, ..TestConfig::default() };
            let hit = if info.ace_findable {
                hunt_with_ace(info.id, &cfg, 100).0
            } else {
                hunt_with_fuzzer(info.id, &cfg, 0xca9 + info.id.number() as u64, fuzz_budget).0
            };
            let mark = if hit.is_some() { "yes" } else { "-" };
            if hit.is_some() {
                found_at[ci] += 1;
            }
            print!(" {mark:>7}");
        }
        println!();
    }
    println!("{}", "-".repeat(50));
    print!("{:>17}", "total found");
    for n in &found_at {
        print!(" {n:>7}");
    }
    println!("\n\npaper: a cap of two finds every bug in the paper");
}
