//! `calibrate`: the `pmem::cost` simulated-time model against host
//! wall-clock.
//!
//! 1. **Primitives** — tight loops over one [`PmDevice`], measuring host
//!    nanoseconds per simulated persistence primitive next to the model's
//!    charge (read back from `sim_cost()`) and their ratio. The constants
//!    model Optane, not the host, so the ratios differ per primitive; the
//!    table gives the constants' doc comments in `pmem/src/cost.rs` a dated
//!    host-side baseline.
//! 2. **Fuel** — arms a [`FuelGuard`] over a mixed persist loop on a
//!    [`CowDevice`] (the checker's device, whose metered ops burn fuel),
//!    prices one fuel unit in host wall time via [`fuel_remaining`], and
//!    reports the worst-case wall-clock bound the default recovery budget
//!    (`chipmunk::config::DEFAULT_RECOVERY_FUEL`) implies for a hung
//!    recovery.
//!
//! `iters` (default 2 000 000) is the per-primitive iteration count.

use std::time::Instant;

use pmem::{fuel_remaining, CowDevice, FuelGuard, PmBackend, PmDevice, CACHE_LINE};

use crate::Cli;

/// Runs `iters` repetitions of `op` against a fresh device, fencing every
/// 256 iterations to keep the in-flight write set bounded, and returns
/// (wall ns/op, sim ns/op) with the fence overhead charged to both sides.
fn measure(iters: u64, mut op: impl FnMut(&mut PmDevice, u64)) -> (f64, f64) {
    let mut dev = PmDevice::new(1 << 20);
    // Warm up page allocation and branch predictors outside the timed region.
    for i in 0..1024 {
        op(&mut dev, i);
    }
    dev.fence();
    let sim0 = dev.sim_cost().ns;
    let t = Instant::now();
    for i in 0..iters {
        op(&mut dev, i);
        if i % 256 == 255 {
            dev.fence();
        }
    }
    dev.fence();
    let wall = t.elapsed().as_nanos() as f64 / iters as f64;
    let sim = (dev.sim_cost().ns - sim0) as f64 / iters as f64;
    (wall, sim)
}

pub fn run(cli: &Cli, args: Vec<String>) {
    let pos = cli.positionals(args, 1);
    let iters: u64 = cli.parse_pos(pos.first(), "iteration count", 2_000_000);
    let line = CACHE_LINE;
    // Cycle stores over a 256 KiB window so the working set exceeds L1/L2
    // but all lines stay allocated after warm-up.
    let slots = (1u64 << 18) / line;
    let word = [0xa5u8; 8];
    let buf = vec![0x5au8; line as usize];

    println!("primitive calibration ({iters} iters each; fence amortized every 256 ops)");
    println!("{:<22} {:>12} {:>12} {:>10}", "primitive", "wall ns/op", "sim ns/op", "sim/wall");
    let rows: Vec<(&str, (f64, f64))> = vec![
        ("store word (8B)", measure(iters, |d, i| d.store((i % slots) * line, &word))),
        ("nt line (64B)", measure(iters, |d, i| d.memcpy_nt((i % slots) * line, &buf))),
        (
            "store+flush line",
            measure(iters, |d, i| {
                let off = (i % slots) * line;
                d.store(off, &buf);
                d.flush(off, line);
            }),
        ),
        ("fence (empty)", measure(iters, |d, _| d.fence())),
        ("media-read line", measure(iters, |d, _| d.note_media_read(line))),
    ];
    for (name, (wall, sim)) in rows {
        println!("{name:<22} {wall:>12.1} {sim:>12.1} {:>10.2}", sim / wall);
    }

    // Fuel section: the checker's CowDevice burns fuel on metered ops. Price
    // one unit of fuel in host wall time with a representative persist mix
    // (store + flush + fence per line, the journaled-update inner loop).
    let base = vec![0u8; 1 << 20];
    let budget: u64 = u64::MAX / 2;
    let _g = FuelGuard::arm(Some(budget));
    let mut cow = CowDevice::new(&base);
    let t = Instant::now();
    let fuel_iters = iters.min(1_000_000);
    for i in 0..fuel_iters {
        let off = (i % slots) * line;
        cow.store(off, &buf);
        cow.flush(off, line);
        cow.fence();
    }
    let wall = t.elapsed().as_nanos() as f64;
    let burned = budget - fuel_remaining().expect("guard armed");
    let ns_per_unit = wall / burned as f64;
    let default_budget = chipmunk::config::DEFAULT_RECOVERY_FUEL as f64;
    println!();
    println!(
        "fuel: {} units over {} persist iters, {:.2} wall ns/unit",
        burned, fuel_iters, ns_per_unit
    );
    println!(
        "      DEFAULT_RECOVERY_FUEL = {} units -> ~{:.2} s wall bound per hung recovery",
        chipmunk::config::DEFAULT_RECOVERY_FUEL,
        default_budget * ns_per_unit / 1e9,
    );
}
