//! Porting Chipmunk to the eADR persistence model (§3.6).
//!
//! ```sh
//! cargo run --release --example eadr_port
//! ```
//!
//! Under **ADR** (the epoch model the paper targets), stores sit in the
//! volatile cache until a write-back (`clwb`) and fence make them durable —
//! so a forgotten flush or fence is a crash-consistency bug. Under **eADR**
//! the caches themselves are persistent: every store is durable the moment
//! it lands, and the forgotten operations are unnecessary.
//!
//! The paper argues (§3.6) that Chipmunk ports to such models by changing
//! what the logger records and how the replayer builds crash states. This
//! example runs that port: the same two NOVA bugs are hunted under both
//! models via `TestConfig { eadr: true }`.
//!
//! * Bug 2 — a **PM-programming bug** (the new inode is never flushed):
//!   found under ADR, unobservable under eADR.
//! * Bug 4 — a **logic bug** (rename invalidates the old dentry in place,
//!   no journaling): found under *both*; Observation 1 transcends the
//!   persistence model.

use chipmunk::{test_workload, TestConfig};
use novafs::NovaKind;
use vfs::{fs::FsOptions, BugId, BugSet, Op, Workload};

fn hunt(kind: &NovaKind, wl: &Workload, cfg: &TestConfig) -> Option<String> {
    let out = test_workload(kind, wl, cfg);
    out.reports.first().map(|r| r.violation.detail().to_string())
}

fn main() {
    let adr = TestConfig { stop_on_first: true, ..TestConfig::default() };
    let eadr = TestConfig { stop_on_first: true, eadr: true, ..TestConfig::default() };

    println!("─── Bug 2: PM-programming bug (missing inode flush) ───────────");
    let pm_kind = NovaKind {
        opts: FsOptions::with_bugs(BugSet::only(&[BugId::B02])),
        fortis: false,
    };
    let wl = Workload::new("mkdir", vec![Op::Mkdir { path: "/d".into() }]);
    match hunt(&pm_kind, &wl, &adr) {
        Some(v) => println!("  ADR : FOUND — {v}"),
        None => println!("  ADR : clean (unexpected!)"),
    }
    match hunt(&pm_kind, &wl, &eadr) {
        Some(v) => println!("  eADR: FOUND — {v} (unexpected!)"),
        None => println!("  eADR: clean — persistent caches made the missing flush irrelevant"),
    }

    println!();
    println!("─── Bug 4: logic bug (in-place rename, no journal) ────────────");
    let logic_kind = NovaKind {
        opts: FsOptions::with_bugs(BugSet::only(&[BugId::B04])),
        fortis: false,
    };
    let wl = Workload::new(
        "rename",
        vec![
            Op::Creat { path: "/a".into() },
            Op::Rename { old: "/a".into(), new: "/b".into() },
        ],
    );
    match hunt(&logic_kind, &wl, &adr) {
        Some(v) => println!("  ADR : FOUND — {v}"),
        None => println!("  ADR : clean (unexpected!)"),
    }
    match hunt(&logic_kind, &wl, &eadr) {
        Some(v) => println!("  eADR: FOUND — {v}"),
        None => println!("  eADR: clean (unexpected!)"),
    }

    println!();
    println!("Logic bugs transcend the persistence model (Observation 1);");
    println!("PM-programming bugs are an ADR phenomenon. Full-corpus version:");
    println!("  cargo run --release -p bench --bin chipmunk -- eadr");
}
