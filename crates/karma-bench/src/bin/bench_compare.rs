//! The `check-bench` CI gate: compare a fresh `BENCH_*.json` against the
//! committed baseline and exit non-zero on a regression.
//!
//! Usage: `bench_compare <committed.json> <fresh.json> [--max-slowdown F]`
//!
//! `F` is the tolerated growth of each column's wall-time ratio to its
//! model's `baseline`, as a fraction (default 0.25 = 25%). The gate rules
//! are described once, in `karma_bench::compare`. Exits 1 on a
//! regression, 2 on a malformed command line.

use karma_bench::compare::{compare_reports, DEFAULT_MAX_SLOWDOWN};
use karma_bench::report::BenchReport;

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_compare: cannot read {path}: {e}"));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("bench_compare: {path} is not a bench report: {e:?}"))
}

fn usage() -> ! {
    eprintln!("usage: bench_compare <committed.json> <fresh.json> [--max-slowdown F]");
    std::process::exit(2);
}

fn main() {
    let mut max_slowdown = DEFAULT_MAX_SLOWDOWN;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--max-slowdown" {
            max_slowdown = args
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| usage());
        } else if arg.starts_with("--") {
            usage();
        } else {
            paths.push(arg);
        }
    }
    let [committed, fresh] = paths.as_slice() else {
        usage();
    };

    let outcome = compare_reports(&load(committed), &load(fresh), max_slowdown);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if outcome.passed() {
        println!(
            "bench gate OK: {fresh} within {}% of {committed}",
            max_slowdown * 100.0
        );
    } else {
        for failure in &outcome.failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
