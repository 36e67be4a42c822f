//! One workload of the AutoFL benchmark, run in its own process.
//!
//! ```sh
//! perfbench <fleet_1m|paper_sweep|serve_queue> --seed <n> --seconds <s> \
//!     --trace <0|1> --out-dir <dir> [--smoke]
//! ```
//!
//! Prints human-readable notes, then one JSON line: operations attempted
//! and failed (with the first failure reasons), the digest of the fixed
//! first iteration's round records, the thread count, and the metrics —
//! end-to-end with `--trace 0`, per-layer with `--trace 1`. `run.py`
//! builds this binary, adds the host fingerprint and prints the result
//! the benchmark contract asks for. `serve-daemon` is the `spec_serve`
//! daemon loop the `serve_queue` workload starts as a child process.

mod common;
mod fleet_1m;
mod layers;
mod paper_sweep;
mod replay;
mod serve_queue;
mod trace;

use common::Opts;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench <fleet_1m|paper_sweep|serve_queue> --seed <n> --seconds <s> \
         --trace <0|1> --out-dir <dir> [--smoke]\n       \
         perfbench serve-daemon --root <dir> [--crash-after <n>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(command) = args.first() else {
        return usage();
    };
    if command == "serve-daemon" {
        let Some(root) = value("--root") else {
            return usage();
        };
        let crash = match value("--crash-after").map(|n| n.parse()) {
            None => None,
            Some(Ok(n)) => Some(n),
            Some(Err(_)) => return usage(),
        };
        return serve_queue::daemon(&root, crash);
    }
    let parsed = (|| {
        Some(Opts {
            seed: value("--seed")?.parse().ok()?,
            seconds: value("--seconds")?.parse().ok()?,
            trace: match value("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            smoke: args.iter().any(|a| a == "--smoke"),
            out_dir: value("--out-dir")?.into(),
        })
    })();
    let Some(opts) = parsed else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let out = match command.as_str() {
        "fleet_1m" => fleet_1m::run(&opts),
        "paper_sweep" => paper_sweep::run(&opts),
        "serve_queue" => serve_queue::run(&opts),
        _ => return usage(),
    };
    for note in &out.notes {
        println!("{note}");
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
