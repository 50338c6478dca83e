//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints human-readable lines, and ends with one JSON
//! line: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! `--setup-only 1` runs one set-up repetition and prints
//! `setup <seconds> <digest>`; a run starts itself this way to time its
//! set-up repetitions in fresh processes.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use vs_perfbench::jobs::{SweepShape, REFERENCE_SEED};
use vs_perfbench::{
    daemon, end_to_end, peak_rss_mib, per_layer, repro, setup_line, sweep, Ctx, WORKLOADS,
};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1] [--setup-only 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (REFERENCE_SEED, 10.0, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--setup-only" => match value.as_str() {
                "0" => setup_only = false,
                "1" => setup_only = true,
                _ => return usage("--setup-only takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("--workload names one of the workloads");
    };

    let run_dir =
        PathBuf::from(".perfbench_run").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        epoch,
        run_dir: run_dir.clone(),
    };
    if setup_only {
        let (secs, digest) = match workload.as_str() {
            "sweep-short" => sweep::setup_only(SweepShape::Short, &ctx),
            "sweep-long" => sweep::setup_only(SweepShape::Long, &ctx),
            "daemon-mixed" => daemon::setup_only(&ctx),
            "repro-quick" => repro::setup_only(&ctx),
            _ => unreachable!("workload name checked above"),
        };
        let _ = std::fs::remove_dir_all(&run_dir);
        println!("{}", setup_line(secs, &digest));
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench {workload} seed {seed} seconds {seconds} trace {} (host threads {})",
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut out = match workload.as_str() {
        "sweep-short" => sweep::run(SweepShape::Short, &ctx),
        "sweep-long" => sweep::run(SweepShape::Long, &ctx),
        "daemon-mixed" => daemon::run(&ctx),
        "repro-quick" => repro::run(&ctx),
        _ => unreachable!("workload name checked above"),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".perfbench_run");

    let rss = peak_rss_mib();
    out.e2e("peak_rss_mb", rss, "MiB");
    out.line(format!("peak_rss_mb {rss:.1} MiB"));
    out.line(format!(
        "operations: {} attempted, {} failed; correct {}",
        out.attempted,
        out.failed,
        out.correct()
    ));
    for line in &out.lines {
        println!("{line}");
    }
    let (names, metrics) = if trace {
        (per_layer(), &out.layers)
    } else {
        (end_to_end(), &out.e2e)
    };
    let unmeasured: Vec<&str> = names
        .iter()
        .filter(|(n, _)| !metrics.contains_key(n))
        .map(|(n, _)| n.as_str())
        .collect();
    if !unmeasured.is_empty() {
        println!(
            "not exercised by {workload} (reported as 0): {}",
            unmeasured.join(", ")
        );
    }
    println!("{}", out.json(&names, metrics));
    ExitCode::SUCCESS
}
