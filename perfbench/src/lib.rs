//! The voltspec benchmark: four workloads driven through the system's
//! public APIs, end-to-end metrics from an untraced pass and per-layer
//! metrics from a separate traced pass. See `perfbench/README.md`.

#![warn(missing_docs)]

pub mod daemon;
pub mod jobs;
pub mod probes;
pub mod report;
pub mod repro;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep-short", "sweep-long", "daemon-mixed", "repro-quick"];

/// End-to-end metrics every workload reports with tracing off, with
/// units. One name per quantity, read per workload:
///
/// * `ops_per_s` — chips per wall second (sweeps; fresh chips on
///   `daemon-mixed`), experiments per wall second on `repro-quick`;
/// * `op_p50_ms` / `op_tail_ms` — per-chip job wall time (sweeps), fresh
///   job submit-to-terminal latency (`daemon-mixed`), per-experiment
///   wall time (`repro-quick`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, with units (the per-experiment
/// `figures.<id>_s` entries are appended by [`per_layer`]).
pub const LAYERS: [(&str, &str); 32] = [
    ("sram.bank_build_ms", "ms"),
    ("sram.banks_built", "count"),
    ("sram.lut_sample_ns", "ns"),
    ("sram.envelope_skip_ratio", "ratio"),
    ("ecc.decode_ns", "ns"),
    ("platform.characterize_ms", "ms"),
    ("spec.calibrate_ms", "ms"),
    ("spec.run_ms", "ms"),
    ("spec.tick_ns", "ns"),
    ("spec.baseline_ms", "ms"),
    ("fleet.chip_job_ms", "ms"),
    ("fleet.chip_job_tail_ms", "ms"),
    ("fleet.worker_busy_ratio", "ratio"),
    ("fleet.steal_ratio", "ratio"),
    ("fleet.journal_append_us", "us"),
    ("fleet.checkpoint_save_ms", "ms"),
    ("fleet.checkpoint_load_ms", "ms"),
    ("fleet.compact_ms", "ms"),
    ("fleetd.submit_rtt_ms", "ms"),
    ("fleetd.first_chip_ms", "ms"),
    ("fleetd.frames", "count"),
    ("fleetd.frame_codec_us", "us"),
    ("fleetd.store_hit_ratio", "ratio"),
    ("fleetd.busy_shed", "count"),
    ("fleetd.store_boot_ms", "ms"),
    ("fleetd.repeat_job_p50_ms", "ms"),
    ("fleetd.repeat_job_tail_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.repeat_attributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric name with its unit.
pub fn per_layer() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = LAYERS
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    out.extend(
        repro::EXPERIMENTS
            .iter()
            .map(|id| (format!("figures.{id}_s"), "s".to_owned())),
    );
    out
}

/// Every end-to-end metric name with its unit.
pub fn end_to_end() -> Vec<(String, String)> {
    END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What a workload run is given.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload name.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// How long the measured pass lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Process start (as close as `main` gets to it).
    pub epoch: Instant,
    /// Scratch directory for stores and sockets, removed after the run.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// The untraced pass's budget: the whole run, or half of it when a
    /// traced pass follows.
    pub fn untraced_budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// The traced pass's budget.
    pub fn traced_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.5)
    }
}

/// Times the workload's set-up [`SETUP_REPS`] times, each from the start
/// of a process: once here (the set-up the run goes on with) and then in
/// child processes of this program started with `--setup-only 1`. A fresh
/// process per repetition pays every lazy, process-wide initialization
/// again, and leaves this process's memory as one set-up made it.
///
/// `setup` returns what the run needs and a digest of its warm-up
/// results; every repetition must produce the same digest. Returns the
/// median seconds.
pub fn repeated_setup<T>(
    ctx: &Ctx,
    out: &mut report::Outcome,
    setup: impl FnOnce() -> (T, String),
) -> (f64, T) {
    let (made, digest) = setup();
    let mut times = vec![ctx.epoch.elapsed().as_secs_f64()];
    for _ in 1..SETUP_REPS {
        match setup_in_child(ctx) {
            Ok((secs, child_digest)) => {
                times.push(secs);
                out.check(
                    child_digest == digest,
                    format!("set-up repetition warmed up to {child_digest}, not {digest}"),
                );
            }
            Err(e) => out.check(false, format!("set-up repetition: {e}")),
        }
    }
    out.line(format!(
        "setup_s over {} repetitions: {}",
        times.len(),
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    (stats::median(&times), made)
}

/// The line a `--setup-only` child prints: seconds and warm-up digest.
pub fn setup_line(secs: f64, digest: &str) -> String {
    format!("setup {secs} {digest}")
}

/// Runs one set-up repetition in a child process and reads its line.
fn setup_in_child(ctx: &Ctx) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &ctx.workload, "--seed", &ctx.seed.to_string()])
        .args(["--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let mut fields = line.split_whitespace();
    match (
        output.status.success(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) {
        (true, Some("setup"), Some(secs), Some(digest)) => secs
            .parse()
            .map(|secs| (secs, digest.to_owned()))
            .map_err(|e| format!("bad set-up line {line:?}: {e}")),
        _ => Err(format!("child exited {} with {line:?}", output.status)),
    }
}

/// Writes the traced pass's spans to
/// `.perfbench_out/spans-<workload>-seed<seed>.jsonl`.
pub fn write_spans(ctx: &Ctx, tracer: &trace::Tracer) {
    let dir = PathBuf::from(".perfbench_out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names in `BENCHMARK.json` are the ones this program emits, in
    /// the same order, with the same units.
    #[test]
    fn metric_and_workload_names_are_stable() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names_in = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("array end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk[..chunk.find('"').unwrap()].to_owned();
                    let unit = chunk
                        .split("\"unit\": \"")
                        .nth(1)
                        .map(|u| u[..u.find('"').unwrap()].to_owned())
                        .unwrap_or_default();
                    (name, unit)
                })
                .collect()
        };
        let workloads: Vec<String> = names_in("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names_in("end_to_end"), end_to_end());
        assert_eq!(names_in("per_layer"), per_layer());
    }

    #[test]
    fn every_name_fits_the_naming_rules() {
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }
}
