//! `repro-quick`: every experiment `repro list` names, at `Scale::Quick`,
//! run in-process through `vs_bench::figures` on two threads, each with a
//! fixed list (heaviest first, balanced by two-thread wall time).

use crate::jobs::REFERENCE_SEED;
use crate::report::{Digest, Outcome};
use crate::stats::Dist;
use crate::trace::Tracer;
use crate::{repeated_setup, Ctx};
use std::collections::BTreeMap;
use std::time::Instant;
use vs_bench::figures::{
    characterization, extensions, mechanisms, noise, power, supporting, tables, traces, Rendered,
};
use vs_bench::Scale;

/// The experiments of `repro list`, in its order.
pub const EXPERIMENTS: [&str; 25] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "retention",
    "temperature",
    "aging",
    "baselines",
    "tailoring",
];

/// The two threads' experiment lists, heaviest first, balanced by each
/// experiment's wall time when both threads run (~14 s per list on a
/// 2-vCPU Xeon VM). The lists are fixed so the same experiments always
/// overlap: fig14 and tailoring, the two that allocate most, share a
/// thread and never run together, which keeps the peak RSS a property of
/// the code rather than of the interleaving.
const THREAD_LISTS: [&[&str]; 2] = [
    &[
        "fig14",
        "fig11",
        "fig15",
        "tailoring",
        "fig1",
        "fig4",
        "fig13",
        "retention",
        "fig5",
        "table1",
        "fig6",
        "fig9",
    ],
    &[
        "fig17",
        "fig10",
        "fig3",
        "temperature",
        "baselines",
        "fig2",
        "fig18",
        "fig12",
        "fig16",
        "fig8",
        "aging",
        "table2",
        "fig7",
    ],
];

/// Experiments run as the warm-up: the static tables and two short
/// single-chip ones, which build cell banks and fill the lazily built
/// ECC tables without simulating much.
const WARMUP: [&str; 4] = ["table1", "table2", "fig5", "fig8"];

/// Threads the pass runs on.
const THREADS: usize = THREAD_LISTS.len();

/// Runs one experiment by id, as `repro` dispatches it.
pub fn run_experiment(id: &str, seed: u64, scale: Scale) -> Option<Rendered> {
    Some(match id {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig1" => characterization::fig1(seed, scale),
        "fig2" => characterization::fig2(seed, scale),
        "fig3" => characterization::fig3(seed, scale),
        "fig4" => characterization::fig4(seed, scale),
        "fig5" => mechanisms::fig5(seed),
        "fig6" => mechanisms::fig6(),
        "fig7" => mechanisms::fig7(),
        "fig8" => mechanisms::fig8(seed),
        "fig9" => mechanisms::fig9(seed),
        "fig10" => power::fig10(seed, scale),
        "fig11" => power::fig11(seed, scale),
        "fig12" => traces::fig12(seed, scale),
        "fig13" => power::fig13(seed, scale),
        "fig14" => traces::fig14(seed, scale),
        "fig15" => noise::fig15(seed, scale),
        "fig16" => noise::fig16(seed, scale),
        "fig17" => power::fig17(seed, scale),
        "fig18" => power::fig18(seed, scale),
        "retention" => supporting::retention(seed),
        "temperature" => supporting::temperature(seed, scale),
        "aging" => supporting::aging(seed),
        "baselines" => extensions::baselines(seed, scale),
        "tailoring" => extensions::tailoring(seed, scale),
        _ => return None,
    })
}

/// One experiment's result: its rendered text or why it failed.
type ExpResult = Result<String, String>;

/// What one thread of a pass returns: its spans (traced passes only) and
/// each experiment's id, wall seconds and result.
type ThreadRun = (Option<Tracer>, Vec<(&'static str, f64, ExpResult)>);

/// Runs and checks one experiment: it must not panic and must render at
/// least one table, none of them empty.
fn checked(id: &str, seed: u64) -> ExpResult {
    let rendered = std::panic::catch_unwind(|| run_experiment(id, seed, Scale::Quick))
        .map_err(|_| format!("{id} panicked"))?
        .ok_or_else(|| format!("{id} is not an experiment"))?;
    if rendered.tables.is_empty() || rendered.tables.iter().any(|t| t.is_empty()) {
        return Err(format!("{id} rendered an empty table"));
    }
    Ok(rendered.to_text())
}

/// One pass over every experiment: wall seconds, and per experiment its
/// wall seconds and result.
struct Pass {
    wall_s: f64,
    results: BTreeMap<&'static str, (f64, ExpResult)>,
}

fn pass(seed: u64, mut tracer: Option<&mut Tracer>) -> Pass {
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let start = Instant::now();
    let per_thread: Vec<ThreadRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = THREAD_LISTS
            .iter()
            .map(|list| {
                scope.spawn(move || {
                    let mut t = epoch.map(Tracer::new);
                    let mut done = Vec::new();
                    for &id in *list {
                        let job = EXPERIMENTS.iter().position(|e| *e == id).unwrap_or(0) as u64;
                        let began = Instant::now();
                        let result = match t.as_mut() {
                            Some(t) => t.span(&format!("figures.{id}"), job, |_| checked(id, seed)),
                            None => checked(id, seed),
                        };
                        done.push((id, began.elapsed().as_secs_f64(), result));
                    }
                    (t, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut results = BTreeMap::new();
    for (t, done) in per_thread {
        if let (Some(tracer), Some(t)) = (tracer.as_deref_mut(), t) {
            tracer.absorb(t);
        }
        for (id, secs, result) in done {
            results.insert(id, (secs, result));
        }
    }
    Pass { wall_s, results }
}

/// The set-up: the warm-up experiments, with a digest of their text.
fn setup() -> (Vec<ExpResult>, String) {
    let results: Vec<ExpResult> = WARMUP
        .iter()
        .map(|id| checked(id, REFERENCE_SEED))
        .collect();
    let mut digest = Digest::default();
    for r in &results {
        digest.bytes(r.as_deref().unwrap_or("").as_bytes());
    }
    (results, digest.hex())
}

/// One set-up repetition on its own: seconds since process start and the
/// warm-up digest.
pub fn setup_only(ctx: &Ctx) -> (f64, String) {
    let (_, digest) = setup();
    (ctx.epoch.elapsed().as_secs_f64(), digest)
}

/// Runs the `repro-quick` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // Always the reference die, as `repro --quick all` runs it: the
    // experiments' work depends on the die (two seeds differed by ~30% in
    // wall time), so a per-seed die would bury a speed change in input
    // variance. The workload seed selects nothing here.
    let seed = REFERENCE_SEED;
    let (setup_s, warm) = repeated_setup(ctx, &mut out, setup);
    for r in warm {
        out.check(r.is_ok(), format!("warm-up: {r:?}"));
    }

    // Whole passes while another one is expected to fit in the budget.
    let budget = ctx.untraced_budget().as_secs_f64();
    let start = Instant::now();
    let mut passes = vec![pass(seed, None)];
    while start.elapsed().as_secs_f64() + passes[passes.len() - 1].wall_s <= budget {
        passes.push(pass(seed, None));
    }

    let mut digests = Vec::new();
    for p in &passes {
        let mut d = Digest::default();
        for id in EXPERIMENTS {
            let (_, result) = &p.results[id];
            out.op(result.as_ref().err().cloned());
            d.bytes(result.as_deref().unwrap_or("").as_bytes());
        }
        digests.push(d.hex());
    }
    out.check(
        digests.iter().all(|d| *d == digests[0]),
        "two passes of one seed rendered different text",
    );
    out.line(format!(
        "digest {} over the rendered text of {} experiments",
        digests[0],
        EXPERIMENTS.len()
    ));
    out.line("fidelity: the rendered tables are digested, not banded".to_owned());
    // The operation is a whole pass: `repro_wall_s` is its wall time.
    let walls_ms: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
    let wall = Dist::of(&walls_ms);
    let repro_wall_s = wall.p50 / 1e3;
    out.line(format!(
        "repro_wall_s {repro_wall_s:.3} s ({} pass(es) on {THREADS} threads; pass wall {})",
        passes.len(),
        wall.describe("ms")
    ));
    for (id, (secs, _)) in &passes[0].results {
        if *secs > 1.0 {
            out.line(format!("  {id:<12} {secs:.3} s"));
        }
    }

    if !ctx.trace {
        out.line(format!("setup_s {setup_s:.4} s"));
        out.e2e("setup_s", setup_s, "s");
        out.e2e("ops_per_s", EXPERIMENTS.len() as f64 / repro_wall_s, "1/s");
        out.e2e("op_p50_ms", wall.p50, "ms");
        out.e2e("op_tail_ms", wall.tail.value, "ms");
        return out;
    }

    let mut tracer = Tracer::new(ctx.epoch);
    let traced = pass(seed, Some(&mut tracer));
    for id in EXPERIMENTS {
        let (secs, result) = &traced.results[id];
        out.op(result.as_ref().err().cloned());
        out.layer(&format!("figures.{id}_s"), *secs, "s");
    }
    let overhead = traced.wall_s / repro_wall_s;
    out.layer("trace.overhead_ratio", overhead, "ratio");
    let spans: f64 = tracer.self_times_ns().iter().map(|ns| *ns as f64).sum();
    let share = spans / 1e9 / (THREADS as f64 * traced.wall_s);
    out.layer("trace.attributed_share", share, "ratio");
    out.layer("trace.spans", tracer.spans().len() as f64, "count");
    out.line(format!(
        "attribution: experiment spans cover {} of {THREADS} threads x {:.3} s traced wall; trace.overhead_ratio {overhead:.4}",
        crate::report::pct(share),
        traced.wall_s
    ));
    crate::write_spans(ctx, &tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_lists_cover_every_experiment_once() {
        let mut listed: Vec<&str> = THREAD_LISTS
            .iter()
            .flat_map(|l| l.iter().copied())
            .collect();
        listed.sort_unstable();
        let mut all = EXPERIMENTS.to_vec();
        all.sort_unstable();
        assert_eq!(listed, all);
        assert!(run_experiment("fig0", 1, Scale::Quick).is_none());
    }
}
