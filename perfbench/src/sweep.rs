//! `sweep-short` and `sweep-long`: one-shot `FleetRunner` sweeps at two
//! workers, one seed-derived fleet per round.
//!
//! The untraced pass times each round's sweep and reads every chip's job
//! wall time from the runner's own profile (one chip per worker, so the
//! profile's min and max are the two chips' exact times). The traced pass
//! replays the same chip jobs as `simulate_chip`'s public phase calls,
//! one span per call, and checks that the replay lands on the runner's
//! results bit for bit.

use crate::jobs::{self, SweepShape, CHIPS_PER_ROUND, WORKERS};
use crate::probes;
use crate::report::{pct, Digest, Outcome};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::{repeated_setup, Ctx};
use std::collections::BTreeMap;
use std::time::Instant;
use vs_fleet::{ChipSummary, FleetConfig, FleetRunner, PopulationStats};
use vs_platform::characterize::all_analytic_core_margins;
use vs_platform::{BankMap, Chip};
use vs_spec::{SpecRun, SpeculationSystem};
use vs_telemetry::{EventFilter, SilentProgress};
use vs_types::{CacheKind, ChipId, CoreId};

/// Rounds every run completes, however short: the digest and the
/// fidelity figures cover exactly these, so they repeat for a seed.
fn digest_rounds(shape: SweepShape) -> u64 {
    match shape {
        SweepShape::Short => 16,
        SweepShape::Long => 4,
    }
}

/// The warm-up round index (distinct from every measured round).
const WARMUP_ROUND: u64 = u64::MAX;

/// The paper's headline numbers the fidelity line compares against.
const PAPER_VDD_CUT: f64 = 0.08;
const PAPER_ENERGY_SAVINGS: f64 = 0.33;

/// The population bands `tests/fleet.rs` asserts.
const VDD_CUT_BAND: std::ops::Range<f64> = 0.04..0.15;
const ENERGY_BAND: std::ops::Range<f64> = 0.10..0.45;

/// One untraced round's readings.
struct Round {
    summaries: Vec<ChipSummary>,
    chip_ms: Vec<f64>,
    wall_s: f64,
    busy_ns: u64,
    steal_ns: u64,
    worker_wall_ns: u64,
    /// A failure of the sweep as a whole (per-chip failures are
    /// [`chip_error`]'s, so a chip is never counted twice).
    error: Option<String>,
}

/// Runs one round's sweep through `FleetRunner::run_reporting`.
fn run_round(config: &FleetConfig) -> Round {
    let runner = FleetRunner::new(config.clone(), WORKERS);
    let start = Instant::now();
    let ran = runner.run_reporting(EventFilter::none(), &mut SilentProgress);
    let wall_s = start.elapsed().as_secs_f64();
    let (result, trace) = match ran {
        Ok(r) => r,
        Err(e) => {
            return Round {
                summaries: Vec::new(),
                chip_ms: Vec::new(),
                wall_s,
                busy_ns: 0,
                steal_ns: 0,
                worker_wall_ns: 0,
                error: Some(format!("sweep failed: {e}")),
            }
        }
    };
    let profile = &trace.profile;
    let mut chip_ms = Vec::new();
    if let Some((lo, hi)) = profile.job_latency.range_ns() {
        chip_ms.push(lo as f64 / 1e6);
        if profile.job_latency.count() == 2 {
            chip_ms.push(hi as f64 / 1e6);
        }
    }
    let error = if !result.degradation.is_clean() {
        Some(format!("degraded sweep: {:?}", result.degradation))
    } else if result.summaries.len() as u64 != config.num_chips {
        Some(format!(
            "{} of {} chips came back",
            result.summaries.len(),
            config.num_chips
        ))
    } else {
        None
    };
    Round {
        chip_ms,
        wall_s,
        busy_ns: profile.workers.iter().map(|w| w.busy_ns).sum(),
        steal_ns: profile.workers.iter().map(|w| w.steal_ns).sum(),
        worker_wall_ns: profile.workers.iter().map(|w| w.wall_ns).sum(),
        summaries: result.summaries,
        error,
    }
}

/// Per-chip checks: healthy (the safety invariant: no core crashed),
/// speculated below nominal, saved energy. The message names the fleet
/// seed and die so the chip can be re-run on its own.
fn chip_error(config: &FleetConfig, s: &ChipSummary) -> Option<String> {
    let what = if !s.is_healthy() {
        format!("crashed {} cores", s.crashes)
    } else if s.mean_reduction() <= 0.0 || s.energy_savings <= 0.0 {
        format!(
            "did not speculate (cut {}, savings {})",
            s.mean_reduction(),
            s.energy_savings
        )
    } else {
        return None;
    };
    Some(format!(
        "chip {} of fleet seed {} (die seed {}, {} ms simulated) {what}",
        s.chip.0,
        config.seed.0,
        s.die_seed,
        config.run_duration.as_micros() / 1000
    ))
}

fn digest_summary(d: &mut Digest, s: &ChipSummary) {
    d.word(s.chip.0);
    d.word(s.die_seed);
    for m in &s.margins {
        d.word(m.core as u64);
        d.word(m.first_error_mv as u64);
        d.word(m.min_safe_mv as u64);
    }
    for v in s.mean_vdd_mv.iter().chain(&s.vdd_reduction) {
        d.word(v.to_bits());
    }
    for w in [
        s.energy_savings.to_bits(),
        s.correctable,
        s.emergencies,
        s.crashes,
        s.dues,
        s.rollbacks,
    ] {
        d.word(w);
    }
}

/// The untraced pass: rounds `0..` until the budget is spent (at least
/// the digest rounds).
struct Untraced {
    rounds: Vec<Round>,
}

impl Untraced {
    fn run(shape: SweepShape, seed: u64, budget: std::time::Duration) -> Untraced {
        let start = Instant::now();
        let mut rounds = Vec::new();
        let mut r = 0u64;
        while r < digest_rounds(shape) || start.elapsed() < budget {
            rounds.push(run_round(&jobs::sweep_round(shape, seed, r)));
            r += 1;
        }
        Untraced { rounds }
    }

    fn chip_ms(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.chip_ms.iter().copied())
            .collect()
    }

    fn chips_per_s(&self) -> f64 {
        let chips: usize = self.rounds.iter().map(|r| r.summaries.len()).sum();
        let wall: f64 = self.rounds.iter().map(|r| r.wall_s).sum();
        chips as f64 / wall
    }
}

/// What a phase-by-phase replay of one chip job produced.
struct Replay {
    chip: ChipId,
    margins: Vec<(i32, i32)>,
    vdd_reduction: Vec<f64>,
    energy_savings: f64,
    banks: BankMap,
    ticks: u64,
}

/// Stream id of vs-fleet's per-chip workload-assignment RNG. The replay
/// must assign the same workloads as `simulate_chip`; the bit-for-bit
/// comparison against the runner's summaries catches any drift.
const ASSIGN_STREAM: u64 = 0xA551_6E00;

fn assign_workloads(config: &FleetConfig, chip: ChipId, target: &mut Chip) {
    let mut rng = config.effective_seed().chip_rng(chip, ASSIGN_STREAM);
    for core in 0..target.config().num_cores {
        let workload = config.assignment.workload_for(chip.0, core, &mut rng);
        target.set_workload(CoreId(core), workload);
    }
}

/// Phase spans of a replayed chip job, in `simulate_chip`'s order.
pub const PHASES: [&str; 5] = [
    "sram.bank_build",
    "platform.characterize",
    "spec.calibrate",
    "spec.advance",
    "spec.baseline",
];

/// Replays one hardware-variant chip job as its public phase calls:
/// bank build (once per die), characterize with banks preloaded,
/// calibrate, the speculation slices, the baseline.
fn replay_chip(config: &FleetConfig, chip: ChipId, job: u64, t: &mut Tracer) -> Replay {
    t.span("fleet.chip_job", job, |t| {
        let chip_config = config.chip_config(chip);
        let mut scratch = Chip::new(chip_config.clone());
        for core in 0..chip_config.num_cores {
            for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
                t.span("sram.bank_build", job, |_| {
                    scratch.cell_bank(CoreId(core), kind)
                });
            }
        }
        let margins = t.span("platform.characterize", job, |_| {
            all_analytic_core_margins(&mut scratch)
        });
        let banks = scratch.export_banks();

        let mut sys = SpeculationSystem::new(chip_config.clone(), config.controller);
        sys.chip_mut().preload_banks(&banks);
        t.span("spec.calibrate", job, |_| {
            sys.calibrate_fast();
        });
        assign_workloads(config, chip, sys.chip_mut());
        let mut session = SpecRun::new(&sys, config.run_duration);
        let mut ticks = 0;
        while !session.is_done() {
            ticks += t.span("spec.advance", job, |_| {
                session.advance(&mut sys, config.slice_ticks)
            });
        }
        let stats = session.finish(&sys);
        let nominal = sys.chip().mode().nominal_vdd();
        let base = t.span("spec.baseline", job, |_| {
            let mut base = SpeculationSystem::new(chip_config.clone(), config.controller);
            base.chip_mut().preload_banks(&banks);
            assign_workloads(config, chip, base.chip_mut());
            base.run_baseline(config.run_duration)
        });
        let energy_savings = if base.core_rail_energy_j > 0.0 {
            1.0 - stats.core_rail_energy_j / base.core_rail_energy_j
        } else {
            0.0
        };
        Replay {
            chip,
            margins: margins
                .iter()
                .map(|m| (m.first_error_vdd.0, m.min_safe_vdd.0))
                .collect(),
            vdd_reduction: SpeculationSystem::voltage_reduction(&stats, nominal),
            energy_savings,
            banks,
            ticks,
        }
    })
}

/// Why a replay disagrees with the runner's summary, if it does.
fn replay_mismatch(r: &Replay, s: &ChipSummary) -> Option<String> {
    let margins: Vec<(i32, i32)> = s
        .margins
        .iter()
        .map(|m| (m.first_error_mv, m.min_safe_mv))
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if r.chip != s.chip
        || margins != r.margins
        || bits(&r.vdd_reduction) != bits(&s.vdd_reduction)
        || r.energy_savings.to_bits() != s.energy_savings.to_bits()
    {
        Some(format!(
            "replay of chip {} differs from simulate_chip",
            s.chip.0
        ))
    } else {
        None
    }
}

/// The set-up: config generation plus a warm-up sweep, with a digest of
/// its summaries.
fn setup(shape: SweepShape, seed: u64) -> (Round, String) {
    let round = run_round(&jobs::sweep_round(shape, seed, WARMUP_ROUND));
    let mut digest = Digest::default();
    for s in &round.summaries {
        digest_summary(&mut digest, s);
    }
    (round, digest.hex())
}

/// One set-up repetition on its own: seconds since process start and the
/// warm-up digest.
pub fn setup_only(shape: SweepShape, ctx: &Ctx) -> (f64, String) {
    let (_, digest) = setup(shape, ctx.seed);
    (ctx.epoch.elapsed().as_secs_f64(), digest)
}

/// Runs a sweep workload.
pub fn run(shape: SweepShape, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;

    let (setup_s, warm) = repeated_setup(ctx, &mut out, || setup(shape, seed));
    let warm_config = jobs::sweep_round(shape, seed, WARMUP_ROUND);
    let warm_error = warm.error.clone().or_else(|| {
        warm.summaries
            .iter()
            .find_map(|s| chip_error(&warm_config, s))
    });
    out.check(warm_error.is_none(), format!("warm-up: {warm_error:?}"));

    let untraced = Untraced::run(shape, seed, ctx.untraced_budget());
    let mut digest = Digest::default();
    let mut digested = Vec::new();
    for (i, round) in untraced.rounds.iter().enumerate() {
        let config = jobs::sweep_round(shape, seed, i as u64);
        let tag = |e: &str| format!("round {i}: {e}");
        for _ in 0..CHIPS_PER_ROUND.saturating_sub(round.summaries.len() as u64) {
            out.op(Some(tag(round.error.as_deref().unwrap_or_default())));
        }
        for s in &round.summaries {
            out.op(chip_error(&config, s)
                .or_else(|| round.error.clone())
                .map(|e| tag(&e)));
            if (i as u64) < digest_rounds(shape) {
                digest_summary(&mut digest, s);
                digested.push(s.clone());
            }
        }
    }
    let chips = Dist::of(&untraced.chip_ms());
    let chips_per_s = untraced.chips_per_s();

    // Fidelity over the digest rounds: a pure function of the seed.
    let template = jobs::sweep_round(shape, seed, 0);
    let pop = PopulationStats::from_summaries(&digested, template.base_chip.mode.nominal_vdd());
    let (cut, savings) = (pop.mean_vdd_reduction(), pop.mean_energy_savings());
    out.line(format!(
        "digest {} over {} chips (rounds 0..{})",
        digest.hex(),
        digested.len(),
        digest_rounds(shape)
    ));
    out.line(format!(
        "fidelity: mean Vdd cut {} (paper ~{}, error {:+.1} pp); energy savings {} (paper ~{}, error {:+.1} pp)",
        pct(cut),
        pct(PAPER_VDD_CUT),
        100.0 * (cut - PAPER_VDD_CUT),
        pct(savings),
        pct(PAPER_ENERGY_SAVINGS),
        100.0 * (savings - PAPER_ENERGY_SAVINGS)
    ));
    out.check(
        VDD_CUT_BAND.contains(&cut),
        format!("mean Vdd cut {cut:.4} outside {VDD_CUT_BAND:?}"),
    );
    out.check(
        ENERGY_BAND.contains(&savings),
        format!("energy savings {savings:.4} outside {ENERGY_BAND:?}"),
    );

    if !ctx.trace {
        out.line(format!("chips_per_s {chips_per_s:.3} 1/s"));
        out.line(format!("chip latency: {}", chips.describe("ms")));
        out.line(format!("setup_s {setup_s:.4} s"));
        out.e2e("setup_s", setup_s, "s");
        out.e2e("ops_per_s", chips_per_s, "1/s");
        out.e2e("op_p50_ms", chips.p50, "ms");
        out.e2e("op_tail_ms", chips.tail.value, "ms");
        return out;
    }

    // Runner-side layer readings from the untraced half.
    let sum = |f: fn(&Round) -> u64| untraced.rounds.iter().map(f).sum::<u64>() as f64;
    let worker_wall = sum(|r| r.worker_wall_ns);
    out.layer("fleet.chip_job_ms", chips.p50, "ms");
    out.layer("fleet.chip_job_tail_ms", chips.tail.value, "ms");
    out.layer(
        "fleet.worker_busy_ratio",
        sum(|r| r.busy_ns) / worker_wall,
        "ratio",
    );
    out.layer(
        "fleet.steal_ratio",
        sum(|r| r.steal_ns) / worker_wall,
        "ratio",
    );

    // Traced half: replay rounds 0.. chip by chip, one thread per chip.
    let by_chip: BTreeMap<(u64, u64), &ChipSummary> = untraced
        .rounds
        .iter()
        .enumerate()
        .flat_map(|(r, round)| {
            round
                .summaries
                .iter()
                .map(move |s| ((r as u64, s.chip.0), s))
        })
        .collect();
    let budget = ctx.traced_budget();
    let start = Instant::now();
    let mut tracer = Tracer::new(ctx.epoch);
    let mut probe_banks: Vec<BankMap> = Vec::new();
    let mut ticks = 0u64;
    let mut r = 0u64;
    while r == 0 || start.elapsed() < budget {
        let config = jobs::sweep_round(shape, seed, r);
        let replays: Vec<(Tracer, Replay)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.num_chips)
                .map(|c| {
                    let config = &config;
                    let epoch = ctx.epoch;
                    scope.spawn(move || {
                        let mut t = Tracer::new(epoch);
                        let replay =
                            replay_chip(config, ChipId(c), r * CHIPS_PER_ROUND + c, &mut t);
                        (t, replay)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        for (t, replay) in replays {
            tracer.absorb(t);
            ticks += replay.ticks;
            if let Some(s) = by_chip.get(&(r, replay.chip.0)) {
                out.check(
                    replay_mismatch(&replay, s).is_none(),
                    format!("round {r}: replay mismatch on chip {}", replay.chip.0),
                );
            }
            if r == 0 {
                probe_banks.push(replay.banks);
            }
        }
        r += 1;
    }

    let ms = |ns: f64| ns / 1e6;
    let bank_builds = tracer.durations_ns("sram.bank_build");
    out.layer("sram.bank_build_ms", ms(median(&bank_builds)), "ms");
    out.layer("sram.banks_built", bank_builds.len() as f64, "count");
    for (metric, span) in [
        ("platform.characterize_ms", "platform.characterize"),
        ("spec.calibrate_ms", "spec.calibrate"),
        ("spec.baseline_ms", "spec.baseline"),
    ] {
        out.layer(metric, ms(median(&tracer.durations_ns(span))), "ms");
    }
    let run_totals: Vec<f64> = tracer
        .per_job_totals_ns("spec.advance")
        .into_values()
        .collect();
    out.layer("spec.run_ms", ms(median(&run_totals)), "ms");
    let advance_ns: f64 = tracer.durations_ns("spec.advance").iter().sum();
    out.layer("spec.tick_ns", advance_ns / ticks.max(1) as f64, "ns");

    let banks: Vec<_> = probe_banks
        .iter()
        .flat_map(|m| m.values().cloned())
        .collect();
    let temperature = template.base_chip.temperature;
    probes::sram_and_ecc(&banks, temperature, seed, &mut tracer, &mut out);

    // Attribution: the phases' self time against the untraced p50.
    let traced_jobs = tracer.durations_ns("fleet.chip_job");
    let overhead = ms(median(&traced_jobs)) / chips.p50;
    let phase_self: Vec<f64> = tracer.per_job_self_ns(&PHASES).into_values().collect();
    let attributed = ms(median(&phase_self));
    out.layer("trace.overhead_ratio", overhead, "ratio");
    out.layer("trace.attributed_share", attributed / chips.p50, "ratio");
    out.layer("trace.unattributed_ms", chips.p50 - attributed, "ms");
    out.layer("trace.spans", tracer.spans().len() as f64, "count");
    out.line(format!(
        "attribution of untraced chip_p50_ms {:.3} ms over {} replayed chips:",
        chips.p50,
        traced_jobs.len()
    ));
    for phase in PHASES {
        let own: Vec<f64> = tracer.per_job_self_ns(&[phase]).into_values().collect();
        out.line(format!(
            "  {phase:<22} {:>9.3} ms  {}",
            ms(median(&own)),
            pct(ms(median(&own)) / chips.p50)
        ));
    }
    out.line(format!(
        "  {:<22} {:>9.3} ms  {}",
        "unattributed",
        chips.p50 - attributed,
        pct(1.0 - attributed / chips.p50)
    ));
    out.line(format!("  trace.overhead_ratio {overhead:.4}"));
    crate::write_spans(ctx, &tracer);
    out
}
