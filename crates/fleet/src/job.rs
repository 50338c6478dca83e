//! The per-chip unit of work: simulate one die of the fleet end to end.
//!
//! [`simulate_chip`] is a pure function of `(FleetConfig, ChipId)` — it
//! derives the die, its margins, its workloads, runs the configured
//! controller variant against a fixed-nominal baseline, and returns one
//! [`ChipSummary`]. Nothing in here reads shared state, so any worker can
//! run any chip in any order and the fleet's aggregate is unchanged.

use crate::config::{ControllerVariant, FleetConfig, MarginsMode};
use crate::summary::{ChipSummary, CoreMarginSummary};
use vs_guard::CancelToken;
use vs_obs::span::{batch_span, chip_span, lane_of, lane_span};
use vs_platform::characterize::{all_analytic_core_margins, all_core_margins};
use vs_platform::{BankMap, Chip, ChipConfig};
use vs_spec::{SoftwareSpeculation, SpecRun, SpeculationSystem};
use vs_telemetry::{EventCategory, EventFilter, Recorder, SpanLevel, TelemetryEvent};
use vs_types::rng::CounterRng;
use vs_types::{CacheKind, ChipId, CoreId, Millivolts};

/// Stream id of the per-chip workload-assignment RNG (domain-separated
/// from every other [`FleetSeed::chip_rng`](vs_types::FleetSeed::chip_rng)
/// consumer).
const ASSIGN_STREAM: u64 = 0xA551_6E00;

/// Simulates one chip of the fleet and returns its summary.
pub fn simulate_chip(config: &FleetConfig, chip: ChipId) -> ChipSummary {
    simulate_chip_traced(config, chip, EventFilter::none()).0
}

/// Simulates one chip and also returns its telemetry stream: the fleet
/// job-lifecycle bracket (when the filter keeps `fleet` events) around the
/// speculation run's own events (hardware variant only — the firmware and
/// no-speculation baselines do not run the monitor/controller loop).
///
/// The stream is a pure function of `(config, chip, filter)` — workers can
/// run chips in any order and the merged per-chip streams are identical.
pub fn simulate_chip_traced(
    config: &FleetConfig,
    chip: ChipId,
    filter: EventFilter,
) -> (ChipSummary, Vec<TelemetryEvent>) {
    simulate_chip_guarded(config, chip, filter, &CancelToken::new(), || {})
        .expect("a fresh token is never cancelled")
}

/// [`simulate_chip_traced`] under supervision: `cancel` is polled between
/// simulation slices (a cancelled job returns `None` within one slice,
/// discarding its partial work) and `beat` is invoked at the same points
/// so a watchdog can tell a slow chip from a hung one.
///
/// Supervision never touches the simulated results: a job that completes
/// under a never-cancelled token is bit-identical to an unsupervised one.
pub fn simulate_chip_guarded(
    config: &FleetConfig,
    chip: ChipId,
    filter: EventFilter,
    cancel: &CancelToken,
    mut beat: impl FnMut(),
) -> Option<(ChipSummary, Vec<TelemetryEvent>)> {
    if cancel.is_cancelled() {
        return None;
    }
    let chip_config = config.chip_config(chip);
    let die_seed = chip_config.seed;
    let (margins, banks) = characterize(config, &chip_config);
    beat();
    if cancel.is_cancelled() {
        return None;
    }
    let mut events = Vec::new();
    // Chip span: opened before the job-lifecycle bracket, closed after
    // it, parented to the chip's *virtual* lane (`chip mod LANES`) so the
    // span tree is a pure function of the chip id, never of which
    // physical worker ran it.
    let spans = filter.accepts(EventCategory::Span);
    if spans {
        events.push(TelemetryEvent::SpanOpen {
            at: vs_types::SimTime::ZERO,
            id: chip_span(chip),
            parent: lane_span(lane_of(chip)),
            level: SpanLevel::Chip,
            ident: chip.0,
        });
    }
    if filter.accepts(EventCategory::Fleet) {
        events.push(TelemetryEvent::JobStarted { chip });
    }

    let out = match config.variant {
        ControllerVariant::Hardware => run_hardware(
            config,
            chip,
            &chip_config,
            &banks,
            filter,
            &mut events,
            cancel,
            &mut beat,
        )?,
        // The firmware and no-speculation baselines run monolithically
        // (no slice loop to poll inside); the entry check above still
        // bounds how late a cancelled claim can start.
        ControllerVariant::Software => run_software(config, chip, &chip_config, &banks),
        ControllerVariant::Baseline => run_baseline_only(config, chip, &chip_config, &banks),
    };

    if filter.accepts(EventCategory::Fleet) {
        events.push(TelemetryEvent::JobFinished {
            chip,
            sim_time: config.run_duration,
            correctable: out.correctable,
            emergencies: out.emergencies,
            crashes: out.crashes,
        });
    }
    if spans {
        // Everything pushed since the chip's SpanOpen (including batch
        // span events) is enclosed by it.
        events.push(TelemetryEvent::SpanClose {
            at: config.run_duration,
            id: chip_span(chip),
            events: events.len() as u64 - 1,
        });
    }
    let summary = ChipSummary {
        chip,
        die_seed,
        margins,
        mean_vdd_mv: out.mean_vdd_mv,
        vdd_reduction: out.vdd_reduction,
        energy_savings: out.energy_savings,
        correctable: out.correctable,
        emergencies: out.emergencies,
        crashes: out.crashes,
        sw_overhead: out.sw_overhead,
        dues: out.dues,
        rollbacks: out.rollbacks,
    };
    Some((summary, events))
}

/// Characterizes the die's per-core margins on a scratch chip (stress
/// sweeps perturb chip state, so the run below starts from fresh silicon).
///
/// Also returns the scratch chip's cell banks: the ranking scans it paid
/// for are pure functions of the die, so every later chip of this job
/// (hardware run, baselines) adopts them instead of rescanning.
fn characterize(
    config: &FleetConfig,
    chip_config: &ChipConfig,
) -> (Vec<CoreMarginSummary>, BankMap) {
    let mut scratch = Chip::new(chip_config.clone());
    let measured = match &config.margins {
        MarginsMode::Analytic => all_analytic_core_margins(&mut scratch),
        MarginsMode::Measured(opts) => all_core_margins(&mut scratch, opts),
    };
    let margins = measured
        .into_iter()
        .map(|m| CoreMarginSummary {
            core: m.core.0,
            first_error_mv: m.first_error_vdd.0,
            min_safe_mv: m.min_safe_vdd.0,
        })
        .collect();
    (margins, scratch.export_banks())
}

/// The chip's workload-assignment RNG. Recreating it from the key yields
/// the same draws, which is how the speculation run and its baseline get
/// identical workloads without sharing state.
fn assignment_rng(config: &FleetConfig, chip: ChipId) -> CounterRng {
    config.effective_seed().chip_rng(chip, ASSIGN_STREAM)
}

/// Assigns the policy's workloads to every core of a chip.
fn assign_workloads(config: &FleetConfig, chip: ChipId, target: &mut Chip) {
    let mut rng = assignment_rng(config, chip);
    for core in 0..target.config().num_cores {
        let workload = config.assignment.workload_for(chip.0, core, &mut rng);
        target.set_workload(CoreId(core), workload);
    }
}

/// What one controller variant's run produced, before packaging into a
/// [`ChipSummary`].
struct RunOutcome {
    mean_vdd_mv: Vec<f64>,
    vdd_reduction: Vec<f64>,
    energy_savings: f64,
    correctable: u64,
    emergencies: u64,
    crashes: u64,
    sw_overhead: f64,
    dues: u64,
    rollbacks: u64,
}

/// Runs the fixed-nominal baseline on fresh silicon with the same
/// workloads; returns its core-rail energy (the savings denominator).
fn baseline_rail_energy(
    config: &FleetConfig,
    chip: ChipId,
    chip_config: &ChipConfig,
    banks: &BankMap,
) -> f64 {
    let mut sys = SpeculationSystem::new(chip_config.clone(), config.controller);
    sys.chip_mut().preload_banks(banks);
    assign_workloads(config, chip, sys.chip_mut());
    let base = sys.run_baseline(config.run_duration);
    base.core_rail_energy_j
}

/// The paper's hardware controller (§III), normalized against the
/// fixed-nominal baseline.
#[allow(clippy::too_many_arguments)]
fn run_hardware(
    config: &FleetConfig,
    chip: ChipId,
    chip_config: &ChipConfig,
    banks: &BankMap,
    filter: EventFilter,
    events: &mut Vec<TelemetryEvent>,
    cancel: &CancelToken,
    beat: &mut dyn FnMut(),
) -> Option<RunOutcome> {
    let mut sys = SpeculationSystem::new(chip_config.clone(), config.controller);
    sys.chip_mut().preload_banks(banks);
    if !filter.is_empty() {
        sys.set_recorder(Recorder::enabled(filter));
    }
    // Chip-scoped fault events are replayed inside the run, which also
    // arms the DUE/crash recovery path for this chip.
    let plan = config.faults.for_chip(chip);
    if !plan.events().is_empty() {
        sys.set_fault_plan(&plan);
    }
    sys.calibrate_fast();
    assign_workloads(config, chip, sys.chip_mut());
    let mut session = SpecRun::new(&sys, config.run_duration);
    if filter.accepts(EventCategory::Span) {
        // Tick-batch spans: each slice's recorder output is drained
        // eagerly and sandwiched between the batch's open/close, so the
        // span encloses exactly the events its slice produced. Batch
        // boundaries are tick counts — identical for every worker count.
        let tick_us = sys.chip().config().tick.as_micros();
        let mut batch = 0u64;
        loop {
            let opened = vs_types::SimTime::from_micros(session.progress().0 * tick_us);
            if session.advance_guarded(&mut sys, config.slice_ticks, cancel)? == 0 {
                break;
            }
            let id = batch_span(chip, batch);
            events.push(TelemetryEvent::SpanOpen {
                at: opened,
                id,
                parent: chip_span(chip),
                level: SpanLevel::Batch,
                ident: batch,
            });
            let drained = sys.take_events();
            let enclosed = drained.len() as u64;
            events.extend(drained);
            events.push(TelemetryEvent::SpanClose {
                at: vs_types::SimTime::from_micros(session.progress().0 * tick_us),
                id,
                events: enclosed,
            });
            batch += 1;
            beat();
        }
    } else {
        while session.advance_guarded(&mut sys, config.slice_ticks, cancel)? > 0 {
            beat();
        }
    }
    let stats = session.finish(&sys);
    events.extend(sys.take_events());

    let nominal = sys.chip().mode().nominal_vdd();
    let reduction = SpeculationSystem::voltage_reduction(&stats, nominal);
    let base_energy = baseline_rail_energy(config, chip, chip_config, banks);
    let savings = if base_energy > 0.0 {
        1.0 - stats.core_rail_energy_j / base_energy
    } else {
        0.0
    };
    Some(RunOutcome {
        mean_vdd_mv: stats.mean_vdd_mv,
        vdd_reduction: reduction,
        energy_savings: savings,
        correctable: stats.correctable,
        emergencies: stats.emergencies,
        crashes: stats.crashed_cores.len() as u64,
        sw_overhead: 0.0,
        dues: stats.dues_consumed,
        rollbacks: stats.crash_rollbacks,
    })
}

/// The firmware-speculation baseline (§V-F): workload-triggered errors
/// only, guard margin above the off-line onsets, per-error handling stall.
fn run_software(
    config: &FleetConfig,
    chip: ChipId,
    chip_config: &ChipConfig,
    banks: &BankMap,
) -> RunOutcome {
    let mut die = Chip::new(chip_config.clone());
    die.preload_banks(banks);
    assign_workloads(config, chip, &mut die);

    // The off-line calibration the prior-work system ran at boot: the
    // highest weak-line critical voltage per domain (oracle form).
    let n_domains = chip_config.num_domains();
    let mut onsets = vec![f64::NEG_INFINITY; n_domains];
    for core in 0..chip_config.num_cores {
        let d = chip_config.domain_of(CoreId(core)).0;
        for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
            onsets[d] = onsets[d].max(die.cell_bank(CoreId(core), kind).weakest().weakest_vc_mv);
        }
    }
    let onsets: Vec<Millivolts> = onsets
        .into_iter()
        .map(|v| Millivolts(v.ceil() as i32))
        .collect();

    let rail_before = die.core_rail_energy().total().0;
    let mut sw = SoftwareSpeculation::new(config.software, &onsets);
    let (mean_vdd_mv, _) = sw.run(&mut die, config.run_duration);
    let rail_energy = die.core_rail_energy().total().0 - rail_before;
    let overhead = sw.overhead_fraction(config.run_duration);

    let nominal = f64::from(die.mode().nominal_vdd().0);
    let reduction: Vec<f64> = mean_vdd_mv.iter().map(|v| 1.0 - v / nominal).collect();

    // Firmware stall burns energy at the run's mean rail power: the
    // effective energy is the measured rail energy scaled by the stall
    // fraction (the software_energy_j model applied to the whole rail).
    let effective = rail_energy * (1.0 + overhead);
    let base_energy = baseline_rail_energy(config, chip, chip_config, banks);
    let savings = if base_energy > 0.0 {
        1.0 - effective / base_energy
    } else {
        0.0
    };

    let crashes = (0..chip_config.num_cores)
        .filter(|i| die.crash_info(CoreId(*i)).is_some())
        .count() as u64;
    let correctable = die.log().correctable_count();
    RunOutcome {
        mean_vdd_mv,
        vdd_reduction: reduction,
        energy_savings: savings,
        correctable,
        emergencies: 0,
        crashes,
        sw_overhead: overhead,
        dues: 0,
        rollbacks: 0,
    }
}

/// No speculation at all: the fleet-wide energy/Vdd denominator.
fn run_baseline_only(
    config: &FleetConfig,
    chip: ChipId,
    chip_config: &ChipConfig,
    banks: &BankMap,
) -> RunOutcome {
    let mut sys = SpeculationSystem::new(chip_config.clone(), config.controller);
    sys.chip_mut().preload_banks(banks);
    assign_workloads(config, chip, sys.chip_mut());
    let stats = sys.run_baseline(config.run_duration);
    let n_domains = chip_config.num_domains();
    RunOutcome {
        mean_vdd_mv: stats.mean_vdd_mv,
        vdd_reduction: vec![0.0; n_domains],
        energy_savings: 0.0,
        correctable: stats.correctable,
        emergencies: stats.emergencies,
        crashes: stats.crashed_cores.len() as u64,
        sw_overhead: 0.0,
        dues: 0,
        rollbacks: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::FleetSeed;

    fn small(variant: ControllerVariant) -> FleetConfig {
        let mut config = FleetConfig::small(FleetSeed(2014), 4);
        config.variant = variant;
        config.run_duration = vs_types::SimTime::from_secs(2);
        config
    }

    #[test]
    fn hardware_chip_is_pure_and_reproducible() {
        let config = small(ControllerVariant::Hardware);
        let a = simulate_chip(&config, ChipId(1));
        let b = simulate_chip(&config, ChipId(1));
        assert_eq!(a, b, "simulate_chip must be a pure function");
        assert_eq!(a.chip, ChipId(1));
        assert_eq!(a.die_seed, config.die_seed(ChipId(1)));
        assert_eq!(a.margins.len(), 2);
        assert!(a.is_healthy());
        assert!(a.mean_reduction() > 0.0, "hardware must speculate down");
        assert!(a.energy_savings > 0.0, "speculation must save energy");
    }

    #[test]
    fn distinct_chips_are_distinct_silicon() {
        let config = small(ControllerVariant::Hardware);
        let a = simulate_chip(&config, ChipId(0));
        let b = simulate_chip(&config, ChipId(1));
        assert_ne!(a.die_seed, b.die_seed);
        assert_ne!(
            (a.margins.clone(), a.mean_vdd_mv.clone()),
            (b.margins.clone(), b.mean_vdd_mv.clone()),
            "different dies should land on different operating points"
        );
    }

    #[test]
    fn software_variant_reports_overhead_and_saves_less_than_hardware() {
        let hw = simulate_chip(&small(ControllerVariant::Hardware), ChipId(0));
        let sw = simulate_chip(&small(ControllerVariant::Software), ChipId(0));
        assert_eq!(hw.die_seed, sw.die_seed, "same silicon under both variants");
        assert!(sw.sw_overhead >= 0.0);
        assert!(
            sw.mean_reduction() < hw.mean_reduction(),
            "firmware is structurally more conservative: sw {} vs hw {}",
            sw.mean_reduction(),
            hw.mean_reduction()
        );
    }

    #[test]
    fn baseline_variant_never_speculates() {
        let base = simulate_chip(&small(ControllerVariant::Baseline), ChipId(0));
        assert!(base.vdd_reduction.iter().all(|r| *r == 0.0));
        assert_eq!(base.energy_savings, 0.0);
        assert_eq!(base.emergencies, 0);
    }

    #[test]
    fn guarded_job_is_identical_when_uncancelled_and_stops_when_cancelled() {
        let config = small(ControllerVariant::Hardware);
        let plain = simulate_chip_traced(&config, ChipId(1), EventFilter::all());
        let token = CancelToken::new();
        let mut beats = 0u64;
        let guarded = simulate_chip_guarded(&config, ChipId(1), EventFilter::all(), &token, || {
            beats += 1
        })
        .unwrap();
        assert_eq!(plain, guarded, "supervision must not perturb results");
        assert!(beats > 0, "the job heartbeats between slices");

        token.cancel();
        assert!(
            simulate_chip_guarded(&config, ChipId(1), EventFilter::none(), &token, || {}).is_none(),
            "a cancelled token refuses the job"
        );
    }

    #[test]
    fn assignment_rng_is_stable_across_calls() {
        let config = small(ControllerVariant::Hardware);
        let mut a = assignment_rng(&config, ChipId(3));
        let mut b = assignment_rng(&config, ChipId(3));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
