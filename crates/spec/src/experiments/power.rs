//! Power and energy experiments (Figures 10, 11, 17, 18).

use crate::calibrate::CalibrationPlan;
use crate::software::{software_energy_j, SoftwareConfig, SoftwareSpeculation};
use crate::system::SpeculationSystem;
use vs_platform::{Chip, ChipConfig};
use vs_types::{CoreId, DomainId, Millivolts, SimTime};
use vs_workload::{StressTest, Suite};

/// Result of one suite run under hardware speculation (Figures 10/11).
#[derive(Debug, Clone, PartialEq)]
pub struct SuitePowerResult {
    /// The suite.
    pub suite: Suite,
    /// Mean achieved set point per domain, in millivolts (the per-core
    /// voltages of Figure 10; cores share their domain's rail).
    pub mean_vdd_mv: Vec<f64>,
    /// Mean per-core voltage, expanded from domains (one entry per core).
    pub per_core_vdd_mv: Vec<f64>,
    /// Core-rail power relative to the fixed-nominal baseline
    /// (Figure 11's "total power relative").
    pub relative_power: f64,
    /// Core-rail energy relative to the baseline (Figure 17's HW bar).
    pub relative_energy: f64,
    /// Correctable errors during the speculated run.
    pub correctable: u64,
    /// Whether the run stayed safe.
    pub safe: bool,
}

/// Options for the suite power experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteRunOptions {
    /// Simulated time per benchmark in the suite.
    pub per_benchmark: SimTime,
    /// Total run duration (the suite loops back-to-back within it).
    pub duration: SimTime,
}

impl Default for SuiteRunOptions {
    fn default() -> SuiteRunOptions {
        SuiteRunOptions {
            per_benchmark: SimTime::from_secs(10),
            duration: SimTime::from_secs(60),
        }
    }
}

impl SuiteRunOptions {
    /// Reduced-cost options for tests.
    pub fn fast() -> SuiteRunOptions {
        SuiteRunOptions {
            per_benchmark: SimTime::from_secs(3),
            duration: SimTime::from_secs(10),
        }
    }
}

/// Runs one suite under hardware speculation and under the fixed-nominal
/// baseline, returning the comparison (one bar group of Figures 10/11).
pub fn suite_power(seed: u64, suite: Suite, opts: &SuiteRunOptions) -> SuitePowerResult {
    // Speculated run.
    let mut sys = SpeculationSystem::builder(ChipConfig::low_voltage(seed))
        .build()
        .expect("reference config is valid");
    sys.calibrate_with(&CalibrationPlan::fast());
    sys.assign_suite(suite, opts.per_benchmark);
    let spec = sys.run(opts.duration);

    // Baseline run on identical silicon and workload.
    let mut base_sys = SpeculationSystem::builder(ChipConfig::low_voltage(seed))
        .build()
        .expect("reference config is valid");
    base_sys.assign_suite(suite, opts.per_benchmark);
    let base = base_sys.run_baseline(opts.duration);

    let cores_per_domain = sys.chip().config().cores_per_domain;
    let per_core_vdd_mv: Vec<f64> = (0..sys.chip().config().num_cores)
        .map(|c| spec.mean_vdd_mv[c / cores_per_domain])
        .collect();

    SuitePowerResult {
        suite,
        per_core_vdd_mv,
        mean_vdd_mv: spec.mean_vdd_mv.clone(),
        relative_power: (spec.core_rail_energy_j / spec.duration.as_secs_f64())
            / (base.core_rail_energy_j / base.duration.as_secs_f64()),
        relative_energy: spec.core_rail_energy_j / base.core_rail_energy_j,
        correctable: spec.correctable,
        safe: spec.is_safe(),
    }
}

/// Runs all four suites (the full Figures 10/11 data set).
pub fn all_suite_power(seed: u64, opts: &SuiteRunOptions) -> Vec<SuitePowerResult> {
    Suite::ALL
        .iter()
        .map(|s| suite_power(seed, *s, opts))
        .collect()
}

/// One suite's hardware-vs-software energy comparison (Figure 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyComparison {
    /// The suite.
    pub suite: Suite,
    /// Hardware-speculation core-rail energy relative to the baseline.
    pub hardware_relative: f64,
    /// Software-speculation energy relative to the baseline (includes the
    /// firmware stall-time energy).
    pub software_relative: f64,
}

/// Compares hardware and software speculation on one suite (Figure 17).
pub fn hw_vs_sw_energy(seed: u64, suite: Suite, opts: &SuiteRunOptions) -> EnergyComparison {
    let hw = suite_power(seed, suite, opts);

    // Software baseline run: same silicon, same workload.
    let mut chip = Chip::new(ChipConfig::low_voltage(seed));
    let onsets: Vec<Millivolts> = (0..chip.config().num_domains())
        .map(|d| {
            let cores = chip.config().cores_in_domain(DomainId(d));
            let mut vc = f64::NEG_INFINITY;
            for core in cores {
                for kind in [
                    vs_types::CacheKind::L2Data,
                    vs_types::CacheKind::L2Instruction,
                ] {
                    vc = vc.max(chip.cell_bank(core, kind).weakest().weakest_vc_mv);
                }
            }
            Millivolts(vc.ceil() as i32)
        })
        .collect();
    let mut sw = SoftwareSpeculation::new(SoftwareConfig::default(), &onsets);
    for i in 0..chip.config().num_cores {
        chip.set_workload(CoreId(i), Box::new(suite.back_to_back(opts.per_benchmark)));
    }
    let energy_before = chip.core_rail_energy().total();
    let (_means, overhead) = sw.run(&mut chip, opts.duration);
    let sw_energy = (chip.core_rail_energy().total() - energy_before).0;
    // Firmware stall time extends the run: the stalled cores keep burning
    // their current power while handling errors.
    let mean_power = sw_energy / opts.duration.as_secs_f64();
    let sw_total = sw_energy + mean_power * overhead.as_secs_f64();

    // Baseline for normalization.
    let mut base_sys = SpeculationSystem::builder(ChipConfig::low_voltage(seed))
        .build()
        .expect("reference config is valid");
    base_sys.assign_suite(suite, opts.per_benchmark);
    let base = base_sys.run_baseline(opts.duration);

    EnergyComparison {
        suite,
        hardware_relative: hw.relative_energy,
        software_relative: sw_total / base.core_rail_energy_j,
    }
}

/// One point of the Figure 18 energy-vs-Vdd sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyVsVddPoint {
    /// The fixed set point.
    pub vdd: Millivolts,
    /// Hardware-speculation energy relative to nominal (monitor overhead
    /// is negligible: probes ride idle cache cycles).
    pub hardware_relative: f64,
    /// Software-speculation energy relative to nominal (per-error firmware
    /// stall included).
    pub software_relative: f64,
    /// Correctable errors observed in the window.
    pub errors: u64,
    /// Whether the core survived the window.
    pub safe: bool,
}

/// Sweeps one core's voltage downward at fixed set points, comparing the
/// energy of the hardware and software approaches (Figure 18).
///
/// Both techniques burn the same rail power at a given voltage; the
/// difference is the firmware handling cost, which explodes as the error
/// rate ramps up, bending the software curve back upward.
pub fn energy_vs_vdd(
    seed: u64,
    core: CoreId,
    window: SimTime,
    step: Millivolts,
) -> Vec<EnergyVsVddPoint> {
    let mut chip = Chip::new(ChipConfig::low_voltage(seed));
    let nominal = chip.mode().nominal_vdd();
    let domain = chip.config().domain_of(core);
    let sw_cfg = SoftwareConfig::default();
    let ticks = (window.as_micros() / chip.config().tick.as_micros()).max(1);

    // Nominal-energy reference: the target core's own energy only (the
    // paper's Figure 18 plots a single core).
    let reference = {
        chip.reset();
        chip.set_workload(core, Box::new(StressTest::default()));
        chip.request_domain_voltage(domain, nominal);
        let mut e = 0.0;
        for _ in 0..ticks {
            chip.tick();
            e += chip.core_power_w(core) * chip.config().tick.as_secs_f64();
        }
        e
    };

    let mut points = Vec::new();
    let mut v = nominal;
    let (range_lo, _) = chip.config().regulator_range();
    while v >= range_lo {
        chip.reset();
        chip.set_workload(core, Box::new(StressTest::default()));
        chip.request_domain_voltage(domain, v);
        let before_ce = chip.log().correctable_count();
        let mut crashed = false;
        let mut energy = 0.0;
        for _ in 0..ticks {
            let report = chip.tick();
            energy += chip.core_power_w(core) * chip.config().tick.as_secs_f64();
            if report.crashes.iter().any(|(c, _)| *c == core) {
                crashed = true;
                break;
            }
        }
        if crashed {
            points.push(EnergyVsVddPoint {
                vdd: v,
                hardware_relative: f64::NAN,
                software_relative: f64::NAN,
                errors: 0,
                safe: false,
            });
            break;
        }
        let errors = chip.log().correctable_count() - before_ce;
        let mean_power = energy / window.as_secs_f64();
        points.push(EnergyVsVddPoint {
            vdd: v,
            hardware_relative: energy / reference,
            software_relative: software_energy_j(mean_power, window, errors, &sw_cfg) / reference,
            errors,
            safe: true,
        });
        v -= step;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_power_saves_energy_and_voltage() {
        let r = suite_power(5, Suite::CoreMark, &SuiteRunOptions::fast());
        assert!(r.safe, "run must stay safe");
        assert!(
            r.relative_power < 0.9,
            "speculation should cut core-rail power noticeably, got {}",
            r.relative_power
        );
        assert!(r.per_core_vdd_mv.iter().all(|v| *v < 800.0));
        assert_eq!(r.per_core_vdd_mv.len(), 8);
        assert!(r.correctable > 0);
    }

    #[test]
    fn hw_beats_sw_on_energy() {
        let cmp = hw_vs_sw_energy(5, Suite::CoreMark, &SuiteRunOptions::fast());
        assert!(
            cmp.hardware_relative < cmp.software_relative,
            "hardware speculation must save more energy: hw {} vs sw {}",
            cmp.hardware_relative,
            cmp.software_relative
        );
        assert!(cmp.hardware_relative < 1.0);
        assert!(cmp.software_relative < 1.05);
    }

    #[test]
    fn energy_sweep_shapes() {
        let points = energy_vs_vdd(5, CoreId(0), SimTime::from_secs(4), Millivolts(20));
        assert!(points.len() > 3);
        // Both curves start at 1.0 (the nominal reference).
        assert!((points[0].hardware_relative - 1.0).abs() < 0.05);
        // Hardware energy decreases monotonically until the crash point.
        let safe: Vec<&EnergyVsVddPoint> = points.iter().filter(|p| p.safe).collect();
        assert!(safe.last().unwrap().hardware_relative < 0.75);
        // Software is never below hardware at any voltage.
        for p in &safe {
            assert!(p.software_relative >= p.hardware_relative - 1e-12);
        }
        // In the deep error region the software penalty is visible.
        let deep = safe.iter().filter(|p| p.errors > 100).collect::<Vec<_>>();
        if let Some(p) = deep.last() {
            assert!(p.software_relative > p.hardware_relative);
        }
    }
}
