//! Voltage-margin characterization experiments (paper §II, Figures 1–4).
//!
//! These harnesses run the chip the way the authors ran the real machine:
//! exercise one core at a time under a stress workload (the sibling core
//! idles in firmware), step the shared rail down, and record what the ECC
//! hardware reports and where the core stops functioning.
//!
//! All routines are deterministic for a given chip seed.

use crate::chip::Chip;
use vs_types::{CacheKind, CoreId, Millivolts, SimTime};
use vs_workload::StressTest;

/// The voltage landmarks of one core (paper Figures 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMargins {
    /// The core.
    pub core: CoreId,
    /// Highest voltage at which a correctable error was observed in the
    /// characterization window (onset of the error band).
    pub first_error_vdd: Millivolts,
    /// Lowest voltage at which the core ran the stress window with no
    /// crash and no uncorrectable error.
    pub min_safe_vdd: Millivolts,
}

impl CoreMargins {
    /// Width of the usable correctable-error band.
    pub fn error_band(&self) -> Millivolts {
        self.first_error_vdd - self.min_safe_vdd
    }
}

/// Options controlling characterization cost/fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharacterizeOptions {
    /// Stress window simulated at each voltage step.
    pub window: SimTime,
    /// Voltage step between trials.
    pub step: Millivolts,
}

impl Default for CharacterizeOptions {
    fn default() -> CharacterizeOptions {
        CharacterizeOptions {
            window: SimTime::from_secs(20),
            step: Millivolts(5),
        }
    }
}

impl CharacterizeOptions {
    /// A reduced-cost option set for tests.
    pub fn fast() -> CharacterizeOptions {
        CharacterizeOptions {
            window: SimTime::from_secs(3),
            step: Millivolts(10),
        }
    }
}

fn ticks_in(chip: &Chip, window: SimTime) -> u64 {
    (window.as_micros() / chip.config().tick.as_micros()).max(1)
}

/// Runs one core under stress at a fixed set point for `window`; returns
/// `(correctable_events, crashed)`.
///
/// The sibling core idles in a firmware spin-loop, as in the paper's
/// single-core sensitivity experiments (§IV-A4).
pub fn stress_window(
    chip: &mut Chip,
    core: CoreId,
    vdd: Millivolts,
    window: SimTime,
) -> (u64, bool) {
    chip.reset();
    chip.set_workload(core, Box::new(StressTest::default()));
    let domain = chip.config().domain_of(core);
    // Warm-up at nominal: the real procedure lowers the rail while the
    // stress load is already running, so the workload's turn-on transient
    // must not be charged to the voltage under test.
    for _ in 0..3 {
        chip.tick();
    }
    chip.request_domain_voltage(domain, vdd);
    let ticks = ticks_in(chip, window);
    let before = chip.log().correctable_count();
    let mut crashed = false;
    for _ in 0..ticks {
        let report = chip.tick();
        if report.crashes.iter().any(|(c, _)| *c == core) {
            crashed = true;
            break;
        }
    }
    (chip.log().correctable_count() - before, crashed)
}

/// Measures a core's first-error and minimum safe voltages by stepping the
/// rail down from nominal (Figures 1 and 2).
pub fn core_margins(chip: &mut Chip, core: CoreId, opts: &CharacterizeOptions) -> CoreMargins {
    let nominal = chip.mode().nominal_vdd();
    let (range_lo, _) = chip.config().regulator_range();
    let mut first_error = None;
    let mut min_safe = nominal;
    let mut v = nominal;
    while v >= range_lo {
        let (errors, crashed) = stress_window(chip, core, v, opts.window);
        if crashed {
            break;
        }
        min_safe = v;
        if errors > 0 && first_error.is_none() {
            first_error = Some(v);
        }
        v -= opts.step;
    }
    CoreMargins {
        core,
        // If no error was ever seen before the crash (possible with very
        // coarse steps), the band is empty: onset equals the floor.
        first_error_vdd: first_error.unwrap_or(min_safe),
        min_safe_vdd: min_safe,
    }
}

/// Margins for every core (the full Figure 1 / Figure 2 data set).
pub fn all_core_margins(chip: &mut Chip, opts: &CharacterizeOptions) -> Vec<CoreMargins> {
    (0..chip.config().num_cores)
        .map(|i| core_margins(chip, CoreId(i), opts))
        .collect()
}

/// Snaps a raw voltage up to the next point of the 5 mV regulator grid.
fn snap_up_to_grid(v_mv: f64) -> Millivolts {
    Millivolts((v_mv / 5.0).ceil() as i32 * 5)
}

/// Oracle counterpart of [`core_margins`]: reads the core's landmarks
/// straight from the silicon model instead of measuring them with stress
/// sweeps.
///
/// * `first_error_vdd` — the highest critical voltage among the core's L2
///   weak lines (where the sweep would first see a correctable error),
///   snapped up to the regulator grid;
/// * `min_safe_vdd` — the core's logic floor (where the sweep would first
///   crash), snapped up to the grid.
///
/// The sweep and the oracle describe the same silicon — this is the same
/// oracle/measured duality as calibration's `TableLookup` vs `CacheSweep`
/// (see `vs-spec`). Fleet-scale population sweeps default to the oracle so
/// that characterizing hundreds of dies costs milliseconds, not hours;
/// `tests/` assert the two agree on reference dies.
pub fn analytic_core_margins(chip: &mut Chip, core: CoreId) -> CoreMargins {
    let first_error = [CacheKind::L2Data, CacheKind::L2Instruction]
        .into_iter()
        .map(|kind| chip.cell_bank(core, kind).weakest().weakest_vc_mv)
        .fold(f64::NEG_INFINITY, f64::max);
    let floor = chip.logic_floor(core);
    CoreMargins {
        core,
        first_error_vdd: snap_up_to_grid(first_error),
        // The grid point at or above the floor is the lowest *settable*
        // safe voltage.
        min_safe_vdd: snap_up_to_grid(f64::from(floor.0)),
    }
}

/// Analytic margins for every core (the fleet-scale Figure 1 / Figure 2
/// data set).
pub fn all_analytic_core_margins(chip: &mut Chip) -> Vec<CoreMargins> {
    (0..chip.config().num_cores)
        .map(|i| analytic_core_margins(chip, CoreId(i)))
        .collect()
}

/// One point of the error-rate-vs-voltage sweep (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRatePoint {
    /// Millivolts below the mode's nominal voltage.
    pub below_nominal: Millivolts,
    /// Correctable errors per active core over the window.
    pub avg_errors: f64,
    /// Cores still active (not crashed) at this voltage.
    pub active_cores: usize,
}

/// Sweeps voltage downward and reports the average correctable-error count
/// across surviving cores at each level (Figure 3).
pub fn error_rate_sweep(
    chip: &mut Chip,
    opts: &CharacterizeOptions,
    max_below_nominal: Millivolts,
) -> Vec<ErrorRatePoint> {
    let nominal = chip.mode().nominal_vdd();
    let cores: Vec<CoreId> = (0..chip.config().num_cores).map(CoreId).collect();
    // Establish each core's crash point first so the sweep only averages
    // over "still active" cores, like the paper does.
    let margins: Vec<CoreMargins> = cores.iter().map(|c| core_margins(chip, *c, opts)).collect();

    let mut points = Vec::new();
    let mut below = Millivolts(0);
    while below <= max_below_nominal {
        let v = nominal - below;
        let mut total = 0u64;
        let mut active = 0usize;
        for (core, margin) in cores.iter().zip(&margins) {
            if v < margin.min_safe_vdd {
                continue;
            }
            let (errors, crashed) = stress_window(chip, *core, v, opts.window);
            if !crashed {
                total += errors;
                active += 1;
            }
        }
        if active == 0 {
            break;
        }
        points.push(ErrorRatePoint {
            below_nominal: below,
            avg_errors: total as f64 / active as f64,
            active_cores: active,
        });
        below += opts.step;
    }
    points
}

/// Per-core instruction/data error split at the core's minimum safe
/// voltage (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorBreakdown {
    /// The core.
    pub core: CoreId,
    /// Correctable errors from the L2 data cache.
    pub data_errors: u64,
    /// Correctable errors from the L2 instruction cache.
    pub instruction_errors: u64,
}

/// Runs each core at its minimum safe voltage under the stress mix and
/// splits its correctable errors by cache side (Figure 4).
pub fn error_breakdown(
    chip: &mut Chip,
    margins: &[CoreMargins],
    window: SimTime,
) -> Vec<ErrorBreakdown> {
    margins
        .iter()
        .map(|m| {
            let before_d = chip.log().count_for_core(m.core, CacheKind::L2Data);
            let before_i = chip.log().count_for_core(m.core, CacheKind::L2Instruction);
            let _ = stress_window(chip, m.core, m.min_safe_vdd, window);
            ErrorBreakdown {
                core: m.core,
                data_errors: chip.log().count_for_core(m.core, CacheKind::L2Data) - before_d,
                instruction_errors: chip.log().count_for_core(m.core, CacheKind::L2Instruction)
                    - before_i,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipConfig;
    use vs_types::VddMode;

    fn small_chip(mode: VddMode) -> Chip {
        let mut config = match mode {
            VddMode::LowVoltage => ChipConfig::low_voltage(11),
            VddMode::Nominal => ChipConfig::nominal(11),
        };
        config.num_cores = 2;
        config.weak_lines_tracked = 8;
        config.tick = SimTime::from_millis(10);
        Chip::new(config)
    }

    #[test]
    fn margins_are_ordered_and_in_band() {
        let mut chip = small_chip(VddMode::LowVoltage);
        let m = core_margins(&mut chip, CoreId(0), &CharacterizeOptions::fast());
        assert!(m.first_error_vdd >= m.min_safe_vdd);
        assert!(
            (560..780).contains(&m.min_safe_vdd.0),
            "min safe {} out of the plausible low-V band",
            m.min_safe_vdd
        );
        assert!(
            (650..780).contains(&m.first_error_vdd.0),
            "first error {} out of the plausible band",
            m.first_error_vdd
        );
        assert!(m.error_band().0 >= 0);
    }

    #[test]
    fn stress_window_is_reproducible() {
        let mut chip = small_chip(VddMode::LowVoltage);
        let v = Millivolts(700);
        let a = stress_window(&mut chip, CoreId(0), v, SimTime::from_secs(2));
        let b = stress_window(&mut chip, CoreId(0), v, SimTime::from_secs(2));
        assert_eq!(a, b, "same silicon, same window, same result");
    }

    #[test]
    fn errors_increase_as_voltage_falls() {
        let mut chip = small_chip(VddMode::LowVoltage);
        let m = core_margins(&mut chip, CoreId(0), &CharacterizeOptions::fast());
        let window = SimTime::from_secs(4);
        let (high_errs, _) = stress_window(
            &mut chip,
            CoreId(0),
            m.first_error_vdd + Millivolts(30),
            window,
        );
        let (low_errs, crashed) =
            stress_window(&mut chip, CoreId(0), m.min_safe_vdd + Millivolts(5), window);
        assert_eq!(high_errs, 0, "well above onset: silent");
        assert!(!crashed);
        assert!(low_errs > 0, "near the floor: errors");
    }

    #[test]
    fn sweep_produces_monotone_style_curve() {
        let mut chip = small_chip(VddMode::LowVoltage);
        let points = error_rate_sweep(&mut chip, &CharacterizeOptions::fast(), Millivolts(160));
        assert!(!points.is_empty());
        // The curve must start silent at nominal and grow overall.
        assert_eq!(points[0].avg_errors, 0.0);
        let last = points.last().unwrap();
        assert!(last.avg_errors > 0.0, "sweep must reach the error band");
        assert!(points.iter().all(|p| p.active_cores >= 1));
    }

    #[test]
    fn analytic_margins_agree_with_measured() {
        let mut chip = small_chip(VddMode::LowVoltage);
        let analytic = analytic_core_margins(&mut chip, CoreId(0));
        let measured = core_margins(&mut chip, CoreId(0), &CharacterizeOptions::fast());
        // Onset: the oracle reports where error probability becomes
        // nonzero (the weakest cell's Vc); the sweep reports where errors
        // become *observable* in a finite stress window, which is at or
        // below that — workload traffic touches the weakest line rarely
        // (uniform_reuse_fraction ~6e-4), so detection lags onset by a few
        // noise widths. Bound the lag rather than demanding equality.
        let dv = (analytic.first_error_vdd - measured.first_error_vdd).0;
        assert!(
            (-5..=40).contains(&dv),
            "onset mismatch: oracle {} vs sweep {}",
            analytic.first_error_vdd,
            measured.first_error_vdd
        );
        // Floor: the sweep stops a step above the crash point, so the
        // oracle's floor is never above the sweep's by more than a step.
        let df = (measured.min_safe_vdd - analytic.min_safe_vdd).0;
        assert!(
            (0..=15).contains(&df),
            "floor mismatch: oracle {} vs sweep {}",
            analytic.min_safe_vdd,
            measured.min_safe_vdd
        );
        assert!(analytic.error_band().0 > 0, "a die has a usable band");
    }

    #[test]
    fn analytic_margins_cover_all_cores_deterministically() {
        let mut a = small_chip(VddMode::LowVoltage);
        let mut b = small_chip(VddMode::LowVoltage);
        let ma = all_analytic_core_margins(&mut a);
        let mb = all_analytic_core_margins(&mut b);
        assert_eq!(ma, mb);
        assert_eq!(ma.len(), 2);
    }

    #[test]
    fn breakdown_attributes_to_both_sides() {
        let mut chip = small_chip(VddMode::LowVoltage);
        let opts = CharacterizeOptions::fast();
        let margins = vec![core_margins(&mut chip, CoreId(0), &opts)];
        let breakdown = error_breakdown(&mut chip, &margins, SimTime::from_secs(5));
        assert_eq!(breakdown.len(), 1);
        let b = &breakdown[0];
        assert!(
            b.data_errors + b.instruction_errors > 0,
            "min-safe run must produce errors"
        );
    }
}
