//! Periodic recalibration (§III-D): adapt to aging.
//!
//! Cells age (BTI and friends), and aging weights differ from line to
//! line, so the *ranking* of weak lines drifts over a machine's life. The
//! voltage speculation system recalibrates periodically (e.g. at boot): if
//! the error distribution has changed enough that a different line now
//! errs first, the old designation is released, the new weakest line is
//! de-configured, and the domain's monitor is retargeted.

use crate::calibrate::CalibrationOutcome;
use crate::monitor::EccMonitor;
use crate::system::SpeculationSystem;
use vs_telemetry::{EventCategory, TelemetryEvent};
use vs_types::{CacheKind, CoreId, DomainId, Millivolts, SetWay};

/// What one domain's recalibration decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecalibrationOutcome {
    /// The domain.
    pub domain: DomainId,
    /// The previously designated line.
    pub previous: (CoreId, CacheKind, SetWay),
    /// The line designated now.
    pub selected: (CoreId, CacheKind, SetWay),
    /// Whether the monitor was retargeted.
    pub changed: bool,
    /// The new onset estimate (aged).
    pub onset_vdd: Millivolts,
}

/// Re-ranks each domain's weak lines under the chip's current age and
/// retargets monitors where the weakest line changed.
///
/// # Panics
///
/// Panics if the system has never been calibrated.
pub fn recalibrate(system: &mut SpeculationSystem) -> Vec<RecalibrationOutcome> {
    assert!(
        !system.calibration().is_empty(),
        "recalibration needs an initial calibration"
    );
    // The machine has moved to a new operating regime (typically a new
    // age); drop stale failure-LUT entries before re-ranking.
    system.chip_mut().invalidate_failure_luts();
    let n_domains = system.calibration().len();
    let mut outcomes = Vec::with_capacity(n_domains);

    for d in 0..n_domains {
        let domain = DomainId(d);
        let previous = {
            let c = &system.calibration()[d];
            (c.core, c.kind, c.line)
        };

        // Re-rank candidates across the domain with aging applied.
        let cores = system.chip().config().cores_in_domain(domain);
        let mut best: Option<(CoreId, CacheKind, SetWay, f64)> = None;
        for core in cores {
            for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
                let bank = system.chip_mut().cell_bank(core, kind);
                for line in bank.lines() {
                    let aged = line.weakest_vc_mv
                        + system.chip().line_aging_shift_mv(core, kind, line.location);
                    if best.is_none_or(|(.., b)| aged > b) {
                        best = Some((core, kind, line.location, aged));
                    }
                }
            }
        }
        let (core, kind, location, aged_vc) = best.expect("domains have cores");
        let selected = (core, kind, location);
        let changed = selected != previous;

        if changed {
            // Release the old line and retarget the domain's monitor.
            let (p_core, p_kind, p_line) = previous;
            system
                .chip_mut()
                .release_monitor_line(p_core, p_kind, p_line);
            let mut monitor = EccMonitor::new(core, kind, location);
            monitor.activate(system.chip_mut());
            *system.controllers_mut()[d].monitor_mut() = monitor;
        }

        let onset_vdd = Millivolts((aged_vc / 5.0).ceil() as i32 * 5);
        system.set_calibration_entry(
            d,
            CalibrationOutcome {
                domain,
                core,
                kind,
                line: location,
                onset_vdd,
            },
        );
        if system.recorder().wants(EventCategory::Calibration) {
            let at = system.chip().now();
            system.recorder_mut().emit(TelemetryEvent::Recalibrated {
                at,
                domain,
                changed,
                onset_mv: onset_vdd.0,
            });
        }
        outcomes.push(RecalibrationOutcome {
            domain,
            previous,
            selected,
            changed,
            onset_vdd,
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CalibrationPlan, ControllerConfig};
    use vs_platform::ChipConfig;
    use vs_types::SimTime;

    fn system(seed: u64) -> SpeculationSystem {
        let mut sys = SpeculationSystem::new(
            ChipConfig {
                num_cores: 2,
                weak_lines_tracked: 8,
                ..ChipConfig::low_voltage(seed)
            },
            ControllerConfig::default(),
        );
        sys.calibrate_with(&CalibrationPlan::fast());
        sys
    }

    #[test]
    fn fresh_silicon_changes_nothing() {
        let mut sys = system(11);
        let outcomes = recalibrate(&mut sys);
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].changed, "no aging, no change");
        assert_eq!(outcomes[0].previous, outcomes[0].selected);
    }

    #[test]
    fn heavy_aging_can_retarget_and_system_still_runs() {
        // Find a seed/age where the ranking flips, then prove the system
        // keeps operating safely on the new designation.
        let mut flipped = false;
        for seed in [11, 12, 13, 14, 15, 16, 17, 18] {
            let mut sys = system(seed);
            sys.chip_mut().set_age_hours(200_000.0);
            let outcomes = recalibrate(&mut sys);
            if outcomes[0].changed {
                flipped = true;
                // The old line must be back in normal service; the new one
                // de-configured and probed by the monitor.
                let stats = sys.run(SimTime::from_secs(10));
                assert!(stats.is_safe());
                assert!(stats.correctable > 0, "retargeted monitor must see errors");
                break;
            }
        }
        assert!(flipped, "200k hours should flip at least one tested die");
    }

    #[test]
    fn aged_onset_never_below_fresh_onset() {
        let mut sys = system(11);
        let fresh = sys.calibration()[0].onset_vdd;
        sys.chip_mut().set_age_hours(100_000.0);
        let outcomes = recalibrate(&mut sys);
        assert!(
            outcomes[0].onset_vdd >= fresh,
            "aging only weakens cells: {} vs {}",
            outcomes[0].onset_vdd,
            fresh
        );
    }

    #[test]
    #[should_panic(expected = "initial calibration")]
    fn requires_prior_calibration() {
        let mut sys = SpeculationSystem::new(
            ChipConfig {
                num_cores: 2,
                weak_lines_tracked: 4,
                ..ChipConfig::low_voltage(1)
            },
            ControllerConfig::default(),
        );
        recalibrate(&mut sys);
    }
}
