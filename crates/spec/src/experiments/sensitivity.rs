//! Cache-line sensitivity experiment (Figure 13).
//!
//! The paper selects four cores with different error-distribution profiles
//! and runs the targeted self-test on one line of each while lowering the
//! voltage, measuring the probability of a single-bit error per access.
//! The resulting S-curves ramp from 0 % to 100 % over 20–50 mV depending
//! on the line.

use crate::monitor::EccMonitor;
use vs_platform::{Chip, ChipConfig};
use vs_types::{CacheKind, CoreId, Millivolts};

/// One core's measured S-curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityCurve {
    /// The core whose designated line was tested.
    pub core: CoreId,
    /// Which cache the line is in.
    pub kind: CacheKind,
    /// `(set_point_mv, probability_of_single_bit_error)` samples, highest
    /// voltage first.
    pub points: Vec<(i32, f64)>,
}

impl SensitivityCurve {
    /// Voltage span between the first sample above `lo` and the first at
    /// or above `hi` probability (the ramp width the paper quotes as
    /// 20–50 mV for 1 %→99 %).
    pub fn ramp_width_mv(&self, lo: f64, hi: f64) -> Option<i32> {
        let onset = self.points.iter().find(|(_, p)| *p > lo)?.0;
        let full = self.points.iter().find(|(_, p)| *p >= hi)?.0;
        Some(onset - full)
    }
}

/// Runs the Figure 13 experiment: for each requested core, designate its
/// weakest L2D line and measure error probability while stepping the
/// domain voltage down.
pub fn sensitivity_curves(
    seed: u64,
    cores: &[CoreId],
    accesses_per_point: u64,
    step: Millivolts,
) -> Vec<SensitivityCurve> {
    let mut curves = Vec::new();
    for &core in cores {
        let mut chip = Chip::new(ChipConfig::low_voltage(seed));
        let kind = CacheKind::L2Data;
        let weak = *chip.cell_bank(core, kind).weakest();
        let domain = chip.config().domain_of(core);
        let mut monitor = EccMonitor::new(core, kind, weak.location);
        monitor.activate(&mut chip);

        let mut points = Vec::new();
        // Sweep from comfortably above the weak cell down to full failure.
        let start = Millivolts((weak.weakest_vc_mv as i32 + 40) / 5 * 5);
        let mut v = start;
        loop {
            chip.request_domain_voltage(domain, v);
            chip.tick();
            monitor.reset_counters();
            monitor.probe(&mut chip, accesses_per_point);
            let p = monitor.error_rate();
            points.push((chip.domain_set_point(domain).0, p));
            if p >= 0.999 || chip.crash_info(core).is_some() {
                break;
            }
            if v.0 <= chip.config().regulator_range().0 .0 {
                break;
            }
            v -= step;
        }
        curves.push(SensitivityCurve { core, kind, points });
    }
    curves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotone_s_shapes() {
        let curves = sensitivity_curves(5, &[CoreId(0), CoreId(1)], 4000, Millivolts(5));
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert!(c.points.len() > 4, "curve too short: {:?}", c.points);
            // Starts (almost) silent, ends saturated.
            assert!(c.points[0].1 < 0.01, "start of ramp: {:?}", c.points[0]);
            assert!(c.points.last().unwrap().1 > 0.9);
            // Allowing sampling noise, the trend must be non-decreasing.
            for w in c.points.windows(2) {
                assert!(
                    w[1].1 >= w[0].1 - 0.08,
                    "non-monotone beyond noise: {:?}",
                    c.points
                );
            }
        }
    }

    #[test]
    fn ramp_widths_in_paper_band() {
        let curves = sensitivity_curves(
            5,
            &[CoreId(0), CoreId(1), CoreId(2), CoreId(3)],
            4000,
            Millivolts(5),
        );
        for c in &curves {
            let width = c.ramp_width_mv(0.01, 0.99).expect("full ramp captured");
            assert!(
                (10..=70).contains(&width),
                "ramp width {width} mV outside the plausible 20-50 mV band (5 mV grid slack)"
            );
        }
    }

    #[test]
    fn ramp_width_none_when_not_captured() {
        let c = SensitivityCurve {
            core: CoreId(0),
            kind: CacheKind::L2Data,
            points: vec![(700, 0.0), (695, 0.0)],
        };
        assert_eq!(c.ramp_width_mv(0.01, 0.99), None);
    }
}
