//! The software/firmware speculation baseline (prior work, compared in
//! §V-F).
//!
//! The baseline has no dedicated monitors: it watches the correctable
//! errors the *workload itself* triggers. Two structural handicaps follow,
//! both reproduced here:
//!
//! 1. **Conservatism.** Workloads touch any particular weak line rarely,
//!    so silence is weak evidence of safety. The firmware therefore holds
//!    a guard margin above the lowest voltage at which off-line
//!    calibration ever saw an error, and backs off whenever the workload
//!    does trip a line.
//! 2. **Handling cost.** Each correctable error is handled in
//!    firmware (logging, bookkeeping, rate evaluation), stalling the core
//!    for a fixed time. As voltage drops and errors multiply, the
//!    overhead grows until it overtakes the savings — the energy
//!    turn-around of Figure 18.

use vs_platform::Chip;
use vs_types::{DomainId, Millivolts, SimTime};

/// Tunables of the software baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareConfig {
    /// Control period (firmware runs far less often than the hardware
    /// monitor's per-tick probing).
    pub control_period: SimTime,
    /// Firmware stall per handled correctable error.
    pub handling_cost: SimTime,
    /// Guard margin held above the off-line calibrated error onset.
    ///
    /// This is the structural conservatism of the firmware approach: with
    /// every handled error costing `handling_cost` of stall, firmware
    /// cannot afford to ride the error band the way the hardware monitor
    /// does, so it parks where workload-triggered errors stay rare.
    pub guard_margin: Millivolts,
    /// Step size.
    pub step: Millivolts,
    /// Periods of silence required before another step down.
    pub quiet_periods_to_lower: u32,
}

impl Default for SoftwareConfig {
    fn default() -> SoftwareConfig {
        SoftwareConfig {
            control_period: SimTime::from_millis(100),
            handling_cost: SimTime::from_micros(300),
            guard_margin: Millivolts(35),
            step: Millivolts(5),
            quiet_periods_to_lower: 3,
        }
    }
}

/// Per-domain state of the software baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DomainState {
    /// Lowest set point firmware will try (off-line onset + margin).
    floor: Millivolts,
    /// Consecutive quiet control periods.
    quiet: u32,
    /// Correctable events seen at the last reading.
    seen: u64,
}

/// The firmware-based voltage-speculation baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareSpeculation {
    config: SoftwareConfig,
    domains: Vec<DomainState>,
    /// Accumulated firmware stall time (performance overhead).
    pub overhead: SimTime,
    /// Errors handled in firmware.
    pub handled: u64,
}

impl SoftwareSpeculation {
    /// Creates the baseline. `offline_onsets` is the per-domain voltage at
    /// which off-line calibration first observed a correctable error (the
    /// same quantity the paper's prior-work system measured at boot).
    pub fn new(config: SoftwareConfig, offline_onsets: &[Millivolts]) -> SoftwareSpeculation {
        SoftwareSpeculation {
            config,
            domains: offline_onsets
                .iter()
                .map(|v| DomainState {
                    floor: *v + config.guard_margin,
                    quiet: 0,
                    seen: 0,
                })
                .collect(),
            overhead: SimTime::ZERO,
            handled: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SoftwareConfig {
        &self.config
    }

    /// The firmware floor of a domain.
    pub fn domain_floor(&self, domain: DomainId) -> Millivolts {
        self.domains[domain.0].floor
    }

    /// Runs one control-period evaluation for every domain: counts the
    /// workload-triggered correctable errors since the last period, pays
    /// the firmware handling cost for each, and adjusts set points.
    pub fn on_control_period(&mut self, chip: &mut Chip) {
        let total_now = chip.log().correctable_count();
        // Attribute events to domains by their line's core.
        let mut per_domain = vec![0u64; self.domains.len()];
        let already: u64 = self.domains.iter().map(|d| d.seen).sum();
        if total_now > already {
            let new_events = (total_now - already) as usize;
            let events = chip.log().correctable();
            for e in events[events.len() - new_events..].iter() {
                let d = chip.config().domain_of(e.line.core);
                per_domain[d.0] += 1;
            }
        }
        for (d, new_count) in per_domain.iter().enumerate() {
            let state = &mut self.domains[d];
            state.seen += new_count;
            self.handled += new_count;
            self.overhead +=
                SimTime::from_micros(self.config.handling_cost.as_micros() * new_count);
            let domain = DomainId(d);
            let current = chip.domain_set_point(domain);
            if *new_count > 0 {
                // Back off and restart the quiet counter.
                chip.request_domain_voltage(domain, current + self.config.step * 2);
                state.quiet = 0;
            } else {
                state.quiet += 1;
                if state.quiet >= self.config.quiet_periods_to_lower {
                    let target = current - self.config.step;
                    if target >= state.floor {
                        chip.request_domain_voltage(domain, target);
                    }
                    state.quiet = 0;
                }
            }
        }
    }

    /// Runs the baseline system for `duration` on an already-configured
    /// chip; returns `(mean set point per domain, firmware overhead)`.
    pub fn run(&mut self, chip: &mut Chip, duration: SimTime) -> (Vec<f64>, SimTime) {
        let tick = chip.config().tick;
        let ticks = (duration.as_micros() / tick.as_micros()).max(1);
        let period_ticks = (self.config.control_period.as_micros() / tick.as_micros()).max(1);
        let n = self.domains.len();
        let mut sums = vec![0.0f64; n];
        for t in 0..ticks {
            chip.tick();
            for (d, sum) in sums.iter_mut().enumerate() {
                *sum += f64::from(chip.domain_set_point(DomainId(d)).0);
            }
            if (t + 1) % period_ticks == 0 {
                self.on_control_period(chip);
            }
        }
        (
            sums.into_iter().map(|s| s / ticks as f64).collect(),
            self.overhead,
        )
    }

    /// The fraction of `duration` lost to firmware error handling.
    pub fn overhead_fraction(&self, duration: SimTime) -> f64 {
        if duration == SimTime::ZERO {
            return 0.0;
        }
        self.overhead.as_secs_f64() / duration.as_secs_f64()
    }
}

/// Convenience: per-core energy penalty model for fixed-voltage operation
/// (used by the Figure 18 sweep). Given a run of `duration` that produced
/// `errors` correctable events on a core drawing `power_w`, the software
/// system's effective energy is the hardware energy plus the stall-time
/// energy of handling every event in firmware.
pub fn software_energy_j(
    power_w: f64,
    duration: SimTime,
    errors: u64,
    config: &SoftwareConfig,
) -> f64 {
    let stall = config.handling_cost.as_secs_f64() * errors as f64;
    power_w * (duration.as_secs_f64() + stall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_platform::ChipConfig;
    use vs_types::{CacheKind, CoreId};
    use vs_workload::StressTest;

    fn small_chip(seed: u64) -> Chip {
        Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        })
    }

    fn onset_of(chip: &mut Chip) -> Millivolts {
        let mut vc = f64::NEG_INFINITY;
        for core in [CoreId(0), CoreId(1)] {
            for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
                vc = vc.max(chip.cell_bank(core, kind).weakest().weakest_vc_mv);
            }
        }
        Millivolts(vc.ceil() as i32)
    }

    #[test]
    fn floor_respects_guard_margin() {
        let sw = SoftwareSpeculation::new(SoftwareConfig::default(), &[Millivolts(700)]);
        assert_eq!(sw.domain_floor(DomainId(0)), Millivolts(735));
    }

    #[test]
    fn descends_only_to_the_firmware_floor_when_quiet() {
        let mut chip = small_chip(7);
        let onset = onset_of(&mut chip);
        let mut sw = SoftwareSpeculation::new(SoftwareConfig::default(), &[onset]);
        // Idle chip: no workload errors ever; firmware walks down and
        // parks at the lowest 5 mV grid point at or above its floor.
        let (means, overhead) = sw.run(&mut chip, SimTime::from_secs(60));
        let final_v = chip.domain_set_point(DomainId(0));
        let floor = sw.domain_floor(DomainId(0));
        assert!(
            final_v >= floor && final_v < floor + Millivolts(5),
            "park point {final_v} vs floor {floor}"
        );
        assert!(means[0] > f64::from(final_v.0), "mean includes the descent");
        assert_eq!(overhead, SimTime::ZERO);
        assert_eq!(sw.handled, 0);
    }

    #[test]
    fn backs_off_when_workload_trips_errors() {
        let mut chip = small_chip(7);
        let onset = onset_of(&mut chip);
        // Force an aggressive (wrong) calibration so the workload *will*
        // trip errors, and verify firmware reacts by raising.
        let mut sw = SoftwareSpeculation::new(
            SoftwareConfig {
                guard_margin: Millivolts(-60),
                ..SoftwareConfig::default()
            },
            &[onset],
        );
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.set_workload(CoreId(1), Box::new(StressTest::default()));
        let _ = sw.run(&mut chip, SimTime::from_secs(120));
        assert!(sw.handled > 0, "stress at low voltage must trip weak lines");
        assert!(sw.overhead > SimTime::ZERO);
        let final_v = chip.domain_set_point(DomainId(0));
        assert!(
            final_v > onset - Millivolts(60),
            "firmware must back off above its (too-low) floor, got {final_v}"
        );
    }

    #[test]
    fn software_is_more_conservative_than_hardware() {
        // The headline §V-F comparison at system level: the firmware
        // baseline parks above where the hardware controller settles.
        let mut chip = small_chip(7);
        let onset = onset_of(&mut chip);
        let mut sw = SoftwareSpeculation::new(SoftwareConfig::default(), &[onset]);
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        let _ = sw.run(&mut chip, SimTime::from_secs(60));
        let sw_v = chip.domain_set_point(DomainId(0));

        let mut sys = crate::SpeculationSystem::new(
            ChipConfig {
                num_cores: 2,
                weak_lines_tracked: 8,
                ..ChipConfig::low_voltage(7)
            },
            crate::ControllerConfig::default(),
        );
        sys.calibrate_fast();
        sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        let _ = sys.run(SimTime::from_secs(60));
        // Compare steady-state park points, not run means (the hardware
        // run's mean includes its descent from nominal).
        let hw_v = sys.chip().domain_set_point(DomainId(0));
        assert!(
            hw_v < sw_v,
            "hardware speculation must go lower: hw {hw_v} vs sw {sw_v}"
        );
    }

    #[test]
    fn energy_helper_adds_stall_energy() {
        let cfg = SoftwareConfig::default();
        let base = software_energy_j(2.0, SimTime::from_secs(10), 0, &cfg);
        let with_errors = software_energy_j(2.0, SimTime::from_secs(10), 10_000, &cfg);
        assert!((base - 20.0).abs() < 1e-12);
        assert!(with_errors > base);
        // 10k errors x 300 us = 3 s of stall at 2 W = 6 J extra.
        assert!((with_errors - 26.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_fraction() {
        let mut sw = SoftwareSpeculation::new(SoftwareConfig::default(), &[Millivolts(700)]);
        sw.overhead = SimTime::from_secs(1);
        assert!((sw.overhead_fraction(SimTime::from_secs(10)) - 0.1).abs() < 1e-12);
        assert_eq!(sw.overhead_fraction(SimTime::ZERO), 0.0);
    }
}
