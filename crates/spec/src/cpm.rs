//! A critical-path-monitor (CPM) baseline, after Lefurgy et al. (§VI).
//!
//! The strongest related work guides voltage with dedicated *timing*
//! sensors: critical-path monitors measure how much slack the logic has at
//! the current effective voltage, and a controller shaves the guardband
//! until the slack hits a set point. This module implements that scheme on
//! the simulated platform so the paper's approach can be compared against
//! it head-to-head:
//!
//! * the CPM senses the domain's *logic* margin `v_eff − logic_floor`,
//!   with a per-domain calibration error (real CPMs are replicas, not the
//!   actual critical path);
//! * it knows nothing about SRAM cell health — the weak cache lines that
//!   actually bound low-voltage operation are invisible to it — so a safe
//!   deployment must keep a static SRAM guardband above the off-line
//!   first-error voltage, exactly like the software baseline;
//! * within those limits it is *fast*: it reacts to droops within one
//!   control period without consuming any error events.
//!
//! The comparison (see `experiments::comparison`) reproduces the paper's
//! §VI argument: at the low-voltage point the binding constraint is the
//! SRAM, so a timing-only sensor must leave the widest margin of the three
//! systems, while ECC feedback rides directly on the structure that fails
//! first.

use vs_platform::Chip;
use vs_types::rng::CounterRng;
use vs_types::{DomainId, Millivolts, SimTime};

/// Tunables of the CPM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpmConfig {
    /// Target timing margin above the (sensed) logic floor, in millivolts.
    pub margin_setpoint_mv: f64,
    /// 1-sigma calibration error of the path-replica sensors, in
    /// millivolts. The controller must assume the sensor reads high by up
    /// to ~2 sigma, so this adds directly to the effective margin.
    pub sensor_sigma_mv: f64,
    /// Static guardband held above the off-line SRAM first-error voltage.
    /// The CPM cannot observe cache-cell health at all, so this band must
    /// blindly cover everything the ECC monitor tracks live: worst-case
    /// droop (~10-15 mV), lifetime aging drift (~10 mV), and calibration
    /// temperature spread — which is precisely why a static guard cannot
    /// compete with closed-loop ECC feedback.
    pub sram_guard_mv: Millivolts,
    /// Control period.
    pub control_period: SimTime,
    /// Step size.
    pub step: Millivolts,
}

impl Default for CpmConfig {
    fn default() -> CpmConfig {
        CpmConfig {
            margin_setpoint_mv: 25.0,
            sensor_sigma_mv: 4.0,
            sram_guard_mv: Millivolts(30),
            control_period: SimTime::from_millis(10),
            step: Millivolts(5),
        }
    }
}

/// Per-domain CPM state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DomainCpm {
    /// Sensor bias for this domain (fixed at manufacturing), in millivolts.
    bias_mv: f64,
    /// The true logic floor of the domain's weaker core (the replica is
    /// calibrated against it), in millivolts.
    floor_mv: f64,
    /// The SRAM guard floor the set point may never cross.
    sram_floor: Millivolts,
}

/// The CPM-guided voltage-speculation baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CpmSpeculation {
    config: CpmConfig,
    domains: Vec<DomainCpm>,
}

impl CpmSpeculation {
    /// Builds the baseline for a chip: reads each domain's logic floors
    /// and the off-line SRAM onsets (`offline_onsets`, one per domain, as
    /// for the software baseline), and draws the per-domain sensor biases.
    pub fn new(
        config: CpmConfig,
        chip: &mut Chip,
        offline_onsets: &[Millivolts],
    ) -> CpmSpeculation {
        let n = chip.config().num_domains();
        assert_eq!(offline_onsets.len(), n, "one onset per domain");
        let mut domains = Vec::with_capacity(n);
        for (d, onset) in offline_onsets.iter().enumerate() {
            let cores = chip.config().cores_in_domain(DomainId(d));
            let floor_mv = cores
                .iter()
                .map(|c| f64::from(chip.logic_floor(*c).0))
                .fold(f64::NEG_INFINITY, f64::max);
            let mut rng = CounterRng::from_key(chip.variation().seed(), &[0xC9_11, d as u64]);
            domains.push(DomainCpm {
                bias_mv: rng.next_gaussian() * config.sensor_sigma_mv,
                floor_mv,
                sram_floor: *onset + config.sram_guard_mv,
            });
        }
        CpmSpeculation { config, domains }
    }

    /// The configuration.
    pub fn config(&self) -> &CpmConfig {
        &self.config
    }

    /// The effective floor (max of timing and SRAM constraints) of a
    /// domain's set point.
    pub fn domain_floor(&self, domain: DomainId) -> Millivolts {
        let d = &self.domains[domain.0];
        let timing = d.floor_mv + self.config.margin_setpoint_mv;
        Millivolts(timing.ceil() as i32)
            .clamp(d.sram_floor, Millivolts(i32::MAX))
            .max(d.sram_floor)
    }

    /// The margin the sensor reports for a domain at effective voltage
    /// `v_eff_mv` (true margin distorted by the replica bias).
    pub fn sensed_margin_mv(&self, domain: DomainId, v_eff_mv: f64) -> f64 {
        let d = &self.domains[domain.0];
        v_eff_mv - d.floor_mv + d.bias_mv
    }

    /// One control-period evaluation: compare the sensed margin under the
    /// worst droop of the last period against the set point.
    pub fn on_control_period(&mut self, chip: &mut Chip) {
        // Conservative sensing: assume the replica may flatter the margin
        // by two sigma.
        let pessimism = 2.0 * self.config.sensor_sigma_mv;
        for d in 0..self.domains.len() {
            let domain = DomainId(d);
            let v_eff = chip.domain_v_eff_mv(domain);
            let margin = self.sensed_margin_mv(domain, v_eff) - pessimism;
            let current = chip.domain_set_point(domain);
            let floor = self.domain_floor(domain);
            if margin < self.config.margin_setpoint_mv {
                chip.request_domain_voltage(domain, current + self.config.step);
            } else if margin > self.config.margin_setpoint_mv + f64::from(self.config.step.0) {
                let target = current - self.config.step;
                if target >= floor {
                    chip.request_domain_voltage(domain, target);
                }
            }
        }
    }

    /// Runs the CPM system for `duration`; returns the mean set point per
    /// domain.
    pub fn run(&mut self, chip: &mut Chip, duration: SimTime) -> Vec<f64> {
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
        sums.into_iter().map(|s| s / ticks as f64).collect()
    }
}

/// Convenience: the off-line SRAM onsets of a chip, per domain (shared
/// with the software baseline).
pub fn offline_onsets(chip: &mut Chip) -> Vec<Millivolts> {
    (0..chip.config().num_domains())
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
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_platform::ChipConfig;
    use vs_types::CoreId;
    use vs_workload::StressTest;

    fn chip(seed: u64) -> Chip {
        Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        })
    }

    #[test]
    fn sram_guard_binds_at_low_voltage() {
        // At the low-voltage point the SRAM onset sits far above the logic
        // floor, so the CPM's effective floor must be the SRAM guard, not
        // the timing margin.
        let mut c = chip(9);
        let onsets = offline_onsets(&mut c);
        let cpm = CpmSpeculation::new(CpmConfig::default(), &mut c, &onsets);
        let floor = cpm.domain_floor(DomainId(0));
        assert_eq!(floor, onsets[0] + Millivolts(30));
        let timing_floor = c.logic_floor(CoreId(0)).max(c.logic_floor(CoreId(1)));
        assert!(floor > timing_floor + Millivolts(20));
    }

    #[test]
    fn cpm_descends_to_its_floor_and_stays_safe() {
        let mut c = chip(9);
        let onsets = offline_onsets(&mut c);
        let mut cpm = CpmSpeculation::new(CpmConfig::default(), &mut c, &onsets);
        c.set_workload(CoreId(0), Box::new(StressTest::default()));
        let means = cpm.run(&mut c, SimTime::from_secs(30));
        assert!(!c.any_crashed());
        let final_v = c.domain_set_point(DomainId(0));
        let floor = cpm.domain_floor(DomainId(0));
        assert!(
            final_v >= floor && final_v < floor + Millivolts(10),
            "CPM must park just above its floor: {final_v} vs {floor}"
        );
        assert!(means[0] > f64::from(final_v.0));
    }

    #[test]
    fn ecc_guided_system_goes_lower_than_cpm() {
        // The §VI comparison: ECC feedback rides inside the error band the
        // CPM must guard against blindly.
        let mut c = chip(9);
        let onsets = offline_onsets(&mut c);
        let mut cpm = CpmSpeculation::new(CpmConfig::default(), &mut c, &onsets);
        c.set_workload(CoreId(0), Box::new(StressTest::default()));
        cpm.run(&mut c, SimTime::from_secs(30));
        let cpm_v = c.domain_set_point(DomainId(0));

        let mut sys = crate::SpeculationSystem::new(
            ChipConfig {
                num_cores: 2,
                weak_lines_tracked: 8,
                ..ChipConfig::low_voltage(9)
            },
            crate::ControllerConfig::default(),
        );
        sys.calibrate_fast();
        sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        let stats = sys.run(SimTime::from_secs(30));
        assert!(stats.is_safe());
        let ecc_v = sys.chip().domain_set_point(DomainId(0));
        assert!(
            ecc_v < cpm_v,
            "ECC-guided must park below the CPM baseline: {ecc_v} vs {cpm_v}"
        );
    }

    #[test]
    fn sensor_bias_is_deterministic_per_domain() {
        let mut c1 = chip(9);
        let onsets = offline_onsets(&mut c1);
        let a = CpmSpeculation::new(CpmConfig::default(), &mut c1, &onsets);
        let mut c2 = chip(9);
        let b = CpmSpeculation::new(CpmConfig::default(), &mut c2, &onsets);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one onset per domain")]
    fn onset_count_checked() {
        let mut c = chip(9);
        CpmSpeculation::new(CpmConfig::default(), &mut c, &[]);
    }
}
