//! Chip configuration.

use vs_pdn::PdnParams;
use vs_power::PowerParams;
use vs_sram::SramParams;
use vs_types::{Celsius, ConfigError, CoreId, DomainId, Millivolts, SimTime, VddMode};

/// Configuration of a simulated chip.
///
/// The defaults mirror the evaluation platform (Table I): eight cores, two
/// cores per speculated voltage domain, 1 ms control/logging tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Per-die seed: determines the entire variation map (weak lines,
    /// logic floors). Two chips with the same seed are the same silicon.
    pub seed: u64,
    /// Which operating point the chip runs at.
    pub mode: VddMode,
    /// Number of cores (8 on the reference platform).
    pub num_cores: usize,
    /// Cores sharing one speculated voltage domain (2 on the reference
    /// platform; Table I's six domains are these four core-pair rails plus
    /// two uncore rails, which are not speculated).
    pub cores_per_domain: usize,
    /// Simulation tick (control and logging granularity).
    pub tick: SimTime,
    /// Ambient silicon temperature.
    pub temperature: Celsius,
    /// SRAM variation parameters.
    pub sram: SramParams,
    /// Power-model parameters.
    pub power: PowerParams,
    /// Per-domain delivery-network parameters.
    pub pdn: PdnParams,
    /// How many of the weakest lines per structure the cell bank tracks
    /// (the lines the error samplers and the ECC monitor can see). Lines
    /// below the bank never err at usable voltages.
    pub weak_lines_tracked: usize,
    /// Fraction of a workload's L2 traffic that lands uniformly across all
    /// lines of the structure (the rest hits hot lines). This sets how
    /// often a *workload* (as opposed to the ECC monitor) touches any
    /// given weak line — the scarcity that made the prior software-only
    /// approach conservative.
    pub uniform_reuse_fraction: f64,
    /// Expected accesses per millisecond to a weak register-file entry per
    /// unit activity (only relevant at the nominal point, where register
    /// files err).
    pub rf_weak_access_per_ms: f64,
    /// How many of an ECC-monitor probe's reads go through the real
    /// encoded data path each tick (the remainder are sampled from the
    /// identical analytic distribution for speed).
    pub monitor_real_reads: u64,
}

impl ChipConfig {
    /// The low-voltage operating point with default calibration.
    pub fn low_voltage(seed: u64) -> ChipConfig {
        ChipConfig {
            seed,
            mode: VddMode::LowVoltage,
            num_cores: 8,
            cores_per_domain: 2,
            tick: SimTime::from_millis(1),
            temperature: Celsius(50.0),
            sram: SramParams::default(),
            power: PowerParams::default(),
            pdn: PdnParams::default(),
            weak_lines_tracked: 24,
            uniform_reuse_fraction: 6.0e-4,
            rf_weak_access_per_ms: 2.0e-3,
            monitor_real_reads: 4,
        }
    }

    /// The nominal (2.53 GHz) operating point with default calibration.
    pub fn nominal(seed: u64) -> ChipConfig {
        ChipConfig {
            mode: VddMode::Nominal,
            ..ChipConfig::low_voltage(seed)
        }
    }

    /// Number of speculated (core) voltage domains.
    pub fn num_domains(&self) -> usize {
        self.num_cores.div_ceil(self.cores_per_domain)
    }

    /// The domain a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn domain_of(&self, core: CoreId) -> DomainId {
        assert!(core.0 < self.num_cores, "core {core} out of range");
        DomainId(core.0 / self.cores_per_domain)
    }

    /// The cores in a domain.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    pub fn cores_in_domain(&self, domain: DomainId) -> Vec<CoreId> {
        assert!(
            domain.0 < self.num_domains(),
            "domain {domain} out of range"
        );
        (0..self.num_cores)
            .map(CoreId)
            .filter(|c| self.domain_of(*c) == domain)
            .collect()
    }

    /// The sibling core sharing a domain with `core` (the "auxiliary core"
    /// of the noise experiments), if any.
    pub fn sibling_of(&self, core: CoreId) -> Option<CoreId> {
        self.cores_in_domain(self.domain_of(core))
            .into_iter()
            .find(|c| *c != core)
    }

    /// Regulator range for this operating point.
    pub fn regulator_range(&self) -> (Millivolts, Millivolts) {
        match self.mode {
            VddMode::LowVoltage => (Millivolts(500), Millivolts(900)),
            VddMode::Nominal => (Millivolts(900), Millivolts(1200)),
        }
    }

    /// Validates internal consistency, returning the first violated
    /// constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::non_positive("num_cores"));
        }
        if self.cores_per_domain == 0 || self.cores_per_domain > self.num_cores {
            return Err(ConfigError::out_of_range(
                "cores_per_domain",
                "in 1..=num_cores",
                self.cores_per_domain,
            ));
        }
        if self.tick <= SimTime::ZERO {
            return Err(ConfigError::non_positive("tick"));
        }
        if self.weak_lines_tracked == 0 {
            return Err(ConfigError::non_positive("weak_lines_tracked"));
        }
        if !(0.0..=1.0).contains(&self.uniform_reuse_fraction) {
            return Err(ConfigError::out_of_range(
                "uniform_reuse_fraction",
                "a fraction in [0, 1]",
                self.uniform_reuse_fraction,
            ));
        }
        let (lo, hi) = self.regulator_range();
        let nominal = self.mode.nominal_vdd();
        if !(lo..=hi).contains(&nominal) {
            return Err(ConfigError::inconsistent(
                "mode",
                "regulator_range",
                "nominal voltage must be inside the regulator range",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_matches_table_i() {
        let c = ChipConfig::low_voltage(1);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.num_domains(), 4);
        assert_eq!(c.domain_of(CoreId(0)), DomainId(0));
        assert_eq!(c.domain_of(CoreId(1)), DomainId(0));
        assert_eq!(c.domain_of(CoreId(7)), DomainId(3));
        assert_eq!(c.cores_in_domain(DomainId(1)), vec![CoreId(2), CoreId(3)]);
    }

    #[test]
    fn siblings_pair_up() {
        let c = ChipConfig::low_voltage(1);
        assert_eq!(c.sibling_of(CoreId(4)), Some(CoreId(5)));
        assert_eq!(c.sibling_of(CoreId(5)), Some(CoreId(4)));
        let solo = ChipConfig {
            num_cores: 1,
            cores_per_domain: 1,
            ..ChipConfig::low_voltage(1)
        };
        assert_eq!(solo.sibling_of(CoreId(0)), None);
    }

    #[test]
    fn modes_have_correct_ranges() {
        let low = ChipConfig::low_voltage(1);
        assert_eq!(low.regulator_range(), (Millivolts(500), Millivolts(900)));
        let nom = ChipConfig::nominal(1);
        assert_eq!(nom.regulator_range(), (Millivolts(900), Millivolts(1200)));
        assert_eq!(nom.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn domain_of_bad_core_panics() {
        ChipConfig::low_voltage(1).domain_of(CoreId(8));
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let c = ChipConfig {
            num_cores: 0,
            ..ChipConfig::low_voltage(1)
        };
        let err = c.validate().unwrap_err();
        assert_eq!(err.field(), "num_cores");
        assert!(err.to_string().contains("num_cores"), "{err}");
    }

    #[test]
    fn odd_core_count_rounds_domains_up() {
        let c = ChipConfig {
            num_cores: 5,
            ..ChipConfig::low_voltage(1)
        };
        assert_eq!(c.num_domains(), 3);
        assert_eq!(c.cores_in_domain(DomainId(2)), vec![CoreId(4)]);
    }
}
