//! Supporting experiments: the §V-E retention test, the §III-D
//! temperature check, and the §III-D aging-recalibration scenario.

use crate::monitor::EccMonitor;
use vs_cache::{FaultInjector, NoFaults};
use vs_platform::{Chip, ChipConfig};
use vs_types::{CacheKind, Celsius, CoreId, Millivolts};

/// Outcome of the §V-E retention experiment.
///
/// Procedure (mirroring the paper): raise the rail 80 mV above nominal
/// and write the test data (so the writes are unquestionably clean); drop
/// to a voltage where a *read* would err with ~100 % probability; dwell
/// there for a minute **without accessing the line**; raise the rail back
/// and read. If the errors were retention failures the data would come
/// back corrupted; access-time failures leave it intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionResult {
    /// Voltage the data was written at.
    pub write_vdd: Millivolts,
    /// Voltage the line dwelled at.
    pub dwell_vdd: Millivolts,
    /// Dwell duration in seconds (simulated).
    pub dwell_secs: u64,
    /// Errors observed on the read-back after restoring the voltage.
    pub errors_after_restore: u64,
    /// Control: errors observed when reading *at* the dwell voltage.
    pub errors_at_dwell: u64,
}

/// Runs the retention experiment on one core's weakest L2D line.
pub fn retention_experiment(seed: u64, core: CoreId, dwell_secs: u64) -> RetentionResult {
    let mut chip = Chip::new(ChipConfig::low_voltage(seed));
    let weak = *chip.cell_bank(core, CacheKind::L2Data).weakest();
    let location = weak.location;
    chip.designate_monitor_line(core, CacheKind::L2Data, location);

    let nominal = chip.mode().nominal_vdd();
    let write_vdd = nominal + Millivolts(80);
    // A dwell voltage where the weak cell errs essentially every access.
    let dwell_vdd = Millivolts(weak.weakest_vc_mv as i32 - 20);

    // Control measurement: at the dwell voltage, reads do err.
    let domain = chip.config().domain_of(core);
    chip.request_domain_voltage(domain, dwell_vdd);
    chip.tick();
    let control = chip.monitor_probe(core, CacheKind::L2Data, location, 200);

    // The experiment proper: fresh chip state, write high, dwell without
    // access, read high.
    let mut chip = Chip::new(ChipConfig::low_voltage(seed));
    chip.designate_monitor_line(core, CacheKind::L2Data, location);
    chip.request_domain_voltage(domain, write_vdd);
    chip.tick(); // the designated line was stored at power-on; rewrite now
    chip.request_domain_voltage(domain, dwell_vdd);
    chip.tick();
    // Dwell: the line is simply not accessed. (Ticks advance; the cell
    // model only ever flips bits on reads — retention is perfect, which
    // is the hypothesis under test.)
    let ticks_per_sec = 1_000_000 / chip.config().tick.as_micros();
    for _ in 0..(dwell_secs * ticks_per_sec).min(10_000) {
        chip.tick();
    }
    chip.request_domain_voltage(domain, write_vdd);
    chip.tick();
    let restored = chip.monitor_probe(core, CacheKind::L2Data, location, 200);

    RetentionResult {
        write_vdd,
        dwell_vdd,
        dwell_secs,
        errors_after_restore: restored.correctable + restored.uncorrectable,
        errors_at_dwell: control.correctable + control.uncorrectable,
    }
}

/// Outcome of the §III-D temperature-sensitivity check.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureResult {
    /// Baseline temperature.
    pub t_base: Celsius,
    /// Elevated temperature.
    pub t_hot: Celsius,
    /// Error rate at the baseline temperature.
    pub rate_base: f64,
    /// Error rate at the elevated temperature.
    pub rate_hot: f64,
}

impl TemperatureResult {
    /// Relative change in error rate between the two temperatures.
    pub fn relative_change(&self) -> f64 {
        if self.rate_base == 0.0 {
            if self.rate_hot == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.rate_hot - self.rate_base).abs() / self.rate_base
        }
    }
}

/// Measures the monitor error rate at two enclosure temperatures 20 °C
/// apart (the paper's fan-speed experiment found no measurable effect).
pub fn temperature_experiment(seed: u64, core: CoreId, accesses: u64) -> TemperatureResult {
    let rate_at = |temp: Celsius| -> f64 {
        let mut config = ChipConfig::low_voltage(seed);
        config.temperature = temp;
        let mut chip = Chip::new(config);
        let weak = *chip.cell_bank(core, CacheKind::L2Data).weakest();
        let mut monitor = EccMonitor::new(core, CacheKind::L2Data, weak.location);
        monitor.activate(&mut chip);
        let domain = chip.config().domain_of(core);
        // Park mid-ramp so the rate is sensitive to any shift.
        chip.request_domain_voltage(domain, Millivolts(weak.weakest_vc_mv.round() as i32));
        chip.tick();
        monitor.probe(&mut chip, accesses);
        monitor.error_rate()
    };
    let t_base = Celsius(50.0);
    let t_hot = Celsius(70.0);
    TemperatureResult {
        t_base,
        t_hot,
        rate_base: rate_at(t_base),
        rate_hot: rate_at(t_hot),
    }
}

/// Outcome of the fan-slowdown experiment: the §III-D procedure done the
/// way the authors did it, by slowing the enclosure fans and letting the
/// thermal model raise the silicon temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct FanResult {
    /// Fan fraction and resulting silicon temperature for the baseline.
    pub full_fan: (f64, Celsius),
    /// Fan fraction and resulting temperature for the slowed case.
    pub slow_fan: (f64, Celsius),
    /// Mid-ramp error rate at full fan.
    pub rate_full: f64,
    /// Mid-ramp error rate with slowed fans.
    pub rate_slow: f64,
}

impl FanResult {
    /// Temperature rise produced by the slowdown.
    pub fn temperature_rise(&self) -> f64 {
        self.slow_fan.1 .0 - self.full_fan.1 .0
    }

    /// Relative error-rate change between the two fan settings.
    pub fn relative_change(&self) -> f64 {
        if self.rate_full == 0.0 {
            0.0
        } else {
            (self.rate_slow - self.rate_full).abs() / self.rate_full
        }
    }
}

/// Runs the §III-D experiment mechanistically: enable the enclosure
/// thermal model, load the chip, and compare the monitor's mid-ramp error
/// rate at full vs slowed fans.
pub fn fan_experiment(seed: u64, core: CoreId, accesses: u64) -> FanResult {
    use vs_power::{FanSpeed, ThermalParams};
    use vs_workload::StressTest;

    let run_at = |fan: f64| -> (Celsius, f64) {
        let mut chip = Chip::new(ChipConfig::low_voltage(seed));
        chip.enable_thermal(ThermalParams::default());
        chip.set_fan(FanSpeed::new(fan));
        // Load every core so the enclosure heats realistically.
        for i in 0..chip.config().num_cores {
            chip.set_workload(CoreId(i), Box::new(StressTest::default()));
        }
        let weak = *chip.cell_bank(core, CacheKind::L2Data).weakest();
        let mut monitor = EccMonitor::new(core, CacheKind::L2Data, weak.location);
        monitor.activate(&mut chip);
        let domain = chip.config().domain_of(core);
        chip.request_domain_voltage(domain, Millivolts(weak.weakest_vc_mv.round() as i32));
        // Let the package reach thermal steady state (~5 time constants).
        for _ in 0..60_000 {
            chip.tick();
        }
        monitor.reset_counters();
        monitor.probe(&mut chip, accesses);
        (chip.temperature(), monitor.error_rate())
    };

    let (t_full, rate_full) = run_at(1.0);
    let (t_slow, rate_slow) = run_at(0.55);
    FanResult {
        full_fan: (1.0, t_full),
        slow_fan: (0.55, t_slow),
        rate_full,
        rate_slow,
    }
}

/// Outcome of the aging-recalibration scenario (§III-D).
#[derive(Debug, Clone, PartialEq)]
pub struct AgingResult {
    /// Hours of simulated aging applied.
    pub age_hours: f64,
    /// The weakest line designated at boot (fresh silicon).
    pub fresh_line: (usize, usize),
    /// The weakest line after aging.
    pub aged_line: (usize, usize),
    /// Whether recalibration selected a different line.
    pub line_changed: bool,
    /// Error count on the fresh-designated line, aged silicon, mid-ramp
    /// voltage — evidence the old designation drifted.
    pub fresh_line_aged_errors: u64,
}

/// Simulates aging and checks whether the weak-line ranking changed enough
/// that recalibration would re-target the monitor.
pub fn aging_experiment(seed: u64, core: CoreId, age_hours: f64) -> AgingResult {
    let mut chip = Chip::new(ChipConfig::low_voltage(seed));
    let bank = chip.cell_bank(core, CacheKind::L2Data);
    let fresh = bank.weakest().location;

    // Re-rank the tracked lines with the aging shift applied.
    let aged_best = bank
        .lines()
        .iter()
        .map(|l| {
            let shift =
                chip.variation()
                    .aging_shift_mv(core, CacheKind::L2Data, l.location, age_hours);
            (l.location, l.weakest_vc_mv + shift)
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("bank is non-empty");

    // Demonstrate the drift on the data path: read the fresh line on aged
    // silicon at its original mid-ramp voltage.
    let fresh_line_aged_errors = {
        let weak = bank.weakest();
        let mode = chip.mode();
        let v = weak.weakest_vc_mv;
        let (variation, caches, rng) = chip.injector_parts(core);
        let mut injector =
            FaultInjector::new(variation, core, mode, v, rng).with_aging_hours(age_hours);
        caches.l2d.store_at(weak.location, u64::MAX, &[0u64; 16]);
        let mut errors = 0;
        for _ in 0..64 {
            let read = caches
                .l2d
                .read_at(weak.location, &mut injector)
                .expect("line stored");
            errors += read.correctable_count() as u64;
        }
        // Sanity: a clean read still works.
        let clean = caches.l2d.read_at(weak.location, &mut NoFaults).unwrap();
        assert!(!clean.has_uncorrectable());
        errors
    };

    AgingResult {
        age_hours,
        fresh_line: (fresh.set, fresh.way),
        aged_line: (aged_best.0.set, aged_best.0.way),
        line_changed: aged_best.0 != fresh,
        fresh_line_aged_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_errors_are_access_time_not_storage() {
        let r = retention_experiment(5, CoreId(0), 60);
        assert!(
            r.errors_at_dwell > 150,
            "control: reads at the dwell voltage must err, got {}",
            r.errors_at_dwell
        );
        assert_eq!(
            r.errors_after_restore, 0,
            "no retention errors after the dwell (paper §V-E)"
        );
        assert!(r.write_vdd > r.dwell_vdd);
    }

    #[test]
    fn temperature_effect_unmeasurable() {
        let r = temperature_experiment(5, CoreId(0), 20_000);
        assert!(
            r.rate_base > 0.05,
            "mid-ramp rate expected, got {}",
            r.rate_base
        );
        assert!(
            r.relative_change() < 0.25,
            "a 20C swing must not measurably move the distribution: {} -> {}",
            r.rate_base,
            r.rate_hot
        );
    }

    #[test]
    fn fan_slowdown_heats_but_does_not_move_the_distribution() {
        let r = fan_experiment(5, CoreId(0), 20_000);
        let rise = r.temperature_rise();
        assert!(
            (12.0..30.0).contains(&rise),
            "slowed fans should raise silicon ~20 C, got {rise:.1}"
        );
        assert!(
            r.rate_full > 0.02,
            "mid-ramp rate expected, got {}",
            r.rate_full
        );
        assert!(
            r.relative_change() < 0.30,
            "the error distribution must not measurably move: {} -> {}",
            r.rate_full,
            r.rate_slow
        );
    }

    #[test]
    fn aging_can_change_the_weakest_line() {
        // With enough hours, some seed/core shows a ranking flip. Use a
        // long horizon to make the drift decisive for this seed.
        let r = aging_experiment(5, CoreId(0), 0.0);
        assert!(!r.line_changed, "zero aging cannot change the ranking");
        let flipped = (0..8).any(|core| {
            let r = aging_experiment(5, CoreId(core), 200_000.0);
            r.line_changed
        });
        assert!(
            flipped,
            "heavy aging should re-rank the weak lines of at least one core"
        );
    }

    #[test]
    fn aged_line_errs_more() {
        let fresh = aging_experiment(5, CoreId(0), 0.0);
        let aged = aging_experiment(5, CoreId(0), 100_000.0);
        assert!(
            aged.fresh_line_aged_errors >= fresh.fresh_line_aged_errors,
            "aging weakens cells: {} vs {}",
            aged.fresh_line_aged_errors,
            fresh.fresh_line_aged_errors
        );
    }
}
