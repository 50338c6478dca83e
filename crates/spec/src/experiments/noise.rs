//! Voltage-noise experiments (Figures 15 and 16, §IV-B, §V-D2).
//!
//! A voltage virus — a loop of high-power FMA instructions interleaved
//! with NOPs — runs on the auxiliary core of a domain while the main core
//! runs the targeted self-test on its weak line. Sweeping the NOP count
//! sweeps the virus's power-oscillation frequency; near the package
//! resonance the droop (and hence the observed error count) spikes even
//! though the virus's average power is *lower* than a NOP-free loop.

use crate::monitor::EccMonitor;
use vs_platform::{Chip, ChipConfig};
use vs_types::{CacheKind, CoreId, Millivolts};
use vs_workload::{Idle, VoltageVirus};

/// One point of the Figure 15 NOP sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NopSweepPoint {
    /// NOP count of the virus variant.
    pub nop_count: u32,
    /// Correctable errors observed across the probe burst.
    pub errors: u64,
    /// Accesses issued.
    pub accesses: u64,
}

/// The auxiliary-core load used in the Figure 16 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxLoad {
    /// Auxiliary core idle.
    None,
    /// Virus with the given NOP count.
    Virus {
        /// NOP count.
        nops: u32,
    },
}

impl AuxLoad {
    /// Label used in reports.
    pub fn label(&self) -> String {
        match self {
            AuxLoad::None => "no-aux-load".to_owned(),
            AuxLoad::Virus { nops } => format!("aux-load-nop-{nops}"),
        }
    }
}

fn setup_probe_chip(seed: u64, main: CoreId) -> (Chip, EccMonitor, CoreId) {
    let mut chip = Chip::new(ChipConfig::low_voltage(seed));
    let aux = chip
        .config()
        .sibling_of(main)
        .expect("noise experiments need a core pair");
    let weak = chip.cell_bank(main, CacheKind::L2Data).weakest().location;
    let mut monitor = EccMonitor::new(main, CacheKind::L2Data, weak);
    monitor.activate(&mut chip);
    (chip, monitor, aux)
}

/// Figure 15: error count on the main core's self-test vs the NOP count
/// of the virus on the auxiliary core, at a fixed set point near the
/// monitor line's onset.
///
/// `accesses` is the number of weak-line reads per NOP point (the paper
/// uses 500k).
pub fn nop_sweep(seed: u64, main: CoreId, nop_counts: &[u32], accesses: u64) -> Vec<NopSweepPoint> {
    let mut points = Vec::new();
    for &nops in nop_counts {
        let (mut chip, mut monitor, aux) = setup_probe_chip(seed, main);
        let weak_vc = chip
            .cell_bank(main, CacheKind::L2Data)
            .weakest()
            .weakest_vc_mv;
        // Park the rail a few millivolts above the weak cell: quiet in
        // isolation, but within reach of a resonant droop.
        let v = Millivolts(((weak_vc as i32 + 14) / 5) * 5);
        let domain = chip.config().domain_of(main);
        chip.request_domain_voltage(domain, v);
        let clock = chip.mode().frequency();
        chip.set_workload(aux, Box::new(VoltageVirus::new(nops, clock)));
        // Let the rail settle under the virus load.
        chip.tick();
        chip.tick();
        monitor.reset_counters();
        // Probe in tick-sized bursts so the droop persists through the
        // measurement.
        let per_tick = 10_000u64.min(accesses);
        let mut remaining = accesses;
        while remaining > 0 {
            let burst = per_tick.min(remaining);
            monitor.probe(&mut chip, burst);
            remaining -= burst;
            chip.tick();
        }
        points.push(NopSweepPoint {
            nop_count: nops,
            errors: monitor.error_count(),
            accesses: monitor.access_count(),
        });
    }
    points
}

/// One curve of the Figure 16 comparison: self-test error rate vs set
/// point under a given auxiliary load.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorRateCurve {
    /// The auxiliary load.
    pub load: AuxLoad,
    /// `(set_point_mv, error_rate)` samples, highest voltage first.
    pub points: Vec<(i32, f64)>,
}

/// Figure 16: error rate vs voltage for the main core's self-test with
/// the auxiliary core idle, running the resonant NOP-8 virus, or running
/// the (more power-hungry but off-resonance) NOP-0 virus.
pub fn error_rate_vs_vdd(
    seed: u64,
    main: CoreId,
    loads: &[AuxLoad],
    accesses_per_point: u64,
    step: Millivolts,
) -> Vec<ErrorRateCurve> {
    let mut curves = Vec::new();
    for load in loads {
        let (mut chip, mut monitor, aux) = setup_probe_chip(seed, main);
        let clock = chip.mode().frequency();
        match load {
            AuxLoad::None => chip.set_workload(aux, Box::new(Idle)),
            AuxLoad::Virus { nops } => {
                chip.set_workload(aux, Box::new(VoltageVirus::new(*nops, clock)))
            }
        }
        let weak_vc = chip
            .cell_bank(main, CacheKind::L2Data)
            .weakest()
            .weakest_vc_mv;
        let domain = chip.config().domain_of(main);
        let mut points = Vec::new();
        let start = Millivolts(((weak_vc as i32 + 40) / 5) * 5);
        let stop = Millivolts(weak_vc as i32 - 25);
        let mut v = start;
        while v >= stop {
            chip.request_domain_voltage(domain, v);
            chip.tick();
            monitor.reset_counters();
            monitor.probe(&mut chip, accesses_per_point);
            points.push((v.0, monitor.error_rate()));
            if chip.crash_info(main).is_some() {
                break;
            }
            v -= step;
        }
        curves.push(ErrorRateCurve {
            load: *load,
            points,
        });
    }
    curves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resonant_virus_spikes_error_count() {
        // The Figure 15 signature: NOP-8 (resonant) produces more errors
        // than both NOP-0 (higher power, off resonance) and large NOP
        // counts (low power).
        let points = nop_sweep(5, CoreId(0), &[0, 4, 8, 16], 100_000);
        let by_nop = |n: u32| points.iter().find(|p| p.nop_count == n).unwrap().errors;
        assert!(
            by_nop(8) > by_nop(0),
            "resonant NOP-8 ({}) must beat NOP-0 ({})",
            by_nop(8),
            by_nop(0)
        );
        assert!(by_nop(8) > by_nop(16), "and the low-power NOP-16 variant");
        assert!(by_nop(8) > 0);
    }

    #[test]
    fn nop8_curve_dominates_across_voltages() {
        // The Figure 16 signature: the NOP-8 curve sits above both the
        // idle and NOP-0 curves throughout the sweep.
        let curves = error_rate_vs_vdd(
            5,
            CoreId(0),
            &[
                AuxLoad::Virus { nops: 8 },
                AuxLoad::Virus { nops: 0 },
                AuxLoad::None,
            ],
            3000,
            Millivolts(5),
        );
        assert_eq!(curves.len(), 3);
        let find = |l: &AuxLoad| curves.iter().find(|c| c.load == *l).unwrap();
        let nop8 = find(&AuxLoad::Virus { nops: 8 });
        let nop0 = find(&AuxLoad::Virus { nops: 0 });
        let idle = find(&AuxLoad::None);
        // Compare cumulative rates over the shared voltage range.
        let sum =
            |c: &ErrorRateCurve, n: usize| -> f64 { c.points.iter().take(n).map(|(_, r)| r).sum() };
        let n = nop8
            .points
            .len()
            .min(nop0.points.len())
            .min(idle.points.len());
        assert!(sum(nop8, n) > sum(nop0, n), "NOP-8 must dominate NOP-0");
        assert!(sum(nop0, n) >= sum(idle, n) - 0.05, "any load >= idle");
    }

    #[test]
    fn aux_load_labels() {
        assert_eq!(AuxLoad::None.label(), "no-aux-load");
        assert_eq!(AuxLoad::Virus { nops: 8 }.label(), "aux-load-nop-8");
    }
}
