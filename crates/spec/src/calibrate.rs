//! Boot-time calibration (§III-C): find the weakest line of each voltage
//! domain and designate it for monitoring.
//!
//! Two implementations are provided:
//!
//! * [`CalibrationMethod::CacheSweep`] — the faithful procedure: step the
//!   domain voltage down from nominal and, at each level, sweep both L2
//!   caches of every core in the domain through the real (L1-bypassing)
//!   targeted-test path until a line reports a correctable error. The
//!   sweep is coarse-to-fine: 20 mV strides to bracket the onset, then
//!   5 mV refinement, mirroring how a firmware implementation would bound
//!   boot time. Only lines tracked by the structure's cell bank count as
//!   hits: the monitor samples its line from the bank, and an untracked
//!   line is statistically inert at usable voltages anyway.
//! * [`CalibrationMethod::TableLookup`] — the oracle shortcut: read the
//!   weakest line straight out of the platform's cell bank
//!   ([`Chip::cell_bank`]). Both methods identify (statistically) the
//!   same line; the integration tests assert the sweep lands inside the
//!   bank's top entries. Experiments default to the oracle for speed.

use vs_cache::hierarchy::Side;
use vs_cache::{sweep, FaultInjector};
use vs_platform::Chip;
use vs_types::{CacheKind, CoreId, DomainId, Millivolts, SetWay};

/// How calibration locates weak lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationMethod {
    /// Real voltage-stepped cache sweeps (expensive, faithful).
    CacheSweep,
    /// Cell-bank oracle (fast; same silicon, same answer).
    TableLookup,
}

/// Parameters for the sweep-based calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationPlan {
    /// Method to use.
    pub method: CalibrationMethod,
    /// Coarse stride used to bracket the onset voltage.
    pub coarse_step: Millivolts,
    /// Fine stride used to pin it down.
    pub fine_step: Millivolts,
    /// Probing reads per line at each voltage level.
    pub reads_per_line: u32,
    /// Lowest voltage calibration will try before concluding a domain has
    /// no reachable weak line (should never happen on realistic silicon).
    pub floor: Millivolts,
}

impl Default for CalibrationPlan {
    fn default() -> CalibrationPlan {
        CalibrationPlan {
            method: CalibrationMethod::CacheSweep,
            coarse_step: Millivolts(20),
            fine_step: Millivolts(5),
            reads_per_line: 2,
            floor: Millivolts(560),
        }
    }
}

impl CalibrationPlan {
    /// The oracle plan (used by the experiment drivers).
    pub fn fast() -> CalibrationPlan {
        CalibrationPlan {
            method: CalibrationMethod::TableLookup,
            ..CalibrationPlan::default()
        }
    }
}

/// The designated weak line of one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationOutcome {
    /// The calibrated domain.
    pub domain: DomainId,
    /// Core whose cache hosts the weakest line.
    pub core: CoreId,
    /// Which L2 it is in.
    pub kind: CacheKind,
    /// The line.
    pub line: SetWay,
    /// The voltage at which the line first erred during calibration (set
    /// point, snapped to the fine grid).
    pub onset_vdd: Millivolts,
}

/// Runs one domain's calibration and returns the designated line.
///
/// The chip is left reset (calibration happens at boot, before workloads).
pub fn calibrate_domain(
    chip: &mut Chip,
    domain: DomainId,
    plan: &CalibrationPlan,
) -> CalibrationOutcome {
    match plan.method {
        CalibrationMethod::TableLookup => calibrate_by_table(chip, domain),
        CalibrationMethod::CacheSweep => calibrate_by_sweep(chip, domain, plan),
    }
}

/// Calibrates every domain.
pub fn calibrate_all(chip: &mut Chip, plan: &CalibrationPlan) -> Vec<CalibrationOutcome> {
    (0..chip.config().num_domains())
        .map(|d| calibrate_domain(chip, DomainId(d), plan))
        .collect()
}

fn calibrate_by_table(chip: &mut Chip, domain: DomainId) -> CalibrationOutcome {
    let cores = chip.config().cores_in_domain(domain);
    let mut best: Option<(CoreId, CacheKind, SetWay, f64)> = None;
    for core in cores {
        for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
            let line = *chip.cell_bank(core, kind).weakest();
            if best.is_none_or(|(.., vc)| line.weakest_vc_mv > vc) {
                best = Some((core, kind, line.location, line.weakest_vc_mv));
            }
        }
    }
    let (core, kind, line, vc) = best.expect("a domain always has cores");
    CalibrationOutcome {
        domain,
        core,
        kind,
        line,
        onset_vdd: Millivolts((vc / 5.0).ceil() as i32 * 5),
    }
}

/// One sweep of both L2s of every core in the domain at a forced voltage;
/// returns the first (highest-error) hit among the bank-tracked lines, if
/// any.
fn sweep_domain_at(
    chip: &mut Chip,
    domain: DomainId,
    v_mv: f64,
    reads_per_line: u32,
) -> Option<(CoreId, CacheKind, SetWay)> {
    let mode = chip.mode();
    let cores = chip.config().cores_in_domain(domain);
    let mut best: Option<(CoreId, CacheKind, SetWay, u32)> = None;
    for core in cores {
        for (side, kind) in [
            (Side::Data, CacheKind::L2Data),
            (Side::Instruction, CacheKind::L2Instruction),
        ] {
            let bank = chip.cell_bank(core, kind);
            let (variation, caches, rng) = chip.injector_parts(core);
            let mut injector = FaultInjector::new(variation, core, mode, v_mv, rng);
            let report = sweep::sweep_side(caches, side, &mut injector, reads_per_line);
            for (line, count) in report.erring_lines {
                if bank.find(line).is_some() && best.is_none_or(|(.., c)| count > c) {
                    best = Some((core, kind, line, count));
                }
            }
        }
    }
    best.map(|(core, kind, line, _)| (core, kind, line))
}

fn calibrate_by_sweep(
    chip: &mut Chip,
    domain: DomainId,
    plan: &CalibrationPlan,
) -> CalibrationOutcome {
    chip.reset();
    let nominal = chip.mode().nominal_vdd();

    // Coarse descent: find the first stride at which anything errs.
    let mut v = nominal;
    let mut coarse_hit = None;
    while v >= plan.floor {
        if let Some(hit) = sweep_domain_at(chip, domain, f64::from(v.0), plan.reads_per_line) {
            coarse_hit = Some((v, hit));
            break;
        }
        v -= plan.coarse_step;
    }
    let (coarse_v, mut hit) =
        coarse_hit.expect("silicon always has a weak line above the calibration floor");

    // Fine refinement: back up one coarse stride and descend on the fine
    // grid; the *first* fine level that errs designates the weakest line.
    let mut fine_v = (coarse_v + plan.coarse_step).clamp(plan.floor, nominal);
    let mut onset = coarse_v;
    while fine_v >= plan.floor {
        if let Some(fine_hit) =
            sweep_domain_at(chip, domain, f64::from(fine_v.0), plan.reads_per_line)
        {
            hit = fine_hit;
            onset = fine_v;
            break;
        }
        fine_v -= plan.fine_step;
    }

    chip.reset();
    let (core, kind, line) = hit;
    CalibrationOutcome {
        domain,
        core,
        kind,
        line,
        onset_vdd: onset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_platform::ChipConfig;

    fn small_chip(seed: u64) -> Chip {
        Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        })
    }

    #[test]
    fn table_lookup_picks_the_domain_extreme() {
        let mut chip = small_chip(21);
        let outcome = calibrate_domain(&mut chip, DomainId(0), &CalibrationPlan::fast());
        assert_eq!(outcome.domain, DomainId(0));
        // The designated line must be the max across all four candidate
        // structures of the domain.
        let mut max_vc = f64::NEG_INFINITY;
        for core in [CoreId(0), CoreId(1)] {
            for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
                max_vc = max_vc.max(chip.cell_bank(core, kind).weakest().weakest_vc_mv);
            }
        }
        let designated_vc = chip
            .cell_bank(outcome.core, outcome.kind)
            .weakest()
            .weakest_vc_mv;
        assert_eq!(designated_vc, max_vc);
        // Onset estimate brackets the critical voltage from above.
        assert!(f64::from(outcome.onset_vdd.0) >= max_vc);
        assert!(f64::from(outcome.onset_vdd.0) < max_vc + 6.0);
    }

    #[test]
    fn sweep_agrees_with_the_table() {
        let mut chip = small_chip(21);
        let oracle = calibrate_domain(&mut chip, DomainId(0), &CalibrationPlan::fast());
        let swept = calibrate_domain(&mut chip, DomainId(0), &CalibrationPlan::default());
        // The sweep's designated line must be among the table's strongest
        // few candidates of the same structure (detection near onset is
        // probabilistic, so allow the top 3).
        let table = chip.cell_bank(swept.core, swept.kind);
        let rank = table
            .lines()
            .iter()
            .position(|l| l.location == swept.line)
            .expect("swept line must be a tracked weak line");
        assert!(
            rank < 3,
            "sweep found rank-{rank} line instead of the extreme"
        );
        // And the onset voltages must agree to within the coarse bracket.
        let dv = (oracle.onset_vdd - swept.onset_vdd).0.abs();
        assert!(
            dv <= 25,
            "onset mismatch: {} vs {}",
            oracle.onset_vdd,
            swept.onset_vdd
        );
    }

    #[test]
    fn sweep_designates_the_line_a_one_line_bank_tracks() {
        for seed in [21, 22, 23] {
            let mut chip = Chip::new(ChipConfig {
                num_cores: 2,
                weak_lines_tracked: 1,
                ..ChipConfig::low_voltage(seed)
            });
            let swept = calibrate_domain(&mut chip, DomainId(0), &CalibrationPlan::default());
            let tracked = *chip.cell_bank(swept.core, swept.kind).weakest();
            assert_eq!(swept.line, tracked.location, "seed {seed}");
            chip.designate_monitor_line(swept.core, swept.kind, swept.line);
            chip.request_domain_voltage(DomainId(0), Millivolts(tracked.weakest_vc_mv as i32));
            chip.tick();
            let probe = chip.monitor_probe(swept.core, swept.kind, swept.line, 2000);
            assert_eq!(probe.accesses, 2000, "seed {seed}");
            assert!(probe.correctable > 0, "seed {seed}: probe at Vc must err");
        }
    }

    #[test]
    fn calibrate_all_covers_every_domain() {
        let mut chip = small_chip(33);
        let outcomes = calibrate_all(&mut chip, &CalibrationPlan::fast());
        assert_eq!(outcomes.len(), 1);
        let full = Chip::new(ChipConfig {
            weak_lines_tracked: 4,
            ..ChipConfig::low_voltage(33)
        });
        let mut full = full;
        let outcomes = calibrate_all(&mut full, &CalibrationPlan::fast());
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.domain, DomainId(i));
            assert_eq!(full.config().domain_of(o.core), o.domain);
        }
    }
}
