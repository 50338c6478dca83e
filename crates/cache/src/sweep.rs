//! Calibration sweeps: exercising every line of the L2 caches.
//!
//! Calibration (paper §III-C) progressively lowers the voltage and sweeps
//! both L2 caches at each level, looking for the line that errs first —
//! the weakest line, which the ECC monitor will then own.
//!
//! * The **data-cache sweep** performs loads and stores in line-sized
//!   increments until every set and way has been exercised.
//! * The **instruction-cache sweep** (Figure 6) models the firmware trick:
//!   a straight-line code template sized to one cache line is replicated
//!   contiguously through memory, each copy ending in a branch to the next,
//!   so that executing the chain touches every line of every way of the
//!   instruction cache.
//!
//! Both sweeps are expressed as address sequences over the simulated
//! hierarchy, with all reads passing through the fault injector.

use crate::fault::Injector;
use crate::hierarchy::{CoreCaches, Side};
use vs_types::SetWay;

/// The result of sweeping one structure at one voltage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Which side was swept.
    pub side: Side,
    /// Lines that produced at least one correctable error, with their error
    /// counts, in sweep order.
    pub erring_lines: Vec<(SetWay, u32)>,
    /// Lines that produced an uncorrectable error (normally empty; any
    /// entry means the voltage is far too low).
    pub uncorrectable_lines: Vec<SetWay>,
    /// Total accesses performed.
    pub accesses: u64,
}

impl SweepReport {
    /// The first erring line encountered, if any — at the highest voltage
    /// that errs at all, this is the weakest line of the structure.
    pub fn first_erring_line(&self) -> Option<SetWay> {
        self.erring_lines.first().map(|(l, _)| *l)
    }
}

/// The address chain of the instruction-cache sweep (Figure 6): one
/// template copy per (set × way) of the L2I, laid out contiguously so that
/// sequential execution walks every line.
///
/// Each entry is the base address of one template; the template is exactly
/// one L2 line long and ends with a conditional branch to the next.
pub fn icache_template_chain(caches: &CoreCaches) -> Vec<u64> {
    let geom = caches.l2i.geometry();
    // Contiguous replication through physical memory: template k sits at
    // k × line_bytes. Walking k = 0..sets×ways covers every set `ways`
    // times; because fills allocate a fresh way on each revisit of a set,
    // the whole structure is populated.
    (0..(geom.sets * geom.ways) as u64)
        .map(|k| k * geom.line_bytes as u64)
        .collect()
}

/// Sweeps one side of a core's hierarchy at the current injector
/// conditions: every line of the L2 is faulted in and then re-read via the
/// targeted (L1-bypassing) path so the L2 cells are the ones exercised.
///
/// `reads_per_line` controls how many probing reads each line gets; the
/// boot-time calibration uses a handful, while weak-line confirmation uses
/// more.
pub fn sweep_side(
    caches: &mut CoreCaches,
    side: Side,
    injector: &mut dyn Injector,
    reads_per_line: u32,
) -> SweepReport {
    let geom = *caches.l2(side).geometry();
    let mut erring: Vec<(SetWay, u32)> = Vec::new();
    let mut uncorrectable = Vec::new();
    let mut accesses = 0u64;

    for set in 0..geom.sets {
        // Populate the set, evict L1, then hammer the resident lines.
        for round in 0..reads_per_line {
            let outcomes = caches.targeted_line_test(side, set, injector);
            for outcome in outcomes {
                accesses += 1;
                let Some(read) = outcome.read else { continue };
                // Only count events from the L2 under test.
                if outcome.kind != Some(caches.l2(side).kind()) {
                    continue;
                }
                if read.has_uncorrectable() && !uncorrectable.contains(&read.location) {
                    uncorrectable.push(read.location);
                }
                let corrected = read.correctable_count() as u32;
                if corrected > 0 {
                    match erring.iter_mut().find(|(l, _)| *l == read.location) {
                        Some((_, n)) => *n += corrected,
                        None => erring.push((read.location, corrected)),
                    }
                }
                let _ = round;
            }
        }
    }

    SweepReport {
        side,
        erring_lines: erring,
        uncorrectable_lines: uncorrectable,
        accesses,
    }
}

/// Sweeps both sides and returns `(data_report, instruction_report)`.
pub fn sweep_both(
    caches: &mut CoreCaches,
    injector: &mut dyn Injector,
    reads_per_line: u32,
) -> (SweepReport, SweepReport) {
    let d = sweep_side(caches, Side::Data, injector, reads_per_line);
    let i = sweep_side(caches, Side::Instruction, injector, reads_per_line);
    (d, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NoFaults;
    use vs_types::{CacheKind, FlipMask};

    #[test]
    fn template_chain_covers_whole_l2i() {
        let caches = CoreCaches::new();
        let chain = icache_template_chain(&caches);
        let geom = caches.l2i.geometry();
        assert_eq!(chain.len(), geom.sets * geom.ways);
        // Consecutive templates are line-adjacent.
        assert!(chain
            .windows(2)
            .all(|w| w[1] - w[0] == geom.line_bytes as u64));
        // Every set is visited exactly `ways` times.
        let mut per_set = vec![0usize; geom.sets];
        for &addr in &chain {
            per_set[geom.set_of(addr)] += 1;
        }
        assert!(per_set.iter().all(|&n| n == geom.ways));
    }

    #[test]
    fn clean_sweep_reports_nothing() {
        let mut caches = CoreCaches::new();
        let report = sweep_side(&mut caches, Side::Data, &mut NoFaults, 1);
        assert!(report.erring_lines.is_empty());
        assert!(report.uncorrectable_lines.is_empty());
        assert!(report.first_erring_line().is_none());
        assert!(report.accesses > 0);
    }

    /// Injector that flips one bit whenever a specific line is read.
    struct OneFlakyLine {
        kind: CacheKind,
        line: SetWay,
    }

    impl Injector for OneFlakyLine {
        fn flip_mask(&mut self, kind: CacheKind, location: SetWay, word: u32) -> FlipMask {
            if kind == self.kind && location == self.line && word == 0 {
                FlipMask::from_bits(&[5])
            } else {
                FlipMask::EMPTY
            }
        }
    }

    #[test]
    fn sweep_finds_the_planted_weak_line() {
        let mut caches = CoreCaches::new();
        let weak = SetWay::new(123, 4);
        let mut inj = OneFlakyLine {
            kind: CacheKind::L2Data,
            line: weak,
        };
        let report = sweep_side(&mut caches, Side::Data, &mut inj, 2);
        assert_eq!(report.first_erring_line(), Some(weak));
        assert!(report.uncorrectable_lines.is_empty());
        let (_, count) = report.erring_lines[0];
        assert!(count >= 2, "every probing read should have erred");
    }

    #[test]
    fn sweep_is_side_selective() {
        let mut caches = CoreCaches::new();
        let mut inj = OneFlakyLine {
            kind: CacheKind::L2Instruction,
            line: SetWay::new(9, 0),
        };
        let data_report = sweep_side(&mut caches, Side::Data, &mut inj, 1);
        assert!(data_report.erring_lines.is_empty());
        let i_report = sweep_side(&mut caches, Side::Instruction, &mut inj, 1);
        assert_eq!(i_report.first_erring_line(), Some(SetWay::new(9, 0)));
    }

    /// Injector that flips two bits on one line (uncorrectable).
    struct DoubleFlipLine {
        line: SetWay,
    }

    impl Injector for DoubleFlipLine {
        fn flip_mask(&mut self, kind: CacheKind, location: SetWay, word: u32) -> FlipMask {
            if kind == CacheKind::L2Data && location == self.line && word == 3 {
                FlipMask::from_bits(&[1, 2])
            } else {
                FlipMask::EMPTY
            }
        }
    }

    #[test]
    fn sweep_reports_uncorrectable_lines() {
        let mut caches = CoreCaches::new();
        let bad = SetWay::new(50, 2);
        let mut inj = DoubleFlipLine { line: bad };
        let report = sweep_side(&mut caches, Side::Data, &mut inj, 1);
        assert_eq!(report.uncorrectable_lines, vec![bad]);
    }
}
