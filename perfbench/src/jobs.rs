//! Every input the benchmark feeds the system, derived from the workload
//! seed alone: the same seed always yields the same configs and specs.

use vs_fleet::{ControllerVariant, FleetConfig};
use vs_fleetd::SweepSpec;
use vs_types::rng::hash_key;
use vs_types::{FleetSeed, SimTime};

/// The reference seed (the die the committed reproduction uses) and the
/// default when `--seed` is not given.
pub const REFERENCE_SEED: u64 = 2014;

/// A seed no measurement in this benchmark's design was tuned on. A
/// claimed gain must also hold with `--seed 7117`.
pub const HELD_OUT_SEED: u64 = 7117;

/// Chips per one-shot sweep: one per runner worker, so the runner's own
/// latency histogram holds each chip's exact wall time (its min and max).
pub const CHIPS_PER_ROUND: u64 = 2;

/// Fleet worker threads (and, for the daemon, scheduler workers): the
/// host's core count the benchmark is designed for.
pub const WORKERS: usize = 2;

/// Domain-separation tags, one per input stream.
const TAG_SWEEP_SHORT: u64 = 0x5357_5345;
const TAG_SWEEP_LONG: u64 = 0x5357_4C4F;
const TAG_DAEMON_FRESH: u64 = 0x4446_5245;
const TAG_DAEMON_REPEAT: u64 = 0x4452_4550;

/// The two fleet sweep shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepShape {
    /// `FleetConfig::small`, 500 ms simulated.
    Short,
    /// `FleetConfig::new`: 8-core dies, 4 s simulated.
    Long,
}

/// The fleet config of sweep round `round`: a fresh fleet seed per round,
/// [`CHIPS_PER_ROUND`] chips, hardware controller.
pub fn sweep_round(shape: SweepShape, seed: u64, round: u64) -> FleetConfig {
    let (tag, base): (u64, fn(FleetSeed, u64) -> FleetConfig) = match shape {
        SweepShape::Short => (TAG_SWEEP_SHORT, FleetConfig::small),
        SweepShape::Long => (TAG_SWEEP_LONG, FleetConfig::new),
    };
    let mut config = base(FleetSeed(hash_key(seed, &[tag, round])), CHIPS_PER_ROUND);
    config.variant = ControllerVariant::Hardware;
    if shape == SweepShape::Short {
        config.run_duration = SimTime::from_millis(500);
    }
    config
}

/// Chips in one fresh daemon job.
pub const DAEMON_CHIPS: u64 = 4;
/// Simulated run per fresh daemon chip, in ms.
pub const DAEMON_RUN_MS: u64 = 100;

/// The `k`-th fresh sweep client `client` submits: 4 quick chips, 100 ms
/// simulated, a new fleet seed.
pub fn daemon_fresh(seed: u64, client: u64, k: u64) -> SweepSpec {
    SweepSpec {
        seed: hash_key(seed, &[TAG_DAEMON_FRESH, client, k]),
        chips: DAEMON_CHIPS,
        variant: ControllerVariant::Hardware,
        quick: true,
        run_ms: DAEMON_RUN_MS,
        sentinel: false,
        inject: String::new(),
        key: String::new(),
        deadline_ms: 0,
    }
}

/// Which of the client's `finished` fresh sweeps (in submission order)
/// its `k`-th repeat resubmits.
pub fn daemon_repeat_pick(seed: u64, client: u64, k: u64, finished: usize) -> usize {
    assert!(finished > 0, "a repeat needs a finished sweep");
    (hash_key(seed, &[TAG_DAEMON_REPEAT, client, k]) % finished as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a run of one seed submits, flattened for comparison.
    fn job_list(seed: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for round in 0..8 {
            for shape in [SweepShape::Short, SweepShape::Long] {
                let c = sweep_round(shape, seed, round);
                out.extend([c.seed.0, c.num_chips, c.run_duration.as_micros()]);
                out.push(c.base_chip.num_cores as u64);
            }
        }
        for client in 0..2 {
            for k in 0..8 {
                let s = daemon_fresh(seed, client, k);
                out.extend([s.seed, s.chips, s.run_ms, u64::from(s.quick)]);
                out.push(daemon_repeat_pick(seed, client, k, k as usize + 1) as u64);
            }
        }
        out
    }

    #[test]
    fn one_seed_always_generates_the_same_job_list() {
        assert_eq!(job_list(REFERENCE_SEED), job_list(REFERENCE_SEED));
        assert_eq!(job_list(HELD_OUT_SEED), job_list(HELD_OUT_SEED));
        assert_ne!(job_list(REFERENCE_SEED), job_list(HELD_OUT_SEED));
    }

    #[test]
    fn sweep_shapes_match_the_workload_definitions() {
        let short = sweep_round(SweepShape::Short, 1, 0);
        assert_eq!(short.base_chip.num_cores, 2);
        assert_eq!(short.base_chip.weak_lines_tracked, 8);
        assert_eq!(short.run_duration, SimTime::from_millis(500));
        let long = sweep_round(SweepShape::Long, 1, 0);
        assert_eq!(long.base_chip.num_cores, 8);
        assert_eq!(long.run_duration, SimTime::from_secs(4));
        assert_ne!(short.seed, sweep_round(SweepShape::Short, 1, 1).seed);
        assert_eq!(REFERENCE_SEED, vs_bench::Scale::REFERENCE_SEED);
    }

    #[test]
    fn repeats_pick_a_finished_sweep() {
        for k in 0..64 {
            assert!(daemon_repeat_pick(9, 1, k, 3) < 3);
        }
    }
}
