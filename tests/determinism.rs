//! Determinism guarantees: the paper's key enabler is that weak lines are
//! a fixed property of each die. The simulator must honour that end to
//! end: identical seeds give bit-identical experiments; different seeds
//! give different silicon.

use voltspec::fleet::{FleetConfig, FleetRunner, PopulationStats};
use voltspec::platform::{Chip, ChipConfig};
use voltspec::spec::{ControllerConfig, SpeculationSystem};
use voltspec::types::{CacheKind, CoreId, FleetSeed, SimTime};
use voltspec::workload::Suite;

fn small_config(seed: u64) -> ChipConfig {
    ChipConfig {
        num_cores: 2,
        weak_lines_tracked: 8,
        ..ChipConfig::low_voltage(seed)
    }
}

fn run_once(seed: u64) -> voltspec::spec::RunStats {
    let mut sys = SpeculationSystem::new(small_config(seed), ControllerConfig::default());
    sys.calibrate_fast();
    sys.assign_suite(Suite::CoreMark, SimTime::from_secs(5));
    sys.run(SimTime::from_secs(10))
}

#[test]
fn identical_seeds_reproduce_runs_exactly() {
    let a = run_once(777);
    let b = run_once(777);
    assert_eq!(a.mean_vdd_mv, b.mean_vdd_mv);
    assert_eq!(a.correctable, b.correctable);
    assert_eq!(a.emergencies, b.emergencies);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn different_seeds_are_different_silicon() {
    let a = run_once(777);
    let b = run_once(778);
    assert_ne!(
        (a.correctable, a.mean_vdd_mv.clone()),
        (b.correctable, b.mean_vdd_mv.clone()),
        "two dies should not behave identically"
    );
}

#[test]
fn weak_lines_are_stable_across_chip_instances() {
    let mut chip1 = Chip::new(small_config(99));
    let mut chip2 = Chip::new(small_config(99));
    for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
        for core in [CoreId(0), CoreId(1)] {
            let a = chip1.cell_bank(core, kind).weakest().location;
            let b = chip2.cell_bank(core, kind).weakest().location;
            assert_eq!(a, b, "{core}/{kind} weak line must be a die property");
        }
    }
}

#[test]
fn weak_lines_differ_between_cores_and_structures() {
    // §II-D: "the addresses of such lines vary from core to core".
    let mut chip = Chip::new(ChipConfig::low_voltage(99));
    let locations: Vec<_> = (0..8)
        .map(|c| {
            chip.cell_bank(CoreId(c), CacheKind::L2Data)
                .weakest()
                .location
        })
        .collect();
    let mut unique = locations.clone();
    unique.sort();
    unique.dedup();
    assert!(
        unique.len() >= 7,
        "weak-line locations should essentially never collide: {locations:?}"
    );
}

fn fleet_config() -> FleetConfig {
    let mut config = FleetConfig::small(FleetSeed(4242), 32);
    config.run_duration = SimTime::from_millis(500);
    config
}

#[test]
fn fleet_results_are_identical_for_any_worker_count() {
    // The tentpole guarantee: sharding a fleet across workers only changes
    // the wall clock, never the results. One worker versus eight must
    // produce bit-identical summaries AND bit-identical aggregate
    // statistics (f64 equality, no tolerance).
    let one = FleetRunner::new(fleet_config(), 1).run().unwrap();
    let eight = FleetRunner::new(fleet_config(), 8).run().unwrap();

    assert_eq!(one.summaries, eight.summaries);

    let nominal = fleet_config().base_chip.mode.nominal_vdd();
    let stats_one = PopulationStats::from_summaries(&one.summaries, nominal);
    let stats_eight = PopulationStats::from_summaries(&eight.summaries, nominal);
    assert_eq!(stats_one, stats_eight);

    // And the run did real work on every chip.
    assert_eq!(one.summaries.len(), 32);
    assert!(stats_one.total_correctable > 0);
    assert_eq!(stats_one.healthy_chips, 32);
}

fn small_fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed: FleetSeed(seed),
        num_chips: 8,
        ..fleet_config()
    }
}

#[test]
fn fleet_reruns_are_reproducible() {
    let a = FleetRunner::new(small_fleet_config(4242), 4).run().unwrap();
    let b = FleetRunner::new(small_fleet_config(4242), 4).run().unwrap();
    assert_eq!(a.summaries, b.summaries);
}

#[test]
fn different_fleet_seeds_are_different_populations() {
    let a = FleetRunner::new(small_fleet_config(4242), 4).run().unwrap();
    let b = FleetRunner::new(small_fleet_config(4243), 4).run().unwrap();
    assert!(
        a.summaries
            .iter()
            .zip(&b.summaries)
            .all(|(x, y)| x.die_seed != y.die_seed),
        "distinct fleet seeds must draw distinct silicon everywhere"
    );
}

#[test]
fn error_log_attributes_events_to_tracked_weak_lines() {
    let mut sys = SpeculationSystem::new(small_config(55), ControllerConfig::default());
    sys.calibrate_fast();
    sys.assign_suite(Suite::SpecInt2000, SimTime::from_secs(4));
    let stats = sys.run(SimTime::from_secs(12));
    assert!(stats.correctable > 0);
    // Rebuild the same die and confirm every event's line is one of its
    // tracked weak lines — the log is explainable from the silicon alone.
    let mut twin = Chip::new(small_config(55));
    for e in sys.chip().log().correctable() {
        let bank = twin.cell_bank(e.line.core, e.line.cache);
        assert!(
            bank.find(e.line.location).is_some(),
            "event from untracked line {}",
            e.line
        );
    }
}
