//! Cross-path consistency: the platform offers two ways to observe the
//! same physics — the real encoded data path (per-read fault injection and
//! Hsiao decode) and the analytic probability path used for bulk
//! simulation. These tests pin them to each other statistically.

use vs_cache::FaultInjector;
use vs_platform::{Chip, ChipConfig};
use vs_types::{CacheKind, CoreId, DomainId, Millivolts};

fn small_chip(seed: u64) -> Chip {
    Chip::new(ChipConfig {
        num_cores: 2,
        weak_lines_tracked: 8,
        ..ChipConfig::low_voltage(seed)
    })
}

/// The real read path's empirical error rate on a weak line must match the
/// analytic line probabilities within sampling error across the ramp.
#[test]
fn real_reads_match_analytic_probabilities() {
    let mut chip = small_chip(77);
    let bank = chip.cell_bank(CoreId(0), CacheKind::L2Data);
    let weak = *bank.weakest();
    let temperature = chip.config().temperature;

    for dv in [-8.0, 0.0, 8.0] {
        let v = weak.weakest_vc_mv + dv;
        let (_, p_ce, _) = bank.line_probabilities(0, v, temperature);

        // Drive the real data path at that exact effective voltage.
        let trials = 4000;
        let mut errors = 0u64;
        let mode = chip.mode();
        let (variation, caches, rng) = chip.injector_parts(CoreId(0));
        caches.l2d.store_at(weak.location, u64::MAX, &[0u64; 16]);
        for _ in 0..trials {
            let mut injector = FaultInjector::new(variation, CoreId(0), mode, v, rng);
            let read = caches
                .l2d
                .read_at(weak.location, &mut injector)
                .expect("stored");
            if read.correctable_count() > 0 && !read.has_uncorrectable() {
                errors += 1;
            }
        }
        let empirical = errors as f64 / trials as f64;
        let sigma = (p_ce * (1.0 - p_ce) / trials as f64).sqrt().max(1e-3);
        assert!(
            (empirical - p_ce).abs() < 5.0 * sigma + 0.01,
            "dv={dv}: empirical {empirical:.4} vs analytic {p_ce:.4}"
        );
    }
}

/// Monitor probes mix a few real reads with an analytic remainder; the
/// reported rate must be insensitive to how many real reads are used.
#[test]
fn probe_rate_insensitive_to_real_read_count() {
    let rate_with_real_reads = |real: u64| -> f64 {
        let mut config = ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(77)
        };
        config.monitor_real_reads = real;
        let mut chip = Chip::new(config);
        let weak = *chip.cell_bank(CoreId(0), CacheKind::L2Data).weakest();
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weak.location);
        chip.request_domain_voltage(DomainId(0), Millivolts(weak.weakest_vc_mv.round() as i32));
        chip.tick();
        let outcome = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weak.location, 40_000);
        outcome.error_rate()
    };
    let mostly_analytic = rate_with_real_reads(2);
    let many_real = rate_with_real_reads(512);
    assert!(
        (mostly_analytic - many_real).abs() < 0.04,
        "paths diverge: {mostly_analytic:.4} vs {many_real:.4}"
    );
    // On the ramp (the set point is at the weak cell's Vc, but the rail
    // sits a few mV lower under load, so anywhere mid-ramp is fine).
    assert!((0.02..0.98).contains(&mostly_analytic));
}

/// The cell bank's first-error voltage must agree with what the real
/// sweep path observes: reading the weakest line just above its Vc is
/// quiet, just below is noisy.
#[test]
fn table_onset_agrees_with_data_path() {
    let mut chip = small_chip(78);
    let weak = *chip
        .cell_bank(CoreId(0), CacheKind::L2Instruction)
        .weakest();
    chip.designate_monitor_line(CoreId(0), CacheKind::L2Instruction, weak.location);

    let rate_at = |chip: &mut Chip, v: f64| -> f64 {
        chip.request_domain_voltage(DomainId(0), Millivolts(v.round() as i32));
        chip.tick();
        chip.monitor_probe(CoreId(0), CacheKind::L2Instruction, weak.location, 20_000)
            .error_rate()
    };
    let above = rate_at(&mut chip, weak.weakest_vc_mv + 30.0);
    let below = rate_at(&mut chip, weak.weakest_vc_mv - 30.0);
    assert!(above < 0.001, "quiet above Vc, got {above}");
    assert!(below > 0.99, "saturated below Vc, got {below}");
}

/// A crashed core's monitor probes return nothing (the domain is dead to
/// the control plane), and ticks keep flowing for the other cores.
#[test]
fn crashed_core_probes_are_inert() {
    let mut chip = small_chip(79);
    let weak = *chip.cell_bank(CoreId(0), CacheKind::L2Data).weakest();
    chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weak.location);
    // Crash core 0 via the logic floor.
    let floor = chip.logic_floor(CoreId(0));
    chip.request_domain_voltage(DomainId(0), floor - Millivolts(30));
    chip.tick();
    chip.tick();
    assert!(chip.crash_info(CoreId(0)).is_some());
    let outcome = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weak.location, 1000);
    assert_eq!(outcome.accesses, 0);
    assert_eq!(outcome.error_rate(), 0.0);
    // The chip keeps ticking.
    chip.tick();
}
