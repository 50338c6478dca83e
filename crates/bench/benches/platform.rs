//! Micro-benchmarks for the platform simulation engine: tick throughput,
//! the cell-bank ranking scan, and monitor probes.

use vs_bench::timing::{black_box, Runner};
use vs_cache::CacheGeometry;
use vs_platform::{Chip, ChipConfig};
use vs_sram::{CellBank, ChipVariation, SramParams};
use vs_types::{CacheKind, CoreId, DomainId, Millivolts, VddMode};
use vs_workload::StressTest;

fn main() {
    let mut r = Runner::from_args();

    {
        let mut chip = Chip::new(ChipConfig::low_voltage(2014));
        // Pre-build the lazily-constructed cell banks and settle the
        // regulators so calibration-phase ticks are representative.
        for core in 0..8 {
            for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
                let _ = chip.cell_bank(CoreId(core), kind);
            }
        }
        for _ in 0..100 {
            chip.tick();
        }
        r.bench("chip_tick/idle_8_cores", || black_box(chip.tick()));
    }

    {
        let mut chip = Chip::new(ChipConfig::low_voltage(2014));
        for i in 0..8 {
            chip.set_workload(CoreId(i), Box::new(StressTest::default()));
        }
        // Park every domain inside its correctable-error band so the error
        // sampling path is exercised.
        for d in 0..4 {
            let cores = chip.config().cores_in_domain(DomainId(d));
            let mut vc = f64::NEG_INFINITY;
            for core in cores {
                vc = vc.max(
                    chip.cell_bank(core, CacheKind::L2Data)
                        .weakest()
                        .weakest_vc_mv,
                );
            }
            chip.request_domain_voltage(DomainId(d), Millivolts(vc as i32 - 10));
        }
        for core in 0..8 {
            let _ = chip.cell_bank(CoreId(core), CacheKind::L2Instruction);
        }
        for _ in 0..100 {
            chip.tick();
        }
        r.bench("chip_tick/stress_8_cores_error_band", || {
            black_box(chip.tick())
        });
    }

    {
        let variation = ChipVariation::new(2014, SramParams::default());
        let geometry = CacheGeometry::l2_data();
        r.bench("cell_bank_build/l2d_2048_lines", || {
            black_box(CellBank::build(
                &variation,
                CoreId(0),
                CacheKind::L2Data,
                VddMode::LowVoltage,
                geometry.sets,
                geometry.ways,
                geometry.words_per_line(),
                24,
            ))
        });
    }

    {
        let mut chip = Chip::new(ChipConfig::low_voltage(2014));
        let weak = *chip.cell_bank(CoreId(0), CacheKind::L2Data).weakest();
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weak.location);
        chip.request_domain_voltage(DomainId(0), Millivolts(weak.weakest_vc_mv as i32 + 10));
        chip.tick();
        r.bench("monitor_probe/burst_250", || {
            black_box(chip.monitor_probe(CoreId(0), CacheKind::L2Data, weak.location, 250))
        });
    }
}
