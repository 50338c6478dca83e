//! Micro-benchmarks for the SRAM variation model — the scalar per-word
//! cell derivation and the analytic error path.

use vs_bench::timing::{black_box, Runner};
use vs_sram::{line_read_probabilities, AccessContext, ChipVariation, SramParams};
use vs_types::rng::CounterRng;
use vs_types::{CacheKind, Celsius, CoreId, SetWay, VddMode};

fn main() {
    let mut r = Runner::from_args();
    let chip = ChipVariation::new(2014, SramParams::default());

    let mut set = 0usize;
    r.bench("sram_word_cells", || {
        set = (set + 1) % 256;
        black_box(chip.word_cells(
            CoreId(0),
            CacheKind::L2Data,
            SetWay::new(black_box(set), 3),
            0,
            VddMode::LowVoltage,
        ))
    });

    let words: Vec<_> = (0..16)
        .map(|w| {
            chip.word_cells(
                CoreId(0),
                CacheKind::L2Data,
                SetWay::new(5, 1),
                w,
                VddMode::LowVoltage,
            )
        })
        .collect();
    let ctx = AccessContext::new(700.0, 3.2);
    r.bench("sram_line_read_probabilities", || {
        black_box(line_read_probabilities(black_box(&words), &ctx))
    });

    let cells = chip.word_cells(
        CoreId(0),
        CacheKind::L2Data,
        SetWay::new(5, 1),
        0,
        VddMode::LowVoltage,
    );
    let ctx = AccessContext {
        v_eff_mv: cells.weakest().vc_mv,
        temperature: Celsius(50.0),
        read_noise_mv: 3.2,
        temp_coeff_mv_per_c: 0.04,
    };
    let mut rng = CounterRng::from_key(7, &[]);
    r.bench("sram_sample_word_flips_at_vc", || {
        black_box(ctx.sample_word_flips(black_box(&cells), &mut rng))
    });
}
