//! Layer probes over the banks a traced sweep built: LUT word sampling
//! and the negligible-envelope skip rate (vs-sram), and SEC-DED decode of
//! the sampled flip masks (vs-ecc).

use crate::report::Outcome;
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use vs_ecc::SecDed;
use vs_sram::{CellBank, FailureLut};
use vs_types::rng::CounterRng;
use vs_types::{Celsius, FlipMask};

/// Voltage ladder around each bank's weakest critical voltage, in mV.
const LADDER_MV: [f64; 17] = [
    -40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0,
    35.0, 40.0,
];

/// Timed samples per (line, word, ladder step), after one untimed sample
/// has filled the LUT entry.
const SAMPLES_PER_KEY: usize = 8;

/// Reads per envelope query: the skip decision for a single access.
const ENVELOPE_ACCESSES: f64 = 1.0;

/// Flip masks kept for the decode probe, and the decodes it times.
const MAX_MASKS: usize = 1 << 16;
const MIN_DECODES: usize = 1 << 21;

/// Probes the banks and records `sram.lut_sample_ns`,
/// `sram.envelope_skip_ratio` and `ecc.decode_ns`.
pub fn sram_and_ecc(
    banks: &[Arc<CellBank>],
    temperature: Celsius,
    seed: u64,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let mut rng = CounterRng::from_key(seed, &[0x5052_4F42]);
    let mut masks: Vec<FlipMask> = Vec::new();
    let (mut samples, mut queries, mut skips) = (0u64, 0u64, 0u64);
    for (b, bank) in banks.iter().enumerate() {
        let weakest = bank
            .lines()
            .iter()
            .map(|l| l.weakest_vc_mv)
            .fold(f64::NEG_INFINITY, f64::max);
        let lines = bank.lines().len();
        let words = bank.words_per_line() as u32;
        let mut lut = FailureLut::new();
        t.span("sram.envelope", b as u64, |_| {
            for step in LADDER_MV {
                for line in 0..lines {
                    queries += 1;
                    if lut.negligible(bank, line, weakest + step, temperature, ENVELOPE_ACCESSES) {
                        skips += 1;
                    }
                }
            }
        });
        for step in LADDER_MV {
            for line in 0..lines {
                for word in 0..words {
                    lut.sample_word(bank, line, word, weakest + step, temperature, &mut rng);
                }
            }
        }
        t.span("sram.lut_sample", b as u64, |_| {
            for step in LADDER_MV {
                for line in 0..lines {
                    for word in 0..words {
                        for _ in 0..SAMPLES_PER_KEY {
                            let mask = lut.sample_word(
                                bank,
                                line,
                                word,
                                black_box(weakest + step),
                                temperature,
                                &mut rng,
                            );
                            if masks.len() < MAX_MASKS {
                                masks.push(mask);
                            }
                            samples += 1;
                        }
                    }
                }
            }
        });
    }
    let sample_ns: f64 = t.durations_ns("sram.lut_sample").iter().sum();
    out.layer(
        "sram.lut_sample_ns",
        sample_ns / samples.max(1) as f64,
        "ns",
    );
    out.layer(
        "sram.envelope_skip_ratio",
        skips as f64 / queries.max(1) as f64,
        "ratio",
    );

    let code = SecDed::hsiao_72_64();
    let words: Vec<u128> = masks
        .iter()
        .map(|m| code.inject_mask(code.encode(rng.next_u64()), *m))
        .collect();
    let passes = MIN_DECODES.div_ceil(words.len().max(1));
    t.span("ecc.decode", 0, |_| {
        for _ in 0..passes {
            for w in &words {
                black_box(code.decode(black_box(*w)));
            }
        }
    });
    let decode_ns: f64 = t.durations_ns("ecc.decode").iter().sum();
    out.layer(
        "ecc.decode_ns",
        decode_ns / (passes * words.len()).max(1) as f64,
        "ns",
    );
    out.line(format!(
        "probes: {samples} LUT samples over {} banks, {queries} envelope queries, {} decodes",
        banks.len(),
        passes * words.len()
    ));
}
