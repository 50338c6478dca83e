//! Batched struct-of-arrays failure kernel.
//!
//! The historical sampling path recomputed each word's weak cells from the
//! chip seed on every access — two heap allocations and a handful of keyed
//! Gaussian draws per word, repeated three times per fleet job because
//! every [`ChipVariation`] consumer rebuilt the same tables. This module
//! replaces that with a build-once, sample-forever layout:
//!
//! * [`CellBank`] — the tracked weak lines of one structure of one core,
//!   flattened into struct-of-arrays `vc_mv`/`bit` slices. Building it
//!   performs the ranking scan **once**; afterwards every query is a slice
//!   walk with zero allocation. The bank is immutable and shareable
//!   (`Arc`) across the several simulator instances a fleet job creates
//!   for the same die.
//! * [`FailureLut`] — per-voltage-step lookup tables quantized on the
//!   regulator's discrete millivolt grid (and 1 °C temperature buckets):
//!   line-level `(clean, correctable, uncorrectable)` probability triples,
//!   and per-word *subset CDFs* that sample a whole word's flip outcome
//!   with a **single** RNG draw plus a short CDF walk, instead of one
//!   Bernoulli draw per tracked cell.
//! * an **envelope fast path** — [`FailureLut::negligible`] evaluates the
//!   line triple at the floor of the query voltage (a provable
//!   over-estimate, since failure probability is monotonically decreasing
//!   in voltage) and lets callers skip sampling entirely when the expected
//!   event count is below [`NEGLIGIBLE_EVENTS`].
//!
//! Equivalence contracts (enforced by property tests in the workspace):
//!
//! * [`CellBank::sample_word_exact`] consumes the **identical RNG draw
//!   sequence** and produces the identical flip set as the scalar
//!   [`AccessContext::sample_word_flips`] on the same cells;
//! * [`CellBank::line_probabilities`] reproduces the analytic
//!   [`line_read_probabilities`] path (including its 8-noise-width word
//!   cutoff) without allocating;
//! * the LUT path agrees with the analytic path within the quantization
//!   bound `0.5 / (4 · read_noise)` — half a millivolt of rounding times
//!   the logistic's maximum slope.

use crate::failure::AccessContext;
use crate::variation::{ChipVariation, WeakCell, WordCells, BITS_PER_WORD};
use std::collections::HashMap;
use vs_types::rng::CounterRng;
use vs_types::{CacheKind, Celsius, CoreId, FlipMask, SetWay, VddMode};

/// Largest number of tracked cells per word the batched kernel supports.
///
/// The subset CDFs enumerate `2^k` outcomes per word, so `k` is kept
/// small; the model default is 3.
pub const MAX_CELLS_PER_WORD: usize = 6;

/// Expected-event threshold under which the envelope fast path declares a
/// batch of accesses statistically invisible: below this, the probability
/// that even one error occurs over the batch is bounded by the same
/// number.
pub const NEGLIGIBLE_EVENTS: f64 = 1.0e-9;

/// Per-line metadata of one tracked weak line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankLine {
    /// Where the line lives in its structure.
    pub location: SetWay,
    /// Critical voltage of the line's single weakest cell, in millivolts.
    pub weakest_vc_mv: f64,
    /// Effective read-noise slope of the line (structure slope × per-line
    /// factor), in millivolts.
    pub read_noise_mv: f64,
}

/// The tracked weak lines of one structure of one core, in
/// struct-of-arrays layout.
///
/// Ranking and cell values are bit-identical to the scalar
/// `word_cells`-based scan: the bank is built from the same keyed RNG
/// streams, ranks lines by the same weakest-cell criterion with the same
/// stable tie order, and stores the same cells, just flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBank {
    core: CoreId,
    kind: CacheKind,
    mode: VddMode,
    cells_per_word: usize,
    words_per_line: usize,
    total_lines: u64,
    temp_coeff_mv_per_c: f64,
    lines: Vec<BankLine>,
    /// Critical voltages, `[line][word][cell]`, each word sorted weakest
    /// (highest) first.
    vc_mv: Vec<f64>,
    /// Codeword bit positions, parallel to `vc_mv`.
    bit: Vec<u32>,
}

impl CellBank {
    /// Scans one `sets × ways` structure and retains its `k_lines` weakest
    /// lines with full per-cell data.
    ///
    /// The scan ranks every line by the critical voltage of its weakest
    /// cell (first order statistic; the full per-cell computation only
    /// runs for the rare words whose top draw lands above the
    /// manufacturing screen), then materializes the survivors. Both passes
    /// reuse one scratch buffer — steady-state the build performs no
    /// allocation beyond the output arrays.
    ///
    /// # Panics
    ///
    /// Panics if `k_lines` or `words_per_line` is zero, or if the
    /// variation tracks more than [`MAX_CELLS_PER_WORD`] cells per word.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        variation: &ChipVariation,
        core: CoreId,
        kind: CacheKind,
        mode: VddMode,
        sets: usize,
        ways: usize,
        words_per_line: usize,
        k_lines: usize,
    ) -> CellBank {
        assert!(k_lines > 0, "bank must hold at least one line");
        assert!(words_per_line > 0, "a line has at least one word");
        let k = variation.params().weak_bits_per_word.max(1);
        assert!(
            k <= MAX_CELLS_PER_WORD && k as u64 <= BITS_PER_WORD,
            "batched kernel supports at most {MAX_CELLS_PER_WORD} tracked cells per word, got {k}"
        );
        let base_noise = variation.params().structure(kind, mode).read_noise_mv;
        let temp_coeff = variation.params().temp_coeff_mv_per_c;

        // First pass: rank all lines by their weakest cell. Iteration
        // order (sets outer, ways inner) and the stable descending sort
        // reproduce the scalar table scan exactly, ties included.
        let mut scratch: Vec<WeakCell> = Vec::with_capacity(k);
        let mut ranked: Vec<(SetWay, f64)> = Vec::with_capacity(sets * ways);
        for set in 0..sets {
            for way in 0..ways {
                let location = SetWay::new(set, way);
                let mu = variation.word_mu_mv(core, kind, location, mode);
                let mut line_max = f64::NEG_INFINITY;
                for word in 0..words_per_line as u32 {
                    let vc = variation.word_weakest_vc_mv(
                        mu,
                        core,
                        kind,
                        location,
                        word,
                        mode,
                        &mut scratch,
                    );
                    if vc > line_max {
                        line_max = vc;
                    }
                }
                ranked.push((location, line_max));
            }
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite voltages"));
        ranked.truncate(k_lines);

        // Second pass: materialize full cell data for the survivors.
        let mut lines = Vec::with_capacity(ranked.len());
        let mut vc_mv = Vec::with_capacity(ranked.len() * words_per_line * k);
        let mut bit = Vec::with_capacity(vc_mv.capacity());
        for (location, weakest_vc_mv) in ranked {
            let mu = variation.word_mu_mv(core, kind, location, mode);
            for word in 0..words_per_line as u32 {
                variation.word_cells_into(mu, core, kind, location, word, mode, &mut scratch);
                debug_assert_eq!(scratch.len(), k);
                for cell in &scratch {
                    vc_mv.push(cell.vc_mv);
                    bit.push(cell.bit);
                }
            }
            lines.push(BankLine {
                location,
                weakest_vc_mv,
                read_noise_mv: base_noise * variation.line_noise_factor(core, kind, location),
            });
        }

        CellBank {
            core,
            kind,
            mode,
            cells_per_word: k,
            words_per_line,
            total_lines: (sets * ways) as u64,
            temp_coeff_mv_per_c: temp_coeff,
            lines,
            vc_mv,
            bit,
        }
    }

    /// The core this bank belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The structure this bank describes.
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// The operating mode the cells were derived for.
    pub fn mode(&self) -> VddMode {
        self.mode
    }

    /// Tracked cells per word.
    pub fn cells_per_word(&self) -> usize {
        self.cells_per_word
    }

    /// ECC words per line.
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// Total lines in the underlying structure (not just the tracked
    /// ones), for traffic-per-line computations.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// The chip's temperature coefficient, in millivolts per °C.
    pub fn temp_coeff_mv_per_c(&self) -> f64 {
        self.temp_coeff_mv_per_c
    }

    /// The tracked lines, weakest first.
    pub fn lines(&self) -> &[BankLine] {
        &self.lines
    }

    /// The weakest tracked line: the one calibration designates for
    /// monitoring, whose `weakest_vc_mv` is the structure's first-error
    /// voltage.
    pub fn weakest(&self) -> &BankLine {
        &self.lines[0]
    }

    /// Index of the tracked line at `location`, if it is tracked.
    pub fn find(&self, location: SetWay) -> Option<usize> {
        self.lines.iter().position(|l| l.location == location)
    }

    /// The critical voltages of one word's tracked cells, weakest first.
    #[inline]
    pub fn word_vcs(&self, line: usize, word: u32) -> &[f64] {
        let base = (line * self.words_per_line + word as usize) * self.cells_per_word;
        &self.vc_mv[base..base + self.cells_per_word]
    }

    /// The codeword bit positions of one word's tracked cells, parallel to
    /// [`CellBank::word_vcs`].
    #[inline]
    pub fn word_bits(&self, line: usize, word: u32) -> &[u32] {
        let base = (line * self.words_per_line + word as usize) * self.cells_per_word;
        &self.bit[base..base + self.cells_per_word]
    }

    /// An [`AccessContext`] for reads of one tracked line.
    pub fn context(&self, line: usize, v_eff_mv: f64, temperature: Celsius) -> AccessContext {
        AccessContext {
            v_eff_mv,
            temperature,
            read_noise_mv: self.lines[line].read_noise_mv,
            temp_coeff_mv_per_c: self.temp_coeff_mv_per_c,
        }
    }

    /// Materializes one word as a [`WordCells`] (allocates; for tests that
    /// compare the bank against the scalar per-word path).
    pub fn word_cells(&self, line: usize, word: u32) -> WordCells {
        let cells = self
            .word_vcs(line, word)
            .iter()
            .zip(self.word_bits(line, word))
            .map(|(&vc_mv, &bit)| WeakCell { bit, vc_mv })
            .collect();
        WordCells::new(cells)
    }

    /// Samples one read of a tracked word, consuming the **identical RNG
    /// draw sequence** as the scalar
    /// [`AccessContext::sample_word_flips`] on the same cells: one
    /// Bernoulli draw per cell until the flip probability falls below
    /// 1e-9, weakest cell first.
    pub fn sample_word_exact(
        &self,
        line: usize,
        word: u32,
        ctx: &AccessContext,
        rng: &mut CounterRng,
    ) -> FlipMask {
        let vcs = self.word_vcs(line, word);
        let bits = self.word_bits(line, word);
        let mut flipped = FlipMask::EMPTY;
        for (vc, &bit) in vcs.iter().zip(bits) {
            let p = ctx.flip_probability(*vc);
            if p < 1.0e-9 {
                break;
            }
            if rng.bernoulli(p) {
                flipped.set(bit);
            }
        }
        flipped
    }

    /// Probabilities that one read of a tracked word yields `(no error,
    /// exactly one flip, two or more flips)` — same arithmetic as
    /// [`word_failure_probabilities`](crate::word_failure_probabilities),
    /// without allocating.
    pub fn word_probabilities(
        &self,
        line: usize,
        word: u32,
        ctx: &AccessContext,
    ) -> (f64, f64, f64) {
        let vcs = self.word_vcs(line, word);
        let mut ps = [0.0_f64; MAX_CELLS_PER_WORD];
        for (slot, vc) in ps.iter_mut().zip(vcs) {
            *slot = ctx.flip_probability(*vc);
        }
        word_probabilities_from(&ps[..vcs.len()])
    }

    /// Probability split `(clean, correctable, uncorrectable)` for one
    /// read of a whole tracked line — the alloc-free equivalent of
    /// [`line_read_probabilities`](crate::line_read_probabilities) over
    /// the line's words, with an 8-noise-width word cutoff.
    pub fn line_probabilities(
        &self,
        line: usize,
        v_eff_mv: f64,
        temperature: Celsius,
    ) -> (f64, f64, f64) {
        let ctx = self.context(line, v_eff_mv, temperature);
        // Words whose weakest cell is far below the rail cannot
        // contribute; skip them (8 noise-widths is ~1e-8 flip
        // probability).
        let cutoff = v_eff_mv - 8.0 * self.lines[line].read_noise_mv;
        let mut any = false;
        let mut p_all_clean = 1.0;
        let mut p_no_uncorrectable = 1.0;
        let mut ps = [0.0_f64; MAX_CELLS_PER_WORD];
        for word in 0..self.words_per_line as u32 {
            let vcs = self.word_vcs(line, word);
            if vcs[0] < cutoff {
                continue;
            }
            any = true;
            for (slot, vc) in ps.iter_mut().zip(vcs) {
                *slot = ctx.flip_probability(*vc);
            }
            let (p0, p1, _) = word_probabilities_from(&ps[..vcs.len()]);
            p_all_clean *= p0;
            p_no_uncorrectable *= p0 + p1;
        }
        if !any {
            return (1.0, 0.0, 0.0);
        }
        let p_correctable = (p_no_uncorrectable - p_all_clean).max(0.0);
        let p_uncorrectable = (1.0 - p_no_uncorrectable).max(0.0);
        (p_all_clean, p_correctable, p_uncorrectable)
    }
}

/// `(no error, exactly one, two or more)` flip probabilities of one word
/// from its per-cell flip probabilities — the same operation order as the
/// allocating [`word_failure_probabilities`](crate::word_failure_probabilities).
fn word_probabilities_from(ps: &[f64]) -> (f64, f64, f64) {
    let mut p_none = 1.0;
    for p in ps {
        p_none *= 1.0 - p;
    }
    let mut p_one = 0.0;
    for (i, pi) in ps.iter().enumerate() {
        let mut prod = 1.0;
        for (j, pj) in ps.iter().enumerate() {
            if j != i {
                prod *= 1.0 - pj;
            }
        }
        p_one += pi * prod;
    }
    let p_multi = (1.0 - p_none - p_one).max(0.0);
    (p_none, p_one, p_multi)
}

/// Cumulative distribution over the `2^k` flip subsets of one word at one
/// quantized operating point.
#[derive(Debug, Clone)]
struct WordCdf {
    cdf: [f64; 1 << MAX_CELLS_PER_WORD],
    outcomes: usize,
}

/// Per-voltage-step failure lookup tables for one [`CellBank`].
///
/// Keys quantize the query point onto the regulator's discrete millivolt
/// grid (`v.round()`) and 1 °C temperature buckets; the worst-case
/// probability error of the rounding is `0.5 / (4 · read_noise_mv)` — the
/// logistic's maximum slope times half a step. Entries are computed
/// lazily and live until [`FailureLut::invalidate`] is called (required
/// whenever the effective cell voltages shift, e.g. on aging or
/// recalibration-epoch changes).
#[derive(Debug, Default)]
pub struct FailureLut {
    epoch: u64,
    line_probs: HashMap<(u32, i32, i16), (f64, f64, f64)>,
    word_cdfs: HashMap<(u32, u32, i32, i16), WordCdf>,
}

impl FailureLut {
    /// Creates an empty table set.
    pub fn new() -> FailureLut {
        FailureLut::default()
    }

    /// How many times the tables have been invalidated; consumers can use
    /// this to detect that derived state needs refreshing.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cached entries `(line triples, word CDFs)`.
    pub fn len(&self) -> (usize, usize) {
        (self.line_probs.len(), self.word_cdfs.len())
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.line_probs.is_empty() && self.word_cdfs.is_empty()
    }

    /// Drops every cached entry and bumps the epoch. Call when the
    /// underlying cell voltages move (aging applied, recalibration).
    pub fn invalidate(&mut self) {
        self.line_probs.clear();
        self.word_cdfs.clear();
        self.epoch += 1;
    }

    /// Quantizes a query point onto the LUT grid.
    #[inline]
    pub fn quantize(v_eff_mv: f64, temperature: Celsius) -> (i32, i16) {
        (v_eff_mv.round() as i32, temperature.0.round() as i16)
    }

    /// The `(clean, correctable, uncorrectable)` triple for one read of a
    /// tracked line at the quantized operating point.
    pub fn line_probabilities(
        &mut self,
        bank: &CellBank,
        line: usize,
        v_eff_mv: f64,
        temperature: Celsius,
    ) -> (f64, f64, f64) {
        let (mv_q, temp_q) = Self::quantize(v_eff_mv, temperature);
        *self
            .line_probs
            .entry((line as u32, mv_q, temp_q))
            .or_insert_with(|| {
                bank.line_probabilities(line, f64::from(mv_q), Celsius(f64::from(temp_q)))
            })
    }

    /// Samples one read of a tracked word with a **single RNG draw**: the
    /// word's flip-subset CDF at the quantized operating point is walked
    /// once and the chosen subset is returned as a mask.
    ///
    /// Compared with the exact path this trades the per-cell Bernoulli
    /// sequence for one draw; outcome *frequencies* agree with the
    /// analytic probabilities at the quantized point exactly.
    pub fn sample_word(
        &mut self,
        bank: &CellBank,
        line: usize,
        word: u32,
        v_eff_mv: f64,
        temperature: Celsius,
        rng: &mut CounterRng,
    ) -> FlipMask {
        let (mv_q, temp_q) = Self::quantize(v_eff_mv, temperature);
        let cdf = self
            .word_cdfs
            .entry((line as u32, word, mv_q, temp_q))
            .or_insert_with(|| {
                build_word_cdf(
                    bank,
                    line,
                    word,
                    f64::from(mv_q),
                    Celsius(f64::from(temp_q)),
                )
            });
        let r = rng.next_f64();
        let mut subset = 0usize;
        while cdf.cdf[subset] <= r && subset + 1 < cdf.outcomes {
            subset += 1;
        }
        let bits = bank.word_bits(line, word);
        let mut mask = FlipMask::EMPTY;
        for (j, &bit) in bits.iter().enumerate() {
            if subset & (1 << j) != 0 {
                mask.set(bit);
            }
        }
        mask
    }

    /// Envelope fast path: true when `accesses` reads of the line are
    /// statistically invisible — the expected error count, evaluated
    /// **conservatively** at `floor(v_eff)` mV and `ceil(T)` °C (failure
    /// probability is monotone decreasing in voltage and increasing in
    /// temperature, so the rounded corner over-estimates it), stays below
    /// [`NEGLIGIBLE_EVENTS`].
    ///
    /// Callers that skip sampling on this signal stay within that bound
    /// of the slow path's distribution: the probability that the skipped
    /// batch would have produced *any* event is itself below the
    /// threshold.
    pub fn negligible(
        &mut self,
        bank: &CellBank,
        line: usize,
        v_eff_mv: f64,
        temperature: Celsius,
        accesses: f64,
    ) -> bool {
        // The conservative corner lands exactly on the grid, so reuse the
        // cached triples.
        let (_, p_ce, p_ue) =
            self.line_probabilities(bank, line, v_eff_mv.floor(), Celsius(temperature.0.ceil()));
        (p_ce + p_ue) * accesses < NEGLIGIBLE_EVENTS
    }
}

/// Enumerates the `2^k` flip subsets of one word at one operating point
/// and accumulates their probabilities into a CDF.
fn build_word_cdf(
    bank: &CellBank,
    line: usize,
    word: u32,
    v_eff_mv: f64,
    temperature: Celsius,
) -> WordCdf {
    let ctx = bank.context(line, v_eff_mv, temperature);
    let vcs = bank.word_vcs(line, word);
    let k = vcs.len();
    let mut ps = [0.0_f64; MAX_CELLS_PER_WORD];
    for (slot, vc) in ps.iter_mut().zip(vcs) {
        *slot = ctx.flip_probability(*vc);
    }
    let outcomes = 1usize << k;
    let mut cdf = [0.0_f64; 1 << MAX_CELLS_PER_WORD];
    let mut acc = 0.0;
    for (subset, slot) in cdf.iter_mut().enumerate().take(outcomes) {
        let mut p = 1.0;
        for (j, pj) in ps.iter().enumerate().take(k) {
            p *= if subset & (1 << j) != 0 {
                *pj
            } else {
                1.0 - pj
            };
        }
        acc += p;
        *slot = acc;
    }
    // Absorb floating-point residue so every draw in [0, 1) lands.
    cdf[outcomes - 1] = 1.0;
    WordCdf { cdf, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::line_read_probabilities;
    use crate::params::SramParams;

    const SETS: usize = 64;
    const WAYS: usize = 4;
    const WORDS: usize = 16;

    fn variation() -> ChipVariation {
        ChipVariation::new(77, SramParams::default())
    }

    fn bank() -> CellBank {
        CellBank::build(
            &variation(),
            CoreId(0),
            CacheKind::L2Data,
            VddMode::LowVoltage,
            SETS,
            WAYS,
            WORDS,
            8,
        )
    }

    #[test]
    fn bank_matches_scalar_scan() {
        let v = variation();
        let b = bank();
        assert_eq!(b.lines().len(), 8);
        assert_eq!(b.total_lines(), (SETS * WAYS) as u64);
        // Lines sorted weakest first.
        assert!(b
            .lines()
            .windows(2)
            .all(|w| w[0].weakest_vc_mv >= w[1].weakest_vc_mv));
        // Every stored word is bit-identical to the scalar computation.
        for (li, line) in b.lines().iter().enumerate() {
            for word in 0..WORDS as u32 {
                let scalar = v.word_cells(
                    CoreId(0),
                    CacheKind::L2Data,
                    line.location,
                    word,
                    VddMode::LowVoltage,
                );
                assert_eq!(b.word_cells(li, word), scalar);
            }
            let noise = v
                .params()
                .structure(CacheKind::L2Data, VddMode::LowVoltage)
                .read_noise_mv
                * v.line_noise_factor(CoreId(0), CacheKind::L2Data, line.location);
            assert_eq!(line.read_noise_mv, noise);
        }
    }

    /// Full-scan reference for the bank's top-k selection: every line's
    /// weakest cell from the scalar per-word path, stable-sorted
    /// descending, truncated to `k`.
    fn reference_ranking(
        v: &ChipVariation,
        core: CoreId,
        kind: CacheKind,
        mode: VddMode,
        (sets, ways, words): (usize, usize, usize),
        k: usize,
    ) -> Vec<(SetWay, f64)> {
        let mut ranked = Vec::with_capacity(sets * ways);
        for set in 0..sets {
            for way in 0..ways {
                let location = SetWay::new(set, way);
                let line_max = (0..words as u32)
                    .map(|w| v.word_cells(core, kind, location, w, mode).weakest().vc_mv)
                    .fold(f64::NEG_INFINITY, f64::max);
                ranked.push((location, line_max));
            }
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite voltages"));
        ranked.truncate(k);
        ranked
    }

    #[test]
    fn bank_ranking_matches_full_scan() {
        let cases = [
            // (seed, core, kind, mode, (sets, ways, words), k)
            (
                77,
                CoreId(0),
                CacheKind::L2Data,
                VddMode::LowVoltage,
                (SETS, WAYS, WORDS),
                8,
            ),
            // The full L2D geometry, as a chip builds it.
            (
                5,
                CoreId(0),
                CacheKind::L2Data,
                VddMode::LowVoltage,
                (256, 8, 16),
                8,
            ),
            (
                9,
                CoreId(1),
                CacheKind::L2Instruction,
                VddMode::Nominal,
                (32, 8, 16),
                1,
            ),
            // More lines requested than the structure has: all of them.
            (
                3,
                CoreId(2),
                CacheKind::L2Data,
                VddMode::LowVoltage,
                (4, 2, 16),
                16,
            ),
        ];
        for (seed, core, kind, mode, (sets, ways, words), k) in cases {
            let v = ChipVariation::new(seed, SramParams::default());
            let b = CellBank::build(&v, core, kind, mode, sets, ways, words, k);
            let want = reference_ranking(&v, core, kind, mode, (sets, ways, words), k);
            let got: Vec<(SetWay, f64)> = b
                .lines()
                .iter()
                .map(|l| (l.location, l.weakest_vc_mv))
                .collect();
            assert_eq!(got, want, "seed {seed} {kind}");
            assert_eq!(b.lines().len(), k.min(sets * ways));
            assert_eq!(b.total_lines(), (sets * ways) as u64);
            assert_eq!(b.weakest(), &b.lines()[0]);
            // The build is a pure function of the seed.
            assert_eq!(
                b,
                CellBank::build(&v, core, kind, mode, sets, ways, words, k)
            );
        }
    }

    #[test]
    fn banks_differ_between_cores() {
        let v = variation();
        let build = |core| {
            CellBank::build(
                &v,
                core,
                CacheKind::L2Data,
                VddMode::LowVoltage,
                SETS,
                WAYS,
                WORDS,
                4,
            )
        };
        assert_ne!(
            build(CoreId(0)).weakest().location,
            build(CoreId(1)).weakest().location,
            "weak lines vary from core to core (paper §II-D); if this \
             fails the seed happened to collide — pick another"
        );
    }

    #[test]
    fn probabilities_behave_with_voltage() {
        let b = bank();
        let vc = b.weakest().weakest_vc_mv;
        let temp = Celsius(50.0);
        // Far above the weak cell: clean.
        let (pc, pe, pu) = b.line_probabilities(0, vc + 80.0, temp);
        assert!(pc > 0.999, "clean far above Vc, got {pc}");
        assert_eq!((pe, pu), (0.0, 0.0));
        // At the weak cell: ~half the reads err.
        let (_, pe, _) = b.line_probabilities(0, vc, temp);
        assert!((0.3..0.7).contains(&pe), "p(correctable) at Vc, got {pe}");
        // Monotone increase as voltage falls.
        let mut prev = 0.0;
        for dv in (0..60).step_by(5) {
            let (_, pe, pu) = b.line_probabilities(0, vc + 30.0 - f64::from(dv), temp);
            let total = pe + pu;
            assert!(total >= prev - 1e-9);
            prev = total;
        }
    }

    #[test]
    fn uncorrectable_needs_two_cells_in_one_word() {
        // At voltages just below the weakest cell, UE probability must be
        // tiny: the second-weakest cell of that word is far lower. This is
        // the physical basis of the paper's safe speculation band.
        let b = bank();
        let (_, _, pu) = b.line_probabilities(0, b.weakest().weakest_vc_mv - 10.0, Celsius(50.0));
        assert!(pu < 0.01, "UE probability just below first error: {pu}");
    }

    #[test]
    fn weakest_shortcut_equals_full_computation() {
        // The ranking shortcut must return exactly the weakest cell's
        // voltage for every word, screened or not.
        let v = variation();
        let mut scratch = Vec::new();
        for set in 0..SETS {
            for way in 0..WAYS {
                let loc = SetWay::new(set, way);
                let mu = v.word_mu_mv(CoreId(1), CacheKind::L2Data, loc, VddMode::LowVoltage);
                for word in 0..WORDS as u32 {
                    let fast = v.word_weakest_vc_mv(
                        mu,
                        CoreId(1),
                        CacheKind::L2Data,
                        loc,
                        word,
                        VddMode::LowVoltage,
                        &mut scratch,
                    );
                    let full = v
                        .word_cells(CoreId(1), CacheKind::L2Data, loc, word, VddMode::LowVoltage)
                        .weakest()
                        .vc_mv;
                    assert_eq!(fast, full, "set {set} way {way} word {word}");
                }
            }
        }
    }

    #[test]
    fn exact_sampler_replays_scalar_draw_sequence() {
        let b = bank();
        let ctx = b.context(0, b.lines()[0].weakest_vc_mv - 3.0, Celsius(50.0));
        let mut rng_a = CounterRng::from_key(5, &[9]);
        let mut rng_b = CounterRng::from_key(5, &[9]);
        for word in 0..WORDS as u32 {
            for _ in 0..200 {
                let batched = b.sample_word_exact(0, word, &ctx, &mut rng_a);
                let scalar = ctx.sample_word_flips(&b.word_cells(0, word), &mut rng_b);
                assert_eq!(batched, scalar);
            }
        }
        // Streams stayed in lockstep throughout.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn line_probabilities_match_allocating_path() {
        let b = bank();
        for li in 0..b.lines().len() {
            let line = &b.lines()[li];
            for dv in [-20.0, -5.0, 0.0, 4.0, 15.0, 60.0] {
                let v_eff = line.weakest_vc_mv + dv;
                let got = b.line_probabilities(li, v_eff, Celsius(50.0));
                let ctx = b.context(li, v_eff, Celsius(50.0));
                let cutoff = v_eff - 8.0 * line.read_noise_mv;
                let words: Vec<WordCells> = (0..WORDS as u32)
                    .map(|w| b.word_cells(li, w))
                    .filter(|w| w.weakest().vc_mv >= cutoff)
                    .collect();
                let want = if words.is_empty() {
                    (1.0, 0.0, 0.0)
                } else {
                    line_read_probabilities(&words, &ctx)
                };
                assert_eq!(got, want, "line {li} dv {dv}");
            }
        }
    }

    #[test]
    fn lut_sampling_matches_analytic_frequencies() {
        let b = bank();
        let mut lut = FailureLut::new();
        let v_eff = b.lines()[0].weakest_vc_mv - 1.0;
        let (word, _) = (0..WORDS as u32)
            .map(|w| (w, b.word_vcs(0, w)[0]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        // Analytic probabilities at the quantized point.
        let (mv_q, t_q) = FailureLut::quantize(v_eff, Celsius(50.0));
        let ctx = b.context(0, f64::from(mv_q), Celsius(f64::from(t_q)));
        let (p0, p1, p2) = b.word_probabilities(0, word, &ctx);
        let mut rng = CounterRng::from_key(123, &[]);
        let trials = 200_000;
        let (mut zeros, mut ones, mut multis) = (0, 0, 0);
        for _ in 0..trials {
            match lut
                .sample_word(&b, 0, word, v_eff, Celsius(50.0), &mut rng)
                .count()
            {
                0 => zeros += 1,
                1 => ones += 1,
                _ => multis += 1,
            }
        }
        let n = trials as f64;
        assert!((zeros as f64 / n - p0).abs() < 0.01);
        assert!((ones as f64 / n - p1).abs() < 0.01);
        assert!((multis as f64 / n - p2).abs() < 0.005);
        // One cached CDF, one draw per sample.
        assert_eq!(lut.len().1, 1);
    }

    #[test]
    fn lut_sampler_consumes_one_draw() {
        let b = bank();
        let mut lut = FailureLut::new();
        let mut rng = CounterRng::from_key(4, &[]);
        let mut reference = CounterRng::from_key(4, &[]);
        let _ = lut.sample_word(&b, 0, 0, 700.0, Celsius(50.0), &mut rng);
        let _ = reference.next_f64();
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn lut_quantization_error_is_bounded() {
        let b = bank();
        let mut lut = FailureLut::new();
        for li in 0..b.lines().len() {
            let line = &b.lines()[li];
            // Worst-case slope of the logistic is 1/(4*noise) per mV; the
            // grid rounds by at most 0.5 mV. The line aggregates
            // words_per_line words, so allow the per-word bound times the
            // word count (union bound).
            let tol = 0.5 / (4.0 * line.read_noise_mv) * WORDS as f64 + 1e-12;
            for dv in [-7.3, -2.1, -0.49, 0.26, 3.7, 11.2] {
                let v_eff = line.weakest_vc_mv + dv;
                let exact = b.line_probabilities(li, v_eff, Celsius(50.0));
                let quant = lut.line_probabilities(&b, li, v_eff, Celsius(50.0));
                assert!(
                    (exact.1 - quant.1).abs() <= tol && (exact.2 - quant.2).abs() <= tol,
                    "line {li} dv {dv}: exact {exact:?} vs quantized {quant:?}"
                );
            }
        }
    }

    #[test]
    fn negligible_is_conservative() {
        let b = bank();
        let mut lut = FailureLut::new();
        let line = &b.lines()[0];
        // Far above the weakest cell: clearly negligible.
        assert!(lut.negligible(&b, 0, line.weakest_vc_mv + 80.0, Celsius(50.0), 1e6));
        // At the weakest cell: clearly not.
        assert!(!lut.negligible(&b, 0, line.weakest_vc_mv, Celsius(50.0), 1.0));
        // Whenever the envelope declares a batch negligible, the true
        // expected event count (at the unquantized voltage) is below the
        // threshold too.
        for dv in (0..120).map(f64::from) {
            let v_eff = line.weakest_vc_mv + dv / 2.0 + 0.37;
            if lut.negligible(&b, 0, v_eff, Celsius(50.0), 1000.0) {
                let (_, p_ce, p_ue) = b.line_probabilities(0, v_eff, Celsius(50.0));
                assert!(
                    (p_ce + p_ue) * 1000.0 < NEGLIGIBLE_EVENTS,
                    "envelope accepted dv {dv} but true rate is visible"
                );
            }
        }
    }

    #[test]
    fn invalidate_clears_and_bumps_epoch() {
        let b = bank();
        let mut lut = FailureLut::new();
        let _ = lut.line_probabilities(&b, 0, 700.0, Celsius(50.0));
        let mut rng = CounterRng::from_key(1, &[]);
        let _ = lut.sample_word(&b, 0, 0, 700.0, Celsius(50.0), &mut rng);
        assert!(!lut.is_empty());
        assert_eq!(lut.epoch(), 0);
        lut.invalidate();
        assert!(lut.is_empty());
        assert_eq!(lut.epoch(), 1);
    }

    #[test]
    fn find_locates_tracked_lines() {
        let b = bank();
        for (i, line) in b.lines().iter().enumerate() {
            assert_eq!(b.find(line.location), Some(i));
        }
        // A location that can't be tracked (outside the geometry).
        assert_eq!(b.find(SetWay::new(SETS + 1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_rejected() {
        CellBank::build(
            &variation(),
            CoreId(0),
            CacheKind::L2Data,
            VddMode::LowVoltage,
            4,
            2,
            16,
            0,
        );
    }
}
