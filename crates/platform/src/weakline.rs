//! The chip's weak-line table: the `weak_lines_tracked` weakest lines of
//! each structure, ranked weakest first, as [`Chip::cell_bank`] serves
//! them.
//!
//! The ranking itself is [`vs_sram::CellBank`]'s and is checked against a
//! full scan there; these tests pin what a chip hands its callers.

#[cfg(test)]
mod tests {
    use crate::{Chip, ChipConfig};
    use vs_cache::CacheGeometry;
    use vs_types::{CacheKind, CoreId};

    fn small_config(seed: u64) -> ChipConfig {
        ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        }
    }

    #[test]
    fn table_sorted_and_sized() {
        let mut chip = Chip::new(small_config(77));
        for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
            let bank = chip.cell_bank(CoreId(0), kind);
            let g = CacheGeometry::for_kind(kind);
            assert_eq!(bank.lines().len(), 8, "{kind}");
            assert_eq!(bank.total_lines(), (g.sets * g.ways) as u64, "{kind}");
            assert_eq!(bank.words_per_line(), g.words_per_line(), "{kind}");
            assert!(bank
                .lines()
                .windows(2)
                .all(|w| w[0].weakest_vc_mv >= w[1].weakest_vc_mv));
            assert_eq!(bank.weakest(), &bank.lines()[0]);
        }
    }

    #[test]
    fn table_is_deterministic() {
        let mut a = Chip::new(small_config(77));
        let mut b = Chip::new(small_config(77));
        for core in [CoreId(0), CoreId(1)] {
            assert_eq!(
                *a.cell_bank(core, CacheKind::L2Data),
                *b.cell_bank(core, CacheKind::L2Data),
                "{core}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "`weak_lines_tracked` must be positive")]
    fn zero_k_rejected() {
        Chip::new(ChipConfig {
            weak_lines_tracked: 0,
            ..small_config(1)
        });
    }
}
