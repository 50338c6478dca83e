//! Order statistics shared by every workload: the median and the tail
//! rule ("the highest percentile that has at least ten samples beyond
//! it").

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Consecutive samples per tail window. A long run's tail is the median
/// of its windows' tails (each window's p90), so one burst of host noise
/// moves one window, not the reading.
pub const TAIL_WINDOW: usize = 100;

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail reading: the value, the percentile it sits at, and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile, `100 · (n − 10) / n`; 100 when fewer than eleven
    /// samples exist and the maximum stands in.
    pub percentile: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Windows whose tails were combined (1: the whole distribution).
    pub windows: usize,
}

/// The tail of `xs`: the sample with exactly [`TAIL_BEYOND`] samples
/// ranked above it, i.e. the highest percentile that still has ten
/// samples beyond it. With fewer than eleven samples no percentile
/// qualifies and the maximum is reported at percentile 100.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
            windows: 1,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
            windows: 1,
        };
    }
    let rank = n - TAIL_BEYOND; // 1-based rank of the tail sample
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        windows: 1,
    }
}

/// The tail of a time-ordered sample stream: with at least two full
/// windows of [`TAIL_WINDOW`] samples, the median of the windows' tails
/// (a trailing partial window is left out); otherwise [`tail`].
pub fn windowed_tail(xs: &[f64]) -> Tail {
    if xs.len() < 2 * TAIL_WINDOW {
        return tail(xs);
    }
    let tails: Vec<Tail> = xs.chunks_exact(TAIL_WINDOW).map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Tail {
        value: median(&values),
        percentile: tails[0].percentile,
        samples: xs.len(),
        windows: tails.len(),
    }
}

/// Median and tail of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Median.
    pub p50: f64,
    /// Tail reading.
    pub tail: Tail,
}

impl Dist {
    /// Summarizes the time-ordered samples `xs`.
    pub fn of(xs: &[f64]) -> Dist {
        Dist {
            p50: median(xs),
            tail: windowed_tail(xs),
        }
    }

    /// `p50 …, p<pct> … (n=…)` in `unit`, for the human-readable lines.
    pub fn describe(&self, unit: &str) -> String {
        let windows = match self.tail.windows {
            1 => String::new(),
            w => format!(", tail = median of {w} windows of {TAIL_WINDOW}"),
        };
        format!(
            "p50 {:.3} {unit}, p{:.1} {:.3} {unit} (n={}{windows})",
            self.p50, self.tail.percentile, self.tail.value, self.tail.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 100 samples 1..=100: p90 is the 90th sample, and 91..=100 (ten
        // samples) lie beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|x| **x > t.value).count(), TAIL_BEYOND);

        // 1000 samples: the rule climbs to p99.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));

        // 25 samples: p60, the 15th.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile), (15.0, 60.0));
    }

    #[test]
    fn long_streams_take_the_median_of_window_tails() {
        // Three windows of 100 whose p90s are 90, 190 and 290.
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = windowed_tail(&xs);
        assert_eq!(
            (t.value, t.percentile, t.windows, t.samples),
            (190.0, 90.0, 3, 300)
        );
        // Below two windows the plain rule applies.
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed_tail(&xs), tail(&xs));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_below_eleven_samples() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.samples), (1.0, 11));
        assert!(tail(&[]).value.is_nan());
    }
}
