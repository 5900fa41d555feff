//! Median and quartile summary of a timing sample.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)` with its
//! default `exclusive` method, so the spread this benchmark reports is the
//! spread a reader recomputes from the same values.

/// The median, the first and third quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The median (the mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.  With one sample
    /// every statistic is that sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut data = samples.to_vec();
        data.sort_by(f64::total_cmp);
        let len = data.len();
        let median = match len {
            0 => return None,
            _ if len % 2 == 1 => data[len / 2],
            _ => (data[len / 2 - 1] + data[len / 2]) / 2.0,
        };
        let (q1, q3) = if len < 2 {
            (median, median)
        } else {
            (exclusive_quartile(&data, 1), exclusive_quartile(&data, 3))
        };
        Some(Summary {
            count: len,
            median,
            q1,
            q3,
        })
    }

    /// The interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The `i`-th of the three quartile cut points of sorted `data` (at least
/// two values), by the `exclusive` method of Python's `statistics.quantiles`.
fn exclusive_quartile(data: &[f64], i: usize) -> f64 {
    const N: i64 = 4;
    let len = data.len() as i64;
    let m = i as i64 * (len + 1);
    let j = (m / N).clamp(1, len - 1);
    // Negative when the clamp moved `j` up: the cut point extrapolates.
    let delta = (m - j * N) as f64;
    let (lo, hi) = (data[j as usize - 1], data[j as usize]);
    (lo * (N as f64 - delta) + hi * delta) / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_samples_have_no_summary() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn one_sample_is_every_statistic() {
        let s = Summary::of(&[2.5]).unwrap();
        assert_eq!((s.count, s.median, s.q1, s.q3), (1, 2.5, 2.5, 2.5));
        assert_eq!(s.iqr_share(), 0.0);
    }

    #[test]
    fn two_samples_match_python() {
        // statistics.quantiles([1.0, 3.0], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]).unwrap();
        assert_eq!((s.count, s.median, s.q1, s.q3), (2, 2.0, 0.5, 3.5));
        assert_eq!(s.iqr_share(), 1.5);
    }

    #[test]
    fn twenty_two_samples_match_python() {
        // statistics.quantiles(range(1, 23), n=4) == [5.75, 11.5, 17.25]
        let mut data: Vec<f64> = (1..=22).map(f64::from).collect();
        data.reverse();
        let s = Summary::of(&data).unwrap();
        assert_eq!((s.count, s.median, s.q1, s.q3), (22, 11.5, 5.75, 17.25));
        assert!((s.iqr_share() - 11.5 / 11.5).abs() < 1e-12);
    }
}
