//! Sample statistics: nearest-rank percentiles that refuse a tail
//! percentile with fewer than ten samples beyond it, and self time of a
//! span over its (possibly overlapping) child spans.

/// Samples beyond a reported tail percentile, at minimum.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements of one quantity, e.g. request round trips in
/// microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie above its rank — a p99 needs at
    /// least 1,000 samples.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        // Nearest rank, 1-based: the smallest k with k/n >= q.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }

    /// The median (the lower middle for an even count), or `None` when
    /// empty.
    pub fn median(&self) -> Option<f64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[(n - 1) / 2])
    }
}

/// One campaign's latencies boiled down to what a run reports: the
/// count, the median and the p99, so that a run of many campaigns holds
/// a bounded record of each.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: Option<f64>,
    pub p99: Option<f64>,
}

impl Summary {
    pub fn of(samples: &Samples) -> Summary {
        Summary {
            n: samples.len(),
            p50: samples.median(),
            p99: samples.percentile(0.99),
        }
    }
}

/// A span's duration minus the part of `[start, end)` that its children
/// cover. Children may overlap each other and may spill past the parent;
/// only the covered part inside the parent counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        // Reverse order: percentiles must not depend on arrival order.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples(999).percentile(0.99), None);
        assert_eq!(samples(1000).percentile(0.99), Some(990.0));
        assert_eq!(samples(1500).percentile(0.99), Some(1485.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(samples(19).percentile(0.5), None);
        assert_eq!(samples(20).percentile(0.5), Some(10.0));
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn median_is_the_lower_middle() {
        assert_eq!(samples(5).median(), Some(3.0));
        assert_eq!(samples(4).median(), Some(2.0));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn self_time_without_children_is_the_whole_span() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // (10,40) and (30,60) overlap on (30,40); nested (35,38) adds
        // nothing.
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40), (35, 38)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(20, 60, &[(0, 30), (50, 90)]), 20);
        assert_eq!(self_time(20, 60, &[(0, 10), (70, 90)]), 40);
        assert_eq!(self_time(20, 60, &[(0, 100)]), 0);
    }
}
