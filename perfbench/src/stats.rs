//! The benchmark's own arithmetic: percentiles under the tail rule,
//! span self time, and operation accounting.

/// Samples a reported percentile must leave beyond it: a percentile is
/// only reported when at least this many samples lie above it (below
/// it, for a percentile under the median).
pub const TAIL: usize = 10;

/// Samples strictly beyond nearest-rank percentile `q` of `n` samples:
/// above it for `q >= 0.5`, below it otherwise.
fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q >= 0.5 {
        n - rank
    } else {
        rank - 1
    }
}

/// Samples needed before percentile `q` (in `(0, 1)`) has [`TAIL`]
/// samples beyond it.
pub fn samples_for(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= TAIL).expect("some n")
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// A timing series: the samples of one measured operation.
#[derive(Clone, Default, Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Percentile `q` under the tail rule: `Err` names the shortfall
    /// when fewer than [`samples_for`]`(q)` samples were taken. The
    /// median is exempt (it needs one sample).
    pub fn pct(&self, q: f64) -> Result<f64, String> {
        if q != 0.5 && self.len() < samples_for(q) {
            return Err(format!(
                "p{} needs {} samples, have {}",
                (q * 100.0).round(),
                samples_for(q),
                self.len()
            ));
        }
        percentile(&self.sorted(), q).ok_or_else(|| "no samples".to_string())
    }

    pub fn median(&self) -> Result<f64, String> {
        self.pct(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }
}

/// Self time of a parent span `[start, end)`: its duration minus the
/// part of it covered by the union of its child spans (children may
/// overlap each other and stick out of the parent; only the covered
/// part inside the parent is subtracted).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = ps;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

/// Operations attempted and failed. An operation fails when its result
/// is wrong or missing: a verdict the benchmark knows to be false, a
/// report that does not verify, a scrape missing its series.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        assert!(failed <= n, "{failed} failures among {n} operations");
        self.attempted += n;
        self.failed += failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Samples {
        let mut s = Samples::default();
        // Reverse order: the percentile must sort.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_rule_sample_counts() {
        assert_eq!(samples_for(0.5), 20);
        assert_eq!(samples_for(0.9), 100);
        assert_eq!(samples_for(0.99), 1000);
        assert_eq!(samples_for(0.1), 101);
        assert_eq!(samples_for(0.01), 1001);
        // At exactly the floor, the percentile leaves TAIL samples beyond
        // it (below it for low percentiles); one sample fewer would leave
        // fewer.
        for q in [0.01, 0.1, 0.25, 0.75, 0.9, 0.95, 0.99] {
            let far = |v: &[f64], p: f64| {
                v.iter()
                    .filter(|&&x| if q >= 0.5 { x > p } else { x < p })
                    .count()
            };
            let n = samples_for(q);
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let p = percentile(&sorted, q).unwrap();
            assert!(far(&sorted, p) >= TAIL, "q={q} n={n}");
            let fewer = &sorted[..n - 1];
            let p = percentile(fewer, q).unwrap();
            assert!(far(fewer, p) < TAIL, "q={q}");
        }
    }

    #[test]
    fn percentiles_refuse_thin_tails() {
        assert!(series(99).pct(0.9).is_err());
        assert_eq!(series(100).pct(0.9), Ok(90.0));
        assert!(series(999).pct(0.99).is_err());
        assert_eq!(series(1000).pct(0.99), Ok(990.0));
        assert!(series(100).pct(0.1).is_err());
        assert_eq!(series(101).pct(0.1), Ok(11.0));
        assert_eq!(series(1).median(), Ok(1.0));
        assert_eq!(series(4).median(), Ok(2.0));
        assert!(Samples::default().median().is_err());
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 0.2), Some(10.0));
        assert_eq!(percentile(&v, 0.21), Some(20.0));
        assert_eq!(percentile(&v, 0.5), Some(30.0));
        assert_eq!(percentile(&v, 1.0), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        // No children: all self.
        assert_eq!(self_time((100, 200), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((100, 200), &[(110, 120), (150, 170)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_time((100, 200), &[(110, 140), (130, 160)]), 50);
        // Nested child inside another.
        assert_eq!(self_time((100, 200), &[(110, 190), (120, 130)]), 20);
        // Children sticking out are clipped to the parent.
        assert_eq!(self_time((100, 200), &[(50, 120), (180, 260)]), 60);
        // Children entirely outside do not count.
        assert_eq!(self_time((100, 200), &[(0, 100), (200, 300)]), 100);
        // Full cover leaves nothing.
        assert_eq!(self_time((100, 200), &[(100, 200)]), 0);
    }

    #[test]
    fn failed_share_accounting() {
        let mut ops = Ops::default();
        assert_eq!(ops.failed_share(), 0.0);
        for i in 0..10 {
            ops.record(i != 3);
        }
        assert_eq!(
            ops,
            Ops {
                attempted: 10,
                failed: 1
            }
        );
        ops.add(30, 0);
        assert_eq!(ops.attempted, 40);
        assert_eq!(ops.failed, 1);
        assert!((ops.failed_share() - 0.025).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn more_failures_than_operations_is_a_bug() {
        Ops::default().add(1, 2);
    }
}
