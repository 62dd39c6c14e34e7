//! Order statistics, tail selection and the rate-ladder search.

/// Median of `xs` (mean of the middle pair for even lengths); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v.swap_remove(n / 2)
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles with the same "exclusive" method as
/// Python's `statistics.quantiles(xs, n=4)`. Needs at least 2 values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |j: usize| {
        // Exclusive method: position j*(n+1)/4, 1-based, clamped.
        let m = n + 1;
        let (idx, rem) = ((j * m) / 4, (j * m) % 4);
        let lo = idx.clamp(1, n - 1);
        let delta = if idx < 1 {
            0.0
        } else if idx > n - 1 {
            1.0
        } else {
            rem as f64 / 4.0
        };
        v[lo - 1] + (v[lo] - v[lo - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `+inf` samples (missed epochs) sort last.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

/// Samples ranked strictly beyond the nearest-rank `p`th percentile.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest whole percentile of `n` samples that still has at
/// least `min_beyond` samples ranked beyond it; `None` when even the
/// 1st percentile has too few.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (1..100).rev().find(|&p| beyond(n, p) >= min_beyond)
}

fn rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Outcome of one rung of the offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered events per second.
    pub rate: f64,
    /// Tail verdict latency at this rate, ms (`+inf` if an epoch never
    /// arrived).
    pub tail_ms: f64,
    /// Whether the rung met the latency limit without a growing backlog.
    pub ok: bool,
}

/// One ramp epoch as measured: the rate offered during it, its verdict
/// latency (`+inf` if it never arrived), and the worst generator
/// lateness while it ran.
pub struct Measured {
    pub rate: f64,
    pub latency_ms: f64,
    pub late_ms: f64,
}

/// Climbs a ramp of measured epochs, in ascending rate order, to its
/// knee: the first epoch from which every later one misses `limit_ms`
/// or ran its generator more than `late_bound_ms` behind schedule. The
/// offered rate rises every epoch and a backlog carries over, so past
/// the knee the backlog grows and never drains; a miss that recovers
/// later was a spike, not the knee. Returns the epochs up to and
/// including the knee, all but the knee marked sustained (all of them
/// when the last epoch passes).
pub fn climb(measured: &[Measured], limit_ms: f64, late_bound_ms: f64) -> Vec<Rung> {
    let passes = |m: &Measured| m.latency_ms <= limit_ms && m.late_ms <= late_bound_ms;
    let knee = measured.iter().rposition(passes).map_or(0, |i| i + 1);
    measured
        .iter()
        .take(knee + 1)
        .enumerate()
        .map(|(i, m)| Rung {
            rate: m.rate,
            tail_ms: m.latency_ms,
            ok: i < knee,
        })
        .collect()
}

/// The sustained rate a climb supports: the rate at which the tail
/// latency reaches `limit_ms`, interpolated on log rate between the
/// highest passing rung (or `floor`) and the lowest failing one (or
/// `ceiling`, the closed-loop capacity, when no probed rung failed), so
/// the answer moves smoothly between rungs instead of snapping to them.
pub fn sustained_rate(rungs: &[Rung], floor: f64, ceiling: f64, limit_ms: f64) -> f64 {
    let lo = rungs.iter().rev().find(|r| r.ok);
    let hi = rungs.iter().find(|r| !r.ok);
    // A passing rung may have spiked past the limit and recovered.
    let (lo_rate, lo_ms) = lo.map_or((floor, 0.0), |r| (r.rate, r.tail_ms.min(limit_ms)));
    let (hi_rate, frac) = match hi {
        Some(h) if h.tail_ms.is_finite() && h.tail_ms > limit_ms => {
            (h.rate, (limit_ms - lo_ms) / (h.tail_ms - lo_ms))
        }
        // A missing epoch, or a miss from generator lateness alone, has
        // no latency to interpolate on: take the log midpoint.
        Some(h) => (h.rate, 0.5),
        None => (ceiling.max(lo_rate), 0.5),
    };
    (lo_rate.ln() + frac * (hi_rate.ln() - lo_rate.ln())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [1.0, 1.5, 2.0]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((1.0, 2.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 10.0);
        assert_eq!(percentile(&xs, 90), 18.0);
        assert_eq!(percentile(&xs, 100), 20.0);
        assert_eq!(percentile(&xs, 1), 1.0);
        // A missed epoch (+inf) is the worst sample, never dropped.
        let mut with_miss = xs.clone();
        with_miss[3] = f64::INFINITY;
        assert_eq!(percentile(&with_miss, 100), f64::INFINITY);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(100, 91), 9);
        assert_eq!(tail_percentile(32, 10), Some(68));
        assert_eq!(beyond(32, 68), 10);
        assert_eq!(beyond(32, 69), 9);
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(10, 10), None);
        assert_eq!(tail_percentile(11, 10), Some(9));
    }

    fn rung(rate: f64, tail_ms: f64, limit: f64) -> Rung {
        Rung {
            rate,
            tail_ms,
            ok: tail_ms <= limit,
        }
    }

    fn ramp(latency_ms: &[f64]) -> Vec<Measured> {
        latency_ms
            .iter()
            .enumerate()
            .map(|(i, &latency_ms)| Measured {
                rate: 20e3 * 1.1f64.powi(i as i32 + 1),
                latency_ms,
                late_ms: 1.0,
            })
            .collect()
    }

    #[test]
    fn climb_stops_at_the_knee_not_at_a_spike() {
        let limit = 100.0;
        // A spike at the second epoch recovers; from the fifth on every
        // epoch misses: the knee is the fifth.
        let rungs = climb(
            &ramp(&[40.0, 130.0, 45.0, 60.0, 110.0, 180.0, 260.0]),
            limit,
            50.0,
        );
        assert_eq!(rungs.len(), 5);
        assert!(rungs[..4].iter().all(|r| r.ok));
        assert!(!rungs[4].ok);
        // The last epoch passing means no knee: every epoch sustained.
        let rungs = climb(&ramp(&[40.0, 130.0, 45.0]), limit, 50.0);
        assert!(rungs.len() == 3 && rungs.iter().all(|r| r.ok));
        // A missing epoch misses; so does a generator behind schedule.
        let rungs = climb(&ramp(&[40.0, f64::INFINITY]), limit, 50.0);
        assert!(!rungs[1].ok);
        let mut late = ramp(&[40.0, 41.0]);
        late[1].late_ms = 80.0;
        assert!(!climb(&late, limit, 50.0)[1].ok);
        // Missing from the start: the knee is the first epoch.
        let rungs = climb(&ramp(&[150.0, 200.0]), limit, 50.0);
        assert_eq!(rungs.len(), 1);
        assert!(!rungs[0].ok);
    }

    #[test]
    fn sustained_rate_interpolates_between_rungs() {
        let limit = 150.0;
        let log_mid = |a: f64, b: f64, f: f64| (a.ln() + f * (b.ln() - a.ln())).exp();
        let rungs = [rung(30e3, 100.0, limit), rung(40e3, 200.0, limit)];
        let s = sustained_rate(&rungs, 20e3, 50e3, limit);
        assert!((s - log_mid(30e3, 40e3, 0.5)).abs() < 1e-6);
        // Nothing probed failed: halfway to the capacity ceiling.
        let all = [rung(30e3, 10.0, limit), rung(40e3, 20.0, limit)];
        let s = sustained_rate(&all, 20e3, 45e3, limit);
        assert!((s - log_mid(40e3, 45e3, 0.5)).abs() < 1e-6);
        // A never-emitted epoch: halfway on log scale.
        let miss = [rung(30e3, 100.0, limit), rung(40e3, f64::INFINITY, limit)];
        let s = sustained_rate(&miss, 20e3, 50e3, limit);
        assert!((s - log_mid(30e3, 40e3, 0.5)).abs() < 1e-6);
        // A passing rung that spiked interpolates from the limit.
        let spiked = [rung(30e3, 100.0, limit), rung(40e3, 200.0, limit)];
        let mut spiked = spiked;
        spiked[0].tail_ms = 170.0;
        spiked[0].ok = true;
        let s = sustained_rate(&spiked, 20e3, 50e3, limit);
        assert!((s - 30e3).abs() < 1e-6);
        // The first rung already fails: between the floor and it.
        let none = [rung(30e3, 300.0, limit)];
        let s = sustained_rate(&none, 20e3, 50e3, limit);
        assert!((s - log_mid(20e3, 30e3, 0.5)).abs() < 1e-6);
    }
}
