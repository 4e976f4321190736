//! Failure-episode identification (Section 4.4.3, Figure 4).
//!
//! The framework avoids arbitrary thresholds by looking at the system-wide
//! distribution of hourly failure rates: most entity-hours sit at a low
//! "normal" rate, and a distinct knee in the CDF separates them from the
//! wide abnormal range. The knee is found with the maximum-distance-to-chord
//! rule (a.k.a. the "kneedle" construction) on the empirical CDF.

use crate::Analysis;

/// An empirical CDF over hourly failure rates.
#[derive(Clone, Debug)]
pub struct RateCdf {
    /// `(rate, cumulative fraction)`, sorted by rate, deduplicated.
    pub points: Vec<(f64, f64)>,
    /// Number of underlying samples.
    pub samples: usize,
}

impl RateCdf {
    /// Build from raw rates.
    pub fn from_rates(rates: &[f64]) -> RateCdf {
        let mut sorted = rates.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut points: Vec<(f64, f64)> = Vec::new();
        for (i, r) in sorted.iter().enumerate() {
            let cum = (i + 1) as f64 / n as f64;
            // Merge only *exactly* equal rates: a tolerance-based dedup
            // folds distinct nearby rates into one point and makes `at()`
            // overcount the lower one.
            match points.last_mut() {
                Some(last) if last.0 == *r => last.1 = cum,
                _ => points.push((*r, cum)),
            }
        }
        RateCdf { points, samples: n }
    }

    /// Fraction of samples with rate ≤ `r`.
    pub fn at(&self, r: f64) -> f64 {
        match self.points.partition_point(|(rate, _)| *rate <= r) {
            0 => 0.0,
            i => self.points[i - 1].1,
        }
    }

    /// The knee: the point of maximum vertical distance between the CDF and
    /// the chord joining the curve's start and end. Returns `None` for
    /// degenerate curves (fewer than 3 distinct rates).
    ///
    /// The empirical CDF rises from 0, so the curve starts at `(x0, 0)` —
    /// the first point's own jump is part of the curve. Anchoring the chord
    /// there keeps the knee defined when the first point already carries
    /// most of the mass (a chord between the first and last *points* is
    /// then degenerate in y and every point sits on or below it).
    pub fn knee(&self) -> Option<f64> {
        if self.points.len() < 3 {
            return None;
        }
        let (x0, _) = self.points[0];
        let (x1, y1) = *self.points.last().expect("non-empty");
        if (x1 - x0).abs() < 1e-12 {
            return None;
        }
        let slope = y1 / (x1 - x0);
        let mut best = (0.0f64, x0);
        for &(x, y) in &self.points {
            let d = y - slope * (x - x0);
            if d > best.0 {
                best = (d, x);
            }
        }
        (best.0 > 0.0).then_some(best.1)
    }
}

/// The Figure 4 artifact: failure-rate CDFs over 1-hour episodes across
/// clients and across servers, plus the knees that justify the `f`
/// thresholds.
#[derive(Clone, Debug)]
pub struct Figure4 {
    pub clients: RateCdf,
    pub servers: RateCdf,
    pub client_knee: Option<f64>,
    pub server_knee: Option<f64>,
}

/// Compute Figure 4 from the analysis's connection grids.
pub fn figure4(analysis: &Analysis<'_>) -> Figure4 {
    let _span = telemetry::span!("analysis.episodes.figure4");
    let min = analysis.config.min_hour_samples;
    let (clients, servers) = crate::par::join2(
        analysis.config.threads,
        || RateCdf::from_rates(&analysis.client_grid.all_rates(min)),
        || RateCdf::from_rates(&analysis.server_grid.all_rates(min)),
    );
    let client_knee = clients.knee();
    let server_knee = servers.knee();
    Figure4 {
        clients,
        servers,
        client_knee,
        server_knee,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use crate::{Analysis, AnalysisConfig};
    use model::{ClientId, SiteId};

    #[test]
    fn cdf_basics() {
        let cdf = RateCdf::from_rates(&[0.0, 0.0, 0.1, 0.2]);
        assert_eq!(cdf.samples, 4);
        assert!((cdf.at(0.0) - 0.5).abs() < 1e-12);
        assert!((cdf.at(0.15) - 0.75).abs() < 1e-12);
        assert!((cdf.at(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.at(-0.1), 0.0);
    }

    #[test]
    fn knee_on_synthetic_two_regime_curve() {
        // 90% of hours at ~1% failure, 10% spread to 60%: knee near 0.02.
        let mut rates = Vec::new();
        for i in 0..900 {
            rates.push(0.005 + 0.015 * (i as f64 / 900.0));
        }
        for i in 0..100 {
            rates.push(0.05 + 0.55 * (i as f64 / 100.0));
        }
        let cdf = RateCdf::from_rates(&rates);
        let knee = cdf.knee().unwrap();
        assert!(
            (0.01..=0.06).contains(&knee),
            "knee {knee} should sit at the regime boundary"
        );
    }

    #[test]
    fn knee_degenerate_cases() {
        assert_eq!(RateCdf::from_rates(&[]).knee(), None);
        assert_eq!(RateCdf::from_rates(&[0.1, 0.1, 0.1]).knee(), None);
        assert_eq!(RateCdf::from_rates(&[0.0, 1.0]).knee(), None);
    }

    #[test]
    fn knee_with_mass_heavy_first_point() {
        // 950 of 1000 entity-hours fail at exactly 0%, the rest spread over
        // a wide abnormal range — the realistic "most hours are clean"
        // shape. The knee is the zero point itself: the curve jumps from
        // (0, 0) to (0, 0.95). A chord anchored at the first *point*
        // (already at y = 0.95) is degenerate in y and leaves every point
        // on or below it, reporting no knee at all.
        let mut rates = vec![0.0; 950];
        for r in [0.5, 0.6, 0.7, 0.8, 0.9] {
            rates.extend(std::iter::repeat_n(r, 10));
        }
        let cdf = RateCdf::from_rates(&rates);
        assert_eq!(cdf.knee(), Some(0.0));
    }

    #[test]
    fn near_duplicate_rates_stay_distinct() {
        // Distinct rates 5e-13 apart (real cells can sit that close, e.g.
        // f/a for large a differing in the last few samples) were folded
        // into one point by the old `< 1e-12` dedup, so `at()` overcounted
        // the lower rate.
        let lo = 0.1;
        let hi = 0.1 + 5e-13;
        assert!(lo < hi, "the two rates are representable and distinct");
        let cdf = RateCdf::from_rates(&[lo, hi]);
        assert_eq!(cdf.points.len(), 2);
        assert!((cdf.at(lo) - 0.5).abs() < 1e-15);
        assert!((cdf.at(hi) - 1.0).abs() < 1e-15);
        // Exactly equal rates still merge into one point.
        let cdf = RateCdf::from_rates(&[0.2, 0.2, 0.3]);
        assert_eq!(cdf.points.len(), 2);
        // Empty input stays well-defined.
        let empty = RateCdf::from_rates(&[]);
        assert_eq!(empty.samples, 0);
        assert!(empty.points.is_empty());
        assert_eq!(empty.at(0.5), 0.0);
    }

    #[test]
    fn figure4_from_analysis() {
        let mut w = SynthWorld::new(2, 2, 24);
        // Normal hours: 0–4% failure; client 0 has abnormal hours at 40%.
        for h in 0..24 {
            w.add_conn_batch(ClientId(0), SiteId(0), h, 50, if h < 4 { 20 } else { h % 3 });
            w.add_conn_batch(ClientId(1), SiteId(1), h, 50, h % 3);
        }
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let f4 = figure4(&a);
        assert_eq!(f4.clients.samples, 48);
        assert_eq!(f4.servers.samples, 48);
        // Client CDF has mass at 0.4.
        assert!(f4.clients.at(0.39) < 1.0);
        assert!((f4.clients.at(0.41) - 1.0).abs() < 1e-12);
        // A knee exists and sits well below the abnormal regime.
        let knee = f4.client_knee.unwrap();
        assert!(knee < 0.1, "knee {knee}");
    }
}
