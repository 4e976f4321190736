//! Analysis configuration.

/// Thresholds and knobs of the classification framework. Defaults follow
/// the paper's choices.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConfig {
    /// Episode failure-rate threshold `f` (the paper reports both 5% and
    /// 10%; the knee of the Figure 4 CDF justifies the choice).
    pub episode_threshold: f64,
    /// Minimum samples (connections or transactions) in an entity-hour for
    /// its failure rate to be meaningful.
    pub min_hour_samples: u32,
    /// Transaction failure rate above which a (client, site) pair counts as
    /// near-permanently failed (Section 4.4.2 uses >90%).
    pub permanent_threshold: f64,
    /// Worker threads for the dataset scans (0 = all available cores,
    /// 1 = fully serial). Results are bit-identical at any setting; the
    /// scans shard into partial aggregates merged in a fixed order.
    pub threads: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            episode_threshold: 0.05,
            min_hour_samples: 12,
            permanent_threshold: 0.90,
            threads: 0,
        }
    }
}

impl AnalysisConfig {
    /// The paper's conservative setting (f = 10%).
    pub fn conservative() -> Self {
        AnalysisConfig {
            episode_threshold: 0.10,
            ..Self::default()
        }
    }

    /// Override the episode threshold.
    pub fn with_threshold(mut self, f: f64) -> Self {
        self.episode_threshold = f;
        self
    }

    /// Override the scan thread count (0 = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AnalysisConfig::default();
        assert!((c.episode_threshold - 0.05).abs() < 1e-12);
        assert!((c.permanent_threshold - 0.90).abs() < 1e-12);
    }

    #[test]
    fn conservative_raises_f() {
        let c = AnalysisConfig::conservative();
        assert!((c.episode_threshold - 0.10).abs() < 1e-12);
        let c = AnalysisConfig::default().with_threshold(0.2);
        assert!((c.episode_threshold - 0.2).abs() < 1e-12);
    }
}
