//! Degradation-aware analysis.
//!
//! The paper's numbers assume the measurement apparatus itself held up for
//! the whole month. When it does not — client nodes die, records are
//! dropped, traces need salvaging — the analyses still run, but some of
//! their cells are computed from fewer attempts than designed. This module
//! quantifies that: which clients are missing or partial, how many grid
//! cells are too thin to trust, and how many blame attributions were made
//! while an endpoint's hourly rate stood on thin data.
//!
//! None of this changes the computed rates; episode detection already
//! weights by the attempts actually present (rates are failures/attempts
//! per cell) and drops cells below `min_hour_samples`. What degradation
//! reporting adds is the honest footnote: how much of the grid those
//! guards silently discarded.

use crate::blame::BlameBreakdown;
use crate::grid::GridCoverage;
use crate::Analysis;
use model::IntegrityReport;

/// How much of the designed measurement the analysis actually stands on.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// Dataset-level audit: missing/partial clients, cell coverage.
    pub integrity: IntegrityReport,
    /// Client-hour connection grid: active vs thin cells.
    pub client_cells: GridCoverage,
    /// Server-hour connection grid: active vs thin cells.
    pub server_cells: GridCoverage,
    /// Samples the analysis grids rejected for out-of-range coordinates,
    /// summed over every grid the indexing built. Zero in a healthy run:
    /// the builders size grids from the dataset the records come from, so
    /// any drop means a mis-sized grid silently truncated its input.
    pub grid_dropped_samples: u64,
}

impl DegradationReport {
    /// True when the run shows any coverage gap worth a footnote: lost or
    /// partial clients, thin analysis cells, or grid-rejected samples.
    /// Note this is a statement about the *data*, not its cause — ordinary
    /// machine downtime also leaves uncovered hours (see
    /// [`model::IntegrityReport::partial_clients`]), so even a run with a
    /// healthy apparatus can carry a non-empty footnote.
    pub fn is_degraded(&self) -> bool {
        !self.integrity.is_complete()
            || self.client_cells.thin > 0
            || self.server_cells.thin > 0
            || self.grid_dropped_samples > 0
    }
}

impl<'d> Analysis<'d> {
    /// Audit this analysis's data completeness.
    pub fn degradation(&self) -> DegradationReport {
        let min = self.config.min_hour_samples;
        DegradationReport {
            integrity: self.ds.integrity(),
            client_cells: self.client_grid.coverage(min),
            server_cells: self.server_grid.coverage(min),
            grid_dropped_samples: self.client_grid.dropped()
                + self.server_grid.dropped()
                + self.client_outcome.grid.dropped()
                + self.server_outcome.grid.dropped(),
        }
    }
}

/// Table 5 with a confidence annotation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfidentBlame {
    /// The standard breakdown — identical to [`crate::blame::table5`].
    pub breakdown: BlameBreakdown,
    /// Failures whose classification leaned on at least one endpoint cell
    /// below the sample floor. Such cells can never flag an episode, so
    /// these failures default toward `Other`/one-sided attributions for
    /// lack of data rather than by evidence.
    pub low_confidence: u64,
}

impl ConfidentBlame {
    /// Fraction of classified failures whose attribution rests on full
    /// evidence.
    pub fn confident_share(&self) -> f64 {
        let total = self.breakdown.total();
        if total == 0 {
            1.0
        } else {
            (total - self.low_confidence) as f64 / total as f64
        }
    }
}

/// [`crate::blame::table5`] plus a count of the failures it attributed on
/// thin endpoint cells (the same failures, permanent pairs excluded).
pub fn table5_with_confidence(analysis: &Analysis<'_>) -> ConfidentBlame {
    let _span = telemetry::span!("analysis.integrity.table5");
    let min = analysis.config.min_hour_samples;
    let cds = &analysis.cds;
    let conn = &cds.conn;
    let low_confidence = (0..cds.conn_len())
        .filter(|&i| {
            let (client, site) = (conn.client[i], conn.site[i]);
            if !cds.conn_failed(i)
                || analysis
                    .permanent
                    .contains(model::ClientId(client), model::SiteId(site))
            {
                return false;
            }
            let h = cds.conn_hour(i);
            analysis.client_grid.is_thin(client as usize, h, min)
                || analysis.server_grid.is_thin(site as usize, h, min)
        })
        .count() as u64;
    ConfidentBlame {
        breakdown: crate::blame::table5(analysis),
        low_confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use crate::{Analysis, AnalysisConfig};
    use model::{ClientId, SiteId};

    /// 4 clients × 4 servers × 4 hours; client 3 stops reporting after
    /// hour 1 (apparatus death), and hour 1 itself is thin for it.
    fn degraded_world() -> model::Dataset {
        let mut w = SynthWorld::new(4, 4, 4);
        for h in 0..4u32 {
            for c in 0..4u16 {
                for s in 0..4u16 {
                    if c == 3 && h >= 2 {
                        continue; // dead node
                    }
                    let n = if c == 3 && h == 1 { 2 } else { 20 };
                    let fail = if s == 0 && h == 0 { n * 3 / 10 } else { 0 };
                    w.add_conn_batch(ClientId(c), SiteId(s), h, n, fail);
                    w.add_txn_batch(ClientId(c), SiteId(s), h, n, fail);
                }
            }
        }
        w.finish()
    }

    #[test]
    fn degradation_report_surfaces_the_damage() {
        let ds = degraded_world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let d = a.degradation();
        assert!(d.is_degraded());
        // Client 3 covered 2 of 4 hours — partial, not missing.
        assert_eq!(d.integrity.partial_clients, vec![ClientId(3)]);
        assert!(d.integrity.missing_clients.is_empty());
        // Its hour-1 cells are thin: 4 server-pairs × 2 samples = 8 < 12.
        assert_eq!(d.client_cells.thin, 1);
        assert!(d.client_cells.active >= 13);
        assert!(d.client_cells.confident_fraction() < 1.0);
    }

    #[test]
    fn healthy_world_is_not_degraded() {
        let mut w = SynthWorld::new(2, 2, 2);
        for h in 0..2u32 {
            for c in 0..2u16 {
                for s in 0..2u16 {
                    w.add_conn_batch(ClientId(c), SiteId(s), h, 20, 0);
                    w.add_txn_batch(ClientId(c), SiteId(s), h, 20, 0);
                }
            }
        }
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let d = a.degradation();
        assert!(!d.is_degraded());
        assert_eq!(d.client_cells.thin, 0);
        assert_eq!(d.client_cells.confident_fraction(), 1.0);
        assert_eq!(d.grid_dropped_samples, 0);
    }

    #[test]
    fn out_of_range_samples_surface_in_the_audit() {
        // A record stamped at hour == ds.hours (the instant the window
        // closes) has no grid cell; the build rejects it. The rejection
        // must show up in the integrity audit rather than pass silently.
        let mut w = SynthWorld::new(2, 2, 2);
        for h in 0..2u32 {
            for c in 0..2u16 {
                for s in 0..2u16 {
                    w.add_conn_batch(ClientId(c), SiteId(s), h, 20, 0);
                    w.add_txn_batch(ClientId(c), SiteId(s), h, 20, 0);
                }
            }
        }
        w.add_failed_conn(ClientId(0), SiteId(0), 2);
        w.add_txn(ClientId(0), SiteId(0), 2, false);
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let d = a.degradation();
        // One drop each on the client/server connection grids, one each on
        // the two outcome grids.
        assert_eq!(d.grid_dropped_samples, 4);
        assert!(d.is_degraded());
    }

    #[test]
    fn confident_blame_matches_table5_and_flags_thin_attributions() {
        let ds = degraded_world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let plain = crate::blame::table5(&a);
        let confident = table5_with_confidence(&a);
        assert_eq!(confident.breakdown, plain, "breakdown itself is unchanged");
        assert!(confident.breakdown.total() > 0);
        assert_eq!(
            confident.low_confidence, 0,
            "no failures landed in the thin hour in this world"
        );
        assert_eq!(confident.confident_share(), 1.0);
    }

    #[test]
    fn failures_in_thin_hours_are_flagged() {
        // One failure inside a thin cell: client 0 reaches only 2 samples
        // per server this hour (8 total, under the 12-sample floor), so its
        // rate is undefined, the failure lands in Other, and the
        // attribution is flagged as made on thin data.
        let mut w = SynthWorld::new(4, 4, 1);
        for s in 0..4u16 {
            w.add_conn_batch(ClientId(0), SiteId(s), 0, 2, u32::from(s == 0));
            for c in 1..4u16 {
                w.add_conn_batch(ClientId(c), SiteId(s), 0, 20, 0);
            }
        }
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let confident = table5_with_confidence(&a);
        assert_eq!(confident.breakdown.total(), 1);
        assert_eq!(confident.breakdown.other, 1);
        assert_eq!(confident.low_confidence, 1);
        assert_eq!(confident.confident_share(), 0.0);
    }
}
