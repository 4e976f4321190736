//! Quarantine summary: what the apparatus lost and what salvage saved.
//!
//! A degraded collection run still produces an analyzable dataset, but the
//! paper's tables are only honest if the report says what is missing. This
//! module renders the losses in one place: clients that died mid-month,
//! records dropped in the collection pipeline, and feed bytes the salvage
//! decoders had to quarantine.
//!
//! The summary is deliberately plain data (counts and strings) so any layer
//! — the workload runner, the analysis, a decoder — can contribute lines
//! without this crate depending on them.

use crate::table::TextTable;

/// Salvage outcome for one codec or feed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageLine {
    /// What was being decoded, e.g. `"bgp-mrt"`.
    pub source: String,
    /// Records decoded successfully.
    pub kept: u64,
    /// Corrupt regions skipped by the salvage decoder.
    pub quarantined: u64,
    /// A few representative issue descriptions (not all of them).
    pub samples: Vec<String>,
}

/// Everything a degraded run lost, in renderable form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuarantineSummary {
    /// Clients the experiment started.
    pub clients_total: usize,
    /// Names of clients whose node died before finishing the month.
    pub clients_lost: Vec<String>,
    /// PerformanceRecords that made it into the dataset.
    pub records_kept: u64,
    /// PerformanceRecords dropped by the collection apparatus.
    pub records_dropped: u64,
    /// Per-codec salvage outcomes.
    pub salvage: Vec<SalvageLine>,
}

impl QuarantineSummary {
    /// True when nothing was lost anywhere.
    pub fn is_clean(&self) -> bool {
        self.clients_lost.is_empty()
            && self.records_dropped == 0
            && self.salvage.iter().all(|s| s.quarantined == 0)
    }

    /// Fraction of emitted records that the apparatus dropped.
    pub fn record_drop_rate(&self) -> f64 {
        let total = self.records_kept + self.records_dropped;
        if total == 0 {
            0.0
        } else {
            self.records_dropped as f64 / total as f64
        }
    }

    /// Render the summary as the text block the reproduce harness prints.
    ///
    /// Long lists are truncated so a catastrophic run cannot flood the
    /// report: at most [`MAX_NAMED_CLIENTS`](Self::MAX_NAMED_CLIENTS) lost
    /// clients are named and at most
    /// [`MAX_SALVAGE_SAMPLES`](Self::MAX_SALVAGE_SAMPLES) issue samples are
    /// printed per salvage source.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "Data quarantine: clean run, nothing lost.\n".to_string();
        }
        let mut t = TextTable::new(["loss", "count", "detail"])
            .with_title("Data quarantine")
            .right_align(&[1]);
        let lost_detail = if self.clients_lost.is_empty() {
            format!("of {} started", self.clients_total)
        } else {
            let named: Vec<&str> = self
                .clients_lost
                .iter()
                .take(Self::MAX_NAMED_CLIENTS)
                .map(String::as_str)
                .collect();
            let overflow = self.clients_lost.len().saturating_sub(Self::MAX_NAMED_CLIENTS);
            let more = if overflow > 0 {
                format!(" (+{overflow} more)")
            } else {
                String::new()
            };
            format!("of {} started: {}{}", self.clients_total, named.join(", "), more)
        };
        t.row([
            "clients lost".to_string(),
            self.clients_lost.len().to_string(),
            lost_detail,
        ]);
        t.row([
            "records dropped".to_string(),
            self.records_dropped.to_string(),
            format!(
                "{:.2}% of {} emitted",
                100.0 * self.record_drop_rate(),
                self.records_kept + self.records_dropped
            ),
        ]);
        for s in &self.salvage {
            t.row([
                format!("{} quarantined", s.source),
                s.quarantined.to_string(),
                format!("{} records salvaged", s.kept),
            ]);
        }
        let mut out = t.render();
        for s in &self.salvage {
            for sample in s.samples.iter().take(Self::MAX_SALVAGE_SAMPLES) {
                out.push_str(&format!("  [{}] {}\n", s.source, sample));
            }
            let overflow = s.samples.len().saturating_sub(Self::MAX_SALVAGE_SAMPLES);
            if overflow > 0 {
                out.push_str(&format!("  [{}] ... (+{} more samples)\n", s.source, overflow));
            }
        }
        out
    }

    /// Most lost clients named in the rendered summary before truncation.
    pub const MAX_NAMED_CLIENTS: usize = crate::caps::MAX_NAMED;
    /// Most issue samples printed per salvage source before truncation.
    pub const MAX_SALVAGE_SAMPLES: usize = crate::caps::MAX_SAMPLES;
}

/// The quarantine summary as an HTML report section: loss table plus
/// per-source salvage-sample drilldowns, truncated with the shared caps.
pub struct QuarantineSection<'a>(pub &'a QuarantineSummary);

impl crate::html::Section for QuarantineSection<'_> {
    fn id(&self) -> &'static str {
        "quarantine"
    }

    fn title(&self) -> String {
        "Data quarantine".to_string()
    }

    fn build(&self, out: &mut crate::html::SectionBuilder) {
        use crate::html::{Cell, HtmlTable};
        let s = self.0;
        if s.is_clean() {
            out.paragraph("Clean run: no clients lost, no records dropped, nothing quarantined.");
            return;
        }
        let mut t = HtmlTable::new(["loss", "count", "detail"])
            .with_caption("What the apparatus lost")
            .right_align(&[1]);
        t.row(vec![
            Cell::text("clients lost"),
            Cell::num(s.clients_lost.len().to_string()),
            Cell::text(format!("of {} started", s.clients_total)),
        ]);
        t.row(vec![
            Cell::text("records dropped"),
            Cell::num(s.records_dropped.to_string()),
            Cell::text(format!(
                "{:.2}% of {} emitted",
                100.0 * s.record_drop_rate(),
                s.records_kept + s.records_dropped
            )),
        ]);
        for line in &s.salvage {
            t.row(vec![
                Cell::text(format!("{} quarantined", line.source)),
                Cell::num(line.quarantined.to_string()),
                Cell::text(format!("{} records salvaged", line.kept)),
            ]);
        }
        out.table(&t);
        if !s.clients_lost.is_empty() {
            out.drilldown(
                &format!("lost clients ({})", s.clients_lost.len()),
                &crate::caps::capped_lines(&s.clients_lost, QuarantineSummary::MAX_NAMED_CLIENTS),
            );
        }
        for line in &s.salvage {
            if line.samples.is_empty() {
                continue;
            }
            out.drilldown(
                &format!("{} issue samples ({})", line.source, line.samples.len()),
                &crate::caps::capped_lines(&line.samples, QuarantineSummary::MAX_SALVAGE_SAMPLES),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded() -> QuarantineSummary {
        QuarantineSummary {
            clients_total: 134,
            clients_lost: vec!["planetlab-03".into(), "dialup-11".into()],
            records_kept: 98_000,
            records_dropped: 2_000,
            salvage: vec![SalvageLine {
                source: "bgp-mrt".into(),
                kept: 5_400,
                quarantined: 17,
                samples: vec!["offset 1234: truncated record".into()],
            }],
        }
    }

    #[test]
    fn clean_summary_renders_one_line() {
        let s = QuarantineSummary::default();
        assert!(s.is_clean());
        assert_eq!(s.record_drop_rate(), 0.0);
        assert!(s.render().contains("clean run"));
    }

    #[test]
    fn degraded_summary_lists_every_loss() {
        let s = degraded();
        assert!(!s.is_clean());
        assert!((s.record_drop_rate() - 0.02).abs() < 1e-12);
        let text = s.render();
        assert!(text.contains("planetlab-03"));
        assert!(text.contains("records dropped"));
        assert!(text.contains("2.00%"));
        assert!(text.contains("bgp-mrt quarantined"));
        assert!(text.contains("offset 1234"));
    }

    #[test]
    fn single_lost_client_names_it_without_truncation() {
        let s = QuarantineSummary {
            clients_total: 134,
            clients_lost: vec!["dialup-07".into()],
            ..QuarantineSummary::default()
        };
        let text = s.render();
        assert!(text.contains("of 134 started: dialup-07"));
        assert!(!text.contains("more)"), "no overflow marker for one name:\n{text}");
    }

    #[test]
    fn records_dropped_without_lost_clients_has_no_dangling_colon() {
        let s = QuarantineSummary {
            clients_total: 134,
            records_kept: 99,
            records_dropped: 1,
            ..QuarantineSummary::default()
        };
        let text = s.render();
        assert!(text.contains("of 134 started"));
        assert!(!text.contains("started:"), "empty name list must not leave ':'\n{text}");
    }

    #[test]
    fn fully_degraded_run_truncates_client_names_and_samples() {
        let s = QuarantineSummary {
            clients_total: 134,
            clients_lost: (0..134).map(|i| format!("node-{i:03}")).collect(),
            records_kept: 0,
            records_dropped: 50_000,
            salvage: vec![SalvageLine {
                source: "bgp-mrt".into(),
                kept: 0,
                quarantined: 900,
                samples: (0..20).map(|i| format!("offset {i}: garbage")).collect(),
            }],
        };
        let text = s.render();
        // All 134 are counted, only the first 8 are named.
        assert!(text.contains("clients lost"));
        assert!(text.contains("134"));
        assert!(text.contains("node-007"));
        assert!(!text.contains("node-008"), "names past the cap must be elided:\n{text}");
        assert!(text.contains("(+126 more)"));
        // 100% drop rate still renders sanely.
        assert!(text.contains("100.00%"));
        // Sample lines are capped at 5 with an overflow marker.
        assert_eq!(text.matches(": garbage").count(), QuarantineSummary::MAX_SALVAGE_SAMPLES);
        assert!(text.contains("(+15 more samples)"));
    }

    #[test]
    fn truncation_caps_are_pinned() {
        // The rendered report is parsed by eyeballs and scripts alike; the
        // caps are part of its contract.
        assert_eq!(QuarantineSummary::MAX_NAMED_CLIENTS, 8);
        assert_eq!(QuarantineSummary::MAX_SALVAGE_SAMPLES, 5);
    }

    #[test]
    fn html_section_renders_losses_and_caps_drilldowns() {
        let mut s = degraded();
        s.salvage[0].samples = (0..9).map(|i| format!("offset {i}: garbage")).collect();
        let mut page = crate::html::HtmlReport::new("t");
        page.add_section(&QuarantineSection(&s));
        let html = page.render();
        assert!(html.contains("clients lost"));
        assert!(html.contains("planetlab-03"));
        assert!(html.contains("bgp-mrt issue samples (9)"));
        // 5 samples shown, then the shared overflow marker.
        assert_eq!(html.matches(": garbage").count(), QuarantineSummary::MAX_SALVAGE_SAMPLES);
        assert!(html.contains("(+4 more)"));
    }

    #[test]
    fn html_section_clean_run_is_one_paragraph() {
        let s = QuarantineSummary::default();
        let mut page = crate::html::HtmlReport::new("t");
        page.add_section(&QuarantineSection(&s));
        let html = page.render();
        assert!(html.contains("Clean run"));
        assert!(!html.contains("<table>"));
    }

    #[test]
    fn salvage_issues_alone_make_a_run_dirty() {
        let s = QuarantineSummary {
            salvage: vec![SalvageLine {
                source: "dns".into(),
                kept: 10,
                quarantined: 1,
                samples: vec![],
            }],
            ..QuarantineSummary::default()
        };
        assert!(!s.is_clean());
    }
}
