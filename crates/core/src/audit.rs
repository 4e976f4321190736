//! Attribution audit: score the inference pipeline against ground truth.
//!
//! Everything else in this crate works like the paper — from observations
//! alone, never from the simulator's fault model. This module is the one
//! deliberate exception: given a [`ProvenanceLog`] sidecar recorded by the
//! workload's flight recorder, it measures how *right* the inferences were:
//!
//! * a confusion matrix for the Table 5 blame vocabulary — per failed
//!   transaction, the inferred client/server/both/other class against the
//!   true cause collapsed from the stamped fault set;
//! * precision/recall for near-permanent-pair detection against the
//!   injected blocked pairs;
//! * `(entity, hour)` overlap of inferred failure episodes against the
//!   hours a structural fault actually covered; and
//! * the same overlap for severe-BGP instances against the injected
//!   withdrawal storms.
//!
//! The inferred side of the matrix is Table 5's per-transaction rule,
//! [`crate::blame::txn_class`]: the Section 4.2 reading settles DNS
//! failures (an LDNS timeout is the client's own infrastructure, an
//! authoritative error the server side), and everything ambiguous is
//! classified against the hourly episode grids (Section 4.4.4). Records on
//! pairs the pipeline itself excluded as near-permanent are scored by the
//! pair metric, not the matrix, mirroring Table 5's exclusion rule.

use crate::bgp_corr::{self, SeverityRule};
use crate::blame::{self, BlameBreakdown, BlameClass, Unscored};
use crate::Analysis;
use model::{FaultSet, ProvenanceLog, TrueBlame, ARCHETYPES};
use std::collections::BTreeSet;

/// Number of blame classes in the Table 5 vocabulary.
pub const CLASSES: usize = 4;

/// Row/column labels of the confusion matrix, in index order.
pub const CLASS_LABELS: [&str; CLASSES] = ["client", "server", "both", "other"];

/// Index of an inferred [`BlameClass`] in the matrix (and in
/// [`CLASS_LABELS`]).
pub fn inferred_index(class: BlameClass) -> usize {
    match class {
        BlameClass::ClientSide => 0,
        BlameClass::ServerSide => 1,
        BlameClass::Both => 2,
        BlameClass::Other => 3,
    }
}

/// Index of a [`TrueBlame`] in the matrix (and in [`CLASS_LABELS`]).
/// Pair-specific conditions and background noise have no inferred
/// equivalent — the paper's vocabulary folds them into "other".
pub fn true_index(blame: TrueBlame) -> usize {
    match blame {
        TrueBlame::ClientSide => 0,
        TrueBlame::ServerSide => 1,
        TrueBlame::Both => 2,
        TrueBlame::PairSpecific | TrueBlame::Noise => 3,
    }
}

/// Misclassification cost `CLASS_COSTS[true][inferred]` for the weighted
/// agreement. Not every confusion is equally wrong: blaming "server" for a
/// failure that was truly "both" still named a guilty party (cost 0.5),
/// while blaming "server" for a truly client-side failure points at the
/// wrong end of the path entirely (cost 1.0). Confusions with "other" sit
/// in between — the class is a catch-all, so landing in (or escaping from)
/// it is wrong but not maximally misleading.
pub const CLASS_COSTS: [[f64; CLASSES]; CLASSES] = [
    // inferred:   client server both  other
    /* client */ [0.00, 1.00, 0.50, 0.75],
    /* server */ [1.00, 0.00, 0.50, 0.75],
    /* both   */ [0.50, 0.50, 0.00, 0.75],
    /* other  */ [0.75, 0.75, 0.75, 0.00],
];

/// The expected inferred class (index per [`CLASS_LABELS`]) of an
/// adversarial archetype: where a perfect paper-method pipeline *should*
/// land a failure carrying only that archetype's stamp, which is that
/// failure's true class. Pair-scoped archetypes (censorship, MTU
/// blackholes) collapse to "other" because the Table 5 vocabulary has no
/// pair-specific class.
pub fn expected_class(archetype: FaultSet) -> usize {
    true_index(archetype.true_blame())
}

/// Samples of missed failures kept per archetype (operator output). The
/// same cap bounds every drill-down list in the pipeline — see
/// [`crate::caps`].
pub const ARCHETYPE_SAMPLE_CAP: usize = crate::caps::MAX_SAMPLES;

/// Detection score for one adversarial fault archetype.
///
/// Scored over the same population as the confusion matrix: failed, direct
/// (unproxied), and not excluded as near-permanent. A failure "counts" for
/// an archetype when its stamp carries the archetype's bit, and is
/// "detected" when inference landed it in the archetype's expected class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArchetypeScore {
    /// Stamp name (one of the [`model::ARCHETYPES`] names).
    pub name: &'static str,
    /// Expected inferred class, index per [`CLASS_LABELS`].
    pub expected: usize,
    /// Matrix-scored failures stamped with this archetype.
    pub truth: u64,
    /// Of those, how many inference put in the expected class.
    pub detected: u64,
    /// All failures inference put in the expected class (the precision
    /// denominator: in a single-archetype world this column is mostly
    /// this archetype's doing).
    pub inferred_class_total: u64,
    /// First few missed failures, as `client→site@hour inferred <class>`.
    pub missed_samples: Vec<String>,
    /// The same missed failures as structured `(client, site, hour)` keys,
    /// parallel to [`Self::missed_samples`] — what `explain --audit-misses`
    /// pins forensic exemplars on, and what the HTML report uses to link
    /// missed-sample rows to trace waterfalls.
    pub missed_keys: Vec<(u16, u16, u32)>,
}

impl ArchetypeScore {
    /// Fraction of stamped failures inferred into the expected class.
    /// 1.0 when the archetype never fired.
    pub fn recall(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.detected as f64 / self.truth as f64
        }
    }

    /// Fraction of expected-class inferences that were truly this
    /// archetype. 1.0 when the class was never inferred. Meaningful in
    /// single-archetype scenario worlds; in mixed worlds the column is
    /// shared with every other cause of the class.
    pub fn precision(&self) -> f64 {
        if self.inferred_class_total == 0 {
            1.0
        } else {
            self.detected as f64 / self.inferred_class_total as f64
        }
    }
}

/// Confusion matrix of inferred vs. true blame over failed transactions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlameConfusion {
    /// `matrix[true][inferred]`, indices per [`CLASS_LABELS`].
    pub matrix: [[u64; CLASSES]; CLASSES],
    /// Failed proxied transactions (vantage-masked; not classifiable by the
    /// connection-grid method, skipped like the paper's Table 5 does).
    pub skipped_proxied: u64,
    /// Failures on pairs the pipeline excluded as near-permanent (scored by
    /// [`PairDetectionScore`] instead).
    pub skipped_permanent: u64,
}

impl BlameConfusion {
    /// Failures scored by the matrix.
    pub fn total(&self) -> u64 {
        self.matrix.iter().flatten().sum()
    }

    /// Fraction of scored failures where inference matched truth.
    pub fn agreement(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diagonal: u64 = (0..CLASSES).map(|i| self.matrix[i][i]).sum();
        diagonal as f64 / total as f64
    }

    /// Cost-weighted agreement under [`CLASS_COSTS`]: `1 − mean cost` of
    /// the scored failures. Always ≥ the raw [`Self::agreement`], since
    /// partial confusions ("both" → "server") cost less than a full miss.
    ///
    /// An empty matrix (zero scored failures, e.g. a no-fault world) is a
    /// perfect score: no failure was misattributed, so the mean cost is
    /// vacuously zero and the agreement 1.0. (The raw [`Self::agreement`]
    /// keeps its conservative 0.0 on empty — it doubles as the CI gate,
    /// where "nothing was scored" should not pass a floor.)
    pub fn weighted_agreement(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let cost: f64 = self
            .matrix
            .iter()
            .enumerate()
            .flat_map(|(t, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(i, &n)| CLASS_COSTS[t][i] * n as f64)
            })
            .sum();
        1.0 - cost / total as f64
    }

    /// Row sums: how many failures truly belonged to each class.
    pub fn true_totals(&self) -> [u64; CLASSES] {
        let mut out = [0u64; CLASSES];
        for (i, row) in self.matrix.iter().enumerate() {
            out[i] = row.iter().sum();
        }
        out
    }

    /// Column sums: how many failures inference put in each class.
    pub fn inferred_totals(&self) -> [u64; CLASSES] {
        let mut out = [0u64; CLASSES];
        for row in &self.matrix {
            for (j, &n) in row.iter().enumerate() {
                out[j] += n;
            }
        }
        out
    }

    /// Per-class recall: of the truly-`i` failures, the fraction inferred
    /// as `i`. `None` when the class never truly occurred.
    pub fn class_recall(&self, i: usize) -> Option<f64> {
        let row: u64 = self.matrix[i].iter().sum();
        (row > 0).then(|| self.matrix[i][i] as f64 / row as f64)
    }

    fn merge(&mut self, other: &BlameConfusion) {
        for (a, b) in self.matrix.iter_mut().zip(&other.matrix) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.skipped_proxied += other.skipped_proxied;
        self.skipped_permanent += other.skipped_permanent;
    }
}

/// Precision/recall of a detected set of keys against an injected one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SetOverlap {
    /// Size of the injected (ground-truth) set.
    pub truth: u64,
    /// Size of the inferred set.
    pub inferred: u64,
    /// Keys in both.
    pub overlap: u64,
}

impl SetOverlap {
    fn score<K: Ord>(truth: &BTreeSet<K>, inferred: &BTreeSet<K>) -> SetOverlap {
        SetOverlap {
            truth: truth.len() as u64,
            inferred: inferred.len() as u64,
            overlap: truth.intersection(inferred).count() as u64,
        }
    }

    /// Fraction of inferred keys that are real. 1.0 when nothing was
    /// inferred (no false positives possible).
    pub fn precision(&self) -> f64 {
        if self.inferred == 0 {
            1.0
        } else {
            self.overlap as f64 / self.inferred as f64
        }
    }

    /// Fraction of injected keys the inference found. 1.0 when nothing was
    /// injected.
    pub fn recall(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.overlap as f64 / self.truth as f64
        }
    }
}

/// Permanent-pair detection scored against the injected blocked pairs.
#[derive(Clone, Debug, Default)]
pub struct PairDetectionScore {
    pub overlap: SetOverlap,
    /// Injected pairs the detector missed, sorted.
    pub missed: Vec<(u16, u16)>,
    /// Detected pairs that were never injected, sorted.
    pub spurious: Vec<(u16, u16)>,
}

/// The full audit: every inference scored against the recorded truth.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Stamped records in the sidecar (== dataset records).
    pub stamped_records: u64,
    /// Failed transactions among them.
    pub stamped_failures: u64,
    /// Table 5 blame confusion matrix.
    pub blame: BlameConfusion,
    /// Permanent-pair detection vs. the injected blocked pairs.
    pub pairs: PairDetectionScore,
    /// Inferred client failure episodes vs. hours a client-side structural
    /// fault covered, as `(client, hour)` sets. The headline score: outage
    /// cells (majority failure rate) of the client transaction-outcome
    /// grid, which sees the DNS-phase faults connection grids miss.
    pub client_episodes: SetOverlap,
    /// The same truth scored against the *connection*-grid client episodes
    /// — the old blind-spot path, kept for comparison.
    pub client_episodes_conn: SetOverlap,
    /// Inferred server failure episodes vs. hours a server-side structural
    /// fault covered, as `(site, hour)` sets. Connection grids (already
    /// accurate on this axis).
    pub server_episodes: SetOverlap,
    /// The same truth scored against the server transaction-outcome grid,
    /// for comparison.
    pub server_episodes_txn: SetOverlap,
    /// Severe-BGP instances under the paper's ≥70-neighbor rule vs. the
    /// injected withdrawal storms, as `(prefix, hour)` sets.
    pub severe_bgp: SetOverlap,
    /// Per-archetype detection scores, in [`model::ARCHETYPES`] order
    /// (always all seven entries; archetypes that never fired score
    /// trivially).
    pub archetypes: Vec<ArchetypeScore>,
    /// Table 5 over failed connections against the connection grids (what
    /// the report's headline Table 5 shows).
    pub table5_conn: BlameBreakdown,
    /// Table 5 over failed transactions against the outcome grids (DNS
    /// failures included, access-policy resets in "other").
    pub table5_txn: BlameBreakdown,
}

/// Score one record the way the confusion matrix does: its
/// `(true, inferred)` cell, indices per [`CLASS_LABELS`], or why the matrix
/// leaves it out. The inferred side is Table 5's per-transaction rule,
/// [`blame::txn_class`], over the transaction-outcome grids, which see
/// DNS-phase faults the connection grids are blind to. `explain` prints
/// this verdict, so it cannot disagree with the matrix.
pub fn score_record(
    analysis: &Analysis<'_>,
    log: &ProvenanceLog,
    i: usize,
) -> Result<(usize, usize), Unscored> {
    blame::txn_scope(analysis, i)?;
    Ok((
        true_index(log.records[i].all().true_blame()),
        inferred_index(blame::txn_class(analysis, i)),
    ))
}

/// Per-shard archetype tally: `(truth, detected, missed samples, missed
/// keys)` — the two sample lists stay parallel.
type ArchetypeTally = (u64, u64, Vec<String>, Vec<(u16, u16, u32)>);

/// Build the blame confusion matrix and the per-archetype detection
/// tallies, sharded over the record range. Shards cover contiguous record
/// ranges in order and each keeps its first [`ARCHETYPE_SAMPLE_CAP`]
/// missed samples, so the merged sample list is the dataset-order first
/// few regardless of thread count.
fn blame_confusion(
    analysis: &Analysis<'_>,
    log: &ProvenanceLog,
) -> (BlameConfusion, Vec<ArchetypeScore>) {
    let _span = telemetry::span!("analysis.audit.blame_confusion");
    let cds = &analysis.cds;
    let txn = &cds.txn;
    let partials = crate::par::map_shards(analysis.config.threads, cds.txn_len(), |range| {
        let mut out = BlameConfusion::default();
        let mut arch: [ArchetypeTally; ARCHETYPES.len()] = Default::default();
        for i in range {
            let (truth, inferred) = match score_record(analysis, log, i) {
                Ok(cell) => cell,
                Err(Unscored::Success) => continue,
                Err(Unscored::Proxied) => {
                    out.skipped_proxied += 1;
                    continue;
                }
                Err(Unscored::NearPermanent) => {
                    out.skipped_permanent += 1;
                    continue;
                }
            };
            out.matrix[truth][inferred] += 1;
            let (client, site, hour) = (txn.client[i], txn.site[i], cds.txn_hour(i));
            let stamp = log.records[i].all();
            for (k, &(_, bit)) in ARCHETYPES.iter().enumerate() {
                if !stamp.contains(bit) {
                    continue;
                }
                arch[k].0 += 1;
                if inferred == expected_class(bit) {
                    arch[k].1 += 1;
                } else if arch[k].2.len() < ARCHETYPE_SAMPLE_CAP {
                    arch[k].2.push(format!(
                        "c{client}→s{site}@h{hour} inferred {}",
                        CLASS_LABELS[inferred]
                    ));
                    arch[k].3.push((client, site, hour));
                }
            }
        }
        (out, arch)
    });
    let mut total = BlameConfusion::default();
    let mut tallies: [ArchetypeTally; ARCHETYPES.len()] = Default::default();
    for (p, arch) in &partials {
        total.merge(p);
        for (t, a) in tallies.iter_mut().zip(arch) {
            t.0 += a.0;
            t.1 += a.1;
            let room = ARCHETYPE_SAMPLE_CAP - t.2.len();
            t.2.extend(a.2.iter().take(room).cloned());
            t.3.extend(a.3.iter().take(room).copied());
        }
    }
    let columns = total.inferred_totals();
    let scores = ARCHETYPES
        .iter()
        .zip(tallies)
        .map(
            |(&(name, bit), (truth, detected, missed_samples, missed_keys))| {
                let expected = expected_class(bit);
                ArchetypeScore {
                    name,
                    expected,
                    truth,
                    detected,
                    inferred_class_total: columns[expected],
                    missed_samples,
                    missed_keys,
                }
            },
        )
        .collect();
    (total, scores)
}

/// Score permanent-pair detection against the injected blocked pairs.
fn pair_detection(analysis: &Analysis<'_>, log: &ProvenanceLog) -> PairDetectionScore {
    let truth: BTreeSet<(u16, u16)> = log.truth.blocked_pairs.iter().copied().collect();
    let inferred: BTreeSet<(u16, u16)> = analysis
        .permanent
        .detail
        .iter()
        .map(|p| (p.client.0, p.site.0))
        .collect();
    PairDetectionScore {
        overlap: SetOverlap::score(&truth, &inferred),
        missed: truth.difference(&inferred).copied().collect(),
        spurious: inferred.difference(&truth).copied().collect(),
    }
}

/// `(row, hour)` episode cells of a grid at the analysis thresholds.
fn episode_cells(
    grid: &crate::grid::HourlyGrid,
    f: f64,
    min_samples: u32,
) -> BTreeSet<(u16, u32)> {
    let mut out = BTreeSet::new();
    for row in 0..grid.rows() {
        for h in grid.episode_hours(row, f, min_samples) {
            out.insert((row as u16, h));
        }
    }
    out
}

/// `(entity, hour)` cells from the truth sidecar's fault-hour lists.
fn truth_cells(fault_hours: &[Vec<u32>]) -> BTreeSet<(u16, u32)> {
    let mut out = BTreeSet::new();
    for (e, hours) in fault_hours.iter().enumerate() {
        for &h in hours {
            out.insert((e as u16, h));
        }
    }
    out
}

/// Run the full audit of `analysis` against the recorded `log`.
///
/// Panics if the sidecar is not parallel to the dataset (a stamped run must
/// be audited with its own log).
pub fn audit(analysis: &Analysis<'_>, log: &ProvenanceLog) -> AuditReport {
    let mut span = telemetry::span!("analysis.audit");
    assert_eq!(
        log.records.len(),
        analysis.cds.txn_len(),
        "provenance sidecar must be parallel to the dataset"
    );
    let f = analysis.config.episode_threshold;
    let min = analysis.config.min_hour_samples;

    let (blame, archetypes) = blame_confusion(analysis, log);
    let pairs = pair_detection(analysis, log);

    // Client episodes: the truth hours are those a *structural* client
    // fault covered — an access link, LDNS, or last-mile outage that takes
    // out the majority of the client's traffic and usually kills DNS before
    // any TCP connection exists. Scored on the transaction-outcome grid at
    // the majority (outage) bar; the connection-grid score at the plain
    // episode bar rides along to show the blind spot.
    let client_truth = truth_cells(&log.truth.client_fault_hours);
    let client_episodes = SetOverlap::score(
        &client_truth,
        &episode_cells(
            &analysis.client_outcome.grid,
            crate::grid::OUTAGE_THRESHOLD,
            min,
        ),
    );
    let client_episodes_conn =
        SetOverlap::score(&client_truth, &episode_cells(&analysis.client_grid, f, min));
    let server_truth = truth_cells(&log.truth.site_fault_hours);
    let server_episodes =
        SetOverlap::score(&server_truth, &episode_cells(&analysis.server_grid, f, min));
    let server_episodes_txn = SetOverlap::score(
        &server_truth,
        &episode_cells(&analysis.server_outcome.grid, f, min),
    );

    // Severe-BGP instances under the paper's headline rule vs. the injected
    // storm list. The injected list includes the low-neighbor showcase
    // events the rule is *designed* to miss, so recall < 1 is expected.
    let severe = bgp_corr::severe_instability(
        analysis,
        SeverityRule::Neighbors(bgp_corr::SEVERE_NEIGHBORS),
    );
    let inferred_severe: BTreeSet<(u32, u32)> = severe
        .instances
        .iter()
        .map(|i| (i.prefix.0, i.hour))
        .collect();
    let truth_severe: BTreeSet<(u32, u32)> = log.truth.severe_bgp.iter().copied().collect();
    let severe_bgp = SetOverlap::score(&truth_severe, &inferred_severe);

    let stamped_failures = (0..analysis.cds.txn_len())
        .filter(|&i| analysis.cds.txn_failed(i))
        .count() as u64;
    telemetry::counter!("analysis.audit.scored_failures", blame.total());
    span.set_sim_range(0, u64::from(analysis.cds.hours) * 3_600_000_000);

    AuditReport {
        stamped_records: log.records.len() as u64,
        stamped_failures,
        blame,
        pairs,
        client_episodes,
        client_episodes_conn,
        server_episodes,
        server_episodes_txn,
        severe_bgp,
        archetypes,
        table5_conn: blame::table5(analysis),
        table5_txn: blame::table5_outcome(analysis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::{FaultSet, ProvenanceRecord, TruthSidecar};

    #[test]
    fn indices_cover_the_vocabulary() {
        assert_eq!(inferred_index(BlameClass::ClientSide), 0);
        assert_eq!(inferred_index(BlameClass::ServerSide), 1);
        assert_eq!(inferred_index(BlameClass::Both), 2);
        assert_eq!(inferred_index(BlameClass::Other), 3);
        assert_eq!(true_index(TrueBlame::ClientSide), 0);
        assert_eq!(true_index(TrueBlame::ServerSide), 1);
        assert_eq!(true_index(TrueBlame::Both), 2);
        assert_eq!(true_index(TrueBlame::PairSpecific), 3);
        assert_eq!(true_index(TrueBlame::Noise), 3);
    }

    #[test]
    fn confusion_accessors() {
        let mut c = BlameConfusion::default();
        c.matrix[0][0] = 6;
        c.matrix[0][3] = 2;
        c.matrix[3][3] = 12;
        assert_eq!(c.total(), 20);
        assert!((c.agreement() - 18.0 / 20.0).abs() < 1e-12);
        assert_eq!(c.true_totals(), [8, 0, 0, 12]);
        assert_eq!(c.inferred_totals(), [6, 0, 0, 14]);
        assert_eq!(c.class_recall(0), Some(0.75));
        assert_eq!(c.class_recall(1), None);
    }

    #[test]
    fn set_overlap_degenerate_cases() {
        let o = SetOverlap::default();
        assert_eq!(o.precision(), 1.0, "nothing inferred, nothing wrong");
        assert_eq!(o.recall(), 1.0, "nothing injected, nothing missed");
        let t: BTreeSet<u32> = [1, 2, 3].into();
        let i: BTreeSet<u32> = [2, 3, 4, 5].into();
        let s = SetOverlap::score(&t, &i);
        assert_eq!((s.truth, s.inferred, s.overlap), (3, 4, 2));
        assert!((s.precision() - 0.5).abs() < 1e-12);
        assert!((s.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cost_matrix_is_sane() {
        for (t, row) in CLASS_COSTS.iter().enumerate() {
            assert_eq!(row[t], 0.0, "diagonal is free");
            for &c in row {
                assert!((0.0..=1.0).contains(&c));
            }
        }
        // The satellite requirement in one line: both→server is milder
        // than client→server.
        assert!(CLASS_COSTS[2][1] < CLASS_COSTS[0][1]);
        // Symmetric: neither direction of a confusion is privileged.
        for (t, row) in CLASS_COSTS.iter().enumerate() {
            for (i, &cost) in row.iter().enumerate() {
                assert_eq!(cost, CLASS_COSTS[i][t]);
            }
        }
    }

    #[test]
    fn weighted_agreement_bounds_raw() {
        let mut c = BlameConfusion::default();
        c.matrix[2][1] = 10; // both → server: half cost
        c.matrix[0][0] = 10;
        assert!((c.agreement() - 0.5).abs() < 1e-12);
        assert!((c.weighted_agreement() - 0.75).abs() < 1e-12);
        assert!(c.weighted_agreement() >= c.agreement());
    }

    #[test]
    fn weighted_agreement_empty_matrix_is_perfect() {
        // A no-fault world scores zero failures; the mean misattribution
        // cost over zero samples is vacuously zero, not undefined — and
        // must not read as total disagreement.
        let c = BlameConfusion::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.weighted_agreement(), 1.0);
        assert!(c.weighted_agreement().is_finite());
        // The raw agreement stays conservative for gate purposes.
        assert_eq!(c.agreement(), 0.0);
    }

    #[test]
    fn archetype_expected_classes() {
        let expected: Vec<_> = ARCHETYPES
            .iter()
            .map(|&(name, bit)| (name, CLASS_LABELS[expected_class(bit)]))
            .collect();
        assert_eq!(
            expected,
            [
                ("bgp-transient", "client"),
                ("censored", "other"),
                ("colo-blast", "server"),
                ("vantage-split", "server"),
                ("cdn-brownout", "server"),
                ("mtu-blackhole", "other"),
                ("wrong-dns", "server"),
            ]
        );
    }

    #[test]
    fn archetype_score_degenerate_cases() {
        let s = ArchetypeScore::default();
        assert_eq!(s.recall(), 1.0, "never fired, never missed");
        assert_eq!(s.precision(), 1.0, "class never inferred");
        let s = ArchetypeScore {
            truth: 10,
            detected: 7,
            inferred_class_total: 14,
            ..ArchetypeScore::default()
        };
        assert!((s.recall() - 0.7).abs() < 1e-12);
        assert!((s.precision() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn score_record_is_the_matrix_cell() {
        use crate::synthetic::SynthWorld;
        use crate::AnalysisConfig;
        use model::{ClientId, DnsFailureKind, FailureClass, ProxyId, SiteId};
        let mut w = SynthWorld::new(4, 4, 2);
        w.set_proxy(ClientId(2), ProxyId(0));
        // Records 0–3: a failure under no stamped fault, an LDNS timeout
        // during a stamped LDNS outage, a proxied failure, a success.
        w.add_txn(ClientId(1), SiteId(1), 0, false);
        w.add_txn_failure(
            ClientId(0),
            SiteId(0),
            1,
            FailureClass::Dns(DnsFailureKind::LdnsTimeout),
        );
        w.add_txn(ClientId(2), SiteId(0), 0, false);
        w.add_txn(ClientId(0), SiteId(1), 0, true);
        // Background: clients 0 and 1 succeed to sites 0 and 1, so no
        // endpoint has an episode; client 3 → site 3 always fails, a
        // near-permanent pair.
        for h in 0..2 {
            for c in 0..2 {
                for s in 0..2 {
                    w.add_txn_batch(ClientId(c), SiteId(s), h, 10, 0);
                }
            }
            w.add_txn_batch(ClientId(3), SiteId(3), h, 15, 15);
        }
        let ds = w.finish();
        let mut log = ProvenanceLog {
            records: vec![ProvenanceRecord::default(); ds.records.len()],
            truth: TruthSidecar::default(),
        };
        log.records[1].dns = FaultSet::LDNS_DOWN;
        let a = Analysis::new(&ds, AnalysisConfig::default());

        // The noise failure, which no episode explains, is inferred
        // "other": the diagonal, not a misattribution.
        assert_eq!(blame::txn_class(&a, 0), BlameClass::Other);
        assert_eq!(score_record(&a, &log, 0), Ok((3, 3)));
        assert_eq!(score_record(&a, &log, 1), Ok((0, 0)));
        assert_eq!(score_record(&a, &log, 2), Err(Unscored::Proxied));
        assert_eq!(score_record(&a, &log, 3), Err(Unscored::Success));
        let on_permanent_pair = ds.records.len() - 1;
        assert_eq!(
            score_record(&a, &log, on_permanent_pair),
            Err(Unscored::NearPermanent)
        );

        // The matrix is these cells summed.
        let report = audit(&a, &log);
        let mut expected = [[0u64; CLASSES]; CLASSES];
        expected[3][3] = 1;
        expected[0][0] = 1;
        assert_eq!(report.blame.matrix, expected);
        assert_eq!(report.blame.skipped_proxied, 1);
        assert_eq!(report.blame.skipped_permanent, 30);
    }

    #[test]
    fn stamp_collapse_matches_matrix_row() {
        // A stamped LDNS outage is a client-side truth whatever phase union
        // it came through.
        let p = ProvenanceRecord {
            dns: FaultSet::LDNS_DOWN,
            connect: FaultSet::EMPTY,
        };
        assert_eq!(true_index(p.all().true_blame()), 0);
        let empty = TruthSidecar::default();
        assert_eq!(empty.blocked_pairs.len(), 0);
    }
}
