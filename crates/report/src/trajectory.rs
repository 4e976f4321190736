//! Bench-trajectory panel: sparklines over the committed `BENCH_*.json`
//! regression artifacts, so a recall regression is visible at a glance
//! instead of buried in JSON diffs.
//!
//! The panel ingests whatever bench documents the caller hands it (usually
//! the two committed files: the audit and the scenario sweep), parses them
//! with a self-contained minimal JSON reader (the workspace carries no JSON
//! dependency), and renders one sub-panel per document: identity badges
//! plus per-metric series — detection precision/recall across the audit's
//! detectors, per-archetype recall across the scenario worlds. Performance
//! is measured by `perfbench`, not charted here.

use crate::html::{Section, SectionBuilder, Series};

// ---------------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Only what the bench artifacts need; numbers are
/// `f64` throughout (every bench figure fits losslessly).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; `None` on any syntax error,
    /// trailing garbage or nesting deeper than `MAX_DEPTH` (the panel
    /// then renders an "unparsable" note instead of failing the report).
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(value)
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `get(key)` then `as_f64`, the common path extraction.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. The reader
/// recurses once per level, so the bound keeps a hostile `[[[[…` file from
/// overflowing the stack; the bench documents nest at most 5 levels.
const MAX_DEPTH: usize = 64;

/// Parse the value at `pos`, inside `depth` enclosing arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_obj(b, pos, depth + 1),
        b'[' => parse_arr(b, pos, depth + 1),
        b'"' => parse_string(b, pos).map(Json::Str),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        _ => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse()
        .ok()
        .map(Json::Num)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let cp = u32::from_str_radix(hex, 16).ok()?;
                        // Bench artifacts never emit surrogate pairs; a lone
                        // surrogate is a parse error.
                        let ch = char::from_u32(cp)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b']' {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b'}' {
        *pos += 1;
        return Some(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if *b.get(*pos)? != b':' {
            return None;
        }
        *pos += 1;
        members.push((key, parse_value(b, pos, depth)?));
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(members));
            }
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Panels
// ---------------------------------------------------------------------------

/// One bench document rendered as badges plus metric series.
#[derive(Clone, Debug, Default)]
pub struct Panel {
    pub title: String,
    pub badges: Vec<(String, String)>,
    pub series: Vec<Series>,
    pub notes: Vec<String>,
}

fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn identity_badges(doc: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for key in ["scale", "seed", "threads"] {
        if let Some(v) = doc.get(key) {
            let text = match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => fmt(*n),
                other => format!("{other:?}"),
            };
            out.push((key.to_string(), text));
        }
    }
    out
}

/// Build the panel for one named bench document. The name routes to the
/// matching extractor; an unrecognized document still renders its identity
/// badges plus a note.
pub fn bench_panel(name: &str, text: &str) -> Panel {
    let Some(doc) = Json::parse(text) else {
        return Panel {
            title: name.to_string(),
            notes: vec![format!("{name}: unparsable JSON — regenerate the artifact")],
            ..Panel::default()
        };
    };
    let mut panel = Panel {
        title: name.to_string(),
        badges: identity_badges(&doc),
        ..Panel::default()
    };
    if name.contains("scenario") {
        extract_scenarios(&doc, &mut panel);
    } else if name.contains("audit") {
        extract_audit(&doc, &mut panel);
    } else {
        panel
            .notes
            .push(format!("{name}: no extractor for this document shape"));
    }
    panel
}

fn extract_audit(doc: &Json, panel: &mut Panel) {
    for key in ["agreement", "weighted_agreement"] {
        if let Some(v) = doc.num(key) {
            panel.badges.push((key.replace('_', " "), fmt(v)));
        }
    }
    // Per-class recall from the confusion matrix diagonal.
    if let (Some(labels), Some(matrix)) = (
        doc.get("class_labels").and_then(Json::as_arr),
        doc.get("confusion_matrix").and_then(Json::as_arr),
    ) {
        let points: Vec<(String, f64)> = labels
            .iter()
            .zip(matrix)
            .enumerate()
            .filter_map(|(i, (label, row))| {
                let row = row.as_arr()?;
                let total: f64 = row.iter().filter_map(Json::as_f64).sum();
                if total == 0.0 {
                    return None;
                }
                let diag = row.get(i)?.as_f64()?;
                Some((label.as_str()?.to_string(), diag / total))
            })
            .collect();
        if !points.is_empty() {
            panel
                .series
                .push(Series::new("per-class recall (confusion diagonal)", points));
        }
    }
    for metric in ["precision", "recall"] {
        let points: Vec<(String, f64)> = [
            ("pairs", "permanent_pairs"),
            ("client ep", "client_episode_hours"),
            ("server ep", "server_episode_hours"),
            ("bgp", "severe_bgp"),
        ]
        .iter()
        .filter_map(|(label, key)| Some((label.to_string(), doc.get(key)?.num(metric)?)))
        .collect();
        if !points.is_empty() {
            panel
                .series
                .push(Series::new(format!("detector {metric}"), points));
        }
    }
}

fn extract_scenarios(doc: &Json, panel: &mut Panel) {
    let Some(scenarios) = doc.get("scenarios").and_then(Json::as_arr) else {
        panel.notes.push("scenarios: no scenario array".to_string());
        return;
    };
    let agreement: Vec<(String, f64)> = scenarios
        .iter()
        .filter_map(|s| {
            Some((
                s.get("scenario")?.as_str()?.to_string(),
                s.num("weighted_agreement").or_else(|| s.num("agreement"))?,
            ))
        })
        .collect();
    if !agreement.is_empty() {
        panel
            .series
            .push(Series::new("weighted agreement by world", agreement));
    }
    // Each single-archetype world's own-archetype recall: the headline
    // "can the 2006 pipeline see this fault" trajectory. The combined
    // adversarial-month world contributes its per-archetype recalls as a
    // separate series.
    let own_recall: Vec<(String, f64)> = scenarios
        .iter()
        .filter_map(|s| {
            let world = s.get("scenario")?.as_str()?;
            let archetypes = s.get("archetypes")?.as_arr()?;
            let score = archetypes
                .iter()
                .find(|a| a.get("name").and_then(Json::as_str) == Some(world))?;
            Some((world.to_string(), score.num("recall")?))
        })
        .collect();
    if !own_recall.is_empty() {
        panel
            .series
            .push(Series::new("own-archetype recall by world", own_recall));
    }
    if let Some(month) = scenarios
        .iter()
        .find(|s| s.get("scenario").and_then(Json::as_str) == Some("adversarial-month"))
    {
        let points: Vec<(String, f64)> = month
            .get("archetypes")
            .and_then(Json::as_arr)
            .map(|archetypes| {
                archetypes
                    .iter()
                    .filter_map(|a| {
                        // Only archetypes that actually fired there.
                        (a.num("truth")? > 0.0).then_some(())?;
                        Some((a.get("name")?.as_str()?.to_string(), a.num("recall")?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        if !points.is_empty() {
            panel
                .series
                .push(Series::new("adversarial-month recall by archetype", points));
        }
    }
}

/// The trajectory panel as a report section. `sources` holds
/// `(artifact name, file contents)` pairs for the documents that were
/// found; `missing` names the ones that were not.
pub struct TrajectorySection {
    pub panels: Vec<Panel>,
    pub missing: Vec<String>,
}

impl TrajectorySection {
    /// Build from raw `(name, contents)` sources plus missing-file names.
    pub fn from_sources(sources: &[(String, String)], missing: Vec<String>) -> TrajectorySection {
        TrajectorySection {
            panels: sources
                .iter()
                .map(|(name, text)| bench_panel(name, text))
                .collect(),
            missing,
        }
    }
}

impl Section for TrajectorySection {
    fn id(&self) -> &'static str {
        "trajectory"
    }

    fn title(&self) -> String {
        "Bench trajectory".to_string()
    }

    fn build(&self, out: &mut SectionBuilder) {
        if self.panels.is_empty() {
            out.note("No bench artifacts found — run the bench binaries to generate them.");
        }
        for (i, panel) in self.panels.iter().enumerate() {
            out.subheading(&format!("trajectory-{i}"), &panel.title);
            if !panel.badges.is_empty() {
                out.badges(&panel.badges);
            }
            for s in &panel.series {
                out.sparkline(s);
            }
            for n in &panel.notes {
                out.note(n);
            }
        }
        for name in &self.missing {
            out.note(&format!("{name}: not found — regenerate with the bench suite"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_bench_shapes() {
        let doc = Json::parse(
            "{\"a\": 1, \"b\": [1.5, -2e3, true, null], \"s\": \"x\\\"y\\u0041\", \
             \"o\": {\"k\": \"v\"}}",
        )
        .unwrap();
        assert_eq!(doc.num("a"), Some(1.0));
        let arr = doc.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.5));
        assert_eq!(arr[1].as_f64(), Some(-2000.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(doc.get("o").unwrap().get("k").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("{} trailing"), None);
        assert_eq!(Json::parse("{\"k\": }"), None);
        assert_eq!(Json::parse("nope"), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn audit_panel_extracts_diagonal_recall() {
        let text = "{\"scale\": \"quick\", \"agreement\": 0.76, \
                    \"class_labels\": [\"client\", \"server\"], \
                    \"confusion_matrix\": [[8, 2], [0, 0]], \
                    \"permanent_pairs\": {\"precision\": 1.0, \"recall\": 0.9}}";
        let p = bench_panel("BENCH_audit.json", text);
        let recall = p
            .series
            .iter()
            .find(|s| s.name.contains("diagonal"))
            .unwrap();
        // The all-zero server row is skipped, client recall = 0.8.
        assert_eq!(recall.points, vec![("client".to_string(), 0.8)]);
        let det = p.series.iter().find(|s| s.name == "detector recall").unwrap();
        assert_eq!(det.points, vec![("pairs".to_string(), 0.9)]);
    }

    #[test]
    fn scenarios_panel_tracks_own_archetype_recall() {
        let text = "{\"seed\": 1, \"threads\": 7, \"scenarios\": [\
            {\"scenario\": \"censored\", \"agreement\": 0.7, \"weighted_agreement\": 0.78, \
             \"archetypes\": [{\"name\": \"censored\", \"truth\": 10, \"recall\": 0.0}]},\
            {\"scenario\": \"adversarial-month\", \"agreement\": 0.6, \"weighted_agreement\": 0.66, \
             \"archetypes\": [{\"name\": \"censored\", \"truth\": 5, \"recall\": 0.2},\
                              {\"name\": \"wrong-dns\", \"truth\": 0, \"recall\": 1.0}]}]}";
        let p = bench_panel("BENCH_scenarios.json", text);
        let own = p
            .series
            .iter()
            .find(|s| s.name.starts_with("own-archetype"))
            .unwrap();
        assert_eq!(own.points[0], ("censored".to_string(), 0.0));
        let month = p
            .series
            .iter()
            .find(|s| s.name.contains("adversarial-month"))
            .unwrap();
        // wrong-dns never fired (truth 0): excluded.
        assert_eq!(month.points, vec![("censored".to_string(), 0.2)]);
        let agreement = p.series.iter().find(|s| s.name.contains("agreement")).unwrap();
        assert_eq!(agreement.points[0].1, 0.78);
    }

    #[test]
    fn unparsable_and_unknown_sources_degrade_to_notes() {
        let p = bench_panel("BENCH_audit.json", "{nope");
        assert!(p.notes[0].contains("unparsable"));
        let p = bench_panel("BENCH_mystery.json", "{\"seed\": 3}");
        assert!(p.notes[0].contains("no extractor"));
        assert!(p.badges.iter().any(|(k, _)| k == "seed"));
    }

    #[test]
    fn empty_top_level_array_degrades_without_panicking() {
        // A valid document of the wrong shape (array where an object is
        // expected) must render as an empty/noted panel, never panic.
        let p = bench_panel("BENCH_scenarios.json", "[]");
        assert_eq!(p.notes, vec!["scenarios: no scenario array".to_string()]);
        assert!(p.series.is_empty());
        let p = bench_panel("BENCH_audit.json", "[]");
        assert!(p.series.is_empty() && p.badges.is_empty());
    }

    #[test]
    fn truncated_file_reads_as_unparsable() {
        // A partially written artifact (crash mid-flush) must not panic the
        // report — every truncation point of a valid document degrades to
        // the "unparsable" note.
        let full =
            "{\"seed\": 1, \"scenarios\": [{\"scenario\": \"censored\", \"agreement\": 0.7}]}";
        for cut in 1..full.len() {
            let p = bench_panel("BENCH_scenarios.json", &full[..cut]);
            assert!(
                p.notes[0].contains("unparsable"),
                "cut at {cut} parsed unexpectedly"
            );
        }
    }

    #[test]
    fn overflowing_and_negative_zero_numbers_parse_without_panic() {
        // 1e309 overflows f64 to infinity; Rust's parse accepts it, and the
        // badge formatter must not panic on a non-finite value.
        let doc = Json::parse("{\"transactions\": 1e309, \"wall_seconds\": -0}").unwrap();
        assert_eq!(doc.num("transactions"), Some(f64::INFINITY));
        assert_eq!(doc.num("wall_seconds"), Some(-0.0));
        let p = bench_panel("BENCH_audit.json", "{\"seed\": 1e309, \"agreement\": -0}");
        assert!(p.badges.iter().any(|(k, v)| k == "seed" && v == "inf"));
        assert!(p.badges.iter().any(|(k, v)| k == "agreement" && v == "-0"));
    }

    #[test]
    fn deep_nesting_reads_as_unparsable_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\": ", "}")] {
            assert!(
                Json::parse(&nest(open, close, MAX_DEPTH)).is_some(),
                "{open}"
            );
            assert_eq!(
                Json::parse(&nest(open, close, MAX_DEPTH + 1)),
                None,
                "{open}"
            );
            // Unterminated, far past the bound: rejected at MAX_DEPTH + 1.
            assert_eq!(Json::parse(&open.repeat(200_000)), None, "{open}");
            let p = bench_panel("BENCH_audit.json", &nest(open, close, 100_000));
            assert!(p.notes[0].contains("unparsable"), "{open}: {:?}", p.notes);
        }
    }

    #[test]
    fn unknown_keys_are_ignored_not_fatal() {
        let text = "{\"seed\": 1, \"future_field\": {\"nested\": [1, 2]}, \
                    \"scenarios\": [{\"scenario\": \"censored\", \"agreement\": 0.7, \
                    \"novel_metric\": 9}]}";
        let p = bench_panel("BENCH_scenarios.json", text);
        assert!(p.notes.is_empty(), "{:?}", p.notes);
        let agreement = p
            .series
            .iter()
            .find(|s| s.name.contains("agreement"))
            .unwrap();
        assert_eq!(agreement.points, vec![("censored".to_string(), 0.7)]);
    }

    #[test]
    fn committed_artifacts_parse_end_to_end() {
        // The real committed files must stay ingestible; run from the repo
        // root by the workspace test harness, skip quietly elsewhere.
        for name in ["BENCH_audit.json", "BENCH_scenarios.json"] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(name);
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let panel = bench_panel(name, &text);
            assert!(
                panel.notes.is_empty(),
                "{name} failed ingestion: {:?}",
                panel.notes
            );
            assert!(!panel.badges.is_empty(), "{name} produced no badges");
        }
    }
}
