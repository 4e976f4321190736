//! One-command self-contained HTML report.
//!
//! A single page — inline CSS, inline SVG sparklines, one small inline
//! script, zero external requests — carrying everything the text harness
//! prints plus the structures text cannot: the heat-shaded blame confusion
//! grid, per-stage wall/sim-time bars, and bench-trajectory sparklines.
//!
//! Architecture: renderers never paste HTML strings together. Each report
//! area implements [`Section`] and contributes its content through a
//! [`SectionBuilder`], whose element writers ([`SectionBuilder::table`],
//! [`SectionBuilder::badges`], [`SectionBuilder::bars`], ...) escape every
//! cell and attribute via the one shared [`escape_html`]. The page is
//! assembled by [`HtmlReport`], which owns the skeleton (doctype, CSS,
//! navigation, anchors) so sections cannot break self-containment.
//!
//! Determinism: the page is a pure function of its inputs. Everything
//! derived from the dataset is byte-identical across runs and thread
//! counts; the deliberately nondeterministic measurements (wall-clock
//! fields of the [`Manifest`], stage-profile durations) are inputs, not
//! samples taken during rendering, so tests can pin them.

use std::fmt::Write as _;

/// Escape a string for HTML text or attribute context.
///
/// The one escaping routine every cell/attribute writer in this module
/// uses; site names, archetype samples, and salvage messages all flow
/// through here (decoy/TEST-NET-1 names contain no markup today, but the
/// report must stay well-formed when a future world names a site
/// `<script>` or `a&b"c`).
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Cell alignment in an [`HtmlTable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CellAlign {
    #[default]
    Left,
    Right,
}

/// One table cell: text plus optional numeric heat shading.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    pub text: String,
    pub align: CellAlign,
    /// Background intensity in `0.0..=1.0` (clamped); `None` renders an
    /// unshaded cell. Used by the confusion-matrix heat grid.
    pub heat: Option<f64>,
}

impl Cell {
    /// A left-aligned text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell {
            text: s.into(),
            ..Cell::default()
        }
    }

    /// A right-aligned numeric cell.
    pub fn num(s: impl Into<String>) -> Cell {
        Cell {
            text: s.into(),
            align: CellAlign::Right,
            heat: None,
        }
    }

    /// A right-aligned numeric cell with heat shading.
    pub fn heat(s: impl Into<String>, heat: f64) -> Cell {
        Cell {
            text: s.into(),
            align: CellAlign::Right,
            heat: Some(heat),
        }
    }
}

/// A typed HTML table under construction.
#[derive(Clone, Debug, Default)]
pub struct HtmlTable {
    pub caption: Option<String>,
    pub headers: Vec<Cell>,
    pub rows: Vec<Vec<Cell>>,
}

impl HtmlTable {
    pub fn new<I, S>(headers: I) -> HtmlTable
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        HtmlTable {
            caption: None,
            headers: headers.into_iter().map(Cell::text).collect(),
            rows: Vec::new(),
        }
    }

    pub fn with_caption(mut self, caption: impl Into<String>) -> HtmlTable {
        self.caption = Some(caption.into());
        self
    }

    /// Right-align the given header columns (numbers usually).
    pub fn right_align(mut self, columns: &[usize]) -> HtmlTable {
        for &c in columns {
            if c < self.headers.len() {
                self.headers[c].align = CellAlign::Right;
            }
        }
        self
    }

    pub fn row(&mut self, cells: Vec<Cell>) -> &mut HtmlTable {
        self.rows.push(cells);
        self
    }
}

/// One horizontal bar of a [`SectionBuilder::bars`] chart.
#[derive(Clone, Debug)]
pub struct BarRow {
    pub label: String,
    /// Bar length relative to the chart maximum (`0.0..=1.0`, clamped).
    pub fraction: f64,
    /// Text printed after the bar (the actual value).
    pub value: String,
}

/// A sequence of labelled points rendered as a sparkline.
#[derive(Clone, Debug)]
pub struct Series {
    pub name: String,
    pub points: Vec<(String, f64)>,
}

impl Series {
    pub fn new(name: impl Into<String>, points: Vec<(String, f64)>) -> Series {
        Series {
            name: name.into(),
            points,
        }
    }
}

/// One report area. Implementors build their content through the
/// [`SectionBuilder`] passed to [`Section::build`]; the page skeleton,
/// anchors, and navigation are owned by [`HtmlReport`].
pub trait Section {
    /// Stable anchor id (`[a-z0-9-]+`), used for `id=` and the nav link.
    fn id(&self) -> &'static str;
    /// Human heading.
    fn title(&self) -> String;
    /// Contribute the section body.
    fn build(&self, out: &mut SectionBuilder);
}

/// Element-level writer handed to [`Section::build`]. Every writer escapes
/// its inputs; sections never emit raw HTML.
#[derive(Debug, Default)]
pub struct SectionBuilder {
    body: String,
}

impl SectionBuilder {
    /// A sub-heading inside the section, with its own anchor
    /// (`{section}-{slug}`) so deep links into e.g. one paper table work.
    pub fn subheading(&mut self, anchor: &str, text: &str) {
        let _ = writeln!(
            self.body,
            "<h3 id=\"{}\">{}</h3>",
            escape_html(anchor),
            escape_html(text)
        );
    }

    /// A paragraph of plain text.
    pub fn paragraph(&mut self, text: &str) {
        let _ = writeln!(self.body, "<p>{}</p>", escape_html(text));
    }

    /// A dimmed note (caveats, truncation markers).
    pub fn note(&mut self, text: &str) {
        let _ = writeln!(self.body, "<p class=\"note\">{}</p>", escape_html(text));
    }

    /// Monospace block, exactly as rendered by the text harness.
    pub fn preformatted(&mut self, text: &str) {
        let _ = writeln!(self.body, "<pre>{}</pre>", escape_html(text));
    }

    /// Key-value chips (the run-manifest header, agreement figures).
    pub fn badges(&mut self, items: &[(String, String)]) {
        self.body.push_str("<div class=\"badges\">");
        for (k, v) in items {
            let _ = write!(
                self.body,
                "<span class=\"badge\"><span class=\"k\">{}</span> {}</span>",
                escape_html(k),
                escape_html(v)
            );
        }
        self.body.push_str("</div>\n");
    }

    /// A typed table; cells are escaped and heat shading becomes an inline
    /// background with intensity clamped to `0.0..=1.0`.
    pub fn table(&mut self, t: &HtmlTable) {
        self.body.push_str("<table>");
        if let Some(c) = &t.caption {
            let _ = write!(self.body, "<caption>{}</caption>", escape_html(c));
        }
        self.body.push_str("<thead><tr>");
        for h in &t.headers {
            let _ = write!(
                self.body,
                "<th{}>{}</th>",
                align_attr(h.align),
                escape_html(&h.text)
            );
        }
        self.body.push_str("</tr></thead><tbody>\n");
        for row in &t.rows {
            self.body.push_str("<tr>");
            for cell in row {
                match cell.heat {
                    Some(h) => {
                        let a = h.clamp(0.0, 1.0);
                        let _ = write!(
                            self.body,
                            "<td{} style=\"background:rgba(31,119,80,{:.3})\">{}</td>",
                            align_attr(cell.align),
                            // Keep fully-unshaded cells visually flat but
                            // still mark zero heat distinctly from "no heat".
                            a * 0.85,
                            escape_html(&cell.text)
                        );
                    }
                    None => {
                        let _ = write!(
                            self.body,
                            "<td{}>{}</td>",
                            align_attr(cell.align),
                            escape_html(&cell.text)
                        );
                    }
                }
            }
            self.body.push_str("</tr>\n");
        }
        self.body.push_str("</tbody></table>\n");
    }

    /// Horizontal bar chart (stage profiles). Bar lengths are fractions of
    /// the chart maximum; values are printed beside the bars.
    pub fn bars(&mut self, rows: &[BarRow]) {
        self.body.push_str("<div class=\"bars\">\n");
        for r in rows {
            let pct = r.fraction.clamp(0.0, 1.0) * 100.0;
            let _ = writeln!(
                self.body,
                "<div class=\"barrow\"><span class=\"barlabel\">{}</span>\
                 <span class=\"bartrack\"><span class=\"bar\" style=\"width:{:.2}%\"></span></span>\
                 <span class=\"barvalue\">{}</span></div>",
                escape_html(&r.label),
                pct,
                escape_html(&r.value)
            );
        }
        self.body.push_str("</div>\n");
    }

    /// A labelled sparkline: inline SVG polyline over the series points,
    /// with first/last values printed beside it. A single point renders as
    /// a flat line; an empty series renders a note instead.
    pub fn sparkline(&mut self, s: &Series) {
        if s.points.is_empty() {
            self.note(&format!("{}: no data", s.name));
            return;
        }
        const W: f64 = 220.0;
        const H: f64 = 36.0;
        const PAD: f64 = 3.0;
        let values: Vec<f64> = s.points.iter().map(|p| p.1).collect();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = if (hi - lo).abs() < 1e-12 { 1.0 } else { hi - lo };
        let n = values.len();
        let xy = |i: usize, v: f64| -> (f64, f64) {
            let x = if n == 1 {
                W / 2.0
            } else {
                PAD + (W - 2.0 * PAD) * i as f64 / (n - 1) as f64
            };
            let y = PAD + (H - 2.0 * PAD) * (1.0 - (v - lo) / span);
            (x, y)
        };
        let mut pts = String::new();
        for (i, v) in values.iter().enumerate() {
            let (x, y) = xy(i, *v);
            if i > 0 {
                pts.push(' ');
            }
            let _ = write!(pts, "{x:.1},{y:.1}");
        }
        let (lx, ly) = xy(n - 1, values[n - 1]);
        // The hover title carries every labelled point, so the sparkline is
        // inspectable without any external tooling.
        let title: Vec<String> = s
            .points
            .iter()
            .map(|(l, v)| format!("{l}: {v}"))
            .collect();
        let _ = writeln!(
            self.body,
            "<div class=\"spark\"><span class=\"sparklabel\">{}</span>\
             <svg viewBox=\"0 0 {W:.0} {H:.0}\" width=\"{W:.0}\" height=\"{H:.0}\" \
             role=\"img\"><title>{}</title>\
             <polyline fill=\"none\" stroke=\"#1f7750\" stroke-width=\"1.5\" \
             points=\"{pts}\"/>\
             <circle cx=\"{lx:.1}\" cy=\"{ly:.1}\" r=\"2.2\" fill=\"#1f7750\"/></svg>\
             <span class=\"sparkvalue\">{} &rarr; {}</span></div>",
            escape_html(&s.name),
            escape_html(&title.join("  ")),
            escape_html(&trim_float(values[0])),
            escape_html(&trim_float(values[n - 1])),
        );
    }

    /// A collapsible drilldown (`<details>`): the summary line stays
    /// visible, the body expands on demand. Used for missed-sample lists.
    pub fn drilldown(&mut self, summary: &str, lines: &[String]) {
        let _ = write!(
            self.body,
            "<details><summary>{}</summary><ul>",
            escape_html(summary)
        );
        for line in lines {
            let _ = write!(self.body, "<li>{}</li>", escape_html(line));
        }
        self.body.push_str("</ul></details>\n");
    }

    /// A drilldown whose items may link to an in-page anchor (same-page
    /// `#fragment` only, preserving self-containment). Items without an
    /// anchor render as plain text, exactly like [`Self::drilldown`].
    pub fn drilldown_linked(&mut self, summary: &str, items: &[(String, Option<String>)]) {
        let _ = write!(
            self.body,
            "<details><summary>{}</summary><ul>",
            escape_html(summary)
        );
        for (line, anchor) in items {
            match anchor {
                Some(a) => {
                    let _ = write!(
                        self.body,
                        "<li><a href=\"#{}\">{}</a></li>",
                        escape_html(a),
                        escape_html(line)
                    );
                }
                None => {
                    let _ = write!(self.body, "<li>{}</li>", escape_html(line));
                }
            }
        }
        self.body.push_str("</ul></details>\n");
    }

    /// A span waterfall: labelled horizontal spans on a shared time axis,
    /// rendered as one inline SVG (the trace-forensics idiom, like
    /// [`Self::sparkline`] is for series). `anchor` becomes the figure's
    /// `id` so drilldowns can deep-link to one waterfall. Spans carry a
    /// hover `<title>` tip. An empty row list renders a note.
    pub fn waterfall(&mut self, anchor: &str, caption: &str, rows: &[WaterfallRow]) {
        if rows.is_empty() {
            self.note(&format!("{caption}: no events"));
            return;
        }
        const W: f64 = 560.0;
        const ROW_H: f64 = 22.0;
        const LABEL_W: f64 = 170.0;
        const PAD: f64 = 4.0;
        let end = rows
            .iter()
            .map(|r| r.start_us + r.len_us)
            .max()
            .unwrap_or(1)
            .max(1);
        let h = ROW_H * rows.len() as f64 + 2.0 * PAD;
        let scale = (W - LABEL_W - 2.0 * PAD) / end as f64;
        let _ = write!(
            self.body,
            "<figure class=\"waterfall\" id=\"{}\"><figcaption>{}</figcaption>\
             <svg viewBox=\"0 0 {W:.0} {h:.0}\" width=\"{W:.0}\" height=\"{h:.0}\" role=\"img\">",
            escape_html(anchor),
            escape_html(caption),
        );
        for (i, r) in rows.iter().enumerate() {
            let y = PAD + ROW_H * i as f64;
            let x = LABEL_W + PAD + r.start_us as f64 * scale;
            // Zero-length events (instant failures) still get a visible tick.
            let w = (r.len_us as f64 * scale).max(2.0);
            let _ = write!(
                self.body,
                "<text x=\"{:.1}\" y=\"{:.1}\" class=\"wf-label\">{}</text>\
                 <rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{w:.1}\" height=\"{:.1}\" \
                 class=\"wf-{}\"><title>{}</title></rect>",
                LABEL_W - 2.0,
                y + ROW_H * 0.7,
                escape_html(&r.label),
                y + 3.0,
                ROW_H - 8.0,
                escape_html(r.class),
                escape_html(&r.tip),
            );
        }
        self.body.push_str("</svg></figure>\n");
    }
}

/// One span of a [`SectionBuilder::waterfall`]: a labelled bar from
/// `start_us` for `len_us` on the shared axis.
#[derive(Clone, Debug)]
pub struct WaterfallRow {
    /// Row label printed left of the axis (e.g. `"dns www.example.com"`).
    pub label: String,
    /// Visual class: `"ok"`, `"fail"`, or `"truth"` (maps to `.wf-ok` etc.).
    pub class: &'static str,
    /// Span offset from the transaction start, microseconds.
    pub start_us: u64,
    /// Span length, microseconds.
    pub len_us: u64,
    /// Hover tooltip (outcome, latency, active faults).
    pub tip: String,
}

fn align_attr(a: CellAlign) -> &'static str {
    match a {
        CellAlign::Left => "",
        CellAlign::Right => " class=\"r\"",
    }
}

/// Compact float formatting for sparkline endpoints: up to four significant
/// decimals, trailing zeros trimmed, integers without a point.
fn trim_float(v: f64) -> String {
    let s = format!("{v:.4}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// The page under assembly: sections in order, rendered with one skeleton.
#[derive(Default)]
pub struct HtmlReport {
    title: String,
    generated: String,
    sections: Vec<(&'static str, String, String)>,
}

impl HtmlReport {
    pub fn new(title: impl Into<String>) -> HtmlReport {
        HtmlReport {
            title: title.into(),
            generated: String::new(),
            sections: Vec::new(),
        }
    }

    /// A provenance line shown under the page title (seed, scale — not a
    /// timestamp, which would break byte-identity across runs).
    pub fn with_generated(mut self, line: impl Into<String>) -> HtmlReport {
        self.generated = line.into();
        self
    }

    /// Render `section` and append it to the page.
    pub fn add_section(&mut self, section: &dyn Section) -> &mut HtmlReport {
        let mut b = SectionBuilder::default();
        section.build(&mut b);
        self.sections.push((section.id(), section.title(), b.body));
        self
    }

    /// Assemble the full self-contained page.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(out, "<title>{}</title>", escape_html(&self.title));
        out.push_str("<style>\n");
        out.push_str(STYLE);
        out.push_str("</style>\n</head>\n<body>\n");
        let _ = writeln!(out, "<header><h1>{}</h1>", escape_html(&self.title));
        if !self.generated.is_empty() {
            let _ = writeln!(out, "<p class=\"note\">{}</p>", escape_html(&self.generated));
        }
        out.push_str("<nav>");
        for (id, title, _) in &self.sections {
            let _ = write!(
                out,
                "<a href=\"#{}\">{}</a>",
                escape_html(id),
                escape_html(title)
            );
        }
        out.push_str("</nav></header>\n<main>\n");
        for (id, title, body) in &self.sections {
            let _ = writeln!(
                out,
                "<section id=\"{}\">\n<h2>{}</h2>",
                escape_html(id),
                escape_html(title)
            );
            out.push_str(body);
            out.push_str("</section>\n");
        }
        out.push_str("</main>\n<script>\n");
        out.push_str(SCRIPT);
        out.push_str("</script>\n</body>\n</html>\n");
        out
    }
}

/// Inline stylesheet. Self-containment rule: no `url(...)`, no `@import`,
/// no web fonts — system fonts and colors only.
const STYLE: &str = "\
:root{--fg:#1d2a24;--dim:#5c6b63;--line:#d8e0db;--accent:#1f7750;--bg:#fbfcfb;--chip:#eef3f0}\
body{margin:0;font:15px/1.5 system-ui,sans-serif;color:var(--fg);background:var(--bg)}\
header{padding:1.2rem 2rem .6rem;border-bottom:1px solid var(--line)}\
h1{margin:.1rem 0;font-size:1.4rem}\
h2{margin:.4rem 0 .6rem;font-size:1.15rem;border-bottom:1px solid var(--line);padding-bottom:.25rem}\
h3{margin:1rem 0 .3rem;font-size:1rem}\
nav{display:flex;flex-wrap:wrap;gap:.6rem;margin:.5rem 0}\
nav a{color:var(--accent);text-decoration:none;font-size:.9rem}\
nav a:hover{text-decoration:underline}\
main{padding:1rem 2rem 3rem;max-width:72rem}\
section{margin-bottom:1.8rem}\
section:target h2{background:var(--chip)}\
p.note{color:var(--dim);font-size:.85rem;margin:.3rem 0}\
pre{background:#f2f5f3;border:1px solid var(--line);border-radius:4px;padding:.6rem .8rem;\
overflow-x:auto;font:12.5px/1.45 ui-monospace,monospace}\
table{border-collapse:collapse;margin:.4rem 0 .8rem;font-size:.88rem}\
caption{text-align:left;font-weight:600;padding:.2rem 0}\
th,td{border:1px solid var(--line);padding:.22rem .55rem;text-align:left}\
th{background:var(--chip)}\
th.r,td.r{text-align:right;font-variant-numeric:tabular-nums}\
.badges{display:flex;flex-wrap:wrap;gap:.45rem;margin:.4rem 0}\
.badge{background:var(--chip);border:1px solid var(--line);border-radius:999px;\
padding:.12rem .7rem;font-size:.85rem}\
.badge .k{color:var(--dim);margin-right:.3rem}\
.bars{margin:.4rem 0 .8rem}\
.barrow{display:flex;align-items:center;gap:.6rem;margin:.15rem 0}\
.barlabel{flex:0 0 16rem;font-size:.85rem;text-align:right;color:var(--dim)}\
.bartrack{flex:1;background:var(--chip);border-radius:3px;height:.8rem;max-width:26rem}\
.bar{display:block;height:100%;background:var(--accent);border-radius:3px}\
.barvalue{font-size:.85rem;font-variant-numeric:tabular-nums}\
.spark{display:flex;align-items:center;gap:.7rem;margin:.25rem 0}\
.sparklabel{flex:0 0 16rem;text-align:right;font-size:.85rem;color:var(--dim)}\
.sparkvalue{font-size:.85rem;font-variant-numeric:tabular-nums}\
details{margin:.3rem 0}\
summary{cursor:pointer;color:var(--accent);font-size:.88rem}\
details ul{margin:.2rem 0 .4rem 1.2rem;font-size:.85rem}\
.waterfall{margin:.6rem 0;padding:.3rem 0;border-bottom:1px dashed var(--line)}\
.waterfall figcaption{font-size:.85rem;font-weight:600;margin-bottom:.15rem}\
.waterfall:target figcaption{background:var(--chip)}\
.wf-label{font:10.5px ui-monospace,monospace;fill:var(--dim);text-anchor:end}\
.wf-ok{fill:var(--accent);opacity:.75}\
.wf-fail{fill:#b3402a;opacity:.85}\
.wf-truth{fill:#8a6d1f;opacity:.6}\
";

/// Inline script: the page works fully without it (pure progressive
/// enhancement — keyboard section cycling). No fetches, no globals beyond
/// one handler.
const SCRIPT: &str = "\
document.addEventListener('keydown',function(e){\
if(e.key!=='j'&&e.key!=='k')return;\
var ids=Array.prototype.map.call(document.querySelectorAll('main section'),\
function(s){return s.id});\
if(!ids.length)return;\
var cur=ids.indexOf(location.hash.slice(1));\
var next=e.key==='j'?Math.min(cur+1,ids.length-1):Math.max(cur-1,0);\
location.hash='#'+ids[next];\
});\
";

// ---------------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------------

/// Wall-clock spent in one pipeline stage (diagnostic — the deliberately
/// nondeterministic part of a run, like [`workload` wall times]).
#[derive(Clone, Debug, PartialEq)]
pub struct StageWall {
    pub stage: String,
    pub seconds: f64,
}

/// Everything identifying a report's run, stamped into the HTML header and
/// the machine-readable `manifest.json` alike.
///
/// Plain data: the workload and harness fill it in; this crate only
/// renders. All fields except `stage_walls` are deterministic functions of
/// the seed and configuration.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Manifest {
    pub scale: String,
    pub seed: u64,
    /// Configured worker threads (0 = all cores).
    pub threads_configured: usize,
    /// Worker threads actually used.
    pub threads_effective: usize,
    pub hours: u32,
    pub iterations_per_hour: u32,
    /// FNV-1a digest over the full experiment configuration debug form.
    pub config_digest: u64,
    /// Short description of the adversarial profile ("none", the preset
    /// name, or the per-archetype intensities).
    pub adversarial_profile: String,
    /// `model::fingerprint` of the produced dataset: FNV-1a over the
    /// derived `Hash` of every client, site, record, connection, prefix
    /// and BGP cell. `detcheck` prints the same value as its dataset hash,
    /// and `explain --audit-misses` compares two runs by it.
    pub dataset_fingerprint: u64,
    pub transactions: u64,
    pub connections: u64,
    pub records_dropped: u64,
    pub clients_lost: u64,
    /// Wall-clock per pipeline stage, in run order.
    pub stage_walls: Vec<StageWall>,
}

impl Manifest {
    /// The machine-readable form (`manifest.json`), hand-rolled like the
    /// other bench artifacts (no JSON dependency in the workspace).
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stage_walls
            .iter()
            .map(|s| {
                format!(
                    "    {{\"stage\": \"{}\", \"wall_seconds\": {:.3}}}",
                    json_escape(&s.stage),
                    s.seconds
                )
            })
            .collect();
        format!(
            "{{\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"threads_configured\": {},\n  \
             \"threads_effective\": {},\n  \"hours\": {},\n  \"iterations_per_hour\": {},\n  \
             \"config_digest\": \"{:016x}\",\n  \"adversarial_profile\": \"{}\",\n  \
             \"dataset_fingerprint\": \"{:016x}\",\n  \"transactions\": {},\n  \
             \"connections\": {},\n  \"records_dropped\": {},\n  \"clients_lost\": {},\n  \
             \"stage_walls\": [\n{}\n  ]\n}}\n",
            json_escape(&self.scale),
            self.seed,
            self.threads_configured,
            self.threads_effective,
            self.hours,
            self.iterations_per_hour,
            self.config_digest,
            json_escape(&self.adversarial_profile),
            self.dataset_fingerprint,
            self.transactions,
            self.connections,
            self.records_dropped,
            self.clients_lost,
            stages.join(",\n"),
        )
    }
}

// The workspace's one JSON-string escaper; the manifest shares it with the
// JSONL/Chrome-trace exporters so hostile names escape identically
// everywhere.
use telemetry::json_escape;

/// The manifest as the page's first section: identity badges plus the
/// per-stage wall table.
pub struct ManifestSection<'a>(pub &'a Manifest);

impl Section for ManifestSection<'_> {
    fn id(&self) -> &'static str {
        "manifest"
    }

    fn title(&self) -> String {
        "Run manifest".to_string()
    }

    fn build(&self, out: &mut SectionBuilder) {
        let m = self.0;
        out.badges(&[
            ("scale".to_string(), m.scale.clone()),
            ("seed".to_string(), m.seed.to_string()),
            (
                "threads".to_string(),
                if m.threads_configured == 0 {
                    format!("auto ({})", m.threads_effective)
                } else {
                    m.threads_configured.to_string()
                },
            ),
            (
                "horizon".to_string(),
                format!("{} h x {}/h", m.hours, m.iterations_per_hour),
            ),
            ("config digest".to_string(), format!("{:016x}", m.config_digest)),
            ("adversarial".to_string(), m.adversarial_profile.clone()),
            (
                "dataset fingerprint".to_string(),
                format!("{:016x}", m.dataset_fingerprint),
            ),
            ("transactions".to_string(), m.transactions.to_string()),
            ("connections".to_string(), m.connections.to_string()),
            ("records dropped".to_string(), m.records_dropped.to_string()),
            ("clients lost".to_string(), m.clients_lost.to_string()),
        ]);
        if !m.stage_walls.is_empty() {
            let max = m
                .stage_walls
                .iter()
                .map(|s| s.seconds)
                .fold(0.0f64, f64::max)
                .max(1e-9);
            let rows: Vec<BarRow> = m
                .stage_walls
                .iter()
                .map(|s| BarRow {
                    label: s.stage.clone(),
                    fraction: s.seconds / max,
                    value: format!("{:.2}s", s.seconds),
                })
                .collect();
            out.subheading("manifest-stages", "Wall-clock per stage");
            out.bars(&rows);
            out.note(
                "Wall-clock figures are diagnostic: the one deliberately \
                 nondeterministic part of a run. Every other manifest field is a \
                 pure function of seed and configuration.",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry stage profile
// ---------------------------------------------------------------------------

/// The telemetry stage profile as a section: per-stage wall-time bars and,
/// where spans carried a simulation-time range, sim-time coverage bars.
pub struct TelemetrySection<'a>(pub &'a [telemetry::StageProfile]);

impl Section for TelemetrySection<'_> {
    fn id(&self) -> &'static str {
        "telemetry"
    }

    fn title(&self) -> String {
        "Telemetry stage profile".to_string()
    }

    fn build(&self, out: &mut SectionBuilder) {
        if self.0.is_empty() {
            out.note(
                "Recorder off or compiled out (--no-default-features): no spans \
                 were captured for this run.",
            );
            return;
        }
        let max_wall = self
            .0
            .iter()
            .map(|s| s.wall_ns_total)
            .max()
            .unwrap_or(1)
            .max(1);
        let wall_rows: Vec<BarRow> = self
            .0
            .iter()
            .map(|s| BarRow {
                label: format!("{} (n={})", s.name, s.count),
                fraction: s.wall_ns_total as f64 / max_wall as f64,
                value: format!("{:.1} ms", s.wall_ns_total as f64 / 1e6),
            })
            .collect();
        out.subheading("telemetry-wall", "Wall time by stage");
        out.bars(&wall_rows);

        let sim: Vec<&telemetry::StageProfile> =
            self.0.iter().filter(|s| s.sim_us_total > 0).collect();
        if !sim.is_empty() {
            let max_sim = sim.iter().map(|s| s.sim_us_total).max().unwrap_or(1).max(1);
            let rows: Vec<BarRow> = sim
                .iter()
                .map(|s| BarRow {
                    label: s.name.to_string(),
                    fraction: s.sim_us_total as f64 / max_sim as f64,
                    value: format!("{:.1} sim-h", s.sim_us_total as f64 / 3.6e9),
                })
                .collect();
            out.subheading("telemetry-sim", "Simulated time covered by stage");
            out.bars(&rows);
        }
        out.note(
            "Spans aggregate by name across threads; durations are wall clock \
             and vary run to run. Sim-time coverage is deterministic.",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_markup_and_quotes() {
        assert_eq!(escape_html("plain-name"), "plain-name");
        assert_eq!(
            escape_html("<script>alert('x')</script>"),
            "&lt;script&gt;alert(&#39;x&#39;)&lt;/script&gt;"
        );
        assert_eq!(escape_html("a&b\"c"), "a&amp;b&quot;c");
        // Decoy / TEST-NET-1 style names pass through unchanged.
        assert_eq!(escape_html("decoy.192-0-2-7.test"), "decoy.192-0-2-7.test");
    }

    #[test]
    fn table_escapes_cells_and_shades_heat() {
        let mut t = HtmlTable::new(["site", "failures"]).right_align(&[1]);
        t.row(vec![Cell::text("<evil> & \"site\""), Cell::heat("12", 0.5)]);
        let mut b = SectionBuilder::default();
        b.table(&t);
        let html = b.body;
        assert!(html.contains("&lt;evil&gt; &amp; &quot;site&quot;"));
        assert!(!html.contains("<evil>"));
        assert!(html.contains("rgba(31,119,80,0.425)"), "{html}");
        assert!(html.contains("<th class=\"r\">failures</th>"));
    }

    #[test]
    fn heat_is_clamped() {
        let mut t = HtmlTable::new(["x"]);
        t.row(vec![Cell::heat("a", 7.0)]);
        t.row(vec![Cell::heat("b", -3.0)]);
        let mut b = SectionBuilder::default();
        b.table(&t);
        assert!(b.body.contains("rgba(31,119,80,0.850)"));
        assert!(b.body.contains("rgba(31,119,80,0.000)"));
    }

    #[test]
    fn sparkline_handles_flat_single_and_empty_series() {
        let mut b = SectionBuilder::default();
        b.sparkline(&Series::new("empty", vec![]));
        assert!(b.body.contains("no data"));

        let mut b = SectionBuilder::default();
        b.sparkline(&Series::new("one", vec![("a".into(), 5.0)]));
        assert!(b.body.contains("<svg"), "{}", b.body);

        let mut b = SectionBuilder::default();
        b.sparkline(&Series::new(
            "flat",
            vec![("a".into(), 2.0), ("b".into(), 2.0)],
        ));
        assert!(b.body.contains("polyline"));
        assert!(b.body.contains("2 &rarr; 2"), "{}", b.body);
    }

    #[test]
    fn bars_clamp_fractions() {
        let mut b = SectionBuilder::default();
        b.bars(&[BarRow {
            label: "x".into(),
            fraction: 4.2,
            value: "v".into(),
        }]);
        assert!(b.body.contains("width:100.00%"));
    }

    struct Demo;
    impl Section for Demo {
        fn id(&self) -> &'static str {
            "demo"
        }
        fn title(&self) -> String {
            "Demo <section>".to_string()
        }
        fn build(&self, out: &mut SectionBuilder) {
            out.paragraph("hello & goodbye");
        }
    }

    #[test]
    fn page_is_self_contained_with_anchored_sections() {
        let mut page = HtmlReport::new("Report <2006>");
        page.add_section(&Demo);
        let html = page.render();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<meta charset=\"utf-8\">"));
        assert!(html.contains("Report &lt;2006&gt;"));
        assert!(html.contains("<section id=\"demo\">"));
        assert!(html.contains("<a href=\"#demo\">Demo &lt;section&gt;</a>"));
        assert!(html.contains("hello &amp; goodbye"));
        // The self-containment rule: no external requests of any kind.
        assert!(!html.contains("http://"), "external URL leaked");
        assert!(!html.contains("https://"));
        assert!(!html.contains("url("));
        assert!(!html.contains("@import"));
        // Rendering twice is byte-identical.
        assert_eq!(html, page.render());
    }

    #[test]
    fn manifest_json_and_section_agree_on_fields() {
        let m = Manifest {
            scale: "quick".into(),
            seed: 42,
            threads_configured: 0,
            threads_effective: 4,
            hours: 72,
            iterations_per_hour: 1,
            config_digest: 0xdead_beef,
            adversarial_profile: "none".into(),
            dataset_fingerprint: 0x1234,
            transactions: 771_840,
            connections: 880_000,
            records_dropped: 3,
            clients_lost: 1,
            stage_walls: vec![
                StageWall {
                    stage: "simulate".into(),
                    seconds: 12.5,
                },
                StageWall {
                    stage: "analysis".into(),
                    seconds: 2.25,
                },
            ],
        };
        let json = m.to_json();
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"config_digest\": \"00000000deadbeef\""));
        assert!(json.contains("\"stage\": \"simulate\", \"wall_seconds\": 12.500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let mut b = SectionBuilder::default();
        ManifestSection(&m).build(&mut b);
        assert!(b.body.contains("auto (4)"));
        assert!(b.body.contains("00000000deadbeef"));
        assert!(b.body.contains("72 h x 1/h"));
        assert!(b.body.contains("12.50s"));
    }

    #[test]
    fn telemetry_section_renders_bars_or_absence_note() {
        let mut b = SectionBuilder::default();
        TelemetrySection(&[]).build(&mut b);
        assert!(b.body.contains("Recorder off"));

        let stages = vec![
            telemetry::StageProfile {
                name: "workload.simulate_clients",
                count: 1,
                wall_ns_total: 2_000_000_000,
                sim_us_total: 7_200_000_000,
            },
            telemetry::StageProfile {
                name: "report.render_all",
                count: 1,
                wall_ns_total: 500_000_000,
                sim_us_total: 0,
            },
        ];
        let mut b = SectionBuilder::default();
        TelemetrySection(&stages).build(&mut b);
        assert!(b.body.contains("workload.simulate_clients (n=1)"));
        assert!(b.body.contains("2000.0 ms"));
        assert!(b.body.contains("2.0 sim-h"));
        // render_all has no sim range: absent from the sim bars.
        let sim_at = b.body.find("telemetry-sim").unwrap();
        assert!(!b.body[sim_at..].contains("render_all"));
    }
}
