//! Self-contained HTML dashboard rendering for `adaptcomm report`.
//!
//! [`html_report`] turns a capture in any format (see
//! [`crate::snapshot::Format`]) into one standalone HTML file:
//! inline CSS, inline SVG time-series charts, a link-health matrix, and
//! the per-phase span table. No external assets, scripts, or network
//! fetches, so the file can be archived as a CI artifact and opened
//! years later.
//!
//! Time series arrive as `type:"series"` lines in JSONL or as Chrome
//! counter (`"ph":"C"`) events; link health comes from
//! `link.<src>-<dst>.health` gauges when present, otherwise it is
//! derived from each link's `bandwidth_kbps` series (last sample vs the
//! series maximum).

use crate::detect::HealthState;
use crate::snapshot::Snapshot;
use crate::summary::Summary;
use std::fmt::Write as _;

/// Most series charts rendered into one report; the rest are listed by
/// name only so a dump with hundreds of links stays openable.
const MAX_CHARTS: usize = 24;

/// Everything the dashboard shows, normalized across input formats.
struct ReportData {
    summary: Summary,
    /// `(name, points)` in first-seen order.
    series: Vec<(String, Vec<(f64, f64)>)>,
    /// Gauges (JSONL dumps only; Chrome traces do not carry them).
    gauges: Vec<(String, f64)>,
    /// Realized transfers (spans with `src`/`dst` attrs), for the
    /// critical-path lane view; empty when the dump has none.
    transfers: Vec<crate::causal::Transfer>,
}

/// One row of the link-health matrix.
struct LinkRow {
    src: usize,
    dst: usize,
    state: HealthState,
    /// Most recent bandwidth sample, if a series carried one.
    bandwidth_kbps: Option<f64>,
}

/// Renders a self-contained HTML dashboard of a capture.
pub fn html_report(snap: &Snapshot, title: &str) -> String {
    let data = ReportData {
        summary: Summary::from_snapshot(snap),
        transfers: crate::causal::transfers_from_snapshot(snap),
        series: snap
            .series
            .iter()
            .map(|s| (s.name.clone(), s.points.clone()))
            .collect(),
        gauges: snap
            .gauges
            .iter()
            .map(|g| (g.name.clone(), g.value))
            .collect(),
    };
    render(&data, title)
}

/// Splits `link.<src>-<dst>.<metric>` names; `None` for anything else.
fn parse_link_metric(name: &str) -> Option<(usize, usize, &str)> {
    let rest = name.strip_prefix("link.")?;
    let (pair, metric) = rest.split_once('.')?;
    let (src, dst) = pair.split_once('-')?;
    Some((src.parse().ok()?, dst.parse().ok()?, metric))
}

/// Builds the health matrix: explicit `link.*.health` gauges win;
/// otherwise each link's state is derived from its bandwidth series
/// (last / max < 0.05 → dead, < 0.5 → degraded).
fn upsert(rows: &mut Vec<LinkRow>, src: usize, dst: usize) -> &mut LinkRow {
    if let Some(i) = rows.iter().position(|r| r.src == src && r.dst == dst) {
        return &mut rows[i];
    }
    rows.push(LinkRow {
        src,
        dst,
        state: HealthState::Healthy,
        bandwidth_kbps: None,
    });
    rows.last_mut().unwrap()
}

fn link_rows(data: &ReportData) -> Vec<LinkRow> {
    let mut rows: Vec<LinkRow> = Vec::new();
    for (name, points) in &data.series {
        let Some((src, dst, metric)) = parse_link_metric(name) else {
            continue;
        };
        if metric != "bandwidth_kbps" || points.is_empty() {
            continue;
        }
        let last = points.last().unwrap().1;
        let max = points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        let row = upsert(&mut rows, src, dst);
        row.bandwidth_kbps = Some(last);
        row.state = if max <= 0.0 || last / max < 0.05 {
            HealthState::Dead
        } else if last / max < 0.5 {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
    }
    for (name, value) in &data.gauges {
        let Some((src, dst, metric)) = parse_link_metric(name) else {
            continue;
        };
        if metric == "health" {
            upsert(&mut rows, src, dst).state = HealthState::from_code(*value as u8);
        }
    }
    rows.sort_by_key(|r| (r.src, r.dst));
    rows
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e12 {
        format!("{x}")
    } else {
        format!("{x:.3}")
    }
}

/// An inline SVG polyline chart for one series.
fn svg_chart(points: &[(f64, f64)]) -> String {
    const W: f64 = 560.0;
    const H: f64 = 96.0;
    const PAD: f64 = 4.0;
    if points.is_empty() {
        return "<p class=\"muted\">no points</p>".to_string();
    }
    let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut v0, mut v1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(t, v) in points {
        t0 = t0.min(t);
        t1 = t1.max(t);
        v0 = v0.min(v);
        v1 = v1.max(v);
    }
    let tspan = if t1 > t0 { t1 - t0 } else { 1.0 };
    let vspan = if v1 > v0 { v1 - v0 } else { 1.0 };
    let mut path = String::new();
    for &(t, v) in points {
        let x = PAD + (t - t0) / tspan * (W - 2.0 * PAD);
        let y = H - PAD - (v - v0) / vspan * (H - 2.0 * PAD);
        let _ = write!(path, "{x:.1},{y:.1} ");
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\
         <rect width=\"{W}\" height=\"{H}\" class=\"chart-bg\"/>"
    );
    if points.len() == 1 {
        let _ = write!(
            out,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" class=\"chart-dot\"/>",
            W / 2.0,
            H / 2.0
        );
    } else {
        let _ = write!(
            out,
            "<polyline points=\"{}\" fill=\"none\" class=\"chart-line\"/>",
            path.trim_end()
        );
    }
    let _ = write!(
        out,
        "<text x=\"{PAD}\" y=\"12\" class=\"chart-label\">{}</text>\
         <text x=\"{PAD}\" y=\"{:.0}\" class=\"chart-label\">{}</text></svg>",
        esc(&fmt_num(v1)),
        H - PAD - 2.0,
        esc(&fmt_num(v0)),
    );
    out
}

/// The critical-path lane view: one horizontal lane per sending
/// processor, one rect per realized transfer, critical-path transfers
/// highlighted. The time axis is normalized to the run's completion.
fn svg_lanes(transfers: &[crate::causal::Transfer]) -> String {
    use crate::causal::CausalDag;
    const W: f64 = 960.0;
    const LANE_H: f64 = 16.0;
    const GUTTER: f64 = 34.0;
    const PAD: f64 = 4.0;
    let dag = CausalDag::new(transfers.to_vec());
    let on_path: Vec<usize> = dag.critical_path().iter().map(|s| s.index).collect();
    let completion = dag.completion_ms().max(1e-9);
    let mut senders: Vec<usize> = dag.transfers().iter().map(|t| t.src).collect();
    senders.sort_unstable();
    senders.dedup();
    let h = PAD * 2.0 + senders.len() as f64 * LANE_H;
    let mut out = String::new();
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {h:.0}\" width=\"{W}\" height=\"{h:.0}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\
         <rect width=\"{W}\" height=\"{h:.0}\" class=\"chart-bg\"/>"
    );
    for (lane, src) in senders.iter().enumerate() {
        let _ = write!(
            out,
            "<text x=\"{PAD}\" y=\"{:.1}\" class=\"chart-label\">send {src}</text>",
            PAD + lane as f64 * LANE_H + LANE_H * 0.7
        );
    }
    let span_w = W - GUTTER - 2.0 * PAD;
    for (i, t) in dag.transfers().iter().enumerate() {
        let lane = senders.iter().position(|&s| s == t.src).unwrap();
        let x = GUTTER + PAD + t.start_ms / completion * span_w;
        let w = (t.dur_ms / completion * span_w).max(1.0);
        let y = PAD + lane as f64 * LANE_H + 2.0;
        let cls = if on_path.contains(&i) {
            "lane-crit"
        } else {
            "lane-span"
        };
        let _ = write!(
            out,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{:.1}\" \
             class=\"{cls}\"><title>{} &rarr; {} @ {} +{} ms</title></rect>",
            LANE_H - 4.0,
            t.src,
            t.dst,
            fmt_num(t.start_ms),
            fmt_num(t.dur_ms)
        );
    }
    out.push_str("</svg>");
    out
}

fn render(data: &ReportData, title: &str) -> String {
    let mut b = String::new();
    let _ = write!(
        b,
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{title}</title>\n<style>\n\
         body{{font-family:system-ui,sans-serif;margin:24px;background:#fafafa;color:#222}}\n\
         h1{{font-size:1.4em}} h2{{font-size:1.1em;margin-top:1.6em}}\n\
         table{{border-collapse:collapse;margin:8px 0}}\n\
         th,td{{border:1px solid #ccc;padding:4px 10px;text-align:right}}\n\
         th{{background:#eee}} td.name,th.name{{text-align:left}}\n\
         .healthy{{background:#d9f2d9}} .degraded{{background:#ffe9b3}} .dead{{background:#f5c2c2}}\n\
         .chart-bg{{fill:#fff;stroke:#ddd}} .chart-line{{stroke:#3366cc;stroke-width:1.5}}\n\
         .chart-dot{{fill:#3366cc}} .chart-label{{font-size:10px;fill:#888}}\n\
         .lane-span{{fill:#aac4e4}} .lane-crit{{fill:#cc3333}}\n\
         .muted{{color:#888}} figure{{margin:12px 0}} figcaption{{font-size:0.85em;color:#555}}\n\
         </style>\n</head>\n<body>\n<h1>{title}</h1>\n",
        title = esc(title)
    );

    if !data.transfers.is_empty() {
        let dag = crate::causal::CausalDag::new(data.transfers.clone());
        b.push_str("<h2>Critical path</h2>\n");
        let _ = writeln!(
            b,
            "<figure>{}<figcaption>{} transfer(s), completion {} ms; \
             the {} highlighted hop(s) form the critical path</figcaption></figure>",
            svg_lanes(&data.transfers),
            data.transfers.len(),
            fmt_num(dag.completion_ms()),
            dag.critical_path().len()
        );
    }

    let links = link_rows(data);
    if !links.is_empty() {
        b.push_str(
            "<h2>Link health</h2>\n<table>\n<tr><th class=\"name\">link</th>\
                    <th>state</th><th>bandwidth (kbit/s)</th></tr>\n",
        );
        for r in &links {
            let _ = writeln!(
                b,
                "<tr class=\"{cls}\"><td class=\"name\">{src} &rarr; {dst}</td>\
                 <td>{cls}</td><td>{bw}</td></tr>",
                cls = r.state.name(),
                src = r.src,
                dst = r.dst,
                bw = r
                    .bandwidth_kbps
                    .map(fmt_num)
                    .unwrap_or_else(|| "&mdash;".to_string()),
            );
        }
        b.push_str("</table>\n");
    }

    if !data.series.is_empty() {
        b.push_str("<h2>Time series</h2>\n");
        for (name, points) in data.series.iter().take(MAX_CHARTS) {
            let _ = writeln!(
                b,
                "<figure>{}<figcaption>{} ({} points)</figcaption></figure>",
                svg_chart(points),
                esc(name),
                points.len()
            );
        }
        if data.series.len() > MAX_CHARTS {
            let _ = writeln!(
                b,
                "<p class=\"muted\">… and {} more series: {}</p>",
                data.series.len() - MAX_CHARTS,
                esc(&data
                    .series
                    .iter()
                    .skip(MAX_CHARTS)
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join(", "))
            );
        }
    }

    if !data.summary.phases.is_empty() {
        b.push_str(
            "<h2>Phases</h2>\n<table>\n<tr><th class=\"name\">phase</th><th>count</th>\
             <th>total ms</th><th>mean ms</th><th>p95 ms</th><th>min ms</th><th>max ms</th></tr>\n",
        );
        for p in &data.summary.phases {
            let _ = writeln!(
                b,
                "<tr><td class=\"name\">{}</td><td>{}</td><td>{:.3}</td>\
                 <td>{:.3}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td></tr>",
                esc(&p.name),
                p.count,
                p.total_ms,
                p.mean_ms,
                p.p95_ms,
                p.min_ms,
                p.max_ms
            );
        }
        b.push_str("</table>\n");
    }

    if !data.summary.instants.is_empty() {
        b.push_str(
            "<h2>Events</h2>\n<table>\n<tr><th class=\"name\">event</th><th>count</th></tr>\n",
        );
        for (name, count) in &data.summary.instants {
            let _ = writeln!(
                b,
                "<tr><td class=\"name\">{}</td><td>{count}</td></tr>",
                esc(name)
            );
        }
        b.push_str("</table>\n");
    }

    if !data.summary.counters.is_empty() {
        b.push_str(
            "<h2>Counters</h2>\n<table>\n<tr><th class=\"name\">counter</th><th>value</th></tr>\n",
        );
        for (name, value) in &data.summary.counters {
            let _ = writeln!(
                b,
                "<tr><td class=\"name\">{}</td><td>{value}</td></tr>",
                esc(name)
            );
        }
        b.push_str("</table>\n");
    }

    if links.is_empty() && data.series.is_empty() && data.summary.phases.is_empty() {
        b.push_str("<p class=\"muted\">the dump carried no spans or series</p>\n");
    }
    b.push_str("</body>\n</html>\n");
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Format, InstantRecord};
    use crate::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.add("runtime.replans", 2);
        let s = reg.series("link.0-1.bandwidth_kbps", 16);
        for i in 0..8 {
            s.append(i as f64 * 10.0, 1000.0);
        }
        let t = reg.series("link.1-2.bandwidth_kbps", 16);
        for i in 0..8 {
            // Collapses to 30% of its peak: degraded, not dead.
            t.append(i as f64 * 10.0, if i < 4 { 1000.0 } else { 300.0 });
        }
        reg.span("schedule").end();
        reg.record_instant(InstantRecord {
            name: "runtime.replan".into(),
            tid: 1,
            ts_us: reg.now_us(),
            attrs: vec![],
        });
        reg
    }

    #[test]
    fn jsonl_report_is_self_contained_html() {
        let html = html_report(&sample_registry().snapshot(), "demo");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(html.contains("<svg"), "series must render as inline SVG");
        assert!(html.contains("link.0-1.bandwidth_kbps"));
        assert!(html.contains("schedule"));
        // No external fetches: every URL-looking string is the SVG xmlns.
        let externals = html.matches("http").count();
        assert_eq!(
            externals,
            html.matches("http://www.w3.org/2000/svg").count()
        );
    }

    #[test]
    fn chrome_report_recovers_series_from_counter_events() {
        let text = sample_registry().snapshot().to_chrome_trace();
        let html = html_report(&Format::Chrome.decode(&text).unwrap(), "demo");
        assert!(html.contains("link.1-2.bandwidth_kbps"));
        assert!(html.contains("<svg"));
        assert!(html.contains("schedule"));
    }

    #[test]
    fn health_matrix_derives_from_bandwidth_series() {
        let html = html_report(&sample_registry().snapshot(), "demo");
        assert!(html.contains("<tr class=\"healthy\"><td class=\"name\">0 &rarr; 1</td>"));
        assert!(html.contains("<tr class=\"degraded\"><td class=\"name\">1 &rarr; 2</td>"));
    }

    #[test]
    fn explicit_health_gauges_override_derivation() {
        let reg = Registry::new();
        reg.series("link.0-1.bandwidth_kbps", 8).append(0.0, 500.0);
        reg.gauge_set("link.0-1.health", HealthState::Dead.code() as f64);
        let html = html_report(&reg.snapshot(), "demo");
        assert!(html.contains("<tr class=\"dead\">"));
    }

    #[test]
    fn pathological_names_are_escaped() {
        let reg = Registry::new();
        reg.series("s<\"&>'", 4).append(0.0, 1.0);
        reg.add("c<script>alert(1)</script>", 1);
        let html = html_report(&reg.snapshot(), "<&title>");
        assert!(!html.contains("<script>"));
        assert!(html.contains("&lt;script&gt;"));
        assert!(html.contains("<title>&lt;&amp;title&gt;</title>"));
    }

    #[test]
    fn empty_dump_still_renders() {
        let html = html_report(&Snapshot::default(), "empty");
        assert!(html.contains("no spans or series"));
    }

    #[test]
    fn garbage_input_errors() {
        assert!(Format::Jsonl.decode("not json at all").is_err());
        assert!(Format::Chrome.decode("not json at all").is_err());
    }

    #[test]
    fn transfer_spans_render_the_critical_path_lanes() {
        let reg = Registry::new();
        let span = crate::causal::transfer_span;
        reg.record_span(span(0, 1, 0, 10_000));
        reg.record_span(span(0, 2, 10_000, 5_000));
        reg.record_span(span(1, 3, 0, 4_000));
        let html = html_report(&reg.snapshot(), "lanes");
        assert!(html.contains("<h2>Critical path</h2>"));
        assert!(html.contains("lane-crit"), "path hops must be highlighted");
        assert!(html.contains("lane-span"), "off-path hops render too");
        assert!(html.contains("send 0") && html.contains("send 1"));
        assert!(html.contains("2 highlighted hop(s)"));
        // A dump without transfer spans has no lane section.
        let plain = html_report(&sample_registry().snapshot(), "x");
        assert!(!plain.contains("Critical path"));
    }

    #[test]
    fn phase_table_reports_mean_and_p95() {
        let html = html_report(&sample_registry().snapshot(), "demo");
        assert!(html.contains("<th>mean ms</th><th>p95 ms</th>"));
    }

    #[test]
    fn link_metric_names_parse() {
        assert_eq!(
            parse_link_metric("link.3-11.residual_ms"),
            Some((3, 11, "residual_ms"))
        );
        assert_eq!(parse_link_metric("sched.rounds"), None);
        assert_eq!(parse_link_metric("link.a-b.x"), None);
    }
}
