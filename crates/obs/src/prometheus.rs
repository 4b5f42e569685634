//! Prometheus text-exposition export (and a round-trip parser).
//!
//! Renders five families from one tracer snapshot:
//!
//! - `aeris_spans_total{category=...}` / `aeris_span_seconds_total{category=...}`
//!   — span counts and cumulative durations per category;
//! - `aeris_<counter>_total` — the tracer's named counters;
//! - `aeris_<gauge>` — last-write-wins gauges (the status-snapshot export);
//! - per registered [`MetricSeries`]: a `summary`-style block with
//!   `_count`, `_sum`, and `{quantile="0.5|0.95|0.99"}` sample lines, plus a
//!   full `aeris_<name>_hist` histogram family — cumulative
//!   `_bucket{le="..."}` lines straight from the series' log-linear bucket
//!   array, with exact `_sum`/`_count`.
//!
//! Output is deterministic (categories in declaration order, counters,
//! gauges, and series sorted by name) so tests can assert on exact lines.
//! [`parse_text`] parses the same format back into samples — the round-trip
//! test surface for everything above.

use crate::metrics::MetricSeries;
use crate::tracer::{SpanCategory, SpanRecord};

/// Sanitize a user-supplied name into a Prometheus metric name:
/// `[a-zA-Z_][a-zA-Z0-9_]*`, everything else mapped to `_`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label *value* for the text exposition format: backslash, double
/// quote, and newline get backslash-escaped.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other), // covers \\ and \"
            None => out.push('\\'),
        }
    }
    out
}

/// One parsed exposition line: `name{labels...} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl PromSample {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parse Prometheus text exposition back into samples. `#` comment/TYPE
/// lines and blanks are skipped; label values are unescaped. Errors carry
/// the offending line.
pub fn parse_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("{what}: {line:?}");
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .filter(|&close| close > brace)
                    .ok_or_else(|| err("unterminated label set"))?;
                (&line[..brace], Some((&line[brace + 1..close], &line[close + 1..])))
            }
            None => (line.split_whitespace().next().unwrap_or(""), None),
        };
        let (labels, value_str) = match rest {
            Some((label_str, tail)) => {
                let mut labels = Vec::new();
                let mut s = label_str;
                while !s.is_empty() {
                    let eq = s.find('=').ok_or_else(|| err("label missing '='"))?;
                    let key = s[..eq].trim().to_string();
                    let after = &s[eq + 1..];
                    if !after.starts_with('"') {
                        return Err(err("label value missing opening quote"));
                    }
                    // Find the closing unescaped quote.
                    let mut end = None;
                    let bytes = after.as_bytes();
                    let mut i = 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                end = Some(i);
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    let end = end.ok_or_else(|| err("label value missing closing quote"))?;
                    labels.push((key, unescape_label(&after[1..end])));
                    s = after[end + 1..].trim_start_matches(',').trim_start();
                }
                (labels, tail.trim())
            }
            None => {
                let mut parts = line.split_whitespace();
                parts.next();
                (Vec::new(), parts.next().unwrap_or(""))
            }
        };
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().map_err(|_| err("bad sample value"))?,
        };
        out.push(PromSample { name: name_part.trim().to_string(), labels, value });
    }
    Ok(out)
}

fn fmt_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{le}")
    }
}

/// Render the Prometheus text format for a tracer snapshot.
pub fn prometheus_text(
    spans: &[SpanRecord],
    counters: &[(String, u64)],
    gauges: &[(String, f64)],
    series: &[(String, MetricSeries)],
) -> String {
    let mut out = String::new();

    // Span totals per category.
    out.push_str("# TYPE aeris_spans_total counter\n");
    let mut any = false;
    for cat in SpanCategory::ALL {
        let n = spans.iter().filter(|s| s.category == cat).count();
        if n > 0 {
            out.push_str(&format!(
                "aeris_spans_total{{category=\"{}\"}} {n}\n",
                escape_label(cat.name())
            ));
            any = true;
        }
    }
    if !any {
        out.push_str("aeris_spans_total 0\n");
    }
    out.push_str("# TYPE aeris_span_seconds_total counter\n");
    for cat in SpanCategory::ALL {
        let ns: u64 = spans.iter().filter(|s| s.category == cat).map(|s| s.dur_ns()).sum();
        if spans.iter().any(|s| s.category == cat) {
            out.push_str(&format!(
                "aeris_span_seconds_total{{category=\"{}\"}} {:.9}\n",
                escape_label(cat.name()),
                ns as f64 / 1e9
            ));
        }
    }

    // Named counters (BTreeMap order upstream; sort defensively anyway).
    let mut counters: Vec<_> = counters.to_vec();
    counters.sort();
    for (name, v) in &counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE aeris_{name}_total counter\naeris_{name}_total {v}\n"));
    }

    // Gauges.
    let mut gauges: Vec<_> = gauges.to_vec();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, v) in &gauges {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE aeris_{name} gauge\naeris_{name} {v}\n"));
    }

    // Metric series: summary block + histogram family.
    let mut series: Vec<_> = series.to_vec();
    series.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, s) in &series {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE aeris_{name} summary\n"));
        match s.summary() {
            Some(sum) => {
                out.push_str(&format!(
                    "aeris_{name}{{quantile=\"0.5\"}} {}\naeris_{name}{{quantile=\"0.95\"}} {}\n\
                     aeris_{name}{{quantile=\"0.99\"}} {}\naeris_{name}_count {}\n\
                     aeris_{name}_sum {}\n",
                    sum.p50,
                    sum.p95,
                    sum.p99,
                    sum.count,
                    s.sum()
                ));
            }
            None => {
                out.push_str(&format!("aeris_{name}_count 0\naeris_{name}_sum 0\n"));
            }
        }
        // The log-linear bucket array as a native histogram family (named
        // `_hist` so it cannot collide with the summary family above).
        let count = s.count();
        out.push_str(&format!("# TYPE aeris_{name}_hist histogram\n"));
        for (le, cum) in s.histogram().cumulative_buckets() {
            out.push_str(&format!(
                "aeris_{name}_hist_bucket{{le=\"{}\"}} {cum}\n",
                fmt_le(le)
            ));
        }
        out.push_str(&format!(
            "aeris_{name}_hist_bucket{{le=\"+Inf\"}} {count}\naeris_{name}_hist_sum {}\n\
             aeris_{name}_hist_count {count}\n",
            s.sum()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{SpanCategory, Tracer};

    #[test]
    fn renders_spans_counters_and_series() {
        let t = Tracer::enabled();
        {
            let _f = t.span(SpanCategory::Forward, 0);
        }
        {
            let _f = t.span(SpanCategory::Forward, 1);
        }
        t.incr("cache hits", 5);
        let s = t.series("latency_ms");
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        let text = t.prometheus_text();
        assert!(text.contains("aeris_spans_total{category=\"forward\"} 2"));
        assert!(text.contains("aeris_cache_hits_total 5"), "{text}");
        assert!(text.contains("aeris_latency_ms_count 4"));
        assert!(text.contains("aeris_latency_ms_sum 10"));
        assert!(text.contains("aeris_latency_ms{quantile=\"0.5\"}"));
        // The histogram family rides along with exact sum/count.
        assert!(text.contains("# TYPE aeris_latency_ms_hist histogram"));
        assert!(text.contains("aeris_latency_ms_hist_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("aeris_latency_ms_hist_sum 10"));
        assert!(text.contains("aeris_latency_ms_hist_count 4"));
    }

    #[test]
    fn empty_tracer_renders_zero_totals() {
        let t = Tracer::enabled();
        let text = t.prometheus_text();
        assert!(text.contains("aeris_spans_total 0"));
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("p2p/bytes sent"), "p2p_bytes_sent");
        assert_eq!(sanitize("9lives"), "_lives");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn escapes_and_unescapes_label_values() {
        let raw = "tenant \"a\\b\"\nline2";
        let escaped = escape_label(raw);
        assert_eq!(escaped, "tenant \\\"a\\\\b\\\"\\nline2");
        assert_eq!(unescape_label(&escaped), raw);
        // Round trip through a full exposition line.
        let line = format!("aeris_x{{tenant=\"{escaped}\",tier=\"fast\"}} 1.5");
        let parsed = parse_text(&line).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "aeris_x");
        assert_eq!(parsed[0].label("tenant"), Some(raw));
        assert_eq!(parsed[0].label("tier"), Some("fast"));
        assert_eq!(parsed[0].value, 1.5);
    }

    #[test]
    fn parser_round_trips_histogram_bucket_lines() {
        let t = Tracer::disabled();
        let s = t.series("wait_ms");
        for v in [0.5, 1.0, 2.0, 4.0, 8.0, 100.0] {
            s.record(v);
        }
        let text = t.prometheus_text();
        let samples = parse_text(&text).unwrap();
        let buckets: Vec<_> =
            samples.iter().filter(|p| p.name == "aeris_wait_ms_hist_bucket").collect();
        assert!(buckets.len() >= 2, "expected bucket lines in:\n{text}");
        // Cumulative counts are monotone in `le`, and the +Inf bucket equals
        // the _count line.
        let mut prev = 0.0;
        for b in &buckets {
            assert!(b.value >= prev, "non-monotone cumulative counts");
            prev = b.value;
        }
        let inf = buckets.iter().find(|b| b.label("le") == Some("+Inf")).expect("+Inf bucket");
        assert_eq!(inf.value, 6.0);
        let count = samples.iter().find(|p| p.name == "aeris_wait_ms_hist_count").unwrap();
        assert_eq!(count.value, 6.0);
        let sum = samples.iter().find(|p| p.name == "aeris_wait_ms_hist_sum").unwrap();
        assert_eq!(sum.value, 115.5);
        // And the `le` bounds themselves parse as ascending numbers.
        let les: Vec<f64> = buckets
            .iter()
            .map(|b| match b.label("le").unwrap() {
                "+Inf" => f64::INFINITY,
                v => v.parse().unwrap(),
            })
            .collect();
        assert!(les.windows(2).all(|w| w[0] < w[1]), "les not ascending: {les:?}");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_text("aeris_x{unterminated 1").is_err());
        assert!(parse_text("aeris_x{k=\"v} 1").is_err());
        // A '}' before the '{' closes nothing.
        assert!(parse_text("aeris}x{k=\"v").is_err());
        assert!(parse_text("aeris_x notanumber").is_err());
        // +Inf/-Inf are accepted as values.
        assert_eq!(parse_text("x +Inf").unwrap()[0].value, f64::INFINITY);
    }

    #[test]
    fn gauges_render_sorted_with_type_lines() {
        let t = Tracer::disabled();
        t.set_gauge("zeta", 2.0);
        t.set_gauge("alpha", 1.0);
        let text = t.prometheus_text();
        let a = text.find("aeris_alpha 1").expect("alpha gauge");
        let z = text.find("aeris_zeta 2").expect("zeta gauge");
        assert!(a < z, "gauges must render sorted by name");
        assert!(text.contains("# TYPE aeris_alpha gauge"));
    }
}
