//! Point-in-time snapshots with JSON and Prometheus-text exposition.
//!
//! The workspace's `serde` is an offline no-op shim, so serialization
//! here is hand-rolled. Metric names are crate-controlled
//! (`snake_case` plus optional `{label="value"}` suffixes), but string
//! escaping is still applied so arbitrary names cannot corrupt the
//! output.

use std::collections::BTreeMap;

use crate::lifecycle::LifecycleEvent;

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Mean value (0.0 when empty).
    pub mean: f64,
    /// 50th percentile (bucket lower bound).
    pub p50: u64,
    /// 90th percentile (bucket lower bound).
    pub p90: u64,
    /// 99th percentile (bucket lower bound).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Combines two snapshots as if their populations were recorded
    /// into one histogram. `count` and `sum` saturate at `u64::MAX`
    /// (matching [`crate::Histogram::merge`]); quantiles are the
    /// count-weighted worse (larger) of the two — exact aggregation
    /// needs the bucket vectors, which snapshots deliberately drop, so
    /// this is the conservative summary used by cross-shard reports.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        if self.count == 0 {
            return *other;
        }
        if other.count == 0 {
            return *self;
        }
        let count = self.count.saturating_add(other.count);
        let sum = self.sum.saturating_add(other.sum);
        let mean = if sum == u64::MAX {
            // Saturated sum: fall back to a count-weighted mean of means.
            let (na, nb) = (self.count as f64, other.count as f64);
            (self.mean * na + other.mean * nb) / (na + nb)
        } else {
            sum as f64 / count as f64
        };
        HistogramSnapshot {
            count,
            sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            mean,
            p50: self.p50.max(other.p50),
            p90: self.p90.max(other.p90),
            p99: self.p99.max(other.p99),
        }
    }
}

/// A full capture of a [`crate::Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained lifecycle-trail events, oldest first.
    pub events: Vec<LifecycleEvent>,
    /// Events evicted from the trail before this snapshot.
    pub events_dropped: u64,
    /// Help text by metric family base name (see
    /// [`crate::Registry::describe`]); families without an entry get a
    /// placeholder `# HELP` in Prometheus exposition.
    pub help: BTreeMap<String, String>,
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        "null".to_string()
    }
}

impl Snapshot {
    /// Renders the snapshot as a JSON object.
    ///
    /// Layout:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 1},
    ///   "gauges": {"name": 0.5},
    ///   "histograms": {"name": {"count": 1, "p50": 3, ...}},
    ///   "events": [{"seq": 0, "stage": "compress", ...}],
    ///   "events_dropped": 0
    /// }
    /// ```
    ///
    /// Each event carries every [`LifecycleEvent`] field except
    /// `wall_ns`, so an export whose events all come from a simulator
    /// (virtual time in `virt_ns`/`aux`, zero `dur_ns`) is
    /// byte-identical from run to run.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", json_escape(k)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json_escape(k), json_f64(*v)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                json_escape(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                json_f64(h.mean),
                h.p50,
                h.p90,
                h.p99
            ));
        }
        out.push_str("\n  },\n  \"events\": [");
        first = true;
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"stage\": \"{}\", \"cause\": \"{}\", \"page\": {}, \
                 \"shard\": {}, \"tenant\": {}, \"aux\": {}, \"virt_ns\": {}, \"dur_ns\": {}}}",
                e.seq,
                e.stage.name(),
                e.cause.name(),
                e.page,
                e.shard,
                e.tenant.as_u16(),
                e.aux,
                e.virt_ns,
                e.dur_ns
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"events_dropped\": {}\n}}\n",
            self.events_dropped
        ));
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Counters become `counter` samples, gauges `gauge` samples, and
    /// each histogram a `summary` (quantile series plus `_sum` and
    /// `_count`). Every metric family gets a `# HELP` and `# TYPE`
    /// header (help text from [`Snapshot::help`], with a placeholder
    /// when none was registered), and label values are escaped per the
    /// exposition-format spec (backslash, double-quote, newline). Lifecycle
    /// events are not representable in Prometheus text and are omitted
    /// (use [`Snapshot::to_json`] for traces).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        // `# HELP`/`# TYPE` must appear once per metric family; labeled
        // series of one family are adjacent in the BTreeMap, so tracking
        // the last emitted base suffices.
        let mut typed = "";
        for (k, v) in &self.counters {
            let (base, labels) = split_labels(k);
            if base != typed {
                self.family_header(&mut out, base, "counter");
                typed = base;
            }
            out.push_str(&format!("{base}{} {v}\n", rewrite_labels(labels)));
        }
        let mut typed = "";
        for (k, v) in &self.gauges {
            let (base, labels) = split_labels(k);
            if base != typed {
                self.family_header(&mut out, base, "gauge");
                typed = base;
            }
            out.push_str(&format!(
                "{base}{} {}\n",
                rewrite_labels(labels),
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "NaN".to_string()
                }
            ));
        }
        let mut typed = "";
        for (k, h) in &self.histograms {
            let (base, labels) = split_labels(k);
            let pairs = parse_label_pairs(labels);
            let q = |quantile: &str, value: u64| {
                let mut with_q = pairs.clone();
                with_q.push(("quantile".to_string(), quantile.to_string()));
                format!("{base}{} {value}\n", label_block(&with_q))
            };
            if base != typed {
                self.family_header(&mut out, base, "summary");
                typed = base;
            }
            out.push_str(&q("0.5", h.p50));
            out.push_str(&q("0.9", h.p90));
            out.push_str(&q("0.99", h.p99));
            out.push_str(&format!("{base}_sum{} {}\n", label_block(&pairs), h.sum));
            out.push_str(&format!(
                "{base}_count{} {}\n",
                label_block(&pairs),
                h.count
            ));
        }
        out
    }

    /// Pushes the `# HELP` + `# TYPE` header for one metric family.
    fn family_header(&self, out: &mut String, base: &str, kind: &str) {
        let help = self
            .help
            .get(base)
            .map(String::as_str)
            .unwrap_or("(no help text registered)");
        // HELP text escaping per spec: backslash and line feed only.
        let escaped = help.replace('\\', "\\\\").replace('\n', "\\n");
        out.push_str(&format!("# HELP {base} {escaped}\n# TYPE {base} {kind}\n"));
    }
}

/// Escapes a label value per the Prometheus text exposition format
/// (backslash, double-quote, and line feed).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Parses a `{k="v",...}` label block (as embedded in registry metric
/// names) into decoded key/value pairs. Values may use `\\`, `\"`, and
/// `\n` escapes or contain raw newlines; unknown escapes are kept
/// verbatim. Empty or absent blocks parse to no pairs.
fn parse_label_pairs(labels: &str) -> Vec<(String, String)> {
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    let mut pairs = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        // Key: up to `=`.
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        let key = key.trim_start_matches(',').trim().to_string();
        if key.is_empty() {
            return pairs;
        }
        if chars.next() != Some('"') {
            return pairs; // malformed; keep what we have
        }
        // Value: up to the closing unescaped quote, decoding escapes.
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return pairs, // unterminated; drop the partial pair
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    Some(other) => {
                        value.push('\\');
                        value.push(other);
                    }
                    None => return pairs,
                },
                Some(c) => value.push(c),
            }
        }
        pairs.push((key, value));
        if chars.peek().is_none() {
            return pairs;
        }
    }
}

/// Renders label pairs as a `{k="v",...}` block with spec-conformant
/// value escaping; no pairs renders as the empty string.
fn label_block(pairs: &[(String, String)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Re-emits a `{k="v",...}` label block with values re-escaped.
fn rewrite_labels(labels: &str) -> String {
    if labels.is_empty() {
        return String::new();
    }
    label_block(&parse_label_pairs(labels))
}

/// Splits `name{label="v"}` into (`name`, `{label="v"}`); plain names
/// return an empty label part.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Cause, LifecycleStage, NO_SHARD};
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("xfm_swap_outs_total").add(12);
        r.gauge("xfm_refresh_window_utilization{rank=\"0\"}")
            .set(0.078);
        let h = r.histogram("xfm_swap_in_latency_ns");
        for v in [100u64, 200, 300, 4000] {
            h.record(v);
        }
        r.lifecycle().record(
            LifecycleStage::Fault,
            Cause::CpuFallback,
            42,
            NO_SHARD,
            7,
            900,
        );
        r.snapshot()
    }

    #[test]
    fn json_contains_all_sections() {
        let j = sample().to_json();
        assert!(j.contains("\"xfm_swap_outs_total\": 12"));
        assert!(j.contains("xfm_refresh_window_utilization{rank=\\\"0\\\"}"));
        assert!(j.contains("\"count\": 4"));
        assert!(j.contains(
            "\"stage\": \"fault\", \"cause\": \"cpu_fallback\", \"page\": 42, \
             \"shard\": 4294967295, \"tenant\": 0, \"aux\": 7, \"virt_ns\": 0, \"dur_ns\": 900"
        ));
        assert!(!j.contains("wall_ns"));
        assert!(j.contains("\"events_dropped\": 0"));
    }

    #[test]
    fn json_is_structurally_balanced() {
        let j = sample().to_json();
        let opens = j.matches('{').count() + j.matches('[').count();
        let closes = j.matches('}').count() + j.matches(']').count();
        // The only braces outside structure are inside escaped label
        // names, which appear once on each side of nothing — count must
        // still balance because labels carry one '{' and one '}'.
        assert_eq!(opens, closes, "unbalanced JSON:\n{j}");
    }

    #[test]
    fn prometheus_renders_types_and_labels() {
        let p = sample().to_prometheus();
        assert!(p.contains("# TYPE xfm_swap_outs_total counter"));
        assert!(p.contains("xfm_swap_outs_total 12"));
        assert!(p.contains("# TYPE xfm_refresh_window_utilization gauge"));
        assert!(p.contains("xfm_refresh_window_utilization{rank=\"0\"} 0.078"));
        assert!(p.contains("# TYPE xfm_swap_in_latency_ns summary"));
        assert!(p.contains("xfm_swap_in_latency_ns{quantile=\"0.99\"}"));
        assert!(p.contains("xfm_swap_in_latency_ns_count 4"));
    }

    #[test]
    fn labeled_histogram_merges_label_with_quantile() {
        let r = Registry::new();
        r.histogram("lat{rank=\"1\"}").record(5);
        let p = r.snapshot().to_prometheus();
        assert!(p.contains("lat{rank=\"1\",quantile=\"0.5\"} 5"), "{p}");
        assert!(p.contains("lat_sum{rank=\"1\"} 5"));
    }

    #[test]
    fn type_line_appears_once_per_family() {
        let r = Registry::new();
        for rank in 0..3 {
            r.gauge(&format!("util{{rank=\"{rank}\"}}")).set(0.5);
            r.counter(&format!("ops_total{{rank=\"{rank}\"}}")).inc();
        }
        let p = r.snapshot().to_prometheus();
        assert_eq!(p.matches("# TYPE util gauge").count(), 1, "{p}");
        assert_eq!(p.matches("# TYPE ops_total counter").count(), 1, "{p}");
        assert_eq!(p.matches("util{rank=").count(), 3);
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_gauges_render_as_null_json() {
        let r = Registry::new();
        r.gauge("g").set(f64::INFINITY);
        assert!(r.snapshot().to_json().contains("\"g\": null"));
    }

    #[test]
    fn every_family_gets_help_and_type_lines() {
        let p = sample().to_prometheus();
        for fam in [
            "xfm_swap_outs_total",
            "xfm_refresh_window_utilization",
            "xfm_swap_in_latency_ns",
        ] {
            assert_eq!(p.matches(&format!("# HELP {fam} ")).count(), 1, "{p}");
            assert_eq!(p.matches(&format!("# TYPE {fam} ")).count(), 1, "{p}");
        }
    }

    #[test]
    fn registered_help_text_is_emitted_and_escaped() {
        let r = Registry::new();
        r.counter("xfm_ops_total").inc();
        r.describe("xfm_ops_total", "ops with a \\ and\nnewline");
        let p = r.snapshot().to_prometheus();
        assert!(
            p.contains("# HELP xfm_ops_total ops with a \\\\ and\\nnewline"),
            "{p}"
        );
    }

    #[test]
    fn label_values_are_escaped_per_spec() {
        // A label value carrying a raw quote-escape, backslash, and
        // newline must come out spec-escaped, not verbatim.
        let r = Registry::new();
        r.counter("c_total{path=\"a\\\\b\nc\"}").add(2);
        let p = r.snapshot().to_prometheus();
        assert!(p.contains("c_total{path=\"a\\\\b\\nc\"} 2"), "{p}");
        // Escapes already present in the name round-trip unchanged.
        let r2 = Registry::new();
        r2.gauge("g{msg=\"say \\\"hi\\\"\"}").set(1.0);
        let p2 = r2.snapshot().to_prometheus();
        assert!(p2.contains("g{msg=\"say \\\"hi\\\"\"} 1"), "{p2}");
    }

    #[test]
    fn label_parse_handles_edge_cases() {
        assert_eq!(parse_label_pairs(""), vec![]);
        assert_eq!(parse_label_pairs("{}"), vec![]);
        assert_eq!(
            parse_label_pairs("{a=\"1\",b=\"two\"}"),
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "two".to_string())
            ]
        );
        // Value containing a comma and an escaped quote.
        assert_eq!(
            parse_label_pairs("{a=\"x,y\",b=\"q\\\"z\"}"),
            vec![
                ("a".to_string(), "x,y".to_string()),
                ("b".to_string(), "q\"z".to_string())
            ]
        );
        // Unterminated value: partial pair dropped, no panic.
        assert_eq!(parse_label_pairs("{a=\"oops"), vec![]);
    }

    #[test]
    fn quantile_series_keep_escaped_labels() {
        let r = Registry::new();
        r.histogram("lat{tag=\"a\nb\"}").record(7);
        let p = r.snapshot().to_prometheus();
        assert!(p.contains("lat{tag=\"a\\nb\",quantile=\"0.5\"} 7"), "{p}");
        assert!(p.contains("lat_sum{tag=\"a\\nb\"} 7"), "{p}");
    }

    #[test]
    fn histogram_snapshot_merge_combines_populations() {
        let a = HistogramSnapshot {
            count: 10,
            sum: 1000,
            min: 50,
            max: 200,
            mean: 100.0,
            p50: 90,
            p90: 150,
            p99: 190,
        };
        let b = HistogramSnapshot {
            count: 30,
            sum: 6000,
            min: 20,
            max: 900,
            mean: 200.0,
            p50: 180,
            p90: 700,
            p99: 880,
        };
        let m = a.merge(&b);
        assert_eq!(m.count, 40);
        assert_eq!(m.sum, 7000);
        assert_eq!(m.min, 20);
        assert_eq!(m.max, 900);
        assert!((m.mean - 175.0).abs() < 1e-9);
        assert_eq!(m.p99, 880);
        // Identity on empty operands, both directions.
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            p50: 0,
            p90: 0,
            p99: 0,
        };
        assert_eq!(empty.merge(&a), a);
        assert_eq!(a.merge(&empty), a);
    }

    #[test]
    fn histogram_snapshot_merge_saturates_at_the_boundary() {
        let big = HistogramSnapshot {
            count: u64::MAX - 5,
            sum: u64::MAX - 5,
            min: 1,
            max: 10,
            mean: 1.0,
            p50: 1,
            p90: 1,
            p99: 1,
        };
        let more = HistogramSnapshot {
            count: 100,
            sum: 100,
            min: 2,
            max: 20,
            mean: 1.0,
            p50: 2,
            p90: 2,
            p99: 2,
        };
        let m = big.merge(&more);
        assert_eq!(m.count, u64::MAX, "count must saturate, not wrap");
        assert_eq!(m.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(m.max, 20);
        // Mean survives saturation via the weighted-mean fallback.
        assert!((m.mean - 1.0).abs() < 1e-9, "mean {}", m.mean);
    }
}
