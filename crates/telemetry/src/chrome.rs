//! Chrome `trace_event` export of the page-lifecycle audit trail.
//!
//! [`to_chrome_trace`] renders a slice of [`LifecycleEvent`]s in the
//! Trace Event Format's JSON-object flavor, which loads directly in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! complete (`"ph": "X"`) event per lifecycle record, timestamped in
//! microseconds of wall time, with the shard as the track (`tid`) and
//! the causal metadata (page, cause, virtual time, aux) in `args`.
//!
//! [`validate_chrome_trace`] re-parses an export with [`crate::json`]
//! and checks the schema invariants — the round-trip gate `ci.sh --obs`
//! runs on every capture.

use crate::json::{parse, JsonValue};
use crate::lifecycle::{LifecycleEvent, NO_SHARD};

/// Microseconds (as a decimal string with ns precision) from a ns count.
/// The Trace Event Format expresses `ts`/`dur` in µs; emitting three
/// fractional digits keeps full nanosecond resolution without f64
/// rounding.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders lifecycle events as Chrome `trace_event` JSON.
///
/// The export carries one metadata record naming the process, then one
/// `"ph": "X"` (complete) event per lifecycle record. Events from
/// non-sharded recorders (shard = [`NO_SHARD`]) land on tid 0.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::chrome::{to_chrome_trace, validate_chrome_trace};
/// use xfm_telemetry::lifecycle::{LifecycleStage, LifecycleTrace};
/// use xfm_telemetry::Cause;
///
/// let trail = LifecycleTrace::with_capacity(16);
/// trail.record(LifecycleStage::Compress, Cause::Ok, 7, 2, 0, 1_500);
/// let json = to_chrome_trace(&trail.snapshot());
/// assert_eq!(validate_chrome_trace(&json).unwrap(), 1);
/// ```
#[must_use]
pub fn to_chrome_trace(events: &[LifecycleEvent]) -> String {
    let mut out = String::with_capacity(256 + events.len() * 160);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    out.push_str(
        "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"xfm\"}}",
    );
    for e in events {
        let tid = if e.shard == NO_SHARD { 0 } else { e.shard };
        out.push_str(&format!(
            ",\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"seq\": {}, \
             \"page\": {}, \"cause\": \"{}\", \"virt_ns\": {}, \"aux\": {}}}}}",
            e.stage.name(),
            e.cause.name(),
            us(e.wall_ns),
            us(e.dur_ns),
            tid,
            e.seq,
            e.page,
            e.cause.name(),
            e.virt_ns,
            e.aux,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Re-parses a Chrome trace export and checks its schema, returning the
/// number of lifecycle (`"ph": "X"`) events it carries.
///
/// Checked invariants: the document is an object with a `traceEvents`
/// array; every event has string `name`/`ph` and numeric `pid`/`tid`/
/// `ts` (metadata events excepted for `ts`); complete events carry
/// numeric `dur` and an `args` object with `seq`/`page`/`cause`.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = parse(json).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing `traceEvents`")?
        .as_array()
        .ok_or("`traceEvents` is not an array")?;
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} missing string `ph`"))?;
        if obj.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(format!("event {i} missing string `name`"));
        }
        for key in ["pid", "tid"] {
            if obj.get(key).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("event {i} missing numeric `{key}`"));
            }
        }
        if ph == "X" {
            for key in ["ts", "dur"] {
                if obj.get(key).and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("event {i} missing numeric `{key}`"));
                }
            }
            let args = obj
                .get("args")
                .and_then(JsonValue::as_object)
                .ok_or_else(|| format!("event {i} missing `args` object"))?;
            for key in ["seq", "page"] {
                if args.get(key).and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("event {i} args missing numeric `{key}`"));
                }
            }
            if args.get("cause").and_then(JsonValue::as_str).is_none() {
                return Err(format!("event {i} args missing string `cause`"));
            }
            complete += 1;
        }
    }
    Ok(complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Cause;
    use crate::lifecycle::{LifecycleStage, LifecycleTrace};

    fn sample_trail() -> LifecycleTrace {
        let t = LifecycleTrace::with_capacity(32);
        t.record(LifecycleStage::ColdScanSelect, Cause::Ok, 7, 0, 0, 0);
        t.record(LifecycleStage::CodecRoute, Cause::Ok, 7, 0, 2, 0);
        t.record(LifecycleStage::Compress, Cause::Ok, 7, 0, 0, 1_800);
        t.record(LifecycleStage::ZpoolStore, Cause::StoredRaw, 7, 0, 0, 250);
        t.record(LifecycleStage::Fault, Cause::CpuFallback, 9, 3, 0, 5_000);
        t
    }

    #[test]
    fn round_trip_validates() {
        let json = to_chrome_trace(&sample_trail().snapshot());
        assert_eq!(validate_chrome_trace(&json).unwrap(), 5);
    }

    #[test]
    fn export_carries_causal_args() {
        let json = to_chrome_trace(&sample_trail().snapshot());
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Metadata record first, then events in seq order.
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        let compress = &events[3];
        assert_eq!(compress.get("name").unwrap().as_str(), Some("compress"));
        assert_eq!(compress.path("args.page").unwrap().as_f64(), Some(7.0));
        // dur 1800 ns == 1.800 µs.
        assert_eq!(compress.get("dur").unwrap().as_f64(), Some(1.8));
        let fault = &events[5];
        assert_eq!(fault.get("tid").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            fault.path("args.cause").unwrap().as_str(),
            Some("cpu_fallback")
        );
    }

    #[test]
    fn empty_trail_exports_valid_trace() {
        let json = to_chrome_trace(&[]);
        assert_eq!(validate_chrome_trace(&json).unwrap(), 0);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err(),
            "event missing fields must fail"
        );
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn microsecond_rendering_keeps_ns_precision() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(1_234_567), "1234.567");
    }
}
