//! The metric registry: a cheap, cloneable handle naming every metric.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use xfm_event::ClockMirror;

use crate::counter::{Counter, Gauge};
use crate::export::Snapshot;
use crate::hist::Histogram;
use crate::lifecycle::LifecycleTrace;

/// A registry of named counters, gauges, histograms, and one lifecycle
/// trail.
///
/// `Registry` is a handle (`Clone` is an `Arc` bump) designed so that
/// *registration* is the only synchronized operation: components look up
/// or create their metrics once at attach time and afterwards record
/// through plain `Arc<Counter>` / `Arc<Histogram>` references — relaxed
/// atomics, no registry involvement, safe from any thread.
///
/// Metric names follow Prometheus conventions (`snake_case`, unit
/// suffix); per-instance series append `{label="value"}` to the name,
/// e.g. `xfm_refresh_window_utilization{rank="0"}`.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::Registry;
///
/// let r = Registry::new();
/// let c = r.counter("xfm_cpu_fallbacks_total");
/// c.add(3);
/// // Re-registration returns the same underlying counter.
/// assert_eq!(r.counter("xfm_cpu_fallbacks_total").get(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    help: Mutex<BTreeMap<String, String>>,
    clock: ClockMirror,
    lifecycle: LifecycleTrace,
}

impl Registry {
    /// Creates an empty registry with a default-capacity lifecycle
    /// trail.
    #[must_use]
    pub fn new() -> Self {
        let clock = ClockMirror::new();
        Self {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                help: Mutex::new(BTreeMap::new()),
                clock: clock.clone(),
                lifecycle: LifecycleTrace::with_clock(
                    crate::lifecycle::DEFAULT_LIFECYCLE_CAPACITY,
                    clock,
                ),
            }),
        }
    }

    /// Looks up or creates the counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.counters.lock();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Looks up or creates the gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.gauges.lock();
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Looks up or creates the histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// The page-lifecycle audit trail (see [`crate::lifecycle`]).
    #[must_use]
    pub fn lifecycle(&self) -> &LifecycleTrace {
        &self.inner.lifecycle
    }

    /// The shared virtual-clock mirror. Simulation drivers publish
    /// their [`xfm_event::VirtualClock`] here so lifecycle events carry
    /// virtual timestamps alongside wall time.
    #[must_use]
    pub fn clock_mirror(&self) -> ClockMirror {
        self.inner.clock.clone()
    }

    /// Registers help text for the metric family `base` (the name
    /// without any `{label="v"}` suffix), emitted as `# HELP` in
    /// Prometheus exposition. Re-describing overwrites.
    pub fn describe(&self, base: &str, help: &str) {
        self.inner
            .help
            .lock()
            .insert(base.to_string(), help.to_string());
    }

    /// Whether two handles refer to the same registry.
    #[must_use]
    pub fn same_registry(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Captures every metric and the retained lifecycle events.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .inner
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            events: self.inner.lifecycle.snapshot(),
            events_dropped: self.inner.lifecycle.dropped(),
            help: self.inner.help.lock().clone(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_clones() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("a").inc();
        r2.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        assert!(r.same_registry(&r2));
        assert!(!r.same_registry(&Registry::new()));
    }

    #[test]
    fn metric_kinds_are_namespaced_independently() {
        let r = Registry::new();
        r.counter("x").inc();
        r.gauge("x").set(2.5);
        r.histogram("x").record(7);
        let s = r.snapshot();
        assert_eq!(s.counters["x"], 1);
        assert_eq!(s.gauges["x"], 2.5);
        assert_eq!(s.histograms["x"].count, 1);
    }

    #[test]
    fn snapshot_contains_lifecycle_events() {
        use crate::lifecycle::{Cause, LifecycleStage};
        let r = Registry::new();
        r.lifecycle()
            .record(LifecycleStage::Compress, Cause::Ok, 1, 0, 0, 10);
        let s = r.snapshot();
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].stage, LifecycleStage::Compress);
        assert_eq!(s.events[0].dur_ns, 10);
        assert_eq!(s.events_dropped, 0);
    }

    #[test]
    fn lifecycle_trail_shares_the_registry_clock() {
        use crate::lifecycle::{Cause, LifecycleStage};
        use xfm_types::Nanos;
        let r = Registry::new();
        r.clock_mirror().publish(Nanos::from_us(5));
        r.lifecycle()
            .record(LifecycleStage::Fault, Cause::Ok, 3, 0, 0, 0);
        let h = r.lifecycle().page_history(3);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].virt_ns, 5_000);
    }

    #[test]
    fn describe_feeds_snapshot_help() {
        let r = Registry::new();
        r.counter("xfm_ops_total").inc();
        r.describe("xfm_ops_total", "Operations processed.");
        let s = r.snapshot();
        assert_eq!(s.help["xfm_ops_total"], "Operations processed.");
        assert!(s
            .to_prometheus()
            .contains("# HELP xfm_ops_total Operations processed."));
    }

    #[test]
    fn registration_from_many_threads_converges() {
        use std::sync::Arc as StdArc;
        let r = StdArc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = StdArc::clone(&r);
                std::thread::spawn(move || {
                    // All threads race to register, then hammer, the same
                    // counter — the attach-once pattern backends use.
                    let c = r.counter("shared_total");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("shared_total").get(), 80_000);
    }
}
