//! Reading the counters the library layers already export: the `dc_obs`
//! registry and the `dc_sync` wait statistics. Nothing here adds
//! instrumentation to the library; it only switches the existing
//! recording on around a traced phase and reads it back.

use dc_obs::{Counter, Gauge, SpanId};
use dc_sync::waitstats;

/// Switches the library's own recording on (and zeroes it) or off.
pub fn set_recording(on: bool) {
    if on {
        dc_obs::reset();
        waitstats::reset();
    }
    dc_obs::set_metrics_enabled(on);
    waitstats::set_enabled(on);
}

pub fn count(c: Counter) -> f64 {
    dc_obs::counter_value(c) as f64
}

pub fn gauge(g: Gauge) -> f64 {
    dc_obs::gauge_value(g) as f64
}

/// Median of a sampled library span, in nanoseconds (0 if never sampled).
pub fn span_p50_ns(s: SpanId) -> f64 {
    let h = dc_obs::span_snapshot(s);
    if h.count() == 0 {
        0.0
    } else {
        h.p50() as f64
    }
}

pub fn lock_wait() -> (f64, f64) {
    (
        waitstats::total_wait_nanos() as f64,
        waitstats::wait_events() as f64,
    )
}
