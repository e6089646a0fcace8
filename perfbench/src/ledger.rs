//! Layer spans recorded by the benchmark around its calls into each crate.
//!
//! With the ledger off, [`Ledger::time`] only calls the closure, so the
//! untraced run executes the same code without reading the clock per
//! layer. With it on, each call's duration is kept per layer name, and the
//! part of an op's wall time that no span covers is summed as
//! unattributed.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Ledger {
    on: bool,
    spans: BTreeMap<String, Vec<f64>>,
    op_attributed_ms: f64,
    attributed_ms: f64,
    wall_ms: f64,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            spans: BTreeMap::new(),
            op_attributed_ms: 0.0,
            attributed_ms: 0.0,
            wall_ms: 0.0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `layer`, counted toward the current op.
    pub fn time<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ms = ms_since(t0);
        self.op_attributed_ms += ms;
        self.record(layer, ms);
        r
    }

    /// [`Ledger::time`] for a span named `<tool>.<what>`.
    pub fn time_tool<R>(&mut self, tool: &str, what: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.time(&format!("{tool}.{what}"), f)
    }

    /// Keep a sample measured elsewhere (calibration calls, server-side
    /// figures); it is not part of any op.
    pub fn record(&mut self, name: &str, value: f64) {
        if self.on {
            self.spans.entry(name.to_string()).or_default().push(value);
        }
    }

    /// Drop the spans since the last op from the attribution: they were
    /// set-up work, not part of any op.
    pub fn end_setup(&mut self) {
        self.op_attributed_ms = 0.0;
    }

    /// Close the current op, whose wall time was `wall_ms`.
    pub fn end_op(&mut self, wall_ms: f64) {
        self.wall_ms += wall_ms;
        self.attributed_ms += self.op_attributed_ms.min(wall_ms);
        self.op_attributed_ms = 0.0;
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.spans.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Median of a span's samples; 0 when the workload never entered it.
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    /// `<span>_ms` → median, for every span recorded.
    pub fn layer_medians(&self) -> BTreeMap<String, (f64, &'static str)> {
        self.spans
            .iter()
            .map(|(k, v)| (format!("{k}_ms"), (median(v), "ms")))
            .collect()
    }

    /// Share of op wall time outside every layer span.
    pub fn unattributed_frac(&self) -> f64 {
        if self.wall_ms > 0.0 {
            1.0 - self.attributed_ms / self.wall_ms
        } else {
            0.0
        }
    }

    /// Fold another ledger (a second client thread) into this one.
    pub fn absorb(&mut self, other: Ledger) {
        for (k, v) in other.spans {
            self.spans.entry(k).or_default().extend(v);
        }
        self.attributed_ms += other.attributed_ms;
        self.wall_ms += other.wall_ms;
    }
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Quantile `q` of `v` by linear interpolation between closest ranks; 0
/// for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}
