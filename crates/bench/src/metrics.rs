//! JSON serialisation and cross-shard aggregation for the observability
//! layer ([`faultmit_obs`]).
//!
//! The obs crate is dependency-free by design, so everything that touches
//! JSON lives here: [`snapshot_to_json`]/[`snapshot_from_json`] round-trip a
//! [`MetricsSnapshot`] exactly (counters, histogram buckets and stage clocks
//! are stored as integers), [`ShardMetrics`] is the one telemetry section a
//! shard checkpoint carries (wall/generation clocks and the snapshot — the
//! fields that used to be ad-hoc top-level checkpoint entries), and
//! [`metrics_report`] renders the aggregated `--metrics` output document
//! with its derived rates.
//!
//! # Determinism
//!
//! Counter totals are sums of per-chunk contributions, so for a fixed
//! campaign the deterministic counters (see
//! [`faultmit_obs::Counter::is_deterministic`]) aggregate to **bit-identical
//! values at any worker count and any shard split**: merging K shard
//! snapshots reproduces the monolithic run's counters exactly. Stage clocks
//! and realloc events are host telemetry and are excluded from that
//! contract.

use crate::json::{JsonValue, ToJson};
use faultmit_obs::{Counter, Histogram, MetricsSnapshot, Stage, HISTOGRAM_BUCKETS};

/// Format tag of `--metrics` output documents.
pub const METRICS_REPORT_FORMAT: &str = "faultmit-metrics/v1";

/// Serialises a [`MetricsSnapshot`] with every counter, histogram bucket
/// and stage clock as an exact integer, keyed by the obs crate's stable
/// snake_case names. All slots are emitted (zeros included) so the schema
/// is the same for every producer.
#[must_use]
pub fn snapshot_to_json(snapshot: &MetricsSnapshot) -> JsonValue {
    let counters = JsonValue::Object(
        Counter::ALL
            .iter()
            .map(|&counter| {
                (
                    counter.name().to_owned(),
                    snapshot.counter(counter).to_json(),
                )
            })
            .collect(),
    );
    let histograms = JsonValue::Object(
        Histogram::ALL
            .iter()
            .map(|&histogram| {
                (
                    histogram.name().to_owned(),
                    JsonValue::Array(
                        snapshot
                            .histogram(histogram)
                            .iter()
                            .map(|&bucket| bucket.to_json())
                            .collect(),
                    ),
                )
            })
            .collect(),
    );
    let stages = JsonValue::Object(
        Stage::ALL
            .iter()
            .map(|&stage| {
                (
                    stage.name().to_owned(),
                    JsonValue::object([
                        ("nanos", snapshot.stage_nanos[stage as usize].to_json()),
                        ("calls", snapshot.stage_calls(stage).to_json()),
                    ]),
                )
            })
            .collect(),
    );
    JsonValue::object([
        ("counters", counters),
        ("histograms", histograms),
        ("stages", stages),
    ])
}

/// Rebuilds a [`MetricsSnapshot`] from its serialised form. Unknown keys
/// are ignored and missing keys read as zero, so snapshots written by
/// builds with fewer (or more) counters still load.
///
/// # Errors
///
/// Returns a description of the first structurally malformed entry.
pub fn snapshot_from_json(value: &JsonValue) -> Result<MetricsSnapshot, String> {
    let mut snapshot = MetricsSnapshot::default();
    if let Some(counters) = value.get("counters") {
        for &counter in &Counter::ALL {
            if let Some(node) = counters.get(counter.name()) {
                snapshot.counters[counter as usize] = node
                    .as_u64()
                    .ok_or_else(|| format!("counter '{}' must be an integer", counter.name()))?;
            }
        }
    }
    if let Some(histograms) = value.get("histograms") {
        for &histogram in &Histogram::ALL {
            let Some(node) = histograms.get(histogram.name()) else {
                continue;
            };
            let buckets = node
                .as_array()
                .filter(|buckets| buckets.len() == HISTOGRAM_BUCKETS)
                .ok_or_else(|| {
                    format!(
                        "histogram '{}' must be an array of {HISTOGRAM_BUCKETS} buckets",
                        histogram.name()
                    )
                })?;
            for (slot, bucket) in snapshot.histograms[histogram as usize]
                .iter_mut()
                .zip(buckets)
            {
                *slot = bucket.as_u64().ok_or_else(|| {
                    format!("histogram '{}' buckets must be integers", histogram.name())
                })?;
            }
        }
    }
    if let Some(stages) = value.get("stages") {
        for &stage in &Stage::ALL {
            let Some(node) = stages.get(stage.name()) else {
                continue;
            };
            snapshot.stage_nanos[stage as usize] = node
                .get("nanos")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stage '{}' is missing integer 'nanos'", stage.name()))?;
            snapshot.stage_calls[stage as usize] = node
                .get("calls")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stage '{}' is missing integer 'calls'", stage.name()))?;
        }
    }
    Ok(snapshot)
}

/// A checkpoint's complete telemetry — the shard-state `metrics` section.
///
/// Before the v3 shard format these lived as four ad-hoc top-level
/// checkpoint fields (`elapsed_seconds`, `kernel`, `generation_seconds`,
/// `auto_threshold`); they are now one section with one accessor path.
/// Everything here is **identity-free** telemetry: it never feeds
/// back into panel states, so figure JSON is byte-identical whether or not
/// metrics were recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardMetrics {
    /// Wall-clock seconds the producing process spent evaluating the shard
    /// (aggregated checkpoints sum across shards, so the total is CPU-side
    /// "shard seconds", not the driver's wall clock).
    pub elapsed_seconds: Option<f64>,
    /// CPU seconds spent generating fault maps, summed across worker
    /// threads (can exceed `elapsed_seconds` at worker counts above one).
    pub generation_seconds: Option<f64>,
    /// A fixed slot of the v3 checkpoint format: every writer leaves it
    /// `None` (kept for the perfbench tracer, see
    /// [`crate::figures::EngineTuning`]); older checkpoints read back with
    /// the kernel name they recorded.
    pub kernel: Option<String>,
    /// A fixed slot of the v3 checkpoint format, like `kernel`.
    pub auto_threshold: Option<f64>,
    /// The observability snapshot the run recorded, when a recorder was
    /// installed (see [`faultmit_obs::install`]); `None` for runs without
    /// instrumentation.
    pub snapshot: Option<MetricsSnapshot>,
}

impl ShardMetrics {
    /// `true` when nothing was recorded (serialises as `null`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elapsed_seconds.is_none()
            && self.generation_seconds.is_none()
            && self.kernel.is_none()
            && self.auto_threshold.is_none()
            && self.snapshot.is_none()
    }

    /// Serialises the section (`null` when empty, so checkpoints without
    /// telemetry stay small).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        if self.is_empty() {
            return JsonValue::Null;
        }
        JsonValue::object([
            (
                "elapsed_seconds",
                match self.elapsed_seconds {
                    None => JsonValue::Null,
                    Some(seconds) => JsonValue::Number(seconds),
                },
            ),
            (
                "generation_seconds",
                match self.generation_seconds {
                    None => JsonValue::Null,
                    Some(seconds) => JsonValue::Number(seconds),
                },
            ),
            (
                "kernel",
                match &self.kernel {
                    None => JsonValue::Null,
                    Some(kernel) => kernel.to_json(),
                },
            ),
            (
                "auto_threshold",
                match self.auto_threshold {
                    None => JsonValue::Null,
                    Some(threshold) => JsonValue::Number(threshold),
                },
            ),
            (
                "snapshot",
                match &self.snapshot {
                    None => JsonValue::Null,
                    Some(snapshot) => snapshot_to_json(snapshot),
                },
            ),
        ])
    }

    /// Reads the section back (absent or `null` → empty).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        if matches!(value, JsonValue::Null) {
            return Ok(Self::default());
        }
        let snapshot = match value.get("snapshot") {
            None | Some(JsonValue::Null) => None,
            Some(node) => Some(snapshot_from_json(node)?),
        };
        Ok(Self {
            elapsed_seconds: value.get("elapsed_seconds").and_then(JsonValue::as_f64),
            generation_seconds: value.get("generation_seconds").and_then(JsonValue::as_f64),
            kernel: value
                .get("kernel")
                .and_then(JsonValue::as_str)
                .map(str::to_owned),
            auto_threshold: value.get("auto_threshold").and_then(JsonValue::as_f64),
            snapshot,
        })
    }

    /// Folds another shard's telemetry into this one (cross-shard
    /// aggregation): clocks and snapshots **sum**.
    pub fn absorb(&mut self, other: &ShardMetrics) {
        self.elapsed_seconds = sum_opt(self.elapsed_seconds, other.elapsed_seconds);
        self.generation_seconds = sum_opt(self.generation_seconds, other.generation_seconds);
        match (&mut self.snapshot, &other.snapshot) {
            (Some(into), Some(from)) => into.merge(from),
            (None, Some(from)) => self.snapshot = Some(*from),
            _ => {}
        }
    }
}

fn sum_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(0.0) + b.unwrap_or(0.0)),
    }
}

/// Renders the `--metrics` output document: the aggregated telemetry plus
/// the derived rates operators actually read (per-stage time split and
/// samples per second).
#[must_use]
pub fn metrics_report(metrics: &ShardMetrics) -> JsonValue {
    let snapshot = metrics.snapshot.unwrap_or_default();
    let stage_split = JsonValue::Object(
        Stage::ALL
            .iter()
            .map(|&stage| {
                (
                    stage.name().to_owned(),
                    JsonValue::object([
                        ("seconds", JsonValue::Number(snapshot.stage_seconds(stage))),
                        ("calls", snapshot.stage_calls(stage).to_json()),
                    ]),
                )
            })
            .collect(),
    );
    let samples = snapshot.counter(Counter::SamplesEvaluated);
    let samples_per_second = match metrics.elapsed_seconds {
        Some(seconds) if seconds > 0.0 && samples > 0 => {
            JsonValue::Number(samples as f64 / seconds)
        }
        _ => JsonValue::Null,
    };
    JsonValue::object([
        ("format", METRICS_REPORT_FORMAT.to_json()),
        ("telemetry", metrics.to_json()),
        (
            "derived",
            JsonValue::object([
                ("stage_seconds", stage_split),
                ("samples_per_second", samples_per_second),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_snapshot() -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for (i, slot) in snapshot.counters.iter_mut().enumerate() {
            *slot = (i as u64 + 1) * 7;
        }
        for (i, slot) in snapshot.histograms[0].iter_mut().enumerate() {
            *slot = i as u64 * 3;
        }
        for (i, slot) in snapshot.stage_nanos.iter_mut().enumerate() {
            *slot = (i as u64 + 1) * 1_000_000_001;
        }
        for (i, slot) in snapshot.stage_calls.iter_mut().enumerate() {
            *slot = i as u64 + 1;
        }
        snapshot
    }

    #[test]
    fn snapshot_round_trips_exactly_through_text() {
        let snapshot = populated_snapshot();
        let text = snapshot_to_json(&snapshot).to_pretty_string();
        let round = snapshot_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round, snapshot);
    }

    #[test]
    fn empty_snapshot_round_trips_and_unknown_keys_are_ignored() {
        let round = snapshot_from_json(&snapshot_to_json(&MetricsSnapshot::default())).unwrap();
        assert_eq!(round, MetricsSnapshot::default());
        // A future build's extra counter does not break this build's loader,
        // and absent sections read as zero.
        let foreign =
            JsonValue::parse("{\"counters\": {\"dies_generated\": 5, \"from_the_future\": 9}}")
                .unwrap();
        let snapshot = snapshot_from_json(&foreign).unwrap();
        assert_eq!(snapshot.counter(Counter::DiesGenerated), 5);
        assert_eq!(snapshot.counter(Counter::SamplesEvaluated), 0);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        for bad in [
            "{\"counters\": {\"dies_generated\": \"x\"}}",
            "{\"histograms\": {\"faults_per_die\": [1, 2]}}",
            "{\"stages\": {\"plan\": {\"calls\": 1}}}",
        ] {
            assert!(
                snapshot_from_json(&JsonValue::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn shard_metrics_round_trip_and_empty_is_null() {
        let empty = ShardMetrics::default();
        assert!(empty.is_empty());
        assert_eq!(empty.to_json(), JsonValue::Null);
        assert_eq!(ShardMetrics::from_json(&JsonValue::Null).unwrap(), empty);

        let metrics = ShardMetrics {
            elapsed_seconds: Some(2.5),
            generation_seconds: Some(0.75),
            kernel: Some("sparse".to_owned()),
            auto_threshold: None,
            snapshot: Some(populated_snapshot()),
        };
        let text = metrics.to_json().to_pretty_string();
        let round = ShardMetrics::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round, metrics);
    }

    #[test]
    fn absorb_sums_clocks_and_snapshots() {
        let mut a = ShardMetrics {
            elapsed_seconds: Some(1.0),
            generation_seconds: None,
            kernel: None,
            auto_threshold: None,
            snapshot: Some(populated_snapshot()),
        };
        let b = ShardMetrics {
            elapsed_seconds: Some(2.0),
            generation_seconds: Some(0.5),
            kernel: None,
            auto_threshold: None,
            snapshot: Some(populated_snapshot()),
        };
        a.absorb(&b);
        assert_eq!(a.elapsed_seconds, Some(3.0));
        assert_eq!(a.generation_seconds, Some(0.5));
        let merged = a.snapshot.unwrap();
        let single = populated_snapshot();
        for (&counter, _) in Counter::ALL.iter().zip(0..) {
            assert_eq!(merged.counter(counter), 2 * single.counter(counter));
        }
        // None + Some adopts the snapshot.
        let mut none = ShardMetrics::default();
        none.absorb(&b);
        assert_eq!(none.snapshot, Some(populated_snapshot()));
    }

    #[test]
    fn metrics_report_carries_the_derived_rates() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters[Counter::SamplesEvaluated as usize] = 500;
        snapshot.stage_nanos[Stage::Observe as usize] = 1_500_000_000;
        snapshot.stage_calls[Stage::Observe as usize] = 3;
        let report = metrics_report(&ShardMetrics {
            elapsed_seconds: Some(2.0),
            snapshot: Some(snapshot),
            ..ShardMetrics::default()
        });
        assert_eq!(
            report.get("format").and_then(JsonValue::as_str),
            Some(METRICS_REPORT_FORMAT)
        );
        let derived = report.get("derived").unwrap();
        let observe = derived
            .get("stage_seconds")
            .unwrap()
            .get("observe")
            .unwrap();
        assert_eq!(
            observe.get("seconds").and_then(JsonValue::as_f64),
            Some(1.5)
        );
        assert_eq!(observe.get("calls").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            derived
                .get("samples_per_second")
                .and_then(JsonValue::as_f64),
            Some(250.0)
        );
        // No clock → no throughput claim.
        let empty = metrics_report(&ShardMetrics::default());
        assert!(matches!(
            empty.get("derived").unwrap().get("samples_per_second"),
            Some(JsonValue::Null)
        ));
    }
}
