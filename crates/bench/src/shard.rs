//! Serializable shard state for distributed campaigns, covering every
//! accumulator shape the figure registry produces.
//!
//! A `campaign_shard` process evaluates one [`ShardSpec`] slice of a
//! registered figure campaign and writes its per-panel
//! [`PanelState`]s to disk as a [`ShardState`] JSON document;
//! `campaign_merge` (or the `campaign_run` driver) reads the shard files
//! back, folds their panels **in shard order** and renders the figure.
//! Because
//!
//! 1. chunk boundaries and per-sample RNG streams derive from the global
//!    plan (see [`faultmit_sim::Campaign::execute`]),
//! 2. catalogue state stores each [`CdfSketch`]'s raw `(value, weight)`
//!    observation list in insertion order and re-accumulates it on read
//!    ([`CdfSketch::from_observations`]), record state stores the raw
//!    [`PairedSample`] stream in global sample order, and deterministic
//!    table state is validated for equality across shards, and
//! 3. the in-tree JSON emitter prints every finite `f64` in its shortest
//!    round-trippable form (sole exception: `-0.0` normalises to `+0.0`,
//!    which no downstream reduction can distinguish — see the `json`
//!    module docs),
//!
//! the merged state — and therefore the rendered figure JSON — is
//! **byte-identical** to the monolithic single-process run for every
//! registered figure, backend and worker count.
//!
//! A completed shard file doubles as a checkpoint: `campaign_shard` skips
//! work when its output file already holds a state whose
//! [`ShardState::matches`] its request, so re-running a partially finished
//! K-shard campaign recomputes only the missing shards.

use crate::figures::{FigureSpec, PanelState};
use crate::json::{JsonValue, ToJson};
use crate::metrics::ShardMetrics;
use faultmit_analysis::{CatalogueAccumulator, CdfSketch, EmpiricalCdf};
use faultmit_sim::{PairedSample, ShardSpec};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Format tag of shard-state documents (bump on incompatible changes).
///
/// `v2` replaced the fig5/fig7-only `v1` layout with the registry's
/// panel-state union (catalogue / records / table); `v3` folded the four
/// ad-hoc telemetry fields (`elapsed_seconds`, `kernel`,
/// `generation_seconds`, `auto_threshold`) into one `metrics` section that
/// also carries the observability snapshot. Only `v3` is read: a
/// checkpoint is a cache, so an older file is recomputed, not migrated.
pub const SHARD_STATE_FORMAT: &str = "faultmit-shard-state/v3";

/// Error reading or merging shard state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStateError {
    /// What went wrong.
    pub reason: String,
}

impl ShardStateError {
    fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ShardStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard state error: {}", self.reason)
    }
}

impl std::error::Error for ShardStateError {}

/// One labelled campaign panel inside a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPanelState {
    /// Panel label (`"fig5"`, a benchmark name, an operating-point cell,
    /// an ablation sweep point, …).
    pub label: String,
    /// The shard's accumulated state for this panel.
    pub state: PanelState,
}

/// One shard's complete serialisable state: the campaign identity, the
/// shard coordinates, and one panel state per campaign panel.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Identity of the figure campaign the shard belongs to.
    pub spec: FigureSpec,
    /// Which slice of the campaign this state covers.
    pub shard: ShardSpec,
    /// Per-panel state, in panel order.
    pub panels: Vec<ShardPanelState>,
    /// The shard's telemetry section — wall/generation clocks and the
    /// observability snapshot (see [`ShardMetrics`]). Never part of the
    /// campaign identity: panel states (and the rendered figure JSON) are
    /// byte-identical whatever this records. [`ShardState::merge`]
    /// **aggregates** it across a shard set (clocks and snapshots sum).
    pub metrics: ShardMetrics,
}

impl ShardState {
    /// `true` when this state is the checkpoint for exactly the given
    /// campaign slice — same figure spec and same shard coordinates.
    #[must_use]
    pub fn matches(&self, spec: &FigureSpec, shard: ShardSpec) -> bool {
        self.spec == *spec && self.shard == shard
    }

    /// Wall-clock seconds the producing process spent evaluating this
    /// shard (the `metrics` section's clock; summed across shards in a
    /// merged state).
    #[must_use]
    pub fn elapsed_seconds(&self) -> Option<f64> {
        self.metrics.elapsed_seconds
    }

    /// CPU seconds spent generating fault maps, summed across workers.
    #[must_use]
    pub fn generation_seconds(&self) -> Option<f64> {
        self.metrics.generation_seconds
    }

    /// Serialises the state to the shard-file document.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("format", SHARD_STATE_FORMAT.to_json()),
            ("spec", self.spec.to_json()),
            ("shard_index", self.shard.shard_index().to_json()),
            ("shard_count", self.shard.shard_count().to_json()),
            ("metrics", self.metrics.to_json()),
            (
                "panels",
                JsonValue::Array(
                    self.panels
                        .iter()
                        .map(|panel| {
                            JsonValue::object([
                                ("label", panel.label.to_json()),
                                ("kind", panel.state.kind_name().to_json()),
                                ("state", panel_state_to_json(&panel.state)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a shard-file document.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] for malformed JSON, a foreign format tag,
    /// an unregistered figure or missing fields.
    pub fn parse(text: &str) -> Result<Self, ShardStateError> {
        let document = JsonValue::parse(text).map_err(|e| ShardStateError::new(format!("{e}")))?;
        Self::from_json(&document)
    }

    /// Reads the state from a parsed shard-file document.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] for a foreign format tag, an
    /// unregistered figure or missing fields.
    pub fn from_json(document: &JsonValue) -> Result<Self, ShardStateError> {
        let format = document
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ShardStateError::new("missing 'format' tag"))?;
        if format == "faultmit-shard-state/v2" {
            return Err(ShardStateError::new(
                "checkpoint format v2 is no longer read; delete it to recompute",
            ));
        }
        if format != SHARD_STATE_FORMAT {
            return Err(ShardStateError::new(format!(
                "unsupported shard-state format '{format}', expected '{SHARD_STATE_FORMAT}'"
            )));
        }
        let spec = document
            .get("spec")
            .ok_or_else(|| ShardStateError::new("missing 'spec'"))
            .and_then(|spec| FigureSpec::from_json(spec).map_err(ShardStateError::new))?;
        let shard_index = document
            .get("shard_index")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ShardStateError::new("missing 'shard_index'"))?;
        let shard_count = document
            .get("shard_count")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ShardStateError::new("missing 'shard_count'"))?;
        let shard = ShardSpec::new(shard_index as usize, shard_count as usize)
            .map_err(|e| ShardStateError::new(e.to_string()))?;
        // Telemetry is optional: a file without a `metrics` section simply
        // carries none.
        let metrics = match document.get("metrics") {
            None => ShardMetrics::default(),
            Some(section) => ShardMetrics::from_json(section).map_err(ShardStateError::new)?,
        };
        let panels = document
            .get("panels")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ShardStateError::new("missing 'panels'"))?
            .iter()
            .map(|panel| {
                let label = panel
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ShardStateError::new("panel is missing 'label'"))?
                    .to_owned();
                let kind = panel
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ShardStateError::new("panel is missing 'kind'"))?;
                let state = panel
                    .get("state")
                    .ok_or_else(|| ShardStateError::new("panel is missing 'state'"))
                    .and_then(|state| panel_state_from_json(kind, state))?;
                Ok(ShardPanelState { label, state })
            })
            .collect::<Result<Vec<_>, ShardStateError>>()?;
        Ok(Self {
            spec,
            shard,
            panels,
            metrics,
        })
    }

    /// Merges a complete set of shard states into the monolithic state.
    ///
    /// The input may arrive in any order; shards are sorted by index and
    /// merged ascending, which reproduces the monolithic chunk-order
    /// reduction bit for bit. Validation requires one shard for every index
    /// `0..shard_count`, a common figure spec, identical panel
    /// labels/catalogues — and reports **every** missing, duplicated or mismatched
    /// shard index of the K-set in one error instead of failing on the
    /// first bad file.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] enumerating all problems of an
    /// incomplete, duplicated or mismatched shard set.
    pub fn merge(mut shards: Vec<ShardState>) -> Result<ShardState, ShardStateError> {
        let first = shards
            .first()
            .ok_or_else(|| ShardStateError::new("no shard files to merge"))?;
        let spec = first.spec.clone();
        let shard_count = first.shard.shard_count();

        // Shard files can claim any K, so refuse an absurd count before
        // allocating the per-index bookkeeping it would size.
        const MAX_ENUMERATED_SHARDS: usize = 100_000;
        if shard_count > MAX_ENUMERATED_SHARDS {
            return Err(ShardStateError::new(format!(
                "cannot merge shard set: shard {} claims a {shard_count}-shard campaign \
                 (more than the {MAX_ENUMERATED_SHARDS} supported)",
                first.shard
            )));
        }

        // Collect every defect of the set before failing, so one error
        // message names exactly which indices are missing or mismatched.
        let mut spec_mismatches: Vec<String> = Vec::new();
        let mut panel_mismatches: Vec<String> = Vec::new();
        let labels: Vec<(String, &'static str)> = first
            .panels
            .iter()
            .map(|p| (p.label.clone(), p.state.kind_name()))
            .collect();
        for shard in &shards {
            if shard.spec != spec || shard.shard.shard_count() != shard_count {
                spec_mismatches.push(shard.shard.to_string());
                continue;
            }
            let shard_labels: Vec<(String, &'static str)> = shard
                .panels
                .iter()
                .map(|p| (p.label.clone(), p.state.kind_name()))
                .collect();
            let compatible = shard_labels == labels
                && first
                    .panels
                    .iter()
                    .zip(&shard.panels)
                    .all(|(a, b)| a.state.compatible_with(&b.state));
            if !compatible {
                panel_mismatches.push(shard.shard.to_string());
            }
        }

        let mut present = vec![0usize; shard_count];
        for shard in &shards {
            if shard.shard.shard_count() == shard_count {
                present[shard.shard.shard_index()] += 1;
            }
        }
        let missing: Vec<String> = present
            .iter()
            .enumerate()
            .filter(|(_, &count)| count == 0)
            .map(|(index, _)| index.to_string())
            .collect();
        let duplicated: Vec<String> = present
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 1)
            .map(|(index, _)| index.to_string())
            .collect();

        if !(spec_mismatches.is_empty()
            && panel_mismatches.is_empty()
            && missing.is_empty()
            && duplicated.is_empty()
            && shards.len() == shard_count)
        {
            let mut problems = Vec::new();
            if !missing.is_empty() {
                problems.push(format!(
                    "missing shard(s) [{}] of the {shard_count}-shard set",
                    missing.join(", ")
                ));
            }
            if !duplicated.is_empty() {
                problems.push(format!("duplicated shard(s) [{}]", duplicated.join(", ")));
            }
            if !spec_mismatches.is_empty() {
                problems.push(format!(
                    "shard(s) [{}] were produced by a different campaign configuration \
                     than shard {}",
                    spec_mismatches.join(", "),
                    first.shard
                ));
            }
            if !panel_mismatches.is_empty() {
                problems.push(format!(
                    "shard(s) [{}] disagree on the campaign panels or scheme catalogue",
                    panel_mismatches.join(", ")
                ));
            }
            if problems.is_empty() {
                problems.push(format!(
                    "{} file(s) provided for a {shard_count}-shard campaign",
                    shards.len()
                ));
            }
            return Err(ShardStateError::new(format!(
                "cannot merge shard set: {}",
                problems.join("; ")
            )));
        }

        shards.sort_by_key(|shard| shard.shard.shard_index());
        let mut iter = shards.into_iter();
        let mut merged = iter.next().expect("validated non-empty");
        for shard in iter {
            for (into, from) in merged.panels.iter_mut().zip(shard.panels) {
                into.state.merge(from.state).map_err(ShardStateError::new)?;
            }
            // Telemetry aggregates across the set: clocks and snapshots
            // sum (counter sums are the monolithic run's counters, since
            // every chunk's contribution lands in exactly one shard).
            merged.metrics.absorb(&shard.metrics);
        }
        merged.shard = ShardSpec::solo();
        Ok(merged)
    }

    /// Splits the state into bare panel states, in panel order — the shape
    /// [`crate::figures::FigureDef::render`] consumes — after validating
    /// the labels against the figure's own panel list.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] when the stored panels do not match the
    /// figure's panels (a malformed or foreign shard set).
    pub fn into_panels(
        self,
        expected_labels: &[String],
    ) -> Result<Vec<PanelState>, ShardStateError> {
        let found: Vec<&str> = self.panels.iter().map(|p| p.label.as_str()).collect();
        if found
            != expected_labels
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            return Err(ShardStateError::new(format!(
                "panel labels {found:?} do not match the figure's panels {expected_labels:?}"
            )));
        }
        Ok(self.panels.into_iter().map(|p| p.state).collect())
    }
}

/// Reads and parses a set of shard files, reporting **every** unreadable or
/// malformed file in one error (instead of failing on the first), plus any
/// mix of different figures across the set.
///
/// # Errors
///
/// Returns [`ShardStateError`] listing each bad path with its reason.
pub fn load_shard_files<P: AsRef<Path>>(paths: &[P]) -> Result<Vec<ShardState>, ShardStateError> {
    let mut states = Vec::new();
    let mut problems = Vec::new();
    for path in paths {
        let path = path.as_ref();
        match std::fs::read_to_string(path) {
            Err(e) => problems.push(format!("'{}': cannot read ({e})", path.display())),
            Ok(text) => match ShardState::parse(&text) {
                Err(e) => problems.push(format!("'{}': {e}", path.display())),
                Ok(state) => states.push(state),
            },
        }
    }
    if let Some(first) = states.first() {
        let figure = first.spec.figure.clone();
        let mixed: Vec<String> = states
            .iter()
            .filter(|s| s.spec.figure != figure)
            .map(|s| format!("'{}' (shard {})", s.spec.figure, s.shard))
            .collect();
        if !mixed.is_empty() {
            problems.push(format!(
                "shard files mix figures: expected '{figure}', also found {}",
                mixed.join(", ")
            ));
        }
    }
    if !problems.is_empty() {
        return Err(ShardStateError::new(format!(
            "cannot load shard set: {}",
            problems.join("; ")
        )));
    }
    Ok(states)
}

/// Serialises a [`CdfSketch`] as its ordered `(value, weight)` observation
/// list.
#[must_use]
pub fn sketch_to_json(sketch: &CdfSketch) -> JsonValue {
    JsonValue::Array(
        sketch
            .observations()
            .iter()
            .map(|&(value, weight)| {
                JsonValue::Array(vec![JsonValue::Number(value), JsonValue::Number(weight)])
            })
            .collect(),
    )
}

/// Rebuilds a [`CdfSketch`] from its serialised observation list,
/// re-accumulating the order-sensitive total weight exactly.
///
/// # Errors
///
/// Returns [`ShardStateError`] when the document is not a list of
/// `[value, weight]` pairs.
pub fn sketch_from_json(value: &JsonValue) -> Result<CdfSketch, ShardStateError> {
    let observations = value
        .as_array()
        .ok_or_else(|| ShardStateError::new("sketch must be an array of [value, weight] pairs"))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|items| items.len() == 2)
                .ok_or_else(|| ShardStateError::new("sketch entries must be [value, weight]"))?;
            let value = pair[0]
                .as_f64()
                .ok_or_else(|| ShardStateError::new("sketch values must be numbers"))?;
            let weight = pair[1]
                .as_f64()
                .ok_or_else(|| ShardStateError::new("sketch weights must be numbers"))?;
            Ok((value, weight))
        })
        .collect::<Result<Vec<_>, ShardStateError>>()?;
    Ok(CdfSketch::from_observations(observations))
}

/// Serialises a [`CatalogueAccumulator`]: one entry per scheme, each a list
/// of `{n, cdf}` per-failure-count sketches in ascending failure count.
#[must_use]
pub fn accumulator_to_json(accumulator: &CatalogueAccumulator) -> JsonValue {
    JsonValue::Array(
        accumulator
            .per_scheme_counts()
            .iter()
            .map(|per_count| {
                JsonValue::Array(
                    per_count
                        .iter()
                        .map(|(&n_faults, cdf)| {
                            JsonValue::object([
                                ("n", n_faults.to_json()),
                                ("cdf", sketch_to_json(cdf.sketch())),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Rebuilds a [`CatalogueAccumulator`] from its serialised form.
///
/// # Errors
///
/// Returns [`ShardStateError`] for structural mismatches.
pub fn accumulator_from_json(value: &JsonValue) -> Result<CatalogueAccumulator, ShardStateError> {
    let per_scheme = value
        .as_array()
        .ok_or_else(|| ShardStateError::new("accumulator state must be an array of schemes"))?
        .iter()
        .map(|scheme| {
            let mut per_count = BTreeMap::new();
            for entry in scheme.as_array().ok_or_else(|| {
                ShardStateError::new("per-scheme state must be an array of {n, cdf} entries")
            })? {
                let n_faults = entry
                    .get("n")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| ShardStateError::new("count entry is missing 'n'"))?;
                let sketch = entry
                    .get("cdf")
                    .ok_or_else(|| ShardStateError::new("count entry is missing 'cdf'"))
                    .and_then(sketch_from_json)?;
                if per_count
                    .insert(n_faults, EmpiricalCdf::from_sketch(sketch))
                    .is_some()
                {
                    return Err(ShardStateError::new(format!(
                        "duplicate failure count {n_faults} in accumulator state"
                    )));
                }
            }
            Ok(per_count)
        })
        .collect::<Result<Vec<_>, ShardStateError>>()?;
    Ok(CatalogueAccumulator::from_per_scheme_counts(per_scheme))
}

/// Serialises an ordered [`PairedSample`] record stream: one
/// `[index, n, weight, [metrics…]]` entry per record.
#[must_use]
pub fn records_to_json(records: &[PairedSample]) -> JsonValue {
    JsonValue::Array(
        records
            .iter()
            .map(|record| {
                JsonValue::Array(vec![
                    record.sample_index.to_json(),
                    record.n_faults.to_json(),
                    JsonValue::Number(record.weight),
                    record.metrics.to_json(),
                ])
            })
            .collect(),
    )
}

/// Rebuilds an ordered [`PairedSample`] record stream from its serialised
/// form.
///
/// # Errors
///
/// Returns [`ShardStateError`] when the document is not a list of
/// `[index, n, weight, [metrics…]]` entries.
pub fn records_from_json(value: &JsonValue) -> Result<Vec<PairedSample>, ShardStateError> {
    value
        .as_array()
        .ok_or_else(|| ShardStateError::new("records state must be an array"))?
        .iter()
        .map(|entry| {
            let entry = entry
                .as_array()
                .filter(|items| items.len() == 4)
                .ok_or_else(|| {
                    ShardStateError::new("record entries must be [index, n, weight, metrics]")
                })?;
            let sample_index = entry[0]
                .as_u64()
                .ok_or_else(|| ShardStateError::new("record index must be an integer"))?;
            let n_faults = entry[1]
                .as_u64()
                .ok_or_else(|| ShardStateError::new("record fault count must be an integer"))?;
            let weight = entry[2]
                .as_f64()
                .ok_or_else(|| ShardStateError::new("record weight must be a number"))?;
            let metrics = entry[3]
                .as_array()
                .ok_or_else(|| ShardStateError::new("record metrics must be an array"))?
                .iter()
                .map(|metric| {
                    metric
                        .as_f64()
                        .ok_or_else(|| ShardStateError::new("record metrics must be numbers"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(PairedSample {
                sample_index,
                n_faults,
                weight,
                metrics,
            })
        })
        .collect()
}

/// Serialises one panel's [`PanelState`] payload (the shape under the
/// panel's `kind` tag).
#[must_use]
pub fn panel_state_to_json(state: &PanelState) -> JsonValue {
    match state {
        PanelState::Catalogue {
            scheme_names,
            accumulator,
        } => JsonValue::object([
            ("schemes", scheme_names.to_json()),
            ("accumulator", accumulator_to_json(accumulator)),
        ]),
        PanelState::Records {
            metric_names,
            records,
        } => JsonValue::object([
            ("metrics", metric_names.to_json()),
            ("records", records_to_json(records)),
        ]),
        PanelState::Table { rows } => rows.clone(),
    }
}

/// Rebuilds a [`PanelState`] from its `kind` tag and serialised payload.
///
/// # Errors
///
/// Returns [`ShardStateError`] for unknown kinds or structural mismatches.
pub fn panel_state_from_json(kind: &str, value: &JsonValue) -> Result<PanelState, ShardStateError> {
    match kind {
        "catalogue" => {
            let scheme_names = value
                .get("schemes")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| ShardStateError::new("catalogue state is missing 'schemes'"))?
                .iter()
                .map(|name| {
                    name.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| ShardStateError::new("scheme names must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let accumulator = value
                .get("accumulator")
                .ok_or_else(|| ShardStateError::new("catalogue state is missing 'accumulator'"))
                .and_then(accumulator_from_json)?;
            if accumulator.scheme_count() != scheme_names.len() {
                return Err(ShardStateError::new(format!(
                    "catalogue state tracks {} schemes but names {}",
                    accumulator.scheme_count(),
                    scheme_names.len()
                )));
            }
            Ok(PanelState::Catalogue {
                scheme_names,
                accumulator,
            })
        }
        "records" => {
            let metric_names = value
                .get("metrics")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| ShardStateError::new("records state is missing 'metrics'"))?
                .iter()
                .map(|name| {
                    name.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| ShardStateError::new("metric names must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let records = value
                .get("records")
                .ok_or_else(|| ShardStateError::new("records state is missing 'records'"))
                .and_then(records_from_json)?;
            if let Some(record) = records
                .iter()
                .find(|record| record.metrics.len() != metric_names.len())
            {
                return Err(ShardStateError::new(format!(
                    "record {} carries {} metrics but the panel names {}",
                    record.sample_index,
                    record.metrics.len(),
                    metric_names.len()
                )));
            }
            Ok(PanelState::Records {
                metric_names,
                records,
            })
        }
        "table" => Ok(PanelState::Table {
            rows: value.clone(),
        }),
        other => Err(ShardStateError::new(format!(
            "unknown panel state kind '{other}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::find_figure;
    use crate::RunOptions;
    use faultmit_sim::Accumulator;

    fn sample(index: u64, n_faults: u64, metrics: &[f64]) -> PairedSample {
        PairedSample {
            sample_index: index,
            n_faults,
            weight: 0.125 + index as f64 * 1e-3,
            metrics: metrics.to_vec(),
        }
    }

    fn spec() -> FigureSpec {
        find_figure("fig5").unwrap().spec(&RunOptions::default())
    }

    #[test]
    fn empty_sketch_round_trips() {
        let sketch = CdfSketch::new();
        let round = sketch_from_json(&sketch_to_json(&sketch)).unwrap();
        assert_eq!(round, sketch);
        assert_eq!(round.total_weight().to_bits(), 0f64.to_bits());
    }

    #[test]
    fn single_sample_sketch_round_trips_bit_exactly() {
        let mut sketch = CdfSketch::new();
        sketch.push(1.0 / 3.0, 5e-324_f64.max(1e-17));
        let round = sketch_from_json(&sketch_to_json(&sketch)).unwrap();
        assert_eq!(round, sketch);
        assert_eq!(
            round.total_weight().to_bits(),
            sketch.total_weight().to_bits()
        );
    }

    #[test]
    fn sketch_round_trip_preserves_order_sensitive_weight_sums() {
        let mut sketch = CdfSketch::new();
        for (i, w) in [1e-3, 1e16, 1.0, 1e-7, 3.5, 1e12].into_iter().enumerate() {
            sketch.push(i as f64 * 0.1, w);
        }
        let text = sketch_to_json(&sketch).to_pretty_string();
        let round = sketch_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round, sketch);
        assert_eq!(
            round.total_weight().to_bits(),
            sketch.total_weight().to_bits()
        );
    }

    #[test]
    fn empty_accumulator_round_trips() {
        for accumulator in [
            CatalogueAccumulator::default(),
            CatalogueAccumulator::new(3),
        ] {
            let round = accumulator_from_json(&accumulator_to_json(&accumulator)).unwrap();
            assert_eq!(round, accumulator);
        }
    }

    #[test]
    fn populated_accumulator_round_trips_through_text() {
        let mut accumulator = CatalogueAccumulator::new(2);
        accumulator.record(&sample(0, 1, &[10.0, 0.5]));
        accumulator.record(&sample(1, 1, &[20.0, 1.0 / 3.0]));
        accumulator.record(&sample(2, 4, &[30.0, 0.125]));
        let text = accumulator_to_json(&accumulator).to_pretty_string();
        let round = accumulator_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round, accumulator);
    }

    #[test]
    fn record_streams_round_trip_through_text() {
        let records = vec![
            sample(0, 64, &[1.0 / 3.0, 5e-324]),
            sample(1, 64, &[2.5, 1e300]),
            sample(7, 256, &[0.0, -0.125]),
        ];
        let text = records_to_json(&records).to_pretty_string();
        let round = records_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round.len(), records.len());
        for (a, b) in records.iter().zip(&round) {
            assert_eq!(a.sample_index, b.sample_index);
            assert_eq!(a.n_faults, b.n_faults);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            assert_eq!(a.metrics.len(), b.metrics.len());
            for (x, y) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn malformed_state_documents_are_rejected() {
        assert!(sketch_from_json(&JsonValue::Null).is_err());
        assert!(sketch_from_json(&JsonValue::parse("[[1.0]]").unwrap()).is_err());
        assert!(sketch_from_json(&JsonValue::parse("[[1.0, true]]").unwrap()).is_err());
        assert!(accumulator_from_json(&JsonValue::parse("[{}]").unwrap()).is_err());
        assert!(accumulator_from_json(
            &JsonValue::parse("[[{\"n\": 1, \"cdf\": []}, {\"n\": 1, \"cdf\": []}]]").unwrap()
        )
        .is_err());
        assert!(records_from_json(&JsonValue::Null).is_err());
        assert!(records_from_json(&JsonValue::parse("[[1, 2, 3]]").unwrap()).is_err());
        assert!(records_from_json(&JsonValue::parse("[[1, 2, 3.0, 4]]").unwrap()).is_err());
        assert!(records_from_json(&JsonValue::parse("[[1, 2, 3.0, [true]]]").unwrap()).is_err());
        assert!(panel_state_from_json("bogus", &JsonValue::Null).is_err());
        assert!(panel_state_from_json("catalogue", &JsonValue::Null).is_err());
        assert!(panel_state_from_json("records", &JsonValue::Null).is_err());
        // Mismatched metric arity inside a records panel.
        assert!(panel_state_from_json(
            "records",
            &JsonValue::parse("{\"metrics\": [\"a\", \"b\"], \"records\": [[0, 1, 0.5, [1.0]]]}")
                .unwrap()
        )
        .is_err());
        assert!(ShardState::parse("not json").is_err());
        assert!(ShardState::parse("{\"format\": \"other/v9\"}").is_err());
        // The v1 tag is a foreign format now.
        assert!(ShardState::parse("{\"format\": \"faultmit-shard-state/v1\"}").is_err());
    }

    fn one_panel_state(values: &[f64]) -> PanelState {
        let mut accumulator = CatalogueAccumulator::new(1);
        for (i, &value) in values.iter().enumerate() {
            accumulator.record(&sample(i as u64, 1, &[value]));
        }
        PanelState::Catalogue {
            scheme_names: vec!["no-correction".to_owned()],
            accumulator,
        }
    }

    fn shard_with(index: usize, count: usize, values: &[f64]) -> ShardState {
        ShardState {
            spec: spec(),
            shard: ShardSpec::new(index, count).unwrap(),
            panels: vec![ShardPanelState {
                label: "fig5".to_owned(),
                state: one_panel_state(values),
            }],
            metrics: ShardMetrics {
                elapsed_seconds: Some(0.25 + index as f64),
                kernel: None,
                generation_seconds: Some(0.125 + index as f64 * 0.5),
                auto_threshold: None,
                snapshot: None,
            },
        }
    }

    #[test]
    fn shard_state_round_trips_and_matches() {
        let state = shard_with(1, 3, &[7.5]);
        let text = state.to_json().to_pretty_string();
        let round = ShardState::parse(&text).unwrap();
        assert_eq!(round, state);
        assert!(round.matches(&spec(), ShardSpec::new(1, 3).unwrap()));
        assert!(!round.matches(&spec(), ShardSpec::new(0, 3).unwrap()));
        let other_spec = FigureSpec {
            samples_per_count: 99,
            ..spec()
        };
        assert!(!round.matches(&other_spec, ShardSpec::new(1, 3).unwrap()));
    }

    #[test]
    fn every_panel_kind_round_trips_inside_a_shard_state() {
        let records = PanelState::Records {
            metric_names: vec!["naive".to_owned(), "optimal".to_owned()],
            records: vec![sample(0, 9, &[1.5, 0.5]), sample(1, 9, &[2.5, 1.0 / 7.0])],
        };
        let table = PanelState::Table {
            rows: JsonValue::parse("[{\"a\": 1.25}, {\"a\": null}]").unwrap(),
        };
        let state = ShardState {
            spec: spec(),
            shard: ShardSpec::solo(),
            metrics: ShardMetrics::default(),
            panels: vec![
                ShardPanelState {
                    label: "cat".to_owned(),
                    state: one_panel_state(&[1.0, 2.0]),
                },
                ShardPanelState {
                    label: "rec".to_owned(),
                    state: records,
                },
                ShardPanelState {
                    label: "tab".to_owned(),
                    state: table,
                },
            ],
        };
        let round = ShardState::parse(&state.to_json().to_pretty_string()).unwrap();
        assert_eq!(round, state);
    }

    #[test]
    fn elapsed_telemetry_round_trips_and_is_optional() {
        // Telemetry survives the round trip…
        let state = shard_with(1, 3, &[7.5]);
        assert_eq!(state.elapsed_seconds(), Some(1.25));
        assert_eq!(state.generation_seconds(), Some(0.625));
        let round = ShardState::parse(&state.to_json().to_pretty_string()).unwrap();
        assert_eq!(round.elapsed_seconds(), Some(1.25));
        assert_eq!(round.generation_seconds(), Some(0.625));
        // …and files without the `metrics` section parse as empty metrics.
        let mut document = state.to_json();
        if let JsonValue::Object(fields) = &mut document {
            fields.retain(|(key, _)| key != "metrics");
        }
        let legacy = ShardState::from_json(&document).unwrap();
        assert!(legacy.metrics.is_empty());
        assert_eq!(legacy.elapsed_seconds(), None);
        assert!(legacy.matches(&spec(), ShardSpec::new(1, 3).unwrap()));
    }

    #[test]
    fn v2_checkpoints_are_rejected_with_a_recompute_message() {
        // A literal v2 document, exactly as `campaign_shard` wrote it before
        // the `metrics` section existed: telemetry lives at the top level.
        let mut document = shard_with(1, 3, &[7.5]).to_json();
        let JsonValue::Object(fields) = &mut document else {
            panic!("shard state serialises as an object");
        };
        fields.retain(|(key, _)| key != "metrics");
        for (key, value) in fields.iter_mut() {
            if key == "format" {
                *value = JsonValue::String("faultmit-shard-state/v2".to_owned());
            }
        }
        fields.push(("elapsed_seconds".to_owned(), JsonValue::Number(1.25)));
        fields.push(("kernel".to_owned(), JsonValue::String("sparse".to_owned())));

        let error = ShardState::from_json(&document).unwrap_err();
        assert_eq!(
            error.reason,
            "checkpoint format v2 is no longer read; delete it to recompute"
        );
    }

    #[test]
    fn checkpoints_naming_a_removed_kernel_ask_for_a_recompute() {
        for removed in ["scalar", "bitsliced"] {
            let mut document = shard_with(0, 2, &[1.0]).to_json();
            let JsonValue::Object(fields) = &mut document else {
                panic!("shard state serialises as an object");
            };
            for (key, value) in fields.iter_mut() {
                if key == "spec" {
                    let JsonValue::Object(spec) = value else {
                        panic!("the spec serialises as an object");
                    };
                    spec.retain(|(field, _)| field != "kernel");
                    spec.push(("kernel".to_owned(), JsonValue::String(removed.to_owned())));
                }
            }
            let error = ShardState::from_json(&document).unwrap_err();
            assert!(
                error.reason.contains(&format!(
                    "kernel '{removed}' was removed; recompute this checkpoint"
                )),
                "{error}"
            );
        }
    }

    #[test]
    fn shard_state_round_trips_a_populated_metrics_snapshot() {
        let recorder = faultmit_obs::Recorder::new();
        {
            let recorder = std::sync::Arc::new(recorder);
            let _guard = faultmit_obs::install(&recorder);
            faultmit_obs::count(faultmit_obs::Counter::SamplesEvaluated, 42);
            faultmit_obs::record(faultmit_obs::Histogram::FaultsPerDie, 3);
            faultmit_obs::add_stage(faultmit_obs::Stage::Generate, 1_000, 7);
            let mut state = shard_with(0, 1, &[7.5]);
            state.metrics.snapshot = Some(recorder.snapshot());
            let round = ShardState::parse(&state.to_json().to_pretty_string()).unwrap();
            assert_eq!(round, state);
            let snapshot = round.metrics.snapshot.expect("snapshot survives");
            assert_eq!(
                snapshot.counter(faultmit_obs::Counter::SamplesEvaluated),
                42
            );
        }
    }

    #[test]
    fn merge_folds_shards_in_index_order_regardless_of_input_order() {
        let merged = ShardState::merge(vec![
            shard_with(2, 3, &[5.0]),
            shard_with(0, 3, &[1.0, 2.0]),
            shard_with(1, 3, &[3.0]),
        ])
        .unwrap();
        assert!(merged.shard.is_solo());
        // Telemetry aggregates: clocks sum across the set.
        assert_eq!(merged.elapsed_seconds(), Some(0.25 + 1.25 + 2.25));
        assert_eq!(merged.generation_seconds(), Some(0.125 + 0.625 + 1.125));
        let PanelState::Catalogue { accumulator, .. } = &merged.panels[0].state else {
            panic!("expected catalogue state");
        };
        let values: Vec<f64> = accumulator.per_scheme_counts()[0][&1]
            .samples()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn merge_errors_enumerate_every_missing_and_mismatched_shard() {
        assert!(ShardState::merge(vec![]).is_err());

        // Missing shards 1 and 3 of 5: both named in one message.
        let error = ShardState::merge(vec![
            shard_with(0, 5, &[1.0]),
            shard_with(2, 5, &[2.0]),
            shard_with(4, 5, &[3.0]),
        ])
        .unwrap_err();
        assert!(error.reason.contains("missing shard(s) [1, 3]"), "{error}");
        assert!(error.reason.contains("5-shard set"), "{error}");

        // Duplicate shard index.
        let error = ShardState::merge(vec![shard_with(0, 2, &[1.0]), shard_with(0, 2, &[2.0])])
            .unwrap_err();
        assert!(error.reason.contains("duplicated shard(s) [0]"), "{error}");
        assert!(error.reason.contains("missing shard(s) [1]"), "{error}");

        // Conflicting spec: the offending index is named.
        let mut foreign = shard_with(1, 2, &[2.0]);
        foreign.spec.samples_per_count = 7;
        let error = ShardState::merge(vec![shard_with(0, 2, &[1.0]), foreign]).unwrap_err();
        assert!(
            error.reason.contains("[1/2]") && error.reason.contains("different campaign"),
            "{error}"
        );

        // Conflicting catalogue.
        let mut renamed = shard_with(1, 2, &[2.0]);
        if let PanelState::Catalogue { scheme_names, .. } = &mut renamed.panels[0].state {
            scheme_names[0] = "other".to_owned();
        }
        let error = ShardState::merge(vec![shard_with(0, 2, &[1.0]), renamed]).unwrap_err();
        assert!(
            error.reason.contains("[1/2]") && error.reason.contains("disagree"),
            "{error}"
        );
    }

    #[test]
    fn merge_refuses_absurd_shard_counts_without_allocating() {
        // A corrupted/crafted file may claim any K; the merge must refuse
        // it cheaply instead of sizing bookkeeping by the claimed count.
        let mut shard = shard_with(0, 1, &[1.0]);
        shard.shard = ShardSpec::new(0, 50_000_000).unwrap();
        let error = ShardState::merge(vec![shard]).unwrap_err();
        assert!(error.reason.contains("claims a 50000000-shard"), "{error}");
    }

    #[test]
    fn into_panels_validates_labels() {
        let state = shard_with(0, 1, &[1.0]);
        assert!(state.clone().into_panels(&["fig5".to_owned()]).is_ok());
        assert!(state.into_panels(&["other".to_owned()]).is_err());
    }

    #[test]
    fn load_shard_files_reports_every_bad_path_and_mixed_figures() {
        let dir = std::env::temp_dir().join(format!("faultmit-shard-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let good = dir.join("good.json");
        std::fs::write(&good, shard_with(0, 2, &[1.0]).to_json().to_pretty_string()).unwrap();
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        let missing = dir.join("missing.json");

        let error = load_shard_files(&[&good, &garbage, &missing]).unwrap_err();
        assert!(error.reason.contains("garbage.json"), "{error}");
        assert!(error.reason.contains("missing.json"), "{error}");
        assert!(!error.reason.contains("good.json"), "{error}");

        // Mixed figures across one set are rejected even if each file is
        // individually valid.
        let foreign = dir.join("foreign.json");
        let mut other = shard_with(1, 2, &[2.0]);
        other.spec = find_figure("fig4").unwrap().spec(&RunOptions::default());
        other.panels = vec![ShardPanelState {
            label: "fig4".to_owned(),
            state: PanelState::Table {
                rows: JsonValue::Array(vec![]),
            },
        }];
        std::fs::write(&foreign, other.to_json().to_pretty_string()).unwrap();
        let error = load_shard_files(&[&good, &foreign]).unwrap_err();
        assert!(error.reason.contains("mix figures"), "{error}");
        assert!(error.reason.contains("fig4"), "{error}");

        let ok = load_shard_files(&[&good]).unwrap();
        assert_eq!(ok.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
