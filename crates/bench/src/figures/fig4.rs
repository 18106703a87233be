//! Fig. 4 — worst-case error magnitude per faulty bit position for every
//! FM-LUT width (deterministic; no Monte-Carlo content).

use super::{
    single_panel, take_table, EngineTuning, FigureDef, FigureError, FigureSpec, PanelState,
    RenderedFigure, ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::Table;
use faultmit_core::error_magnitude::error_magnitude_profile;
use faultmit_core::SegmentGeometry;
use faultmit_sim::{Parallelism, ShardSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const WORD_BITS: usize = 32;

#[derive(Debug)]
struct Fig4Series {
    /// Series label ("no-correction" or "nFM=k").
    label: String,
    /// log2(error magnitude) per faulty bit position 0..31.
    log2_error_by_bit: Vec<u32>,
}

impl ToJson for Fig4Series {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("label", self.label.to_json()),
            ("log2_error_by_bit", self.log2_error_by_bit.to_json()),
        ])
    }
}

fn compute_series() -> Result<Vec<Fig4Series>, FigureError> {
    let mut series = vec![Fig4Series {
        label: "no-correction".to_owned(),
        log2_error_by_bit: error_magnitude_profile(WORD_BITS, None),
    }];
    for n_fm in 1..=5usize {
        let geometry = SegmentGeometry::new(WORD_BITS, n_fm)?;
        series.push(Fig4Series {
            label: format!("nFM={n_fm}"),
            log2_error_by_bit: error_magnitude_profile(WORD_BITS, Some(geometry)),
        });
    }
    Ok(series)
}

/// The registered Fig. 4 figure.
pub struct Fig4Def;

impl FigureDef for Fig4Def {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig4_error_magnitude"]
    }

    fn description(&self) -> &'static str {
        "worst-case error magnitude per faulty bit position (deterministic)"
    }

    fn spec(&self, _options: &RunOptions) -> FigureSpec {
        // Fully deterministic: every CLI knob is normalised away so
        // equivalent invocations share checkpoint files.
        FigureSpec {
            figure: self.name().to_owned(),
            backend: None,
            full_scale: false,
            samples_per_count: 1,
            benchmarks: Vec::new(),
            image: None,
            kind_law: None,
            kernel: None,
        }
    }

    fn panel_labels(&self, _spec: &FigureSpec) -> Vec<String> {
        vec!["fig4".to_owned()]
    }

    fn run_shard_tuned(
        &self,
        _spec: &FigureSpec,
        _tuning: EngineTuning,
        _parallelism: Parallelism,
        _shard: ShardSpec,
    ) -> Result<ShardRun, FigureError> {
        // Deterministic figures are recomputed by every shard; the merge
        // validates the copies agree.
        Ok(ShardRun::untimed(vec![PanelState::Table {
            rows: compute_series()?.to_json(),
        }]))
    }

    fn render(
        &self,
        _spec: &FigureSpec,
        _parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let rows = take_table(single_panel(panels, "fig4")?, "fig4")?;
        let series = compute_series()?;
        if rows != series.to_json() {
            return Err("fig4 shard state does not match the deterministic series".into());
        }

        let mut headers = vec!["faulty bit".to_owned()];
        headers.extend(series.iter().map(|s| s.label.clone()));
        let mut table = Table::new(
            "Fig. 4 — log2(error magnitude) per faulty bit position (32-bit word)",
            headers,
        );
        for bit in 0..WORD_BITS {
            let mut row = vec![bit.to_string()];
            for s in &series {
                row.push(s.log2_error_by_bit[bit].to_string());
            }
            table.add_row(row);
        }

        let mut report = String::new();
        writeln!(report, "{table}")?;

        // Summary: the worst-case bound per configuration (2^(S-1)).
        let mut bounds = BTreeMap::new();
        for n_fm in 1..=5usize {
            let geometry = SegmentGeometry::new(WORD_BITS, n_fm)?;
            bounds.insert(format!("nFM={n_fm}"), geometry.max_error_magnitude());
        }
        writeln!(
            report,
            "worst-case error magnitude bound per configuration:"
        )?;
        for (label, bound) in &bounds {
            writeln!(report, "  {label}: {bound} (= 2^(S-1))")?;
        }
        writeln!(
            report,
            "  no-correction: {} (= 2^(W-1))",
            1u64 << (WORD_BITS - 1)
        )?;

        Ok(RenderedFigure {
            document: rows,
            report,
        })
    }
}
