//! The structured result of a [`crate::Session`] matrix run, plus the shared
//! overhead formatting used by the benchmark harness.

use std::fmt::Write as _;

use secbranch_obs::json::Fixed;

use crate::{Measurement, Provenance};

/// Formats one Table III style cell: absolute value plus overhead percentage
/// against a baseline (`"110 (+10.000%)"`), or just the absolute value when
/// the baseline is zero.
///
/// This is the single home of the evaluation's overhead formatting; the
/// percentage itself comes from the same formula as
/// [`Measurement::size_overhead_percent`] and
/// [`Measurement::runtime_overhead_percent`].
#[must_use]
pub fn overhead_cell(value: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        format!("{value:.0}")
    } else {
        format!(
            "{value:.0} ({:+.3}%)",
            crate::overhead_percent(value, baseline)
        )
    }
}

/// One cell of a measurement matrix: one workload under one pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportCell {
    /// The workload name.
    pub workload: String,
    /// The pipeline label.
    pub pipeline: String,
    /// The measured quantities.
    pub measurement: Measurement,
    /// Code-size overhead against the baseline pipeline (the matrix's first
    /// pipeline), in percent. `None` for the baseline cells themselves.
    pub size_overhead_percent: Option<f64>,
    /// Cycle-count overhead against the baseline pipeline, in percent.
    /// `None` for the baseline cells themselves.
    pub runtime_overhead_percent: Option<f64>,
    /// The provenance of the artifact this cell was measured on (module
    /// hash, pipeline fingerprint, pass sequence) — the audit trail tying
    /// every reported number to one reproducible compilation.
    pub provenance: Provenance,
}

/// The structured, serialisable result of [`crate::Session::run_matrix`]:
/// workloads × pipelines, with per-cell size/cycles/CFI statistics and
/// overheads against the first (baseline) pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload names, in matrix order.
    pub workloads: Vec<String>,
    /// Pipeline labels, in matrix order. The first label is the overhead
    /// baseline.
    pub pipelines: Vec<String>,
    /// All cells, in workload-major order.
    pub cells: Vec<ReportCell>,
}

impl Report {
    /// Looks up the cell of one workload under one pipeline label.
    #[must_use]
    pub fn cell(&self, workload: &str, pipeline: &str) -> Option<&ReportCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.pipeline == pipeline)
    }

    /// The baseline pipeline label (the matrix's first pipeline), if any.
    #[must_use]
    pub fn baseline(&self) -> Option<&str> {
        self.pipelines.first().map(String::as_str)
    }

    /// Renders the matrix as a Table III style text block: per workload one
    /// size row and one cycles row, baseline absolute plus
    /// `absolute (+overhead%)` cells for every other pipeline.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for workload in &self.workloads {
            let Some(base) = self.baseline().and_then(|label| self.cell(workload, label)) else {
                continue;
            };
            let mut size_row = format!(
                "{workload:<16} size/B    {:>10}",
                base.measurement.code_size_bytes
            );
            let mut time_row = format!(
                "{workload:<16} cycles    {:>10}",
                base.measurement.result.cycles
            );
            for pipeline in self.pipelines.iter().skip(1) {
                let Some(cell) = self.cell(workload, pipeline) else {
                    continue;
                };
                let _ = write!(
                    size_row,
                    " | {:>22}",
                    overhead_cell(
                        f64::from(cell.measurement.code_size_bytes),
                        f64::from(base.measurement.code_size_bytes),
                    )
                );
                let _ = write!(
                    time_row,
                    " | {:>22}",
                    overhead_cell(
                        cell.measurement.result.cycles as f64,
                        base.measurement.result.cycles as f64,
                    )
                );
            }
            out.push_str(&size_row);
            out.push('\n');
            out.push_str(&time_row);
            out.push('\n');
        }
        out
    }
}

secbranch_obs::impl_to_json! { Report |r| workloads, pipelines, cells }

secbranch_obs::impl_to_json! { ReportCell |c|
    workload,
    pipeline,
    code_size_bytes: c.measurement.code_size_bytes,
    entry_size_bytes: c.measurement.entry_size_bytes,
    return_value: c.measurement.result.return_value,
    cycles: c.measurement.result.cycles,
    instructions: c.measurement.result.instructions,
    cfi_checks: c.measurement.result.cfi_checks,
    cfi_violations: c.measurement.result.cfi_violations,
    size_overhead_percent: c.size_overhead_percent.map(|v| Fixed(v, 6)),
    runtime_overhead_percent: c.runtime_overhead_percent.map(|v| Fixed(v, 6)),
    provenance,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_cell_formats_percentages() {
        assert_eq!(overhead_cell(110.0, 100.0), "110 (+10.000%)");
        assert_eq!(overhead_cell(50.0, 0.0), "50");
    }

    #[test]
    fn json_string_arrays_are_escaped() {
        assert_eq!(
            secbranch_obs::json::to_string(&vec!["a\"b".to_string(), "c".to_string()]),
            "[\"a\\\"b\",\"c\"]"
        );
    }
}
