//! The [`SecurityReport`]: a variants × fault-models security matrix
//! produced by [`crate::Session::security_matrix`].

use std::fmt::Write as _;

use secbranch_campaign::CampaignReport;
use secbranch_obs::json;

/// One cell of a security matrix: one workload under one pipeline attacked
/// by one fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityCell {
    /// The workload name.
    pub workload: String,
    /// The pipeline label.
    pub pipeline: String,
    /// The fault model's name.
    pub model: String,
    /// The full campaign report (counters, attribution, escapes).
    pub report: CampaignReport,
}

/// Execution metadata of one security-matrix run: where the time went and
/// how well the trace cache did.
///
/// Stats describe *how* a particular run executed, never *what* it
/// computed: they are excluded from [`SecurityReport`]'s equality and from
/// [`SecurityReport::to_json`], which is what lets reports stay
/// byte-identical across thread counts while still carrying timings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixStats {
    /// Worker threads of the run.
    pub threads: usize,
    /// Reference traces served from the in-memory trace store.
    pub trace_hits: u64,
    /// Reference traces that had to be recorded.
    pub trace_misses: u64,
    /// Whole cells served from the persistent grid store (zero simulation).
    pub cell_hits: u64,
    /// Cells that had to execute their fault space.
    pub cell_misses: u64,
    /// End-to-end wall time of the campaign phase in microseconds
    /// (builds excluded).
    pub total_wall_micros: u64,
    /// Injection compute time per cell in microseconds, parallel to
    /// [`SecurityReport::cells`]. Under the shared pool cells overlap in
    /// wall time, so these sum to roughly `threads × total_wall_micros`
    /// (cache-served cells contribute zero).
    pub cell_compute_micros: Vec<u64>,
    /// Bytes currently held by resume checkpoints in the session's trace
    /// store (after this run).
    pub store_checkpoint_bytes: u64,
    /// Spine-snapshot restores across all cells: grouped multi-fault
    /// batches that resumed from a saved post-first-fault machine state
    /// instead of re-executing the shared prefix.
    pub snapshot_restores: u64,
    /// Reference-suffix steps the differential executor avoided executing
    /// across all cells (liveness-pruned injections plus runs cut short at
    /// a reconvergent checkpoint).
    pub suffix_steps_saved: u64,
    /// Artifacts whose program was decoded into micro-ops during (or
    /// before) this run. Decode happens once per `Arc<Program>` no matter
    /// how many workers share it; the decoded form is derived data and
    /// never part of the report.
    pub decoded_programs: u64,
    /// Total micro-ops across those decoded programs (equals their total
    /// instruction count — the decoder is 1:1).
    pub decoded_uops: u64,
    /// Total wall-clock microseconds spent decoding those programs.
    pub decode_micros: u64,
}

impl MatrixStats {
    /// A latency histogram of this run's per-cell injection compute times.
    #[must_use]
    pub fn compute_histogram(&self) -> secbranch_obs::HistogramSnapshot {
        secbranch_obs::HistogramSnapshot::from_samples(&self.cell_compute_micros)
    }
}

secbranch_obs::impl_to_json! { MatrixStats |s|
    threads, trace_hits, trace_misses, cell_hits, cell_misses, total_wall_micros,
    cell_compute_micros, store_checkpoint_bytes, snapshot_restores, suffix_steps_saved, decoded_programs, decoded_uops, decode_micros,
}

/// The structured result of a variants × fault-models security evaluation:
/// for every workload, every pipeline is attacked by every model, and each
/// cell keeps its full [`CampaignReport`].
#[derive(Debug, Clone)]
pub struct SecurityReport {
    /// Workload names, in matrix order.
    pub workloads: Vec<String>,
    /// Pipeline labels, in matrix order.
    pub pipelines: Vec<String>,
    /// Fault-model names, in matrix order.
    pub models: Vec<String>,
    /// All cells, in workload-major, pipeline-then-model order.
    pub cells: Vec<SecurityCell>,
    /// Execution metadata (timings, trace-cache counters) of the run that
    /// produced this report.
    pub stats: MatrixStats,
}

/// Equality compares what the matrix *computed* (axes and cells), not how
/// it ran: [`SecurityReport::stats`] is deliberately excluded, so the
/// executor's byte-identical-to-sequential invariant is expressible as
/// plain `==` even though two runs never share wall times.
impl PartialEq for SecurityReport {
    fn eq(&self, other: &Self) -> bool {
        self.workloads == other.workloads
            && self.pipelines == other.pipelines
            && self.models == other.models
            && self.cells == other.cells
    }
}

impl SecurityReport {
    /// Looks up one cell.
    #[must_use]
    pub fn cell(&self, workload: &str, pipeline: &str, model: &str) -> Option<&SecurityCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.pipeline == pipeline && c.model == model)
    }

    /// Renders the matrix as a text table: one row per workload × pipeline,
    /// one column per fault model, each cell `escaped/total (rate%)`.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!("{:<16} {:<16}", "workload", "pipeline");
        for model in &self.models {
            let _ = write!(out, " | {model:>20}");
        }
        out.push('\n');
        for workload in &self.workloads {
            for pipeline in &self.pipelines {
                let _ = write!(out, "{workload:<16} {pipeline:<16}");
                for model in &self.models {
                    let cell_text = self.cell(workload, pipeline, model).map_or_else(
                        || "-".to_string(),
                        |cell| {
                            format!(
                                "{}/{} ({:.3}%)",
                                cell.report.counts.wrong_result_undetected,
                                cell.report.counts.total(),
                                cell.report.escape_rate() * 100.0
                            )
                        },
                    );
                    let _ = write!(out, " | {cell_text:>20}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// Serialises the matrix as a self-contained JSON document; each cell
    /// embeds its full campaign report.
    ///
    /// The output is fully deterministic — [`SecurityReport::stats`] is not
    /// included (serialise it separately via [`MatrixStats::to_json`]), so
    /// the same matrix produces byte-identical JSON at any thread count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let hint: usize = self
            .cells
            .iter()
            .map(|cell| 128 + cell.report.json_size_hint())
            .sum();
        let mut out = String::with_capacity(16 + hint);
        json::object(&mut out, |o| {
            o.field("cells", &self.cells);
        });
        out
    }
}

secbranch_obs::impl_to_json! { SecurityCell |c| workload, pipeline, model, report }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_stats_serialise_every_field_in_order() {
        let stats = MatrixStats {
            threads: 4,
            trace_hits: 48,
            trace_misses: 12,
            cell_hits: 2,
            cell_misses: 58,
            total_wall_micros: 123_456,
            cell_compute_micros: vec![7, 0, 90_001],
            store_checkpoint_bytes: 65_536,
            snapshot_restores: 3_607,
            suffix_steps_saved: 4_047_424,
            decoded_programs: 12,
            decoded_uops: 9_876,
            decode_micros: 55,
        };
        assert_eq!(
            stats.to_json(),
            concat!(
                r#"{"threads":4,"trace_hits":48,"trace_misses":12,"#,
                r#""cell_hits":2,"cell_misses":58,"total_wall_micros":123456,"#,
                r#""cell_compute_micros":[7,0,90001],"store_checkpoint_bytes":65536,"#,
                r#""snapshot_restores":3607,"#,
                r#""suffix_steps_saved":4047424,"decoded_programs":12,"#,
                r#""decoded_uops":9876,"decode_micros":55}"#,
            )
        );
        assert!(MatrixStats::default()
            .to_json()
            .contains(r#""total_wall_micros":0,"cell_compute_micros":[],"#));
    }
}
