//! The remediation report: per-location escape causes and the recommended
//! countermeasure, rendered as a text table and JSON.
//!
//! Entries aggregate [`CategorizedEscape`]s by `(function, region,
//! category)` and are emitted in that (fully deterministic) order, so the
//! report is byte-identical across campaign thread counts — it derives
//! only from the campaign reports, which carry the same guarantee.

use std::collections::BTreeMap;

use secbranch::codegen::HardenRegion;

use crate::category::{region_key, CategorizedEscape, FaultCategory};

/// One remediation line: a location, why faults escape there, and what to
/// apply.
#[derive(Debug, Clone, PartialEq)]
pub struct RemediationEntry {
    /// The enclosing function.
    pub function: String,
    /// The region within the function.
    pub region: HardenRegion,
    /// The structural cause.
    pub category: FaultCategory,
    /// The recommended countermeasure.
    pub countermeasure: &'static str,
    /// Total escapes attributed to this entry.
    pub escapes: u64,
    /// Escapes per fault model.
    pub by_model: BTreeMap<String, u64>,
    /// Lowest faulted pc of the entry (a concrete witness).
    pub example_pc: usize,
    /// Rendering of the instruction at the witness pc.
    pub example_instruction: String,
}

/// The advisor's per-location remediation report for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RemediationReport {
    /// The workload name.
    pub workload: String,
    /// Aggregated entries, sorted by `(function, region, category)`.
    pub entries: Vec<RemediationEntry>,
    /// Total escapes across all entries.
    pub total_escapes: u64,
}

impl RemediationReport {
    /// Aggregates categorized escapes (typically of several fault models)
    /// into a deterministic report.
    #[must_use]
    pub fn new(workload: impl Into<String>, escapes: &[CategorizedEscape]) -> Self {
        let mut grouped: BTreeMap<(String, HardenRegion, FaultCategory), RemediationEntry> =
            BTreeMap::new();
        for e in escapes {
            let entry = grouped
                .entry((e.function.clone(), e.region, e.category))
                .or_insert_with(|| RemediationEntry {
                    function: e.function.clone(),
                    region: e.region,
                    category: e.category,
                    countermeasure: e.category.countermeasure(),
                    escapes: 0,
                    by_model: BTreeMap::new(),
                    example_pc: e.pc,
                    example_instruction: e.instruction.clone(),
                });
            entry.escapes += 1;
            *entry.by_model.entry(e.model.clone()).or_insert(0) += 1;
            if e.pc < entry.example_pc {
                entry.example_pc = e.pc;
                entry.example_instruction = e.instruction.clone();
            }
        }
        let entries: Vec<RemediationEntry> = grouped.into_values().collect();
        let total_escapes = entries.iter().map(|e| e.escapes).sum();
        RemediationReport {
            workload: workload.into(),
            entries,
            total_escapes,
        }
    }

    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "Remediation report: {} ({} escapes, {} locations)\n",
            self.workload,
            self.total_escapes,
            self.entries.len()
        );
        let header = format!(
            "{:<18} {:<9} {:<15} {:>8}  {}",
            "function", "region", "category", "escapes", "countermeasure"
        );
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len().max(60)));
        out.push('\n');
        for e in &self.entries {
            out.push_str(&format!(
                "{:<18} {:<9} {:<15} {:>8}  {}\n",
                e.function,
                region_key(e.region),
                e.category.key(),
                e.escapes,
                e.countermeasure
            ));
        }
        out
    }
}

secbranch::obs::impl_to_json! { RemediationReport |r| workload, total_escapes, entries }

secbranch::obs::impl_to_json! { RemediationEntry |e|
    function,
    region: region_key(e.region),
    category: e.category.key(),
    countermeasure,
    escapes,
    by_model,
    example_pc,
    example_instruction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbranch::ir::BlockId;

    fn escape(
        category: FaultCategory,
        function: &str,
        region: HardenRegion,
        model: &str,
        pc: usize,
    ) -> CategorizedEscape {
        CategorizedEscape {
            category,
            function: function.to_string(),
            region,
            model: model.to_string(),
            pc,
            instruction: format!("instr@{pc}"),
            fault: format!("fault@{pc}"),
        }
    }

    #[test]
    fn aggregates_by_location_and_category_with_deterministic_order() {
        let bb2 = HardenRegion::Block(BlockId(2));
        let escapes = vec![
            escape(FaultCategory::IfThenElse, "pin_check", bb2, "skip", 40),
            escape(FaultCategory::IfThenElse, "pin_check", bb2, "invert", 38),
            escape(
                FaultCategory::CallReturn,
                "main",
                HardenRegion::Prologue,
                "skip",
                7,
            ),
            escape(FaultCategory::IfThenElse, "pin_check", bb2, "skip", 44),
        ];
        let report = RemediationReport::new("pin_retry", &escapes);
        assert_eq!(report.total_escapes, 4);
        assert_eq!(report.entries.len(), 2);
        // Sorted by function name first: main before pin_check.
        assert_eq!(report.entries[0].function, "main");
        assert_eq!(report.entries[1].escapes, 3);
        assert_eq!(report.entries[1].example_pc, 38);
        assert_eq!(report.entries[1].by_model["skip"], 2);
        assert_eq!(report.entries[1].by_model["invert"], 1);

        let json = report.to_json();
        assert!(json.starts_with("{\"workload\":\"pin_retry\""));
        assert!(json.contains("\"category\":\"if-then-else\""));
        assert!(json.contains("\"example_pc\":38"));
        let table = report.render_table();
        assert!(table.contains("pin_check"));
        assert!(table.contains("if-then-else"));
    }

    #[test]
    fn prologue_sorts_before_blocks_within_a_function() {
        let escapes = vec![
            escape(
                FaultCategory::DataCorruption,
                "f",
                HardenRegion::Block(BlockId(0)),
                "skip",
                10,
            ),
            escape(
                FaultCategory::CallReturn,
                "f",
                HardenRegion::Prologue,
                "skip",
                2,
            ),
        ];
        let report = RemediationReport::new("w", &escapes);
        assert_eq!(region_key(report.entries[0].region), "prologue");
        assert_eq!(region_key(report.entries[1].region), "bb0");
    }
}
