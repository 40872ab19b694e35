//! Outcome classification, counters and the [`CampaignReport`] with its
//! per-location attribution, text heatmap and JSON serialisation.

use std::fmt::Write as _;

use secbranch_armv7m::ExecResult;
use secbranch_obs::json::{self, Fixed, ToJson};

/// Classification of a faulted run against the fault-free reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Same return value as the reference, no CFI violation — the fault was
    /// masked.
    Masked,
    /// The CFI unit flagged a violation (regardless of the produced result):
    /// the fault is detected.
    Detected,
    /// The run crashed (memory fault, runaway program, step limit), which a
    /// deployed system also treats as detection.
    Crashed,
    /// The run produced a *different* result than the reference without any
    /// violation — a successful attack.
    WrongResultUndetected,
}

/// `part / total` as a float, `0.0` for an empty campaign. The single home
/// of the rate arithmetic shared by every outcome-counter type (the
/// instruction-level [`OutcomeCounts`] here and the arithmetic-level
/// [`crate::ConditionOutcomeCounts`]).
#[must_use]
pub fn rate(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// Outcome counters of a fault campaign (or one location of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Masked faults.
    pub masked: u64,
    /// Faults detected by the CFI/AN-code machinery.
    pub detected: u64,
    /// Faults that crashed the run.
    pub crashed: u64,
    /// Undetected wrong results (successful attacks).
    pub wrong_result_undetected: u64,
}

impl OutcomeCounts {
    /// Total number of injections.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.masked + self.detected + self.crashed + self.wrong_result_undetected
    }

    /// Fraction of injections that succeeded as attacks.
    #[must_use]
    pub fn attack_success_rate(&self) -> f64 {
        rate(self.wrong_result_undetected, self.total())
    }

    /// Adds one classified outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Crashed => self.crashed += 1,
            Outcome::WrongResultUndetected => self.wrong_result_undetected += 1,
        }
    }
}

/// Classifies one faulted run against the fault-free reference.
#[must_use]
pub fn classify(
    reference: &ExecResult,
    result: &Result<ExecResult, secbranch_armv7m::SimError>,
) -> Outcome {
    match result {
        Err(_) => Outcome::Crashed,
        Ok(r) => {
            if r.cfi_violations > 0 {
                Outcome::Detected
            } else if r.return_value == reference.return_value {
                Outcome::Masked
            } else {
                Outcome::WrongResultUndetected
            }
        }
    }
}

/// Aggregated outcomes of every injection anchored at one static program
/// location (instruction index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationReport {
    /// The instruction index the injections were anchored at.
    pub pc: usize,
    /// The nearest label at or before `pc`, as `label` or `label+offset`.
    pub location: String,
    /// The rendered instruction at `pc`.
    pub instruction: String,
    /// Outcome counters of the injections anchored here.
    pub counts: OutcomeCounts,
}

/// One escaped fault: an injection that produced a wrong result without any
/// detection, with enough context to find the weak spot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeRecord {
    /// The fault point, rendered (e.g. `skip@step 12`).
    pub fault: String,
    /// The dynamic step the fault was anchored at.
    pub step: u64,
    /// The instruction index executing at that step.
    pub pc: usize,
    /// The rendered instruction at `pc`.
    pub instruction: String,
    /// The wrong return value the faulted run produced.
    pub return_value: u32,
}

/// The result of one campaign: one fault model swept over one entry point.
///
/// Beyond the aggregate counters, the report attributes every injection to
/// the static instruction it was anchored at ([`LocationReport`]) and lists
/// each escaped fault individually ([`EscapeRecord`]) — the data one needs
/// to *tighten* a countermeasure rather than just score it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The fault model's name.
    pub model: String,
    /// The entry point that was attacked.
    pub entry: String,
    /// The call arguments.
    pub args: Vec<u32>,
    /// The fault-free reference result.
    pub reference: ExecResult,
    /// Aggregate outcome counters over all injections.
    pub counts: OutcomeCounts,
    /// Per-location aggregation, sorted by instruction index.
    pub locations: Vec<LocationReport>,
    /// Every escaped fault, in deterministic fault-space order.
    pub escapes: Vec<EscapeRecord>,
}

impl CampaignReport {
    /// Fraction of injections that escaped (attack success rate).
    #[must_use]
    pub fn escape_rate(&self) -> f64 {
        self.counts.attack_success_rate()
    }

    /// Renders a text heatmap: one row per attacked location, with outcome
    /// counters and a bar proportional to the number of escapes there.
    #[must_use]
    pub fn render_heatmap(&self) -> String {
        let mut out = format!(
            "model {} on {}({:?}): {} injections, {} escaped ({:.4}%)\n",
            self.model,
            self.entry,
            self.args,
            self.counts.total(),
            self.counts.wrong_result_undetected,
            self.escape_rate() * 100.0,
        );
        let max_escapes = self
            .locations
            .iter()
            .map(|l| l.counts.wrong_result_undetected)
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>6} {:<26} {:<24} {:>6} {:>6} {:>6} {:>7}",
            "pc", "location", "instruction", "mask", "det", "crash", "escape"
        );
        for loc in &self.locations {
            let bar_len = if max_escapes == 0 {
                0
            } else {
                // 1..=20 '#' characters for any nonzero escape count.
                (loc.counts.wrong_result_undetected * 20).div_ceil(max_escapes) as usize
            };
            let _ = writeln!(
                out,
                "{:>6} {:<26} {:<24} {:>6} {:>6} {:>6} {:>7} {}",
                loc.pc,
                truncated(&loc.location, 26),
                truncated(&loc.instruction, 24),
                loc.counts.masked,
                loc.counts.detected,
                loc.counts.crashed,
                loc.counts.wrong_result_undetected,
                "#".repeat(bar_len),
            );
        }
        out
    }

    /// Serialises the report as a self-contained JSON document. The output
    /// is fully deterministic — the engine guarantees byte-identical
    /// reports independent of the worker-thread count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_size_hint());
        self.write_json(&mut out);
        out
    }

    /// Appends [`CampaignReport::to_json`]'s document to `out`, leaving what
    /// `out` already holds untouched — so a caller embedding many reports
    /// builds its whole document in one buffer.
    pub fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("model", &self.model)
                .field("entry", &self.entry)
                .field("args", &self.args)
                .object("reference", |r| {
                    r.field("return_value", &self.reference.return_value)
                        .field("cycles", &self.reference.cycles)
                        .field("instructions", &self.reference.instructions);
                })
                .field("counts", &self.counts)
                .field("escape_rate", &Fixed(self.escape_rate(), 9))
                .field("locations", &self.locations)
                .field("escapes", &self.escapes);
        });
    }

    /// An estimate of [`CampaignReport::to_json`]'s length — the fixed
    /// bytes of each entry plus its raw strings — so callers can size their
    /// buffer once.
    #[must_use]
    pub fn json_size_hint(&self) -> usize {
        let locations: usize = self
            .locations
            .iter()
            .map(|l| 160 + l.location.len() + l.instruction.len())
            .sum();
        let escapes: usize = self
            .escapes
            .iter()
            .map(|e| 96 + e.fault.len() + e.instruction.len())
            .sum();
        256 + locations + escapes
    }
}

fn truncated(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

impl ToJson for CampaignReport {
    fn write_json(&self, out: &mut String) {
        CampaignReport::write_json(self, out);
    }
}

secbranch_obs::impl_to_json! { OutcomeCounts |c| masked, detected, crashed, wrong_result_undetected }

secbranch_obs::impl_to_json! { LocationReport |l| pc, location, instruction, counts }

secbranch_obs::impl_to_json! { EscapeRecord |e| fault, step, pc, instruction, return_value }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_arithmetic() {
        let mut counts = OutcomeCounts::default();
        counts.record(Outcome::Masked);
        counts.record(Outcome::Detected);
        counts.record(Outcome::Crashed);
        counts.record(Outcome::WrongResultUndetected);
        assert_eq!(counts.total(), 4);
        assert!((counts.attack_success_rate() - 0.25).abs() < 1e-12);
        assert_eq!(OutcomeCounts::default().attack_success_rate(), 0.0);
    }

    #[test]
    fn rate_handles_zero_total() {
        assert_eq!(rate(0, 0), 0.0);
        assert!((rate(1, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json::to_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json::to_string("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn classify_matches_the_reference_contract() {
        let reference = ExecResult {
            return_value: 7,
            cycles: 10,
            instructions: 5,
            cfi_checks: 1,
            cfi_violations: 0,
        };
        let same = Ok(reference);
        assert_eq!(classify(&reference, &same), Outcome::Masked);
        let wrong = Ok(ExecResult {
            return_value: 8,
            ..reference
        });
        assert_eq!(classify(&reference, &wrong), Outcome::WrongResultUndetected);
        let flagged = Ok(ExecResult {
            return_value: 8,
            cfi_violations: 1,
            ..reference
        });
        assert_eq!(classify(&reference, &flagged), Outcome::Detected);
        let crashed = Err(secbranch_armv7m::SimError::StepLimitExceeded { limit: 5 });
        assert_eq!(classify(&reference, &crashed), Outcome::Crashed);
    }

    fn awkward_report() -> CampaignReport {
        let counts = OutcomeCounts {
            masked: 1,
            detected: 0,
            crashed: 0,
            wrong_result_undetected: 1,
        };
        CampaignReport {
            model: "skip".to_string(),
            entry: "f".to_string(),
            args: vec![3, 4],
            reference: ExecResult {
                return_value: 7,
                cycles: 10,
                instructions: 5,
                cfi_checks: 1,
                cfi_violations: 0,
            },
            counts: OutcomeCounts {
                masked: 1,
                ..counts
            },
            locations: vec![LocationReport {
                pc: 2,
                location: "l\"q\\b\n".to_string(),
                instruction: "é→\t\r".to_string(),
                counts,
            }],
            escapes: vec![EscapeRecord {
                fault: "skip\u{1}@\u{1f}".to_string(),
                step: 9,
                pc: 2,
                instruction: "mov →é".to_string(),
                return_value: 8,
            }],
        }
    }

    #[test]
    fn report_json_escapes_every_string_field() {
        let expected = concat!(
            r#"{"model":"skip","entry":"f","args":[3,4],"#,
            r#""reference":{"return_value":7,"cycles":10,"instructions":5},"#,
            r#""counts":{"masked":1,"detected":0,"crashed":0,"wrong_result_undetected":1},"#,
            r#""escape_rate":0.500000000,"#,
            r#""locations":[{"pc":2,"location":"l\"q\\b\n","instruction":"é→\t\r","#,
            r#""counts":{"masked":1,"detected":0,"crashed":0,"wrong_result_undetected":1}}],"#,
            r#""escapes":[{"fault":"skip\u0001@\u001f","step":9,"pc":2,"#,
            r#""instruction":"mov →é","return_value":8}]}"#,
        );
        assert_eq!(awkward_report().to_json(), expected);
    }

    #[test]
    fn write_json_appends_after_an_existing_prefix() {
        let report = awkward_report();
        let mut out = String::from("[\"é\",");
        report.write_json(&mut out);
        assert_eq!(out, format!("[\"é\",{}", report.to_json()));
    }
}
