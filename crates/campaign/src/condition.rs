//! Arithmetic-level fault simulation of the encoded condition computation
//! (Section VI of the paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secbranch_ancode::compare::{ConditionOutcome, Predicate};
use secbranch_ancode::{CodeWord, Parameters};

/// Where a fault can strike during the computation of a condition value.
///
/// The locations correspond to the intermediate values of Algorithms 1 and 2:
/// the two AN-coded operands, the difference after adding `C`, the remainder,
/// and the final condition value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLocation {
    /// The left AN-coded operand.
    OperandX,
    /// The right AN-coded operand.
    OperandY,
    /// The (first) difference plus the condition constant.
    Difference,
    /// The (first) remainder.
    Remainder,
    /// The final condition value.
    Condition,
}

impl FaultLocation {
    /// All fault locations.
    pub const ALL: [FaultLocation; 5] = [
        FaultLocation::OperandX,
        FaultLocation::OperandY,
        FaultLocation::Difference,
        FaultLocation::Remainder,
        FaultLocation::Condition,
    ];
}

/// Counters of campaign outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConditionOutcomeCounts {
    /// Experiments where the final value was neither valid symbol: the fault
    /// is detected (by the CFI linkage).
    pub detected: u64,
    /// Experiments where the final value was the *correct* symbol: the fault
    /// was masked and the decision unchanged.
    pub masked: u64,
    /// Experiments where the final value was the *wrong* valid symbol: the
    /// attacker flipped the decision without detection.
    pub undetected_flip: u64,
}

impl ConditionOutcomeCounts {
    /// Total number of experiments.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.detected + self.masked + self.undetected_flip
    }

    /// Fraction of experiments where the decision was flipped undetected.
    /// Shares the rate arithmetic of [`crate::rate`] with the
    /// instruction-level counters.
    #[must_use]
    pub fn undetected_rate(&self) -> f64 {
        crate::rate(self.undetected_flip, self.total())
    }
}

/// A Monte-Carlo fault campaign over the encoded condition computation.
#[derive(Debug, Clone)]
pub struct ConditionCampaign {
    params: Parameters,
    predicate: Predicate,
    rng: StdRng,
}

impl ConditionCampaign {
    /// Creates a campaign for one predicate with a deterministic seed.
    #[must_use]
    pub fn new(params: Parameters, predicate: Predicate, seed: u64) -> Self {
        ConditionCampaign {
            params,
            predicate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs `trials` experiments, each flipping `bits` random bits spread over
    /// random locations of the condition computation, with random in-range
    /// operands.
    pub fn run(&mut self, bits: u32, trials: u64) -> ConditionOutcomeCounts {
        let mut counts = ConditionOutcomeCounts::default();
        let max = self.params.code().functional_max_exclusive();
        for _ in 0..trials {
            let x = self.rng.gen_range(0..max);
            let y = self.rng.gen_range(0..max);
            let faults: Vec<(FaultLocation, u32)> = (0..bits)
                .map(|_| {
                    let loc = FaultLocation::ALL[self.rng.gen_range(0..FaultLocation::ALL.len())];
                    (loc, self.rng.gen_range(0..32))
                })
                .collect();
            let outcome = self.single_experiment(x, y, &faults);
            match outcome {
                ExperimentOutcome::Detected => counts.detected += 1,
                ExperimentOutcome::Masked => counts.masked += 1,
                ExperimentOutcome::UndetectedFlip => counts.undetected_flip += 1,
            }
        }
        counts
    }

    /// Runs the sweep the paper reports: `bits = 1..=max_bits`, each with
    /// `trials` experiments, returning `(bits, counts)` rows.
    pub fn sweep(&mut self, max_bits: u32, trials: u64) -> Vec<(u32, ConditionOutcomeCounts)> {
        (1..=max_bits)
            .map(|bits| (bits, self.run(bits, trials)))
            .collect()
    }

    fn single_experiment(
        &self,
        x: u32,
        y: u32,
        faults: &[(FaultLocation, u32)],
    ) -> ExperimentOutcome {
        let code = self.params.code();
        let a = code.constant();
        let c = if self.predicate.is_equality_class() {
            self.params.equality_constant()
        } else {
            self.params.ordering_constant()
        };
        let symbols = self.params.symbols(self.predicate);
        let fault_free = self.predicate.evaluate(x, y);
        let expected = if fault_free {
            symbols.true_value()
        } else {
            symbols.false_value()
        };
        let wrong = if fault_free {
            symbols.false_value()
        } else {
            symbols.true_value()
        };

        let mask = |loc: FaultLocation| -> u32 {
            faults
                .iter()
                .filter(|(l, _)| *l == loc)
                .fold(0u32, |m, (_, bit)| m ^ (1 << bit))
        };

        // Recompute the condition value with faults applied to the
        // intermediates, mirroring Algorithms 1 and 2 step by step.
        let xc = CodeWord(code.encode(x).expect("in range").raw() ^ mask(FaultLocation::OperandX));
        let yc = CodeWord(code.encode(y).expect("in range").raw() ^ mask(FaultLocation::OperandY));
        let (first, second) = match self.predicate {
            Predicate::Ugt | Predicate::Ule => (yc, xc),
            _ => (xc, yc),
        };
        let cond = if self.predicate.is_equality_class() {
            let diff1 = first.raw().wrapping_sub(second.raw()).wrapping_add(c)
                ^ mask(FaultLocation::Difference);
            let rem1 = (diff1 % a) ^ mask(FaultLocation::Remainder);
            let diff2 = second.raw().wrapping_sub(first.raw()).wrapping_add(c);
            let rem2 = diff2 % a;
            rem1.wrapping_add(rem2) ^ mask(FaultLocation::Condition)
        } else {
            let diff = first.raw().wrapping_sub(second.raw()).wrapping_add(c)
                ^ mask(FaultLocation::Difference);
            let rem = (diff % a) ^ mask(FaultLocation::Remainder);
            rem ^ mask(FaultLocation::Condition)
        };

        if cond == wrong {
            ExperimentOutcome::UndetectedFlip
        } else if cond == expected {
            ExperimentOutcome::Masked
        } else {
            match symbols.classify(cond) {
                ConditionOutcome::Invalid => ExperimentOutcome::Detected,
                _ => ExperimentOutcome::UndetectedFlip,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExperimentOutcome {
    Detected,
    Masked,
    UndetectedFlip,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_faults_never_flip_an_ordering_decision() {
        // For the ordering class (Algorithm 1) a single bit flip anywhere in
        // the condition computation cannot produce the other valid symbol:
        // the residue displacement `±2^b (mod A)` never equals `±2^32 mod A`
        // for the paper's `A` (verified exhaustively by the parameter
        // analysis), so every such fault is detected or masked.
        let mut campaign =
            ConditionCampaign::new(Parameters::paper_defaults(), Predicate::Ult, 0xC0FFEE);
        let counts = campaign.run(1, 50_000);
        assert_eq!(counts.undetected_flip, 0);
        assert!(counts.detected > 0);
    }

    #[test]
    fn low_order_faults_flip_the_equality_decision_only_very_rarely() {
        // Reproduction finding (documented in EXPERIMENTS.md): because
        // Algorithm 2 adds the two remainders *without* a final reduction, a
        // single operand bit flip shifts both remainders and the unreduced
        // sum can — very rarely (~2.5e-6) — land exactly on the other symbol.
        // The rate must stay far below the 1e-3 level.
        let mut campaign =
            ConditionCampaign::new(Parameters::paper_defaults(), Predicate::Eq, 0xFEED);
        for bits in 1..=2 {
            let counts = campaign.run(bits, 100_000);
            assert!(
                counts.undetected_rate() < 1e-3,
                "{bits} bit(s): {:?}",
                counts
            );
        }
    }

    #[test]
    fn three_bit_faults_are_still_detected_for_the_ordering_class() {
        // "Simulations show that for our parameter selection the error
        // detectability is reduced to 3-bits, arbitrarily placed over all the
        // whole computation of the condition value."
        let mut campaign =
            ConditionCampaign::new(Parameters::paper_defaults(), Predicate::Ult, 0xFEED);
        let counts = campaign.run(3, 50_000);
        assert_eq!(counts.undetected_flip, 0);
    }

    #[test]
    fn a_precisely_targeted_symbol_flip_is_classified_as_undetected() {
        // An attacker who can place the exact 15-bit XOR pattern between the
        // two symbols onto the final condition value flips the decision
        // without detection — the classification machinery must report this.
        let params = Parameters::paper_defaults();
        let campaign = ConditionCampaign::new(params, Predicate::Ult, 1);
        let symbols = params.symbols(Predicate::Ult);
        let pattern = symbols.true_value() ^ symbols.false_value();
        let faults: Vec<(FaultLocation, u32)> = (0..32)
            .filter(|b| pattern >> b & 1 == 1)
            .map(|b| (FaultLocation::Condition, b))
            .collect();
        assert_eq!(faults.len(), 15);
        let outcome = campaign.single_experiment(10, 20, &faults);
        assert_eq!(outcome, ExperimentOutcome::UndetectedFlip);
        // The same pattern on a *different* location is not a clean flip.
        let elsewhere: Vec<(FaultLocation, u32)> = faults
            .iter()
            .map(|(_, b)| (FaultLocation::OperandX, *b))
            .collect();
        assert_ne!(
            campaign.single_experiment(10, 20, &elsewhere),
            ExperimentOutcome::UndetectedFlip
        );
    }

    #[test]
    fn sweep_produces_one_row_per_bit_count() {
        let mut campaign = ConditionCampaign::new(Parameters::paper_defaults(), Predicate::Eq, 1);
        let rows = campaign.sweep(4, 1_000);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[3].0, 4);
        for (_, counts) in rows {
            assert_eq!(counts.total(), 1_000);
        }
    }

    #[test]
    fn counts_report_rates() {
        let counts = ConditionOutcomeCounts {
            detected: 99,
            masked: 0,
            undetected_flip: 1,
        };
        assert_eq!(counts.total(), 100);
        assert!((counts.undetected_rate() - 0.01).abs() < 1e-12);
        assert_eq!(ConditionOutcomeCounts::default().undetected_rate(), 0.0);
    }
}
