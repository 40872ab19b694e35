//! Regenerates the Section VI security-analysis numbers: single-location
//! detectability and the multi-location fault-simulation sweep.

use secbranch::campaign::ConditionCampaign;
use secbranch_ancode::{hamming, Parameters, Predicate};

fn main() {
    let params = Parameters::paper_defaults();
    let code = params.code();

    println!("Section VI — security analysis");
    println!();
    println!(
        "single-word error detection: min Hamming distance (difference-weight bound) = {} \
         -> detects up to {}-bit errors in one word",
        hamming::min_distance_upper_bound(&code, code.functional_max_exclusive()),
        hamming::detectable_bits(hamming::min_distance_upper_bound(
            &code,
            code.functional_max_exclusive()
        ))
    );
    println!(
        "condition-symbol distance: {} bits",
        params.symbol_distance()
    );
    println!();

    let trials = 2_000_000;
    println!(
        "multi-location fault simulation ({} trials per row, bits spread over the whole",
        trials
    );
    println!("condition computation; paper: <=3 bits always detected, 4 bits -> 0.0002% flips)");
    println!();
    println!(
        "{:>4} {:>12} {:>12} {:>16} {:>18}",
        "bits", "detected", "masked", "undetected flip", "flip rate"
    );
    for predicate in [Predicate::Eq, Predicate::Ult] {
        println!("predicate class: {predicate}");
        let mut campaign = ConditionCampaign::new(params, predicate, 2018);
        for (bits, counts) in campaign.sweep(6, trials) {
            println!(
                "{:>4} {:>12} {:>12} {:>16} {:>17.6}%",
                bits,
                counts.detected,
                counts.masked,
                counts.undetected_flip,
                counts.undetected_rate() * 100.0
            );
        }
    }
}
