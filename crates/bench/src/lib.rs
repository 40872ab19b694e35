//! Shared helpers for the table-regeneration binaries of the benchmark
//! harness (`table1`, `table2`, `table3`, `security`, `ablation_modulo`,
//! `ablation_duplication`). See `EXPERIMENTS.md` for the mapping between
//! binaries and the paper's tables/figures.
//!
//! The overhead arithmetic and formatting live in the `secbranch` facade
//! ([`Measurement`](secbranch::Measurement) methods and
//! [`overhead_cell`]); this crate only adds the
//! CLI plumbing of the binaries and the host-side micro-benchmark harness
//! used by the `benches/` targets (the offline build has no criterion).

#![forbid(unsafe_code)]

use std::process::exit;

use secbranch::obs::json;
use secbranch::ProtectionVariant;

// The single home of the Table III cell formatting, re-exported so the
// binaries only need the harness crate.
pub use secbranch::overhead_cell;

/// Prints one JSON object, whose fields `fill` adds, as a line of stdout.
pub fn print_json_object(fill: impl FnOnce(&mut json::Object<'_>)) {
    let mut out = String::new();
    json::object(&mut out, fill);
    println!("{out}");
}

/// Parses the binaries' CLI arguments into protection variants using
/// [`ProtectionVariant`]'s `FromStr` labels (`unprotected`, `cfi`,
/// `duplication(xN)`, `prototype`). Without variant arguments, returns
/// `default`. `known_flags` lists the `--` flags the binary handles itself
/// (e.g. `--json`); those are skipped here, while unknown flags print a
/// usage message and exit so typos are not silently ignored.
#[must_use]
pub fn variants_from_args(
    default: &[ProtectionVariant],
    known_flags: &[&str],
) -> Vec<ProtectionVariant> {
    let usage = |message: &str| -> ! {
        eprintln!("{message}");
        eprintln!(
            "usage: pass variant labels as arguments, e.g. cfi \"duplication(x6)\" prototype"
        );
        if !known_flags.is_empty() {
            eprintln!("flags: {}", known_flags.join(" "));
        }
        exit(2);
    };
    let mut variants = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            if !known_flags.contains(&arg.as_str()) {
                usage(&format!("unknown flag {arg:?}"));
            }
            continue;
        }
        match arg.parse::<ProtectionVariant>() {
            Ok(variant) => variants.push(variant),
            Err(e) => usage(&e.to_string()),
        }
    }
    if variants.is_empty() {
        default.to_vec()
    } else {
        variants
    }
}

/// A minimal host-side micro-benchmark harness: warm-up, then timed batches,
/// reporting ns/iteration. Stands in for criterion in the offline build; the
/// `benches/` targets run it with `harness = false`.
pub mod micro {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Runs `f` repeatedly and prints `name: <ns>/iter (<iters> iters)`.
    ///
    /// The routine warms up for ~50 ms, sizes a batch to ~200 ms, times it,
    /// and reports the mean. No statistics beyond that — the guest-cycle
    /// numbers of the tables are the precise ones; this harness only tracks
    /// host-side compile/simulate throughput.
    pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
        // Warm-up and calibration: how many iterations fit in ~50 ms?
        let calibration_start = Instant::now();
        let mut calibration_iters: u64 = 0;
        while calibration_start.elapsed() < Duration::from_millis(50) {
            black_box(f());
            calibration_iters += 1;
        }
        let per_iter = calibration_start.elapsed().as_nanos() / u128::from(calibration_iters);
        let iters = (200_000_000 / per_iter.max(1)).clamp(1, 1_000_000) as u64;

        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        let ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
        println!("{name:<44} {ns_per_iter:>14.1} ns/iter   ({iters} iters)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_cell_formats_percentages() {
        // The formatter now lives in `secbranch`; this pins the re-exported
        // behaviour the binaries rely on.
        assert_eq!(overhead_cell(110.0, 100.0), "110 (+10.000%)");
        assert_eq!(overhead_cell(50.0, 0.0), "50");
    }

    #[test]
    fn micro_bench_runs() {
        micro::bench("test/noop", || 1 + 1);
    }
}
