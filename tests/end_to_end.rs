//! Cross-crate integration tests: the full pipeline from IR workloads through
//! the protection passes, code generation, and execution on the simulator,
//! cross-checked against the IR interpreter and the AN-code reference
//! implementation.

use secbranch::ancode::{compare, Parameters};
use secbranch::ir::interp;
use secbranch::programs::{
    bootloader_module, integer_compare_module, memcmp_module, password_check_module, BootImage,
    BOOT_OK, GRANT,
};
use secbranch::{Pipeline, ProtectionVariant, Session, Workload};

/// The encoded-comparison arithmetic agrees across its three implementations:
/// the `secbranch-ancode` reference, the IR interpreter's `enccmp`, and the
/// code generated for the ARMv7-M simulator.
#[test]
fn encoded_compare_implementations_agree() {
    use secbranch::ir::builder::FunctionBuilder;
    use secbranch::ir::{Module, Predicate as IrPredicate};

    let params = Parameters::paper_defaults();
    let code = params.code();
    let pairs = [(41u32, 1000u32), (1000, 41), (500, 500), (0, 63_000)];
    for (ir_pred, an_pred, c) in [
        (
            IrPredicate::Ult,
            compare::Predicate::Ult,
            params.ordering_constant(),
        ),
        (
            IrPredicate::Eq,
            compare::Predicate::Eq,
            params.equality_constant(),
        ),
        (
            IrPredicate::Uge,
            compare::Predicate::Uge,
            params.ordering_constant(),
        ),
    ] {
        for (x, y) in pairs {
            let reference = compare::encoded_compare(
                &params,
                an_pred,
                code.encode(x).expect("in range"),
                code.encode(y).expect("in range"),
            );

            // IR interpreter.
            let mut b = FunctionBuilder::new("enc", 2);
            let xe = b.bin(secbranch::ir::BinOp::Mul, b.param(0), code.constant());
            let ye = b.bin(secbranch::ir::BinOp::Mul, b.param(1), code.constant());
            let cond = b.encoded_compare(ir_pred, xe, ye, code.constant(), c);
            b.ret(Some(cond));
            let mut m = Module::new();
            m.add_function(b.finish());
            let interp_value = interp::run(&m, "enc", &[x, y]).expect("runs").return_value;
            assert_eq!(interp_value, Some(reference), "interp {x} {ir_pred:?} {y}");

            // Generated ARMv7-M code.
            let artifact = Pipeline::for_variant(ProtectionVariant::Unprotected)
                .build(&m)
                .expect("compiles");
            let mut sim = artifact.compiled().clone().into_simulator(64 * 1024);
            let sim_value = sim
                .call("enc", &[x, y], 100_000)
                .expect("runs")
                .return_value;
            assert_eq!(sim_value, reference, "simulator {x} {ir_pred:?} {y}");
        }
    }
}

/// Every protection variant preserves the functional behaviour of every
/// workload, and the fault-free CFI state stays clean. One `Session` builds
/// each (workload, variant) cell exactly once; the second execution of the
/// integer-compare artifact reuses the cached build.
#[test]
fn all_variants_preserve_workload_semantics() {
    let pipelines: Vec<Pipeline> = [
        ProtectionVariant::Unprotected,
        ProtectionVariant::CfiOnly,
        ProtectionVariant::Duplication(6),
        ProtectionVariant::AnCode,
    ]
    .iter()
    .map(|v| Pipeline::for_variant(*v))
    .collect();

    let integer = integer_compare_module();
    let workloads = [
        Workload::new("integer eq", integer.clone(), "integer_compare", &[7, 7]),
        Workload::new("memcmp", memcmp_module(32), "memcmp_bench", &[]),
        Workload::new("password", password_check_module(12), "password_check", &[]),
    ];

    let mut session = Session::new();
    let report = session
        .run_matrix(&workloads, &pipelines)
        .expect("matrix runs");
    assert_eq!(session.builds(), 12, "one compilation per cell");

    for cell in &report.cells {
        let expected = match cell.workload.as_str() {
            "integer eq" | "memcmp" => 1,
            "password" => GRANT,
            other => panic!("unexpected workload {other}"),
        };
        assert_eq!(
            cell.measurement.result.return_value, expected,
            "{} under {}",
            cell.workload, cell.pipeline
        );
        if cell.pipeline != "unprotected" {
            assert_eq!(
                cell.measurement.result.cfi_violations, 0,
                "{} under {} must stay CFI-clean",
                cell.workload, cell.pipeline
            );
        }
    }

    // The unequal-input check runs on the cached artifacts: no new builds.
    for pipeline in &pipelines {
        let artifact = session
            .artifact("integer eq", &integer, pipeline)
            .expect("cached artifact");
        let ne = artifact.run("integer_compare", &[7, 9]).expect("runs");
        assert_eq!(ne.return_value, 0, "{}", pipeline.label());
    }
    assert_eq!(session.builds(), 12, "re-use, not re-compilation");
}

/// The interpreter and the simulator agree on the bootloader macro-benchmark,
/// and the prototype overhead over the CFI baseline is small (the Table III
/// "bootloader" row: ~2.4 % size, ~0.001 % runtime in the paper).
#[test]
fn bootloader_end_to_end_shape_matches_the_paper() {
    let image = BootImage::generate(1024, 99);
    let module = bootloader_module(&image);

    // Ground truth from the interpreter.
    let interp_result = interp::run(&module, "bootloader", &[]).expect("runs");
    assert_eq!(interp_result.return_value, Some(BOOT_OK));

    let mut session = Session::new();
    let workloads = [Workload::new("bootloader", module, "bootloader", &[])];
    let pipelines = [
        Pipeline::for_variant(ProtectionVariant::CfiOnly),
        Pipeline::for_variant(ProtectionVariant::AnCode),
    ];
    let report = session
        .run_matrix(&workloads, &pipelines)
        .expect("matrix runs");

    let baseline = report.cell("bootloader", "cfi").expect("baseline cell");
    let prototype = report
        .cell("bootloader", "prototype")
        .expect("prototype cell");
    assert_eq!(baseline.measurement.result.return_value, BOOT_OK);
    assert_eq!(prototype.measurement.result.return_value, BOOT_OK);
    assert_eq!(prototype.measurement.result.cfi_violations, 0);
    assert_eq!(
        baseline.size_overhead_percent, None,
        "baseline has no overhead"
    );

    let size_overhead = prototype.size_overhead_percent.expect("vs baseline");
    let runtime_overhead = prototype.runtime_overhead_percent.expect("vs baseline");
    assert!(
        size_overhead > 0.0 && size_overhead < 25.0,
        "bootloader size overhead should be small, got {size_overhead:.2}%"
    );
    assert!(
        (0.0..5.0).contains(&runtime_overhead),
        "bootloader runtime overhead should be negligible, got {runtime_overhead:.3}%"
    );
}

/// The micro-benchmark shape of Table III: the prototype's runtime overhead
/// over the CFI baseline stays below the duplication baseline's on the
/// memcmp workload (the paper reports 306 % vs 300 % absolute size but a
/// lower runtime, and for integer compare a clear win; our naive register
/// allocator shifts the absolute numbers, the ordering of runtime overheads
/// is preserved).
#[test]
fn prototype_runtime_beats_duplication_on_memcmp() {
    let mut session = Session::new();
    let workloads = [Workload::new(
        "memcmp",
        memcmp_module(128),
        "memcmp_bench",
        &[],
    )];
    let pipelines: Vec<Pipeline> = ProtectionVariant::TABLE_THREE
        .iter()
        .map(|v| Pipeline::for_variant(*v))
        .collect();
    let report = session
        .run_matrix(&workloads, &pipelines)
        .expect("matrix runs");

    let duplication = report
        .cell("memcmp", "duplication(x6)")
        .and_then(|c| c.runtime_overhead_percent)
        .expect("duplication cell");
    let prototype = report
        .cell("memcmp", "prototype")
        .and_then(|c| c.runtime_overhead_percent)
        .expect("prototype cell");
    assert!(
        prototype < duplication,
        "prototype {prototype:.1}% vs duplication {duplication:.1}%"
    );
}
