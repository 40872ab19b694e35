//! Encoding and decoding of the two record payloads: reference traces
//! (with machine checkpoints) and completed campaign cells.
//!
//! Each payload opens with its own key, so a load can verify that the file
//! a key hashed to really belongs to that key (file names are 64-bit
//! hashes; a collision must read as a miss, not as somebody else's data).
//!
//! The decoders are total: any byte sequence either decodes to a value
//! whose re-encoding is byte-identical, or fails with
//! [`RecordError::Corrupt`] — there is no input that panics or allocates
//! unboundedly. That totality is what lets the store treat "damaged" and
//! "absent" identically.

use secbranch_armv7m::{ExecResult, Flags, MachineState};
use secbranch_campaign::{
    CampaignReport, CellKey, EscapeRecord, LocationReport, OutcomeCounts, PersistedTrace,
    RecordedReference, ReferenceTrace, TraceCheckpoint, TraceKey,
};
use secbranch_cfi::{CfiMonitor, Violation};

use crate::format::{Reader, RecordError, Writer};

// --- keys -----------------------------------------------------------------

/// The canonical byte encoding of a trace key (also the input of the file
/// name hash).
#[must_use]
pub fn encode_trace_key(key: &TraceKey) -> Vec<u8> {
    let mut w = Writer::new();
    write_trace_key(&mut w, key);
    w.into_bytes()
}

fn write_trace_key(w: &mut Writer, key: &TraceKey) {
    w.str(&key.artifact);
    w.str(&key.entry);
    w.u32s(&key.args);
}

fn read_trace_key(r: &mut Reader<'_>) -> Result<TraceKey, RecordError> {
    let artifact = r.str()?;
    let entry = r.str()?;
    let args = r.u32s()?;
    Ok(TraceKey::new(artifact, entry, &args))
}

/// The canonical byte encoding of a cell key (also the input of the file
/// name hash).
#[must_use]
pub fn encode_cell_key(key: &CellKey) -> Vec<u8> {
    let mut w = Writer::new();
    write_cell_key(&mut w, key);
    w.into_bytes()
}

fn write_cell_key(w: &mut Writer, key: &CellKey) {
    w.str(&key.artifact);
    w.str(&key.model);
    w.str(&key.entry);
    w.u32s(&key.args);
}

fn read_cell_key(r: &mut Reader<'_>) -> Result<CellKey, RecordError> {
    let artifact = r.str()?;
    let model = r.str()?;
    let entry = r.str()?;
    let args = r.u32s()?;
    Ok(CellKey::new(artifact, model, entry, &args))
}

// --- shared leaf types ----------------------------------------------------

fn write_exec_result(w: &mut Writer, result: &ExecResult) {
    w.u32(result.return_value);
    w.u64(result.cycles);
    w.u64(result.instructions);
    w.u32(result.cfi_checks);
    w.u32(result.cfi_violations);
}

fn read_exec_result(r: &mut Reader<'_>) -> Result<ExecResult, RecordError> {
    Ok(ExecResult {
        return_value: r.u32()?,
        cycles: r.u64()?,
        instructions: r.u64()?,
        cfi_checks: r.u32()?,
        cfi_violations: r.u32()?,
    })
}

fn write_counts(w: &mut Writer, counts: &OutcomeCounts) {
    w.u64(counts.masked);
    w.u64(counts.detected);
    w.u64(counts.crashed);
    w.u64(counts.wrong_result_undetected);
}

fn read_counts(r: &mut Reader<'_>) -> Result<OutcomeCounts, RecordError> {
    Ok(OutcomeCounts {
        masked: r.u64()?,
        detected: r.u64()?,
        crashed: r.u64()?,
        wrong_result_undetected: r.u64()?,
    })
}

// --- machine checkpoints --------------------------------------------------

fn write_machine_state(w: &mut Writer, state: &MachineState) {
    for &reg in state.regs() {
        w.u32(reg);
    }
    w.u32(state.flags().to_bits());
    let cfi = state.cfi();
    w.u32(cfi.state());
    w.u32(cfi.checks());
    w.u32(cfi.violations());
    match cfi.first_violation() {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.u32(v.actual_state);
            w.u32(v.expected_state);
            w.u32(v.check_index);
        }
    }
    w.u32(state.segments().len() as u32);
    for (base, bytes) in state.segments() {
        w.u32(*base);
        w.bytes(bytes);
    }
}

fn read_machine_state(r: &mut Reader<'_>) -> Result<MachineState, RecordError> {
    let mut regs = [0u32; 16];
    for reg in &mut regs {
        *reg = r.u32()?;
    }
    let flags = Flags::from_bits(r.u32()?);
    let state = r.u32()?;
    let checks = r.u32()?;
    let violations = r.u32()?;
    let first_violation = match r.u8()? {
        0 => None,
        1 => Some(Violation {
            actual_state: r.u32()?,
            expected_state: r.u32()?,
            check_index: r.u32()?,
        }),
        _ => return Err(RecordError::Corrupt),
    };
    let cfi = CfiMonitor::from_parts(state, checks, violations, first_violation);
    let segment_count = r.u32()? as usize;
    let mut segments = Vec::new();
    for _ in 0..segment_count {
        let base = r.u32()?;
        let bytes = r.byte_vec()?;
        segments.push((base, bytes));
    }
    Ok(MachineState::from_parts(regs, flags, cfi, segments))
}

// --- trace records --------------------------------------------------------

/// Encodes a trace record payload: the key, then the persistable parts of
/// the recording (trace, memory size, checkpoints — never the program; see
/// `secbranch_campaign::persist`).
#[must_use]
pub fn encode_trace_payload(key: &TraceKey, recorded: &RecordedReference) -> Vec<u8> {
    let mut w = Writer::new();
    write_trace_key(&mut w, key);
    write_exec_result(&mut w, &recorded.trace.result);
    w.u32s(&recorded.trace.pcs);
    w.u64s(&recorded.trace.conditional_steps);
    w.u32(recorded.memory_size);
    w.u32(recorded.checkpoints.len() as u32);
    for cp in &recorded.checkpoints {
        w.u64(cp.steps_done);
        w.u32(cp.pc);
        write_machine_state(&mut w, &cp.state);
    }
    w.into_bytes()
}

/// Decodes a trace record payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence (truncation,
/// bad UTF-8, trailing garbage).
pub fn decode_trace_payload(payload: &[u8]) -> Result<(TraceKey, PersistedTrace), RecordError> {
    let mut r = Reader::new(payload);
    let key = read_trace_key(&mut r)?;
    let result = read_exec_result(&mut r)?;
    let pcs = r.u32s()?;
    let conditional_steps = r.u64s()?;
    let memory_size = r.u32()?;
    let checkpoint_count = r.u32()? as usize;
    let mut checkpoints = Vec::new();
    for _ in 0..checkpoint_count {
        let steps_done = r.u64()?;
        let pc = r.u32()?;
        let state = read_machine_state(&mut r)?;
        checkpoints.push(TraceCheckpoint {
            steps_done,
            pc,
            state,
        });
    }
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok((
        key,
        PersistedTrace {
            trace: ReferenceTrace {
                result,
                pcs,
                conditional_steps,
            },
            memory_size,
            checkpoints,
        },
    ))
}

// --- cell records ---------------------------------------------------------

fn write_report(w: &mut Writer, report: &CampaignReport) {
    w.str(&report.model);
    w.str(&report.entry);
    w.u32s(&report.args);
    write_exec_result(w, &report.reference);
    write_counts(w, &report.counts);
    w.u32(report.locations.len() as u32);
    for loc in &report.locations {
        w.u64(loc.pc as u64);
        w.str(&loc.location);
        w.str(&loc.instruction);
        write_counts(w, &loc.counts);
    }
    w.u32(report.escapes.len() as u32);
    for esc in &report.escapes {
        w.str(&esc.fault);
        w.u64(esc.step);
        w.u64(esc.pc as u64);
        w.str(&esc.instruction);
        w.u32(esc.return_value);
    }
}

fn read_report(r: &mut Reader<'_>) -> Result<CampaignReport, RecordError> {
    let model = r.str()?;
    let entry = r.str()?;
    let args = r.u32s()?;
    let reference = read_exec_result(r)?;
    let counts = read_counts(r)?;
    let location_count = r.u32()? as usize;
    let mut locations = Vec::new();
    for _ in 0..location_count {
        locations.push(LocationReport {
            pc: r.u64()? as usize,
            location: r.str()?,
            instruction: r.str()?,
            counts: read_counts(r)?,
        });
    }
    let escape_count = r.u32()? as usize;
    let mut escapes = Vec::new();
    for _ in 0..escape_count {
        escapes.push(EscapeRecord {
            fault: r.str()?,
            step: r.u64()?,
            pc: r.u64()? as usize,
            instruction: r.str()?,
            return_value: r.u32()?,
        });
    }
    Ok(CampaignReport {
        model,
        entry,
        args,
        reference,
        counts,
        locations,
        escapes,
    })
}

/// Encodes a campaign report alone (no key) — the per-cell streaming unit
/// of the grid daemon's wire protocol.
#[must_use]
pub fn encode_report(report: &CampaignReport) -> Vec<u8> {
    let mut w = Writer::new();
    write_report(&mut w, report);
    w.into_bytes()
}

/// Decodes a bare campaign report (the inverse of [`encode_report`]).
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_report(payload: &[u8]) -> Result<CampaignReport, RecordError> {
    let mut r = Reader::new(payload);
    let report = read_report(&mut r)?;
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(report)
}

/// Encodes a cell record payload: the key, then the full campaign report.
#[must_use]
pub fn encode_cell_payload(key: &CellKey, report: &CampaignReport) -> Vec<u8> {
    let mut w = Writer::new();
    write_cell_key(&mut w, key);
    write_report(&mut w, report);
    w.into_bytes()
}

/// Decodes a cell record payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_cell_payload(payload: &[u8]) -> Result<(CellKey, CampaignReport), RecordError> {
    let mut r = Reader::new(payload);
    let key = read_cell_key(&mut r)?;
    let report = read_report(&mut r)?;
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok((key, report))
}

/// Reads only the artifact fingerprint a record payload belongs to — both
/// record families open with their key, and both keys open with the
/// artifact fingerprint, so garbage collection can classify a record
/// without decoding checkpoints or reports.
///
/// # Errors
///
/// [`RecordError::Corrupt`] when even the leading string is malformed.
pub fn decode_record_artifact(payload: &[u8]) -> Result<String, RecordError> {
    Reader::new(payload).str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbranch_armv7m::Machine;

    fn sample_state() -> MachineState {
        let mut m = Machine::new(4096);
        m.set_reg(secbranch_armv7m::Reg::R3, 42);
        m.flags.set_from_cmp(1, 2);
        m.store_word(64, 0xDEAD_BEEF).expect("in range");
        m.cfi.replace(0x1234);
        m.cfi.check(0x9999); // latch a violation
        m.snapshot()
    }

    fn sample_trace_record() -> (TraceKey, RecordedReference) {
        let key = TraceKey::new("artifact-fp", "entry", &[1, 2, 3]);
        let recorded = RecordedReference::new(
            ReferenceTrace {
                result: ExecResult {
                    return_value: 7,
                    cycles: 100,
                    instructions: 80,
                    cfi_checks: 3,
                    cfi_violations: 0,
                },
                pcs: vec![0, 1, 2, 5, 6],
                conditional_steps: vec![3],
            },
            std::sync::Arc::new(
                secbranch_armv7m::ProgramBuilder::new()
                    .assemble()
                    .expect("assembles"),
            ),
            4096,
            vec![TraceCheckpoint {
                steps_done: 0,
                pc: 0,
                state: sample_state(),
            }],
        );
        (key, recorded)
    }

    fn sample_cell_record() -> (CellKey, CampaignReport) {
        let key = CellKey::new(
            "artifact-fp",
            "register-flip(trials=5,seed=0x1)",
            "entry",
            &[9],
        );
        let report = CampaignReport {
            model: "register-flip".to_string(),
            entry: "entry".to_string(),
            args: vec![9],
            reference: ExecResult {
                return_value: 1,
                cycles: 10,
                instructions: 8,
                cfi_checks: 0,
                cfi_violations: 0,
            },
            counts: OutcomeCounts {
                masked: 2,
                detected: 1,
                crashed: 1,
                wrong_result_undetected: 1,
            },
            locations: vec![LocationReport {
                pc: usize::MAX, // the out-of-range sentinel must survive
                location: "?".to_string(),
                instruction: "<out of range>".to_string(),
                counts: OutcomeCounts::default(),
            }],
            escapes: vec![EscapeRecord {
                fault: "skip@step 2".to_string(),
                step: 2,
                pc: 1,
                instruction: "mov r0, r1".to_string(),
                return_value: 3,
            }],
        };
        (key, report)
    }

    #[test]
    fn trace_payloads_round_trip_byte_identically() {
        let (key, recorded) = sample_trace_record();
        let payload = encode_trace_payload(&key, &recorded);
        let (key_back, persisted) = decode_trace_payload(&payload).expect("decodes");
        assert_eq!(key_back, key);
        assert_eq!(persisted.trace.result, recorded.trace.result);
        assert_eq!(persisted.trace.pcs, recorded.trace.pcs);
        assert_eq!(persisted.memory_size, recorded.memory_size);
        assert_eq!(persisted.checkpoints.len(), 1);
        // Byte identity: re-encoding the decoded value reproduces the
        // payload exactly (the strongest round-trip statement available
        // without PartialEq on MachineState).
        let re_encoded = encode_trace_payload(
            &key_back,
            &persisted.into_recorded(recorded.program.clone()),
        );
        assert_eq!(re_encoded, payload);
    }

    #[test]
    fn decoded_checkpoints_restore_bit_identically() {
        let (key, recorded) = sample_trace_record();
        let payload = encode_trace_payload(&key, &recorded);
        let (_, persisted) = decode_trace_payload(&payload).expect("decodes");
        let mut original = Machine::new(4096);
        original.restore(&recorded.checkpoints[0].state);
        let mut loaded = Machine::new(4096);
        loaded.restore(&persisted.checkpoints[0].state);
        assert_eq!(original.reg(secbranch_armv7m::Reg::R3), 42);
        assert_eq!(
            original.read_bytes(0, 4096),
            loaded.read_bytes(0, 4096),
            "restored RAM is identical"
        );
        assert_eq!(original.flags, loaded.flags);
        assert_eq!(original.cfi, loaded.cfi);
        for r in secbranch_armv7m::Reg::ALL {
            assert_eq!(original.reg(r), loaded.reg(r));
        }
    }

    #[test]
    fn cell_payloads_round_trip_to_equal_reports() {
        let (key, report) = sample_cell_record();
        let payload = encode_cell_payload(&key, &report);
        let (key_back, report_back) = decode_cell_payload(&payload).expect("decodes");
        assert_eq!(key_back, key);
        assert_eq!(report_back, report);
        assert_eq!(
            report_back.to_json(),
            report.to_json(),
            "JSON byte identity"
        );
        assert_eq!(encode_cell_payload(&key_back, &report_back), payload);
    }

    #[test]
    fn truncated_and_garbled_payloads_fail_cleanly() {
        let (key, report) = sample_cell_record();
        let payload = encode_cell_payload(&key, &report);
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            assert_eq!(
                decode_cell_payload(&payload[..cut]),
                Err(RecordError::Corrupt),
                "cut at {cut}"
            );
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert_eq!(
            decode_cell_payload(&extended),
            Err(RecordError::Corrupt),
            "trailing garbage is rejected"
        );

        let (key, recorded) = sample_trace_record();
        let payload = encode_trace_payload(&key, &recorded);
        for cut in [0, 10, payload.len() - 1] {
            assert!(
                matches!(
                    decode_trace_payload(&payload[..cut]),
                    Err(RecordError::Corrupt)
                ),
                "cut at {cut}"
            );
        }
    }
}
