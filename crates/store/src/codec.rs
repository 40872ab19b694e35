//! Encoding and decoding of the cell record payload: a completed campaign
//! report behind its key, and the bare report the grid daemon streams.
//!
//! A cell payload opens with its own key, so a load can verify that the
//! file a key hashed to really belongs to that key (file names are 64-bit
//! hashes; a collision must read as a miss, not as somebody else's data).
//!
//! The decoders are total: any byte sequence either decodes to a value
//! whose re-encoding is byte-identical, or fails with
//! [`RecordError::Corrupt`] — there is no input that panics or allocates
//! unboundedly. That totality is what lets the store treat "damaged" and
//! "absent" identically.

use secbranch_armv7m::ExecResult;
use secbranch_campaign::{CampaignReport, CellKey, EscapeRecord, LocationReport, OutcomeCounts};

use crate::format::{Reader, RecordError, Writer};

// --- keys -----------------------------------------------------------------

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

/// Reads only the artifact fingerprint a cell payload belongs to — the
/// payload opens with its key, and the key with the artifact fingerprint,
/// so garbage collection can classify a record without decoding its
/// report.
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
    }
}
