//! Totality of everything that decodes bytes read from a store directory:
//! the record frame and the cell, report and artifact-fingerprint payload
//! decoders. Seeded random bytes and seeded mutations of real
//! encoded records must each decode or fail cleanly — never panic.

use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Simulator, Target};
use secbranch_campaign::{CampaignReport, CampaignRunner, CellKey, InstructionSkip};
use secbranch_store::codec::{
    decode_cell_payload, decode_record_artifact, decode_report, encode_cell_payload, encode_report,
};
use secbranch_store::format::{frame_record, parse_record, KIND_CELL};

/// Random inputs and mutations fed to each decoder.
const ITERATIONS: usize = 2_000;

/// SplitMix64: a fixed, seedable byte source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// One to four random edits: bit flips, overwritten, inserted and
    /// removed bytes, truncation.
    fn mutate(&mut self, valid: &[u8]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        for _ in 0..=self.below(4) {
            let at = self.below(bytes.len());
            match self.below(5) {
                0 if !bytes.is_empty() => bytes[at] ^= 1 << self.below(8),
                1 if !bytes.is_empty() => bytes[at] = self.next() as u8,
                2 => bytes.insert(at, self.next() as u8),
                3 if !bytes.is_empty() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        bytes
    }

    /// Random bytes half the time, a mutation of one of `valid` otherwise.
    fn input(&mut self, valid: &[Vec<u8>]) -> Vec<u8> {
        if self.next().is_multiple_of(2) {
            self.bytes(256)
        } else {
            let base = &valid[self.below(valid.len())];
            self.mutate(base)
        }
    }
}

/// `max(a, b)` — one conditional branch; enough for a real trace with a
/// checkpoint and a report with locations and an escape.
fn max_simulator() -> Simulator {
    let mut p = ProgramBuilder::new();
    p.label("max");
    p.push(Instr::Cmp {
        rn: Reg::R0,
        op2: Operand2::Reg(Reg::R1),
    });
    p.push(Instr::BCond {
        cond: Cond::Hs,
        target: Target::label("done"),
    });
    p.push(Instr::Mov {
        rd: Reg::R0,
        rm: Reg::R1,
    });
    p.label("done");
    p.push(Instr::Bx { rm: Reg::Lr });
    Simulator::new(p.assemble().expect("assembles"), 4096)
}

fn report() -> CampaignReport {
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&max_simulator(), "max", &[3, 7], 1_000, &InstructionSkip)
        .expect("campaign runs");
    assert!(!report.escapes.is_empty(), "an escape to mutate");
    report
}

fn cell_key() -> CellKey {
    CellKey::new("max-artifact", "skip", "max", &[3, 7])
}

#[test]
fn payload_decoders_are_total() {
    let mut rng = Rng(0x5701_0001);
    let report = report();
    let valid = vec![
        encode_cell_payload(&cell_key(), &report),
        encode_report(&report),
    ];
    assert_eq!(
        decode_cell_payload(&valid[0]),
        Ok((cell_key(), report.clone()))
    );
    assert_eq!(decode_report(&valid[1]), Ok(report));
    assert_eq!(
        decode_record_artifact(&valid[0]).as_deref(),
        Ok("max-artifact")
    );
    for _ in 0..ITERATIONS {
        let _ = decode_cell_payload(&rng.input(&valid));
        let _ = decode_report(&rng.input(&valid));
        let _ = decode_record_artifact(&rng.input(&valid));
    }
}

/// Damaged frames fail at the frame check; re-framed mutated payloads pass
/// it (valid CRC) and reach the payload decoders the way a well-formed but
/// semantically damaged record would.
#[test]
fn record_frames_are_total() {
    let mut rng = Rng(0x5701_0002);
    let payload = encode_cell_payload(&cell_key(), &report());
    let valid = vec![frame_record(KIND_CELL, &payload)];
    assert!(parse_record(&valid[0], KIND_CELL).is_ok());
    for _ in 0..ITERATIONS {
        let bytes = if rng.next().is_multiple_of(2) {
            rng.input(&valid)
        } else {
            frame_record(KIND_CELL, &rng.mutate(&payload))
        };
        if let Ok(payload) = parse_record(&bytes, KIND_CELL) {
            let _ = decode_cell_payload(payload);
        }
    }
}
