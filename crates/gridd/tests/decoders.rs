//! Totality of everything that decodes bytes from a peer: frames, the
//! binary payloads, and the statistics exposition. Seeded random bytes and
//! seeded mutations of valid inputs must each decode or fail cleanly —
//! never panic.

use secbranch::armv7m::ExecResult;
use secbranch::campaign::{CampaignReport, EscapeRecord, LocationReport, OutcomeCounts};
use secbranch::obs::{parse_prometheus, HistogramSnapshot, Registry};
use secbranch_gridd::protocol::{
    decode_cell, decode_done, decode_grid_request, decode_reject, encode_cell, encode_done,
    encode_grid_request, encode_reject, read_frame, write_frame, WireError, MAGIC, MAX_FRAME,
    REQ_GRID, RESP_CELL, RESP_DONE, RESP_ERROR, RESP_REJECT, RESP_STATS,
};
use secbranch_gridd::{
    CellFrame, DoneFrame, GridRequest, RejectFrame, Served, StatsSnapshot, PROTOCOL_VERSION,
};

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
            self.bytes(96)
        } else {
            let base = &valid[self.below(valid.len())];
            self.mutate(base)
        }
    }
}

fn sample_request() -> GridRequest {
    GridRequest {
        priority: 3,
        trials: 200,
        max_steps: 200_000,
        deadline_millis: 1_000,
        workloads: vec!["integer_compare".to_string(), "crc32".to_string()],
        variants: vec!["prototype".to_string()],
        models: vec!["skip".to_string()],
        cold: true,
    }
}

fn sample_cell() -> CellFrame {
    CellFrame {
        cell_index: 4,
        total_cells: 60,
        served: Served::Computed,
        workload: "crc32".to_string(),
        pipeline: "cfi".to_string(),
        model: "skip".to_string(),
        report: CampaignReport {
            model: "skip".to_string(),
            entry: "crc32".to_string(),
            args: vec![7, 9],
            reference: ExecResult {
                return_value: 1,
                cycles: 120,
                instructions: 80,
                cfi_checks: 4,
                cfi_violations: 0,
            },
            counts: OutcomeCounts {
                masked: 5,
                detected: 2,
                crashed: 1,
                wrong_result_undetected: 1,
            },
            locations: vec![LocationReport {
                pc: 12,
                location: "crc32+12".to_string(),
                instruction: "cmp r0, r1".to_string(),
                counts: OutcomeCounts::default(),
            }],
            escapes: vec![EscapeRecord {
                fault: "skip@step 3".to_string(),
                step: 3,
                pc: 12,
                instruction: "cmp r0, r1".to_string(),
                return_value: 0,
            }],
        },
        compute_micros: 1_234,
    }
}

fn sample_done() -> DoneFrame {
    DoneFrame {
        report_json: "{\"cells\":[]}".to_string(),
        cells: 60,
        warm_cells: 40,
        computed_cells: 15,
        coalesced_cells: 5,
        recordings: 3,
        wall_micros: 99_000,
    }
}

fn sample_reject() -> RejectFrame {
    RejectFrame {
        found: 3,
        expected: PROTOCOL_VERSION,
    }
}

fn sample_exposition() -> String {
    let mut registry = Registry::new();
    registry.gauge("secbranch_gridd_protocol_version", 4);
    registry.counter("secbranch_gridd_requests_total", 12);
    registry.counter_with("secbranch_cells_total", &[("kind", "warm")], 5);
    registry.gauge("secbranch_pool_workers", 2);
    registry.histogram_with(
        "secbranch_cell_compute_micros",
        &[("model", "skip")],
        &HistogramSnapshot::from_samples(&[3, 700, 40_000]),
    );
    registry.render_prometheus()
}

#[test]
fn frame_reader_is_total() {
    let mut rng = Rng(0x5eed_0001);
    let mut valid = Vec::new();
    for (kind, payload) in [
        (REQ_GRID, encode_grid_request(&sample_request())),
        (RESP_CELL, encode_cell(&sample_cell())),
        (RESP_DONE, encode_done(&sample_done())),
        (RESP_REJECT, encode_reject(sample_reject())),
        (RESP_STATS, sample_exposition().into_bytes()),
    ] {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, &payload).expect("writes");
        assert_eq!(read_frame(&mut wire.as_slice()).expect("reads").kind, kind);
        valid.push(wire);
    }
    for _ in 0..ITERATIONS {
        let bytes = rng.input(&valid);
        let _ = read_frame(&mut bytes.as_slice());
    }
}

#[test]
fn a_frame_cut_short_of_its_declared_length_is_an_io_error() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC);
    wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    wire.push(RESP_DONE);
    wire.extend_from_slice(&MAX_FRAME.to_le_bytes());
    wire.extend_from_slice(&0u32.to_le_bytes());
    wire.extend_from_slice(&[0xAB; 10]);
    match read_frame(&mut wire.as_slice()) {
        Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected an I/O error, got {other:?}"),
    }
}

#[test]
fn frames_with_a_bytewise_crc_are_read() {
    // A frame built by hand around the CRC-32 of the pangram as the
    // classic byte-wise loop computes it (the store's format tests pin the
    // same value against that loop): two 16-byte blocks and an 11-byte
    // tail, so both halves of the slice-by-16 kernel must agree with it.
    let payload = b"The quick brown fox jumps over the lazy dog";
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC);
    wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    wire.push(RESP_ERROR);
    wire.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    wire.extend_from_slice(&0x414F_A339u32.to_le_bytes());
    wire.extend_from_slice(payload);
    let mut written = Vec::new();
    write_frame(&mut written, RESP_ERROR, payload).expect("writes");
    assert_eq!(written, wire, "write_frame produces the same bytes");
    let frame = read_frame(&mut wire.as_slice()).expect("reads");
    assert_eq!(
        (frame.kind, frame.payload.as_slice()),
        (RESP_ERROR, &payload[..])
    );
}

#[test]
fn payload_decoders_are_total() {
    let mut rng = Rng(0x5eed_0002);
    let request = vec![encode_grid_request(&sample_request())];
    let cell = vec![encode_cell(&sample_cell())];
    let done = vec![encode_done(&sample_done())];
    let reject = vec![encode_reject(sample_reject())];
    assert_eq!(decode_grid_request(&request[0]), Ok(sample_request()));
    assert_eq!(decode_cell(&cell[0]), Ok(sample_cell()));
    assert_eq!(decode_done(&done[0]), Ok(sample_done()));
    assert_eq!(decode_reject(&reject[0]), Ok(sample_reject()));
    for _ in 0..ITERATIONS {
        let _ = decode_grid_request(&rng.input(&request));
        let _ = decode_cell(&rng.input(&cell));
        let _ = decode_done(&rng.input(&done));
        let _ = decode_reject(&rng.input(&reject));
    }
}

#[test]
fn exposition_parser_and_stats_view_are_total() {
    let mut rng = Rng(0x5eed_0003);
    let valid = vec![sample_exposition().into_bytes()];
    assert!(parse_prometheus(&sample_exposition()).is_ok());
    for _ in 0..ITERATIONS {
        let text = String::from_utf8_lossy(&rng.input(&valid)).into_owned();
        if let Ok(series) = parse_prometheus(&text) {
            let _ = HistogramSnapshot::from_series(
                &series,
                "secbranch_cell_compute_micros",
                "model=\"skip\"",
            );
            let _ = StatsSnapshot::from_series(series);
        }
    }
}
