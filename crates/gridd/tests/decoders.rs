//! Totality of everything that decodes bytes from a peer: frames, the
//! binary payloads, the statistics exposition, and the client's assembly
//! of a report from its cells. Seeded random bytes and seeded mutations of
//! valid inputs must each decode or fail cleanly — never panic, and never
//! allocate far beyond the input's own size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpListener;
use std::thread;

use secbranch::armv7m::ExecResult;
use secbranch::campaign::{CampaignReport, EscapeRecord, LocationReport, OutcomeCounts};
use secbranch::obs::{parse_prometheus, HistogramSnapshot, Registry};
use secbranch::store::codec::encode_report;
use secbranch::{MatrixStats, SecurityCell, SecurityReport};
use secbranch_gridd::protocol::{
    decode_cell, decode_done, decode_grid_request, decode_reject, encode_cell, encode_cell_bytes,
    encode_done, encode_grid_request, encode_reject, read_frame, write_frame, WireError, MAGIC,
    MAX_FRAME, REQ_GRID, RESP_CELL, RESP_DONE, RESP_ERROR, RESP_REJECT, RESP_STATS,
};
use secbranch_gridd::{
    CellFrame, ClientError, DoneFrame, GridClient, GridRequest, RejectFrame, Served, StatsSnapshot,
    PROTOCOL_VERSION,
};

/// Random inputs and mutations fed to each decoder.
const ITERATIONS: usize = 2_000;

/// The system allocator, recording the largest single allocation made on
/// each thread so a decode can be checked for over-allocation.
struct PeakAllocator;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// bookkeeping neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.with(|peak| peak.set(peak.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.with(|peak| peak.set(peak.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Runs `decode` on `input` and fails if any single allocation it made
/// exceeds a small multiple of the input's length: a decoder that trusts a
/// declared length or count would allocate far more.
fn within_input_size<T>(input: &[u8], decode: impl FnOnce(&[u8]) -> T) {
    PEAK.with(|peak| peak.set(0));
    let _ = decode(input);
    let peak = PEAK.with(Cell::get);
    assert!(
        peak <= 1024 + 16 * input.len(),
        "a {}-byte input allocated {peak} bytes at once",
        input.len()
    );
}

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
        report_json: String::new(),
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
    assert_eq!(done[0].len(), 28, "five u32 counts and one u64");
    assert_eq!(decode_reject(&reject[0]), Ok(sample_reject()));
    for _ in 0..ITERATIONS {
        within_input_size(&rng.input(&request), decode_grid_request);
        within_input_size(&rng.input(&cell), decode_cell);
        within_input_size(&rng.input(&done), decode_done);
        within_input_size(&rng.input(&reject), decode_reject);
    }
}

#[test]
#[should_panic(expected = "allocated")]
fn the_allocation_bound_catches_a_decoder_that_trusts_a_declared_length() {
    within_input_size(&(1u32 << 24).to_le_bytes(), |bytes| {
        Vec::<u8>::with_capacity(u32::from_le_bytes(bytes.try_into().expect("four bytes")) as usize)
    });
}

#[test]
fn cell_frames_carry_raw_report_bytes_and_decode_totally() {
    // A v5 cell frame is its head followed by the report's encoded bytes,
    // exactly as a store record holds them after the key.
    let mut rng = Rng(0x5eed_0004);
    let cell = sample_cell();
    let report = encode_report(&cell.report);
    let payload = encode_cell_bytes(&cell.head(), &report);
    assert_eq!(payload, encode_cell(&cell));
    assert!(payload.ends_with(&report));
    // Damage confined to the report bytes — the part a warm daemon copies
    // from disk without decoding — fails cleanly or decodes, never panics.
    let reports = vec![report];
    for _ in 0..ITERATIONS {
        let damaged = encode_cell_bytes(&cell.head(), &rng.input(&reports));
        within_input_size(&damaged, decode_cell);
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

// --- client assembly ------------------------------------------------------

/// A daemon stand-in serving one connection: it reads the request frame,
/// answers with `frames` and hangs up. Returns what the client made of it.
fn serve_script(frames: Vec<(u8, Vec<u8>)>) -> Result<DoneFrame, ClientError> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("has an address").to_string();
    let daemon = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepts");
        read_frame(&mut stream).expect("request arrives");
        for (kind, payload) in frames {
            if write_frame(&mut stream, kind, &payload).is_err() {
                break; // the client already gave up
            }
        }
    });
    let mut client = GridClient::connect(&addr).expect("connects");
    let result = client.request_grid(&two_cell_request(), |_| {});
    drop(client);
    daemon.join().expect("script runs");
    result
}

/// One workload, one variant, two models: a two-cell grid.
fn two_cell_request() -> GridRequest {
    GridRequest {
        models: vec!["skip".to_string(), "branch-invert".to_string()],
        workloads: vec!["crc32".to_string()],
        ..sample_request()
    }
}

fn cell_frame(cell_index: u32, total_cells: u32) -> (u8, Vec<u8>) {
    let mut cell = sample_cell();
    cell.cell_index = cell_index;
    cell.total_cells = total_cells;
    cell.model = ["skip", "branch-invert"][cell_index as usize % 2].to_string();
    (RESP_CELL, encode_cell(&cell))
}

fn done_frame(cells: u32) -> (u8, Vec<u8>) {
    (
        RESP_DONE,
        encode_done(&DoneFrame {
            cells,
            ..sample_done()
        }),
    )
}

#[test]
fn the_client_assembles_the_report_from_its_cells() {
    // Cells in any order make the canonical report, labels read off the
    // cells (the resolved names, not the request's spellings).
    let done = serve_script(vec![cell_frame(1, 2), cell_frame(0, 2), done_frame(2)])
        .expect("a complete grid assembles");
    let cell = |index: u32| {
        let frame = decode_cell(&cell_frame(index, 2).1).expect("decodes");
        SecurityCell {
            workload: frame.workload,
            pipeline: frame.pipeline,
            model: frame.model,
            report: frame.report,
        }
    };
    let expected = SecurityReport {
        workloads: vec!["crc32".to_string()],
        pipelines: vec!["cfi".to_string()],
        models: vec!["skip".to_string(), "branch-invert".to_string()],
        cells: vec![cell(0), cell(1)],
        stats: MatrixStats::default(),
    };
    assert_eq!(done.report_json, expected.to_json());
    assert_eq!((done.cells, done.warm_cells), (2, 40));
}

#[test]
fn the_client_refuses_cells_that_do_not_make_up_the_grid() {
    let refusals = [
        ("a missing cell", vec![cell_frame(0, 2), done_frame(2)]),
        (
            "a duplicate cell",
            vec![cell_frame(0, 2), cell_frame(0, 2), done_frame(2)],
        ),
        (
            "an out-of-range index",
            vec![cell_frame(2, 2), done_frame(2)],
        ),
        (
            "a cell of another grid size",
            vec![cell_frame(0, 3), cell_frame(1, 3), done_frame(3)],
        ),
        (
            "a completion of another grid size",
            vec![cell_frame(0, 2), cell_frame(1, 2), done_frame(3)],
        ),
        ("a completion before every cell", vec![done_frame(2)]),
    ];
    for (what, frames) in refusals {
        match serve_script(frames) {
            Err(ClientError::Protocol(message)) => assert!(!message.is_empty(), "{what}"),
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
    }
}

#[test]
fn client_assembly_is_total_over_random_frame_sequences() {
    // Random sequences of cell and completion frames: the client accepts
    // exactly those whose cells before the first completion are each index
    // of the two-cell grid once, completed as a two-cell grid — and
    // refuses everything else without panicking.
    let mut rng = Rng(0x5eed_0005);
    for _ in 0..100 {
        let mut frames = Vec::new();
        for _ in 0..=rng.below(4) {
            frames.push(if rng.below(4) == 0 {
                done_frame(rng.below(4) as u32)
            } else {
                cell_frame(rng.below(3) as u32, 1 + rng.below(3) as u32)
            });
        }
        let mut seen = Vec::new();
        let mut valid = false;
        for (kind, payload) in &frames {
            if *kind == RESP_DONE {
                let done = decode_done(payload).expect("decodes");
                valid = done.cells == 2 && seen.len() == 2;
                break;
            }
            let cell = decode_cell(payload).expect("decodes");
            if cell.total_cells != 2 || cell.cell_index >= 2 || seen.contains(&cell.cell_index) {
                break;
            }
            seen.push(cell.cell_index);
        }
        match serve_script(frames) {
            Ok(_) => assert!(valid, "accepted an invalid sequence"),
            Err(ClientError::Protocol(_) | ClientError::Io(_)) => {
                assert!(!valid, "refused a valid sequence");
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
