//! The SBGD wire protocol: length-prefixed, CRC-checked, versioned binary
//! frames over any byte stream.
//!
//! The framing deliberately mirrors the SBGR record format of
//! `secbranch-store` — magic, format version, kind tag, payload length,
//! CRC-32, payload — because it has the same job under the same
//! constraints: hand-rolled (the offline workspace has no serde), fixed by
//! definition, little-endian, and safe to parse from an untrusted peer
//! (every decoder is total: any byte sequence either decodes or fails
//! cleanly, never panics or over-allocates).
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SBGD"
//! 4       4     protocol version (u32 LE)
//! 8       1     frame kind
//! 9       8     payload length (u64 LE, at most MAX_FRAME)
//! 17      4     CRC-32 (IEEE) of the payload (u32 LE)
//! 21      n     payload
//! ```
//!
//! A frame of a foreign protocol version is answered with a
//! [`RejectFrame`] and the connection is closed — clients of a foreign
//! protocol get a machine-readable "speak my version" instead of a hang
//! or a misparse. Binary payloads are encoded with the same
//! [`Writer`]/[`Reader`] primitives the store records use; the statistics
//! payload is the daemon's metrics registry as Prometheus text, read back
//! with [`parse_prometheus`](secbranch::obs::parse_prometheus) into the
//! typed [`StatsSnapshot`] view.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use secbranch::obs::metrics::series_value;
use secbranch_campaign::{CampaignReport, PoolStats, TraceStoreStats, WorkCounters};
use secbranch_store::format::{crc32, Reader, RecordError, Writer};
use secbranch_store::StoreStats;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"SBGD";

/// The protocol version this build speaks, and the only one it accepts.
/// Bump on any frame or payload layout change — peers refuse other
/// versions instead of misparsing them. v2 added [`GridRequest::cold`];
/// v3 added a metrics frame and four executor counters to the binary
/// statistics payload; v4 replaced that payload with the metrics
/// registry's Prometheus text and made it the only statistics frame; v5
/// sends a warm cell as its stored report bytes, and DONE carries only
/// counts (the client assembles the report from the cells).
pub const PROTOCOL_VERSION: u32 = 5;

/// Upper bound on a frame payload; a corrupted or hostile length prefix
/// fails the read instead of triggering a giant allocation.
pub const MAX_FRAME: u64 = 64 << 20;

/// Most payload bytes [`read_frame`] allocates ahead of their arrival.
/// Every frame the daemon sends is far smaller (a cell frame holds one
/// report, about 10 KiB; DONE is 28 bytes), so each is read in one chunk.
const READ_CHUNK: usize = 2 << 20;

/// Size of the fixed frame header preceding the payload.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4;

/// Client → daemon: run a security grid (a [`GridRequest`] payload).
pub const REQ_GRID: u8 = 1;
/// Client → daemon: return the daemon's statistics (empty payload),
/// answered with [`RESP_STATS`].
pub const REQ_STATS: u8 = 2;
/// Client → daemon: stop accepting connections (empty payload); answered
/// with the final [`RESP_STATS`].
pub const REQ_SHUTDOWN: u8 = 3;

/// Daemon → client: one finished cell of the running grid request
/// (a [`CellFrame`] payload), streamed as soon as the cell is available.
pub const RESP_CELL: u8 = 16;
/// Daemon → client: the grid request is complete (a [`DoneFrame`] payload).
pub const RESP_DONE: u8 = 17;
/// Daemon → client: the daemon's metrics registry as Prometheus text
/// exposition (UTF-8 payload; [`StatsSnapshot::from_series`] is its typed
/// view).
pub const RESP_STATS: u8 = 18;
/// Daemon → client: the request failed (a UTF-8 message payload).
pub const RESP_ERROR: u8 = 19;
/// Daemon → client: protocol version mismatch (a [`RejectFrame`] payload);
/// the daemon closes the connection after sending it.
pub const RESP_REJECT: u8 = 20;

/// Why reading a frame from the wire failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes a peer disconnect).
    Io(io::Error),
    /// Bad magic, CRC mismatch, oversized payload or malformed payload
    /// bytes.
    Corrupt,
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version in the received frame.
        found: u32,
        /// The version this build speaks.
        expected: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport failure: {e}"),
            WireError::Corrupt => f.write_str("malformed frame"),
            WireError::VersionMismatch { found, expected } => write!(
                f,
                "protocol version mismatch: peer speaks v{found}, this build speaks v{expected}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<RecordError> for WireError {
    fn from(_: RecordError) -> Self {
        WireError::Corrupt
    }
}

/// One frame as read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The kind tag (one of the `REQ_*`/`RESP_*` constants).
    pub kind: u8,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame at this build's [`PROTOCOL_VERSION`].
///
/// # Errors
///
/// Propagates stream I/O failures.
pub fn write_frame(stream: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut header = Vec::with_capacity(HEADER_LEN + payload.len());
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header.push(kind);
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());
    header.extend_from_slice(payload);
    stream.write_all(&header)?;
    stream.flush()
}

/// Reads and validates one frame.
///
/// # Errors
///
/// [`WireError::Io`] on stream failure (including a clean peer disconnect,
/// which surfaces as `UnexpectedEof`), [`WireError::VersionMismatch`] when
/// the frame carries any version but [`PROTOCOL_VERSION`],
/// [`WireError::Corrupt`] on bad magic, an oversized length or a CRC
/// mismatch.
pub fn read_frame(stream: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    if header[0..4] != MAGIC {
        return Err(WireError::Corrupt);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("length checked"));
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let kind = header[8];
    let payload_len = u64::from_le_bytes(header[9..17].try_into().expect("length checked"));
    let crc = u32::from_le_bytes(header[17..21].try_into().expect("length checked"));
    if payload_len > MAX_FRAME {
        return Err(WireError::Corrupt);
    }
    // Read in bounded chunks so the buffer grows only as bytes arrive: a
    // header that declares MAX_FRAME and then hangs up costs one chunk,
    // not the declared length.
    let len = payload_len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        payload.resize(len.min(start + READ_CHUNK), 0);
        stream.read_exact(&mut payload[start..])?;
    }
    if crc32(&payload) != crc {
        return Err(WireError::Corrupt);
    }
    Ok(Frame { kind, payload })
}

// --- grid requests --------------------------------------------------------

/// A grid request: which cells to evaluate (catalog names on every axis)
/// and under which budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRequest {
    /// Scheduling priority of this request's cold cells (higher runs
    /// earlier; ties are FIFO across the whole daemon).
    pub priority: u8,
    /// Injection budget of the sampling fault models.
    pub trials: u64,
    /// Dynamic instruction budget per execution (part of the artifact
    /// fingerprint, so it selects which cached cells can serve this grid).
    pub max_steps: u64,
    /// Wall-clock budget for the whole request in milliseconds
    /// (0 = unbounded); exceeded requests fail with a clean error.
    pub deadline_millis: u64,
    /// Workload catalog names (e.g. `integer_compare`).
    pub workloads: Vec<String>,
    /// Protection variant labels (e.g. `unprotected`, `cfi`, `prototype`).
    pub variants: Vec<String>,
    /// Fault model names (e.g. `skip`, `branch-invert`).
    pub models: Vec<String>,
    /// When set, the daemon ignores (without deleting) any cached cells in
    /// its persistent grid store and computes every cell of this request
    /// from scratch. Write-back still happens, so a cold request re-warms
    /// the store for its successors. Used by benchmark clients to measure
    /// genuine cold-path cost against a pre-populated store.
    pub cold: bool,
}

fn write_names(w: &mut Writer, names: &[String]) {
    w.u32(names.len() as u32);
    for name in names {
        w.str(name);
    }
}

fn read_names(r: &mut Reader<'_>) -> Result<Vec<String>, RecordError> {
    let count = r.u32()? as usize;
    (0..count).map(|_| r.str()).collect()
}

/// Encodes a [`GridRequest`] payload.
#[must_use]
pub fn encode_grid_request(request: &GridRequest) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(request.priority);
    w.u64(request.trials);
    w.u64(request.max_steps);
    w.u64(request.deadline_millis);
    write_names(&mut w, &request.workloads);
    write_names(&mut w, &request.variants);
    write_names(&mut w, &request.models);
    w.u8(u8::from(request.cold));
    w.into_bytes()
}

/// Decodes a [`GridRequest`] payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_grid_request(payload: &[u8]) -> Result<GridRequest, RecordError> {
    let mut r = Reader::new(payload);
    let request = GridRequest {
        priority: r.u8()?,
        trials: r.u64()?,
        max_steps: r.u64()?,
        deadline_millis: r.u64()?,
        workloads: read_names(&mut r)?,
        variants: read_names(&mut r)?,
        models: read_names(&mut r)?,
        cold: match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(RecordError::Corrupt),
        },
    };
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(request)
}

// --- streamed cells -------------------------------------------------------

/// How the daemon obtained a streamed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Computed for this request (it was the cold submitter).
    Computed,
    /// Served from the persistent grid store without any simulation.
    StoreWarm,
    /// Coalesced onto another request's identical in-flight computation
    /// (single-flight: this request triggered no simulation of its own).
    Coalesced,
}

impl Served {
    fn tag(self) -> u8 {
        match self {
            Served::Computed => 0,
            Served::StoreWarm => 1,
            Served::Coalesced => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Served, RecordError> {
        match tag {
            0 => Ok(Served::Computed),
            1 => Ok(Served::StoreWarm),
            2 => Ok(Served::Coalesced),
            _ => Err(RecordError::Corrupt),
        }
    }

    /// The wire tag's stable text form (`computed`, `store-warm`,
    /// `coalesced`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Served::Computed => "computed",
            Served::StoreWarm => "store-warm",
            Served::Coalesced => "coalesced",
        }
    }
}

/// One finished cell, streamed to the client the moment it is available
/// (warm cells flush during request admission, cold cells in completion
/// order; `cell_index` restores the canonical order client-side).
///
/// On the wire the report comes last, as the bytes
/// `secbranch_store::codec::encode_report` writes — for a warm cell, the
/// bytes its store record holds after the key, copied without decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFrame {
    /// Position of this cell in the canonical (workload-major,
    /// pipeline-then-model) grid order.
    pub cell_index: u32,
    /// Total cells of the request, for progress display.
    pub total_cells: u32,
    /// How the cell was obtained.
    pub served: Served,
    /// The workload display name.
    pub workload: String,
    /// The pipeline label.
    pub pipeline: String,
    /// The fault model name.
    pub model: String,
    /// The full campaign report, byte-identical to a local run's.
    pub report: CampaignReport,
    /// Injection compute time of the cell in microseconds (zero when
    /// served warm).
    pub compute_micros: u64,
}

impl CellFrame {
    /// Every field but the report.
    #[must_use]
    pub fn head(&self) -> CellHead<'_> {
        CellHead {
            cell_index: self.cell_index,
            total_cells: self.total_cells,
            served: self.served,
            workload: &self.workload,
            pipeline: &self.pipeline,
            model: &self.model,
            compute_micros: self.compute_micros,
        }
    }
}

/// The fields of a [`CellFrame`] that precede its report on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellHead<'a> {
    /// See [`CellFrame::cell_index`].
    pub cell_index: u32,
    /// See [`CellFrame::total_cells`].
    pub total_cells: u32,
    /// See [`CellFrame::served`].
    pub served: Served,
    /// See [`CellFrame::workload`].
    pub workload: &'a str,
    /// See [`CellFrame::pipeline`].
    pub pipeline: &'a str,
    /// See [`CellFrame::model`].
    pub model: &'a str,
    /// See [`CellFrame::compute_micros`].
    pub compute_micros: u64,
}

/// Encodes a [`CellFrame`] payload from its head and its report's encoded
/// bytes (`secbranch_store::codec::encode_report`, or a warm cell's bytes
/// from `GridStore::get_cell_bytes`), which are copied as they are.
#[must_use]
pub fn encode_cell_bytes(head: &CellHead<'_>, report: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(head.cell_index);
    w.u32(head.total_cells);
    w.u8(head.served.tag());
    w.str(head.workload);
    w.str(head.pipeline);
    w.str(head.model);
    w.u64(head.compute_micros);
    let mut payload = w.into_bytes();
    payload.extend_from_slice(report);
    payload
}

/// Encodes a [`CellFrame`] payload.
#[must_use]
pub fn encode_cell(cell: &CellFrame) -> Vec<u8> {
    encode_cell_bytes(
        &cell.head(),
        &secbranch_store::codec::encode_report(&cell.report),
    )
}

/// Decodes a [`CellFrame`] payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_cell(payload: &[u8]) -> Result<CellFrame, RecordError> {
    let mut r = Reader::new(payload);
    let cell_index = r.u32()?;
    let total_cells = r.u32()?;
    let served = Served::from_tag(r.u8()?)?;
    let workload = r.str()?;
    let pipeline = r.str()?;
    let model = r.str()?;
    let compute_micros = r.u64()?;
    let report = secbranch_store::codec::decode_report(r.rest())?;
    Ok(CellFrame {
        cell_index,
        total_cells,
        served,
        workload,
        pipeline,
        model,
        report,
        compute_micros,
    })
}

// --- completion -----------------------------------------------------------

/// The completion of a grid request: how it was served and, filled in by
/// [`GridClient::request_grid`](crate::GridClient::request_grid), the
/// report assembled from its cells.
///
/// Only the counts travel: the payload is five `u32`s and one `u64`,
/// 28 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneFrame {
    /// The full `SecurityReport` JSON document, byte-identical to a local
    /// `SecurityReport::to_json`. Not on the wire: [`decode_done`] leaves
    /// it empty and the client fills it.
    pub report_json: String,
    /// Total cells of the request.
    pub cells: u32,
    /// Cells served from the grid store (zero simulation).
    pub warm_cells: u32,
    /// Cells computed because this request submitted them cold.
    pub computed_cells: u32,
    /// Cells coalesced onto another request's in-flight computation.
    pub coalesced_cells: u32,
    /// Reference traces recorded on behalf of this request (zero on a
    /// fully warm request).
    pub recordings: u32,
    /// End-to-end wall time of the request in microseconds.
    pub wall_micros: u64,
}

// The JSON of a done frame is how the request was served; the report is
// its own document.
secbranch::obs::impl_to_json! { DoneFrame |d|
    cells, warm_cells, computed_cells, coalesced_cells, recordings, wall_micros,
}

/// Encodes a [`DoneFrame`] payload: its counts, never `report_json`.
#[must_use]
pub fn encode_done(done: &DoneFrame) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(done.cells);
    w.u32(done.warm_cells);
    w.u32(done.computed_cells);
    w.u32(done.coalesced_cells);
    w.u32(done.recordings);
    w.u64(done.wall_micros);
    w.into_bytes()
}

/// Decodes a [`DoneFrame`] payload, with an empty `report_json`.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_done(payload: &[u8]) -> Result<DoneFrame, RecordError> {
    let mut r = Reader::new(payload);
    let done = DoneFrame {
        report_json: String::new(),
        cells: r.u32()?,
        warm_cells: r.u32()?,
        computed_cells: r.u32()?,
        coalesced_cells: r.u32()?,
        recordings: r.u32()?,
        wall_micros: r.u64()?,
    };
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(done)
}

// --- rejection ------------------------------------------------------------

/// The version-mismatch rejection: what the peer sent, what this daemon
/// speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectFrame {
    /// The protocol version the rejected frame carried.
    pub found: u32,
    /// The version the daemon speaks.
    pub expected: u32,
}

/// Encodes a [`RejectFrame`] payload.
#[must_use]
pub fn encode_reject(reject: RejectFrame) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(reject.found);
    w.u32(reject.expected);
    w.into_bytes()
}

/// Decodes a [`RejectFrame`] payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_reject(payload: &[u8]) -> Result<RejectFrame, RecordError> {
    let mut r = Reader::new(payload);
    let reject = RejectFrame {
        found: r.u32()?,
        expected: r.u32()?,
    };
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(reject)
}

// --- observability --------------------------------------------------------

secbranch::obs::counters! {
    /// The daemon's own request, cell and decode counters.
    pub struct DaemonStats(DaemonCounters) {
        /// Grid requests admitted.
        requests: counter("secbranch_gridd_requests_total"),
        /// Cells requested across all grid requests.
        cells_requested: counter("secbranch_gridd_cells_requested_total"),
        /// Cells served from the grid store without simulation.
        warm_cells: counter("secbranch_gridd_warm_cells_total"),
        /// Cells computed on the worker pool.
        computed_cells: counter("secbranch_gridd_computed_cells_total"),
        /// Cells coalesced onto an identical in-flight computation
        /// (single-flight).
        coalesced_cells: counter("secbranch_gridd_coalesced_cells_total"),
        /// Reference traces recorded by the daemon (lifetime).
        recordings: counter("secbranch_gridd_recordings_total"),
        /// Requests refused or failed (validation, budgets, simulation
        /// errors, deadlines).
        request_errors: counter("secbranch_gridd_request_errors_total"),
        /// Connections rejected for speaking a foreign protocol version.
        version_rejects: counter("secbranch_gridd_version_rejects_total"),
        /// Distinct programs decoded into micro-ops by the daemon's
        /// executors.
        decoded_programs: counter("secbranch_gridd_decoded_programs_total"),
        /// Wall-clock microseconds spent in those decodes.
        decode_micros: counter("secbranch_gridd_decode_micros_total"),
    }
}

/// A typed view of the daemon's statistics: its own counters, the job
/// queue, the pool's work counters (also reachable directly, through
/// `Deref`), the shared trace store, and the persistent store's counters
/// when one is attached. Built
/// from the parsed `STATS` exposition by [`StatsSnapshot::from_series`],
/// which also keeps the whole series map (per-model histograms included)
/// in [`StatsSnapshot::series`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// The daemon's protocol version.
    pub protocol_version: u32,
    /// The daemon's own request, cell and decode counters.
    pub daemon: DaemonStats,
    /// The worker pool's queue and job counters.
    pub pool: PoolStats,
    /// The work counters summed over every cell the pool computed.
    pub work: WorkCounters,
    /// The shared in-memory trace store's counters.
    pub traces: TraceStoreStats,
    /// The attached grid store's runtime counters (`None` when the daemon
    /// runs without persistence).
    pub store: Option<StoreStats>,
    /// Every series of the exposition, keyed as rendered.
    pub series: BTreeMap<String, u64>,
}

impl std::ops::Deref for StatsSnapshot {
    type Target = WorkCounters;

    fn deref(&self) -> &WorkCounters {
        &self.work
    }
}

impl StatsSnapshot {
    /// Builds the view from a parsed `STATS` exposition. The store
    /// counters are read when any `secbranch_store_` series is present.
    ///
    /// # Errors
    ///
    /// Names the first series a typed field needs that the exposition
    /// lacks — a missing counter is an error, never a silent zero.
    pub fn from_series(series: BTreeMap<String, u64>) -> Result<StatsSnapshot, String> {
        let version = series_value(&series, "secbranch_gridd_protocol_version")?;
        let has_store = series.keys().any(|key| key.starts_with("secbranch_store_"));
        Ok(StatsSnapshot {
            protocol_version: u32::try_from(version)
                .map_err(|_| "the protocol version overflows u32".to_string())?,
            daemon: DaemonStats::from_series(&series)?,
            pool: PoolStats::from_series(&series)?,
            work: WorkCounters::from_series(&series)?,
            traces: TraceStoreStats::from_series(&series)?,
            store: has_store
                .then(|| StoreStats::from_series(&series))
                .transpose()?,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbranch::obs::{parse_prometheus, Registry};
    use std::collections::BTreeSet;

    /// The series `register` puts into a fresh registry, read back from
    /// its Prometheus rendering.
    fn exposed(register: impl FnOnce(&mut Registry)) -> BTreeMap<String, u64> {
        let mut registry = Registry::new();
        register(&mut registry);
        parse_prometheus(&registry.render_prometheus()).expect("parses")
    }

    /// A value of the counter set `$set` whose fields hold distinct values
    /// counting up from `$first`, in the order of their series names.
    macro_rules! distinct {
        ($set:ty, $first:expr) => {{
            let names = exposed(|registry| <$set>::default().register_into(registry));
            let values = names.keys().cloned().zip($first..).collect();
            <$set>::from_series(&values).expect("every series present")
        }};
    }

    /// Distinct values per field of `$set` survive `register_into`, the
    /// rendering, `parse_prometheus` and `from_series` unchanged, one
    /// series per field; dropping any one series is an error naming it.
    macro_rules! check_counter_set {
        ($set:ty, $first:expr) => {{
            let stats: $set = distinct!($set, $first);
            let series = exposed(|registry| stats.register_into(registry));
            assert_eq!(<$set>::from_series(&series), Ok(stats));
            let values: BTreeSet<u64> = series.values().copied().collect();
            let fields = stats.to_json().matches(':').count();
            assert_eq!((series.len(), values.len()), (fields, fields));
            for name in series.keys() {
                let mut lacking = series.clone();
                lacking.remove(name);
                let error = <$set>::from_series(&lacking).expect_err(name);
                assert!(error.contains(name.as_str()), "{error}");
            }
        }};
    }

    fn sample_request() -> GridRequest {
        GridRequest {
            priority: 7,
            trials: 500,
            max_steps: 200_000,
            deadline_millis: 30_000,
            workloads: vec!["integer_compare".to_string(), "crc32".to_string()],
            variants: vec!["unprotected".to_string(), "prototype".to_string()],
            models: vec!["skip".to_string(), "branch-invert".to_string()],
            cold: true,
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let payload = encode_grid_request(&sample_request());
        let mut wire = Vec::new();
        write_frame(&mut wire, REQ_GRID, &payload).expect("writes");
        let frame = read_frame(&mut wire.as_slice()).expect("reads");
        assert_eq!(frame.kind, REQ_GRID);
        assert_eq!(
            decode_grid_request(&frame.payload).expect("decodes"),
            sample_request()
        );
    }

    #[test]
    fn foreign_versions_and_damage_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, REQ_STATS, b"").expect("writes");

        // A v4 peer (the report-carrying DONE frame) is as foreign as a
        // future one.
        for (version, found) in [(9u32, 9), (4, 4)] {
            let mut foreign = wire.clone();
            foreign[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                read_frame(&mut foreign.as_slice()),
                Err(WireError::VersionMismatch { found: f, expected: 5 }) if f == found
            ));
        }

        let mut magic = wire.clone();
        magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut magic.as_slice()),
            Err(WireError::Corrupt)
        ));

        let mut payload = Vec::new();
        write_frame(&mut payload, REQ_GRID, b"data").expect("writes");
        let last = payload.len() - 1;
        payload[last] ^= 1;
        assert!(matches!(
            read_frame(&mut payload.as_slice()),
            Err(WireError::Corrupt)
        ));

        let mut oversized = wire;
        oversized[9..17].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice()),
            Err(WireError::Corrupt)
        ));

        assert!(matches!(
            read_frame(&mut [0u8; 3].as_slice()),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn grid_request_payloads_reject_trailing_garbage() {
        let mut payload = encode_grid_request(&sample_request());
        payload.push(0);
        assert_eq!(decode_grid_request(&payload), Err(RecordError::Corrupt));
        assert_eq!(decode_grid_request(&[1, 2]), Err(RecordError::Corrupt));
    }

    #[test]
    fn done_reject_and_stats_payloads_round_trip() {
        let done = DoneFrame {
            report_json: String::new(),
            cells: 12,
            warm_cells: 7,
            computed_cells: 3,
            coalesced_cells: 2,
            recordings: 4,
            wall_micros: 123_456,
        };
        assert_eq!(encode_done(&done).len(), 5 * 4 + 8, "counts only");
        assert_eq!(decode_done(&encode_done(&done)).expect("decodes"), done);
        // The report never travels: the client assembles it.
        let with_report = DoneFrame {
            report_json: "{\"cells\":[]}".to_string(),
            ..done.clone()
        };
        assert_eq!(encode_done(&with_report), encode_done(&done));

        let reject = RejectFrame {
            found: 3,
            expected: PROTOCOL_VERSION,
        };
        assert_eq!(
            decode_reject(&encode_reject(reject)).expect("decodes"),
            reject
        );

        // A statistics payload is a rendered registry; the typed view reads
        // every counter set back from its own series.
        let (daemon, pool, work, traces, store) = (
            distinct!(DaemonStats, 100),
            distinct!(PoolStats, 200),
            distinct!(WorkCounters, 500),
            distinct!(TraceStoreStats, 300),
            distinct!(StoreStats, 400),
        );
        let series = exposed(|registry| {
            registry.gauge(
                "secbranch_gridd_protocol_version",
                u64::from(PROTOCOL_VERSION),
            );
            daemon.register_into(registry);
            pool.register_into(registry);
            work.register_into(registry);
            traces.register_into(registry);
            store.register_into(registry);
        });
        let stats = StatsSnapshot::from_series(series.clone()).expect("complete");
        assert_eq!(stats.protocol_version, PROTOCOL_VERSION);
        assert_eq!(stats.daemon, daemon);
        assert_eq!(stats.pool, pool);
        assert_eq!(stats.work, work);
        assert_eq!(*stats, work, "the view derefs to the work counters");
        assert_eq!(stats.traces, traces);
        assert_eq!(stats.store, Some(store));
        assert_eq!(stats.series, series, "the view keeps every series");

        // Without any store series the daemon runs without persistence.
        let storeless: BTreeMap<String, u64> = series
            .into_iter()
            .filter(|(key, _)| !key.starts_with("secbranch_store_"))
            .collect();
        assert_eq!(
            StatsSnapshot::from_series(storeless).expect("ok").store,
            None
        );
    }

    #[test]
    fn counter_sets_round_trip_through_the_exposition() {
        check_counter_set!(DaemonStats, 100);
        check_counter_set!(PoolStats, 200);
        check_counter_set!(WorkCounters, 500);
        check_counter_set!(TraceStoreStats, 300);
        check_counter_set!(StoreStats, 400);
    }

    #[test]
    fn stats_view_refuses_a_missing_series() {
        let series = exposed(|registry| {
            registry.gauge(
                "secbranch_gridd_protocol_version",
                u64::from(PROTOCOL_VERSION),
            );
            DaemonStats::default().register_into(registry);
            PoolStats::default().register_into(registry);
            WorkCounters::default().register_into(registry);
            TraceStoreStats::default().register_into(registry);
            StoreStats::default().register_into(registry);
        });
        for name in series.keys() {
            let mut lacking = series.clone();
            lacking.remove(name);
            let error = StatsSnapshot::from_series(lacking).expect_err(name);
            assert!(error.contains(name.as_str()), "{error}");
        }
    }

    #[test]
    fn frames_of_every_served_version_are_accepted() {
        let mut wire = Vec::new();
        write_frame(&mut wire, REQ_STATS, b"").expect("writes");
        let frame = read_frame(&mut wire.as_slice()).expect("reads");
        assert_eq!((frame.kind, PROTOCOL_VERSION), (REQ_STATS, 5));
        // Only this build's version is served: every earlier one and the
        // next one are foreign.
        for version in [2, 3, 4, PROTOCOL_VERSION + 1] {
            let mut foreign = wire.clone();
            foreign[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                read_frame(&mut foreign.as_slice()),
                Err(WireError::VersionMismatch { found, expected: PROTOCOL_VERSION })
                    if found == version
            ));
        }
    }
}
