//! The [`GridClient`]: a blocking connection to a grid daemon.
//!
//! One client holds one connection and issues one request at a time (the
//! protocol interleaves nothing on a single connection); concurrency comes
//! from connecting more clients. [`GridClient::request_grid`] surfaces
//! every streamed cell through a callback as it arrives, places it by its
//! index, and on completion assembles the full report from the cells —
//! byte-identical to a local run of the same grid. The daemon sends each
//! report once, in its cell frame, and never renders the report itself.

use std::io;
use std::time::Duration;

use secbranch::obs::parse_prometheus;
use secbranch::{MatrixStats, SecurityCell, SecurityReport};

use crate::protocol::{
    decode_cell, decode_done, decode_reject, encode_grid_request, read_frame, write_frame,
    CellFrame, DoneFrame, GridRequest, StatsSnapshot, WireError, REQ_GRID, REQ_SHUTDOWN, REQ_STATS,
    RESP_CELL, RESP_DONE, RESP_ERROR, RESP_REJECT, RESP_STATS,
};
use crate::transport::{self, Stream};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or was dropped.
    Io(io::Error),
    /// The daemon sent something the protocol does not allow here (or a
    /// frame failed validation).
    Protocol(String),
    /// The daemon speaks a different protocol version and rejected us (or
    /// we received a frame of a foreign version).
    Rejected {
        /// The version found on the wire.
        found: u32,
        /// The version expected by the rejecting side.
        expected: u32,
    },
    /// The daemon answered the request with an error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failure: {e}"),
            ClientError::Protocol(message) => write!(f, "protocol violation: {message}"),
            ClientError::Rejected { found, expected } => write!(
                f,
                "protocol version rejected: v{found} offered, v{expected} required"
            ),
            ClientError::Server(message) => write!(f, "daemon refused the request: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Corrupt => ClientError::Protocol("malformed frame".to_string()),
            WireError::VersionMismatch { found, expected } => {
                ClientError::Rejected { found, expected }
            }
        }
    }
}

/// A connected grid client — see the [crate docs](crate) for the usage
/// model.
pub struct GridClient {
    stream: Stream,
}

impl std::fmt::Debug for GridClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridClient").finish_non_exhaustive()
    }
}

impl GridClient {
    /// Connects to `addr` (`unix:<path>` or a TCP address).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<GridClient, ClientError> {
        Ok(GridClient {
            stream: transport::connect(addr)?,
        })
    }

    /// Connects with retries (`attempts` total, `delay` between them) —
    /// for racing a daemon that is still binding its socket.
    ///
    /// # Errors
    ///
    /// The last connection failure once the attempts are exhausted.
    pub fn connect_with_retry(
        addr: &str,
        attempts: u32,
        delay: Duration,
    ) -> Result<GridClient, ClientError> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
            }
            match GridClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Sends `request` and blocks until completion, invoking `on_cell` for
    /// every streamed cell in arrival order (warm cells first, cold cells
    /// in completion order — not canonical order; use
    /// [`CellFrame::cell_index`] to place them). The returned frame's
    /// `report_json` is the report assembled from those cells.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the daemon refuses or fails the
    /// request, [`ClientError::Rejected`] on a protocol-version mismatch,
    /// [`ClientError::Protocol`] when the cells do not make up the
    /// request's grid (a missing, repeated or out-of-range index, or a
    /// grid size other than the request's), otherwise transport/protocol
    /// failures.
    pub fn request_grid(
        &mut self,
        request: &GridRequest,
        mut on_cell: impl FnMut(&CellFrame),
    ) -> Result<DoneFrame, ClientError> {
        let total = request
            .workloads
            .len()
            .checked_mul(request.variants.len())
            .and_then(|n| n.checked_mul(request.models.len()))
            .ok_or_else(|| protocol("the request's grid size overflows"))?;
        write_frame(&mut self.stream, REQ_GRID, &encode_grid_request(request))?;
        // Allocated on the first cell, once the daemon has taken the
        // request.
        let mut slots: Vec<Option<SecurityCell>> = Vec::new();
        let mut received = 0;
        loop {
            let frame = read_frame(&mut self.stream)?;
            match frame.kind {
                RESP_CELL => {
                    let cell =
                        decode_cell(&frame.payload).map_err(|_| protocol("bad cell frame"))?;
                    if cell.total_cells as usize != total {
                        return Err(protocol(format!(
                            "a cell of a {}-cell grid, but the request spans {total}",
                            cell.total_cells
                        )));
                    }
                    slots.resize_with(total, || None);
                    let slot = match slots.get_mut(cell.cell_index as usize) {
                        Some(slot @ None) => slot,
                        Some(Some(_)) => {
                            return Err(protocol(format!("cell {} arrived twice", cell.cell_index)))
                        }
                        None => {
                            return Err(protocol(format!(
                                "cell index {} is outside the {total}-cell grid",
                                cell.cell_index
                            )))
                        }
                    };
                    on_cell(&cell);
                    *slot = Some(SecurityCell {
                        workload: cell.workload,
                        pipeline: cell.pipeline,
                        model: cell.model,
                        report: cell.report,
                    });
                    received += 1;
                }
                RESP_DONE => {
                    let mut done = decode_done(&frame.payload)
                        .map_err(|_| protocol("bad completion frame"))?;
                    if total == 0 || done.cells as usize != total || received != total {
                        return Err(protocol(format!(
                            "completion of a {}-cell grid after {received} of the request's \
                             {total} cells",
                            done.cells
                        )));
                    }
                    done.report_json =
                        assemble(request, slots.into_iter().flatten().collect()).to_json();
                    return Ok(done);
                }
                kind => return Err(unexpected(kind, &frame.payload)),
            }
        }
    }

    /// Fetches the daemon's statistics as a typed view (which also keeps
    /// the full series map).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures (including statistics that lack a
    /// series the view needs), or a daemon-side error frame.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        view(&self.exposition(REQ_STATS)?)
    }

    /// Asks the daemon to shut down; its final statistics are the
    /// acknowledgement.
    ///
    /// # Errors
    ///
    /// As for [`GridClient::stats`].
    pub fn shutdown(&mut self) -> Result<StatsSnapshot, ClientError> {
        view(&self.exposition(REQ_SHUTDOWN)?)
    }

    /// Fetches the daemon's statistics as the Prometheus text exposition
    /// of its metrics registry, verbatim.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a daemon-side error frame.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.exposition(REQ_STATS)
    }

    fn exposition(&mut self, kind: u8) -> Result<String, ClientError> {
        write_frame(&mut self.stream, kind, b"")?;
        let frame = read_frame(&mut self.stream)?;
        match frame.kind {
            RESP_STATS => String::from_utf8(frame.payload)
                .map_err(|_| ClientError::Protocol("statistics are not UTF-8".to_string())),
            kind => Err(unexpected(kind, &frame.payload)),
        }
    }
}

/// The canonical report of a grid from all its cells, in canonical
/// (workload-major, pipeline-then-model) order: the axis labels are read
/// off the cells by stride, so they are the resolved labels a local run
/// prints, not the request's spellings. Every axis of `request` is
/// non-empty and `cells` spans all of them.
fn assemble(request: &GridRequest, cells: Vec<SecurityCell>) -> SecurityReport {
    let models = request.models.len();
    let per_workload = request.variants.len() * models;
    SecurityReport {
        workloads: cells
            .iter()
            .step_by(per_workload)
            .map(|c| c.workload.clone())
            .collect(),
        pipelines: cells[..per_workload]
            .iter()
            .step_by(models)
            .map(|c| c.pipeline.clone())
            .collect(),
        models: cells[..models].iter().map(|c| c.model.clone()).collect(),
        cells,
        // Never read: `to_json` leaves the stats out.
        stats: MatrixStats::default(),
    }
}

fn protocol(message: impl Into<String>) -> ClientError {
    ClientError::Protocol(message.into())
}

/// Parses an exposition into the typed statistics view.
fn view(exposition: &str) -> Result<StatsSnapshot, ClientError> {
    let series = parse_prometheus(exposition).map_err(ClientError::Protocol)?;
    StatsSnapshot::from_series(series).map_err(ClientError::Protocol)
}

/// Classifies an out-of-place response frame: server errors and version
/// rejections carry their own meaning, anything else is a protocol
/// violation.
fn unexpected(kind: u8, payload: &[u8]) -> ClientError {
    match kind {
        RESP_ERROR => ClientError::Server(String::from_utf8_lossy(payload).into_owned()),
        RESP_REJECT => match decode_reject(payload) {
            Ok(reject) => ClientError::Rejected {
                found: reject.found,
                expected: reject.expected,
            },
            Err(_) => ClientError::Protocol("bad rejection frame".to_string()),
        },
        kind => ClientError::Protocol(format!("unexpected response kind {kind}")),
    }
}
