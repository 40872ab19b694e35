//! The [`GridClient`]: a blocking connection to a grid daemon.
//!
//! One client holds one connection and issues one request at a time (the
//! protocol interleaves nothing on a single connection); concurrency comes
//! from connecting more clients. [`GridClient::request_grid`] surfaces
//! every streamed cell through a callback as it arrives, then returns the
//! completion frame — the full report a warm daemon assembled without any
//! simulation, byte-identical to a local run of the same grid.

use std::io;
use std::time::Duration;

use secbranch::obs::parse_prometheus;

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
    /// [`CellFrame::cell_index`] to place them).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the daemon refuses or fails the
    /// request, [`ClientError::Rejected`] on a protocol-version mismatch,
    /// otherwise transport/protocol failures.
    pub fn request_grid(
        &mut self,
        request: &GridRequest,
        mut on_cell: impl FnMut(&CellFrame),
    ) -> Result<DoneFrame, ClientError> {
        write_frame(&mut self.stream, REQ_GRID, &encode_grid_request(request))?;
        loop {
            let frame = read_frame(&mut self.stream)?;
            match frame.kind {
                RESP_CELL => {
                    let cell = decode_cell(&frame.payload)
                        .map_err(|_| ClientError::Protocol("bad cell frame".to_string()))?;
                    on_cell(&cell);
                }
                RESP_DONE => {
                    return decode_done(&frame.payload)
                        .map_err(|_| ClientError::Protocol("bad completion frame".to_string()));
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
