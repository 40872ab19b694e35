//! `secbranch-gridd` — a multi-client fault-campaign grid daemon with
//! streaming results.
//!
//! One [`GridDaemon`] serves security grids (workloads × protection
//! variants × fault models, named through a fixed [`catalog`]) to any
//! number of concurrent clients over TCP or Unix-domain sockets, speaking
//! a versioned, CRC-checked binary [`protocol`] built from the same
//! primitives as the on-disk SBGR store format. Three properties define
//! the service:
//!
//! * **Warm grids do zero simulation.** Every cell is content-addressed by
//!   `(artifact fingerprint, fault-model fingerprint, entry, args)` —
//!   bit-deterministic compilation makes the fingerprint a proof of
//!   identity — so a cell present in the attached persistent
//!   [`GridStore`](secbranch::store::GridStore) streams to the client
//!   immediately, byte-identical to a freshly computed one (and to a local
//!   `Session::security_matrix_with` run of the same grid).
//! * **Cold cells are computed exactly once.** Every cell goes to one
//!   shared, bounded, priority-ordered
//!   [`ExecutorPool`](secbranch::campaign::ExecutorPool): identical cells
//!   requested concurrently by different clients coalesce onto one
//!   in-flight computation (single-flight), and each cold cell's shards
//!   spread over all of the pool's workers.
//! * **Degradation is per-request.** Unknown names, over-budget grids,
//!   failing builds, blown deadlines and foreign protocol versions each
//!   answer one request (or one connection) with a structured error while
//!   the daemon keeps serving — and because results are content-addressed,
//!   retrying any failed request is idempotent.
//!
//! The daemon speaks exactly one [`PROTOCOL_VERSION`] (v5). Its statistics
//! have one schema and one serialised form: a `STATS` request (and the
//! reply to `SHUTDOWN`) returns the daemon's metrics registry as
//! Prometheus text. [`GridClient::metrics`] hands out that text,
//! [`GridClient::stats`] parses it into the typed [`StatsSnapshot`] view,
//! which fails on a missing series rather than reading it as zero.
//!
//! ```no_run
//! use secbranch_gridd::{DaemonConfig, GridClient, GridDaemon, GridRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let daemon = GridDaemon::bind("127.0.0.1:0", DaemonConfig::default())?;
//! let addr = daemon.local_addr().to_string();
//! std::thread::spawn(move || daemon.run());
//!
//! let mut client = GridClient::connect(&addr)?;
//! let done = client.request_grid(
//!     &GridRequest {
//!         priority: 0,
//!         trials: 100,
//!         max_steps: 200_000,
//!         deadline_millis: 0,
//!         workloads: vec!["integer_compare".into()],
//!         variants: vec!["unprotected".into(), "prototype".into()],
//!         models: vec!["skip".into(), "branch-invert".into()],
//!         cold: false,
//!     },
//!     |cell| eprintln!("cell {}/{} {}", cell.cell_index + 1, cell.total_cells, cell.served.label()),
//! )?;
//! println!("{}", done.report_json);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod client;
mod daemon;
pub mod protocol;
mod transport;

pub use client::{ClientError, GridClient};
pub use daemon::{DaemonConfig, GridDaemon};
pub use protocol::{
    CellFrame, DaemonStats, DoneFrame, GridRequest, RejectFrame, Served, StatsSnapshot, WireError,
    PROTOCOL_VERSION,
};
