//! Service layer for `graphbi`: a zero-dependency concurrent TCP server
//! and blocking client over the canonical wire grammar.
//!
//! The pieces, bottom-up:
//!
//! - [`protocol`] — the versioned line-oriented frame grammar (verbs,
//!   commit ops, `ERR`/`BUSY` frames). Request and response payloads are
//!   the canonical `graphbi::wire` text, so the server, CLI, testkit and
//!   docs all speak one grammar.
//! - [`queue`] — the admission-controlled bounded queue: the server's
//!   single backpressure point.
//! - [`recorder`] — the flight recorder: a bounded ring of completed
//!   request traces (head-sampled, forced for errors and slow requests)
//!   behind the `TRACE` / `SLOWLOG` / `TOP` introspection verbs.
//! - [`server`] — per-connection sessions pinning MVCC snapshots, and a
//!   batcher that coalesces requests *across connections* into
//!   `Session::evaluate_many` calls.
//! - [`client`] — a blocking client that caches the served universe for
//!   local QL compilation.
//!
//! ```no_run
//! use std::sync::Arc;
//! use graphbi::{GraphStore, MvccStore};
//! use graphbi_serve::{Client, ServeConfig, ServeStore, Server};
//! # fn demo(store: GraphStore) -> Result<(), Box<dyn std::error::Error>> {
//! let store = ServeStore::Mvcc(Arc::new(MvccStore::new_mem(store)));
//! let server = Server::start(store, "127.0.0.1:0", ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let answer = client.query_ql("[A,B,C]")?;
//! # drop(answer);
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod protocol;
pub mod queue;
pub mod recorder;
pub mod server;

pub use client::{Client, ClientError};
pub use recorder::{Recorder, RecorderConfig, RequestTrace, SlowlogExport};
pub use server::{ServeConfig, ServeStore, Server};
