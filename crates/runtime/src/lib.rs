//! Synchronous distributed-network simulator and bit-exact certificate
//! encoding.
//!
//! The paper's model (Section 2) is the standard synchronous
//! message-passing network: nodes with unique `O(log n)`-bit identifiers,
//! one round of communication for proof-labeling-scheme verification.
//! This crate provides:
//!
//! * [`bits`] — a bit-stream writer/reader (fixed-width fields and LEB128
//!   varints, moved a word at a time) so certificate sizes are measured
//!   **exactly in bits**, the
//!   complexity measure of the paper;
//! * [`sim`] — a deterministic synchronous executor with per-round
//!   message accounting (max bits per edge per round = the CONGEST
//!   measure), used to run every verifier in this workspace. Payloads
//!   are reference-counted: delivering a broadcast over an edge is an
//!   O(1) handle clone, never a byte copy;
//! * [`baseline`] — the deep-copy reference executor kept for
//!   benchmarking the zero-copy delivery path against;
//! * [`log`] — a tiny level-filtered structured logger
//!   (`DPC_LOG=debug,reactor=trace`) shared by every binary in the
//!   workspace.

pub mod baseline;
pub mod bits;
pub mod log;
pub mod sim;

pub use bits::{
    get_bytes, get_string, get_uvarint, put_string, put_uvarint, BitReader, BitWriter, DecodeError,
};
pub use sim::{run_protocol, run_protocol_states, NodeCtx, Payload, Protocol, RunReport, Step};
