//! Blocking connection to the certification service, and the options
//! of each request family.
//!
//! One [`Client`] owns one TCP connection. The simple path is
//! [`Client::call`] (send one request, wait for its response); for
//! load generation the split [`Client::send`] / [`Client::recv`] pair
//! pipelines many requests on the wire — the server answers in
//! request order per connection, so responses come back in send
//! order.
//!
//! The operations — certify, check, gen, soundness, interactive,
//! audit, stats, slowlog — are written once, on [`ClusterClient`]. A
//! single server is a one-node ring, so the same call runs against
//! one node or a fleet. Each operation takes an options builder
//! (every combination the wire supports, one call shape):
//!
//! ```no_run
//! # use dpc_service::{ClusterClient, CertifyOptions, SchemeId};
//! # let g = dpc_graph::generators::cycle(8);
//! let mut client = ClusterClient::connect("127.0.0.1:7878")?;
//! client.certify(&g, CertifyOptions::new())?; // plain planarity
//! client.certify(
//!     &g,
//!     CertifyOptions::new()
//!         .scheme(SchemeId::SPANNING_TREE)
//!         .bypass()
//!         .summary(),
//! )?;
//! # Ok::<(), dpc_service::WireError>(())
//! ```

#[cfg(doc)]
use crate::cluster::ClusterClient;
use crate::registry::SchemeId;
use crate::wire::{self, Request, Response, WireError};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Options of [`ClusterClient::certify`]: scheme routing plus the cache,
/// shape, and transport axes that used to be separate methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifyOptions {
    pub(crate) scheme: SchemeId,
    pub(crate) bypass: bool,
    pub(crate) cached_only: bool,
    pub(crate) summary: bool,
    pub(crate) chunked: Option<usize>,
}

impl CertifyOptions {
    /// Plain planarity certify through the cache, full response.
    pub fn new() -> CertifyOptions {
        CertifyOptions {
            scheme: SchemeId::PLANARITY,
            bypass: false,
            cached_only: false,
            summary: false,
            chunked: None,
        }
    }

    /// Certify under this registered scheme instead of planarity.
    pub fn scheme(mut self, scheme: SchemeId) -> CertifyOptions {
        self.scheme = scheme;
        self
    }

    /// Skip the server cache and force a fresh prove (cold-latency
    /// measurements).
    pub fn bypass(mut self) -> CertifyOptions {
        self.bypass = true;
        self
    }

    /// Only answer from cache: a warm server answers normally, a cold
    /// one replies `Error(`[`wire::NOT_CACHED`]`)` without proving —
    /// the replica-probe shape. Overrides `bypass` and `summary` (the
    /// wire rejects the combinations).
    pub fn cached_only(mut self) -> CertifyOptions {
        self.cached_only = true;
        self
    }

    /// Ask for the measured outcome only — no certificate assignment
    /// on the wire; disconnected graphs are proved per component and
    /// merged.
    pub fn summary(mut self) -> CertifyOptions {
        self.summary = true;
        self
    }

    /// Stream the graph in CRC-checked chunks of `chunk_bytes`
    /// (clipped to [`wire::MAX_CHUNK_BYTES`]; pass
    /// [`wire::DEFAULT_CHUNK_BYTES`] unless measuring). Implies
    /// `summary` — that is the only shape the chunk protocol answers.
    pub fn chunked(mut self, chunk_bytes: usize) -> CertifyOptions {
        self.chunked = Some(chunk_bytes);
        self
    }
}

impl Default for CertifyOptions {
    fn default() -> CertifyOptions {
        CertifyOptions::new()
    }
}

/// The pre-redesign two-argument shape: `certify(&g, bypass_cache)`.
impl From<bool> for CertifyOptions {
    fn from(bypass_cache: bool) -> CertifyOptions {
        let opts = CertifyOptions::new();
        if bypass_cache {
            opts.bypass()
        } else {
            opts
        }
    }
}

/// Options of [`ClusterClient::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckOptions {
    pub(crate) scheme: SchemeId,
}

impl CheckOptions {
    /// Planarity check with witness summary.
    pub fn new() -> CheckOptions {
        CheckOptions::default()
    }

    /// Membership check under this registered scheme instead.
    pub fn scheme(mut self, scheme: SchemeId) -> CheckOptions {
        self.scheme = scheme;
        self
    }
}

/// `check(&g, scheme_id)` reads naturally for the one-axis case.
impl From<SchemeId> for CheckOptions {
    fn from(scheme: SchemeId) -> CheckOptions {
        CheckOptions::new().scheme(scheme)
    }
}

/// Options of [`ClusterClient::gen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenOptions {
    pub(crate) scheme: SchemeId,
}

impl GenOptions {
    /// Scheme-agnostic generation (the `"default"` family maps to
    /// planarity's canonical yes-instances).
    pub fn new() -> GenOptions {
        GenOptions::default()
    }

    /// Route the `"default"` family to this scheme's canonical
    /// yes-instance generator (concrete family names ignore it).
    pub fn scheme(mut self, scheme: SchemeId) -> GenOptions {
        self.scheme = scheme;
        self
    }
}

impl From<SchemeId> for GenOptions {
    fn from(scheme: SchemeId) -> GenOptions {
        GenOptions::new().scheme(scheme)
    }
}

/// Options of [`ClusterClient::soundness`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoundnessOptions {
    pub(crate) seed: u64,
    pub(crate) scheme: SchemeId,
}

impl SoundnessOptions {
    /// Seed 0 against the planarity scheme.
    pub fn new() -> SoundnessOptions {
        SoundnessOptions::default()
    }

    /// Seed of the replay battery.
    pub fn seed(mut self, seed: u64) -> SoundnessOptions {
        self.seed = seed;
        self
    }

    /// Probe this registered scheme instead of planarity.
    pub fn scheme(mut self, scheme: SchemeId) -> SoundnessOptions {
        self.scheme = scheme;
        self
    }
}

/// The pre-redesign two-argument shape: `soundness(&g, seed)`.
impl From<u64> for SoundnessOptions {
    fn from(seed: u64) -> SoundnessOptions {
        SoundnessOptions::new().seed(seed)
    }
}

/// Options of [`ClusterClient::interactive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InteractiveOptions {
    pub(crate) seed: u64,
    pub(crate) scheme: SchemeId,
}

impl InteractiveOptions {
    /// Seed 0 under the planarity scheme (the one scheme whose
    /// registry entry runs interactive sessions).
    pub fn new() -> InteractiveOptions {
        InteractiveOptions::default()
    }

    /// Session seed: the server derives its public coin from this, so
    /// the whole transcript — challenge and verdict — replays from
    /// the seed alone.
    pub fn seed(mut self, seed: u64) -> InteractiveOptions {
        self.seed = seed;
        self
    }

    /// Open the session under this scheme id (the server declines
    /// schemes without the interactive capability before keeping any
    /// state).
    pub fn scheme(mut self, scheme: SchemeId) -> InteractiveOptions {
        self.scheme = scheme;
        self
    }
}

/// `interactive(&g, seed)` for the common one-axis case.
impl From<u64> for InteractiveOptions {
    fn from(seed: u64) -> InteractiveOptions {
        InteractiveOptions::new().seed(seed)
    }
}

/// Options of [`ClusterClient::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    pub(crate) samples: u64,
    pub(crate) seed: u64,
}

impl AuditOptions {
    /// 64 sampled records, seed 0.
    pub fn new() -> AuditOptions {
        AuditOptions {
            samples: 64,
            seed: 0,
        }
    }

    /// Records the sweep samples (without replacement).
    pub fn samples(mut self, samples: u64) -> AuditOptions {
        self.samples = samples;
        self
    }

    /// Sampling seed — the same seed re-audits the same records.
    pub fn seed(mut self, seed: u64) -> AuditOptions {
        self.seed = seed;
        self
    }
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions::new()
    }
}

/// Requests a pipelined connection holds in flight at once
/// ([`Client::pipeline`]): a server delegating graph components to a
/// peer, and a [`ClusterClient`] sweeping a batch across its ring.
/// Bounds the bodies buffered on either side of the wire while still
/// pipelining enough to hide the round trip.
pub(crate) const DELEGATE_WINDOW: usize = 64;

/// One TCP connection to a `dpc serve` node: frames out, frames back.
/// The operations live on [`ClusterClient`], which holds one of these
/// per node it has dialed.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    in_flight: u64,
    peer: SocketAddr,
}

impl Client {
    /// Connects to a running `dpc serve`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            in_flight: 0,
            peer,
        })
    }

    /// Connects, retrying refused/failed dials for up to `wait`
    /// (polling every 25 ms, with the final sleep clipped to the
    /// remaining budget so the deadline is honored exactly rather
    /// than overshot by up to a full poll interval). Made for racing
    /// a server that is still booting — `dpc query --wait-ms` and CI
    /// smoke steps use this instead of shell sleep loops. The last
    /// dial error is returned when the deadline passes.
    pub fn connect_with_retry<A: ToSocketAddrs + Copy>(
        addr: A,
        wait: Duration,
    ) -> io::Result<Client> {
        let deadline = Instant::now() + wait;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => match retry_sleep(Instant::now(), deadline) {
                    Some(pause) => std::thread::sleep(pause),
                    None => return Err(e),
                },
            }
        }
    }

    /// The address this connection reached.
    pub(crate) fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Sends a request without waiting (pipelining). Pair with
    /// [`Client::recv`].
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        self.send_body(&req.encode())
    }

    /// Sends a pre-encoded frame body (see the `wire::encode_*_request`
    /// helpers) without waiting. Pair with [`Client::recv`].
    pub fn send_body(&mut self, body: &[u8]) -> Result<(), WireError> {
        wire::write_frame(&mut self.writer, body)?;
        self.writer.flush()?;
        self.in_flight += 1;
        Ok(())
    }

    /// Receives the next pipelined response.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        let body = wire::read_frame(&mut self.reader)?.ok_or_else(|| {
            WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Response::decode(&body)
    }

    /// One request, one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()
    }

    /// One pre-encoded request body, one response.
    pub(crate) fn call_body(&mut self, body: &[u8]) -> Result<Response, WireError> {
        self.send_body(body)?;
        self.recv()
    }

    /// Requests sent whose responses have not been received yet.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Pipelines `(index, body)` requests with at most
    /// [`DELEGATE_WINDOW`] in flight, handing each response to
    /// `on_response` with its index, in send order. Returns the
    /// indices left unanswered when the connection broke — the request
    /// whose send or receive failed and every one after it — so the
    /// caller can retry them elsewhere; empty on a clean run. A broken
    /// connection has lost its stream order: drop it.
    pub(crate) fn pipeline<'a>(
        &mut self,
        requests: impl IntoIterator<Item = (usize, &'a [u8])>,
        mut on_response: impl FnMut(usize, Response),
    ) -> Vec<usize> {
        let mut queue = requests.into_iter();
        let mut pending: VecDeque<usize> = VecDeque::new();
        'broken: loop {
            while pending.len() < DELEGATE_WINDOW {
                let Some((i, body)) = queue.next() else { break };
                pending.push_back(i);
                if self.send_body(body).is_err() {
                    break 'broken;
                }
            }
            let Some(&i) = pending.front() else {
                return Vec::new();
            };
            let Ok(resp) = self.recv() else {
                break 'broken;
            };
            pending.pop_front();
            on_response(i, resp);
        }
        pending.into_iter().chain(queue.map(|(i, _)| i)).collect()
    }
}

/// Poll interval of [`Client::connect_with_retry`].
const RETRY_POLL: Duration = Duration::from_millis(25);

/// How long the retry loop may sleep after a failed dial at `now`:
/// the 25 ms poll interval, clipped to the time left before
/// `deadline`. `None` means the deadline has passed and the loop must
/// return the dial error instead of sleeping — the caller never
/// oversleeps its `--wait-ms` budget by a partial poll.
fn retry_sleep(now: Instant, deadline: Instant) -> Option<Duration> {
    if now >= deadline {
        return None;
    }
    Some((deadline - now).min(RETRY_POLL))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_sleep_clips_to_the_remaining_budget() {
        let now = Instant::now();
        let deadline = now + Duration::from_millis(7);
        assert_eq!(retry_sleep(now, deadline), Some(Duration::from_millis(7)));
        let deadline = now + Duration::from_secs(10);
        assert_eq!(retry_sleep(now, deadline), Some(RETRY_POLL));
    }

    #[test]
    fn retry_sleep_refuses_past_deadlines() {
        let now = Instant::now();
        assert_eq!(retry_sleep(now, now), None);
        assert_eq!(retry_sleep(now + Duration::from_millis(1), now), None);
    }

    #[test]
    fn connect_with_retry_honors_sub_poll_deadlines() {
        // a port with (almost certainly) no listener: bind-and-drop
        // reserves one the OS will refuse connections to
        let addr = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap()
        };
        let wait = Duration::from_millis(40);
        let started = Instant::now();
        let err = Client::connect_with_retry(addr, wait);
        let took = started.elapsed();
        assert!(err.is_err(), "no listener, the dial must fail");
        // the pre-fix loop slept a flat 25 ms past the deadline and
        // could overshoot to ~65 ms; the clipped loop stays within
        // one dial + scheduling slop of the budget
        assert!(
            took < wait + Duration::from_millis(15),
            "overshot --wait-ms: {took:?} for a {wait:?} budget"
        );
        assert!(took >= wait, "returned before the deadline: {took:?}");
    }
}
