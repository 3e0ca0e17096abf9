//! The readiness-driven event-loop front end (`dpc serve
//! --event-loop`, the default where epoll exists).
//!
//! ```text
//!                      ┌───────────────── reactor loop ─────────────────┐
//!   TCP ──▶ listener ──▶ accept → register                              │
//!                      │    epoll_wait ──▶ per-connection state machine │
//!                      │      read ▶ decode ▶ try_push ──────────┐      │
//!                      │      ▲                                  ▼      │
//!                      │      │ eventfd wake            bounded queue   │
//!                      │  completion inbox ◀── reply ──── worker pool   │
//!                      │      │                          (threads,      │
//!                      │      ▼                           BatchRunner)  │
//!                      │  reorder by seq ▶ batched writev flush ──▶ TCP │
//!                      └────────────────────────────────────────────────┘
//! ```
//!
//! One loop (or a small `--event-loops N` set, loop 0 owning the
//! listener and dealing new connections round-robin) multiplexes
//! every connection over a single [`epoll::Epoll`] set. Proving work
//! never runs on the loop: decoded requests go to the same bounded
//! [`JobQueue`](crate::server) the threaded front end uses, and
//! workers hand finished `(conn, seq, body)` triples to the loop's
//! [`Inbox`], whose eventfd waker is registered in the same epoll
//! set — the wakeup path from the worker pool is just another
//! readable fd.
//!
//! Per connection the loop owns only the I/O around the shared
//! [`ConnCore`]: it drains the socket into `rbuf` until `EAGAIN`
//! (bounded per wakeup so one firehose cannot starve its neighbors),
//! lets the core peel every whole frame (pipelining: one read can
//! yield many requests), files completions in a [`Reorder`], and
//! coalesces everything ready into one vectored (`writev`-style)
//! flush per wakeup; a short write arms `EPOLLOUT` and the flush
//! resumes when the socket drains.
//!
//! Back-pressure: when the job queue is full the decoded job parks in
//! the connection's `stalled` slot and the loop drops read interest
//! for that connection — bytes pile up in the kernel socket buffer
//! and TCP flow control pushes back on the client, mirroring the
//! blocking `push` of the threaded front end. Idle connections
//! (no bytes, no responses owed) are reaped after
//! [`ServeConfig::idle_timeout`](crate::ServeConfig).

use crate::conn::{ConnCore, Done, Reorder, Step, READ_CHUNK};
use crate::metrics::{Metrics, Trace};
use crate::server::{duration_us, trace_written, Job, ReplyTo, Shared};
use crate::wire;
use epoll::{Epoll, Events, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The per-wakeup read bound: one connection may consume at most
/// `READ_BURST` chunks per readiness event; the level-triggered set
/// re-reports it immediately if more is pending.
const READ_BURST: usize = 4;

/// Max frames folded into one vectored flush call (two slices each:
/// header and body).
const MAX_FLUSH_FRAMES: usize = 64;

/// Events drained per `epoll_wait`.
const WAIT_BATCH: usize = 1024;

/// The worker → reactor handoff: completions (and, between loops,
/// freshly accepted sockets) guarded by a mutex, plus the eventfd
/// that makes the owning loop's `epoll_wait` return.
pub(crate) struct Inbox {
    waker: Waker,
    /// Finished responses, tagged with their connection's token.
    completions: Mutex<Vec<(u64, Done)>>,
    incoming: Mutex<Vec<TcpStream>>,
    /// Counts eventfd wakeups; Arc'd (not reached through `Shared`)
    /// because jobs hold the inbox while `Shared` holds the queue.
    metrics: Arc<Metrics>,
}

impl Inbox {
    fn new(metrics: Arc<Metrics>) -> io::Result<Inbox> {
        Ok(Inbox {
            waker: Waker::new()?,
            completions: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            metrics,
        })
    }

    /// Queues a finished response and wakes the loop (only the first
    /// completion after a drain pays the eventfd write — the waker
    /// stays readable until drained, so later sends just append).
    pub(crate) fn send(&self, conn: u64, done: Done) {
        let mut q = self.completions.lock().expect("inbox poisoned");
        let was_empty = q.is_empty();
        q.push((conn, done));
        drop(q);
        if was_empty {
            self.metrics.inbox_wakeups.fetch_add(1, Ordering::Relaxed);
            let _ = self.waker.wake();
        }
    }

    /// Makes the owning loop spin one iteration (shutdown nudge).
    pub(crate) fn wake(&self) {
        let _ = self.waker.wake();
    }

    /// Hands an accepted socket to the owning loop (cross-loop deal
    /// from the listener-owning loop 0).
    fn hand_off(&self, stream: TcpStream) {
        self.incoming.lock().expect("inbox poisoned").push(stream);
        let _ = self.waker.wake();
    }
}

/// What [`spawn`] hands back: one join handle and one inbox per loop.
pub(crate) type ReactorHandles = (Vec<JoinHandle<()>>, Vec<Arc<Inbox>>);

/// Starts `cfg.event_loops` reactor threads sharing one nonblocking
/// listener (owned by loop 0). Fails — before any thread spawns — on
/// targets without epoll, which the caller treats as "use the
/// threaded front end".
pub(crate) fn spawn(shared: &Arc<Shared>, listener: TcpListener) -> io::Result<ReactorHandles> {
    listener.set_nonblocking(true)?;
    let n = shared.cfg.event_loops.max(1);
    let mut epolls = Vec::with_capacity(n);
    let mut inboxes = Vec::with_capacity(n);
    for _ in 0..n {
        let epoll = Epoll::new()?;
        let inbox = Arc::new(Inbox::new(Arc::clone(&shared.metrics))?);
        inbox.waker.register(&epoll, TOKEN_WAKER)?;
        epolls.push(epoll);
        inboxes.push(inbox);
    }
    epolls[0].add(&listener, TOKEN_LISTENER, EPOLLIN)?;
    let mut listener = Some(listener);
    let threads = epolls
        .into_iter()
        .enumerate()
        .map(|(idx, epoll)| {
            let lp = EventLoop {
                idx,
                epoll,
                listener: listener.take(),
                inboxes: inboxes.clone(),
                shared: Arc::clone(shared),
                conns: HashMap::new(),
                stalled: Vec::new(),
                next_token: FIRST_CONN_TOKEN,
                dealt: 0,
            };
            std::thread::Builder::new()
                .name(format!("dpc-reactor-{idx}"))
                .spawn(move || lp.run())
                .expect("spawn reactor loop")
        })
        .collect();
    Ok((threads, inboxes))
}

/// A frame in the write queue, carrying what its trace still needs:
/// when it became write-eligible (write-flush starts there) and the
/// reorder-wait it already paid. The length header sits beside the
/// body, and both leave as their own `IoSlice`, so queueing a
/// response never copies its body.
struct OutFrame {
    header: [u8; 4],
    body: Vec<u8>,
    queued_at: Instant,
    reorder_us: u64,
    trace: Option<Trace>,
}

struct Conn {
    stream: TcpStream,
    /// The connection protocol: framing, sessions, sequence numbers.
    core: ConnCore,
    /// Unparsed inbound bytes (`roff..` is live).
    rbuf: Vec<u8>,
    roff: usize,
    /// Finished responses waiting for their turn in sequence order.
    order: Reorder<Done>,
    /// Encoded frames ready to write (front may be partially sent).
    wqueue: VecDeque<OutFrame>,
    woff: usize,
    /// Decoded job waiting for queue space (connection stops reading
    /// while set — kernel-buffer back-pressure).
    stalled: Option<Job>,
    /// Requests decoded whose responses are not yet in `wqueue`.
    awaiting: u64,
    /// Read side saw EOF: no new requests, drain what is owed.
    peer_closed: bool,
    /// Fatal framing error: answer what we can, then drop.
    closing: bool,
    /// Interest bits currently registered in the epoll set.
    interest: u32,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            core: ConnCore::new(),
            rbuf: Vec::new(),
            roff: 0,
            order: Reorder::default(),
            wqueue: VecDeque::new(),
            woff: 0,
            stalled: None,
            awaiting: 0,
            peer_closed: false,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
            last_activity: Instant::now(),
        }
    }

    /// Files one finished response and promotes every response that
    /// is now in sequence order into the write queue. Promotion is
    /// where a response becomes write-eligible, so the reorder-wait
    /// stage closes here.
    fn deliver(&mut self, c: Done, metrics: &Metrics) {
        self.last_activity = Instant::now();
        self.order.insert(c.seq, c);
        while let Some(c) = self.order.pop() {
            debug_assert!(c.body.len() <= wire::MAX_FRAME_BYTES);
            let now = Instant::now();
            let reorder = now.saturating_duration_since(c.finished);
            metrics.stages.reorder_wait.record(reorder);
            self.wqueue.push_back(OutFrame {
                header: (c.body.len() as u32).to_le_bytes(),
                body: c.body,
                queued_at: now,
                reorder_us: duration_us(reorder),
                trace: c.trace,
            });
            self.awaiting -= 1;
        }
    }

    /// One vectored flush: every queued frame (up to
    /// [`MAX_FLUSH_FRAMES`] per call) rides a single `writev`-style
    /// write. Returns without error on `EAGAIN`; the caller arms
    /// `EPOLLOUT` if frames remain. A frame fully handed to the
    /// kernel closes its write-flush stage (and its whole trace).
    fn flush(&mut self, shared: &Shared) -> io::Result<()> {
        while !self.wqueue.is_empty() {
            let frames = self.wqueue.len().min(MAX_FLUSH_FRAMES);
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * frames);
            for (i, f) in self.wqueue.iter().take(frames).enumerate() {
                // `woff` counts into the front frame, header first
                let sent = if i == 0 { self.woff } else { 0 };
                if sent < f.header.len() {
                    slices.push(IoSlice::new(&f.header[sent..]));
                }
                slices.push(IoSlice::new(&f.body[sent.saturating_sub(f.header.len())..]));
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    self.last_activity = Instant::now();
                    while n > 0 {
                        let front = self.wqueue.front().expect("bytes imply a frame");
                        let left = front.header.len() + front.body.len() - self.woff;
                        if n >= left {
                            let fr = self.wqueue.pop_front().expect("bytes imply a frame");
                            let write_flush = fr.queued_at.elapsed();
                            shared.metrics.stages.write_flush.record(write_flush);
                            if let Some(trace) = fr.trace {
                                trace_written(
                                    shared,
                                    &trace,
                                    fr.reorder_us,
                                    duration_us(write_flush),
                                );
                            }
                            self.woff = 0;
                            n -= left;
                        } else {
                            self.woff += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Everything owed has been written and no more can arrive.
    fn drained(&self) -> bool {
        (self.peer_closed || self.closing)
            && self.awaiting == 0
            && self.wqueue.is_empty()
            && self.stalled.is_none()
    }

    /// The interest bits this connection's state wants.
    fn desired_interest(&self) -> u32 {
        let mut want = EPOLLRDHUP;
        if !self.peer_closed && !self.closing && self.stalled.is_none() {
            want |= EPOLLIN;
        }
        if !self.wqueue.is_empty() {
            want |= EPOLLOUT;
        }
        want
    }
}

struct EventLoop {
    idx: usize,
    epoll: Epoll,
    /// Loop 0 owns the listener; the others accept nothing.
    listener: Option<TcpListener>,
    /// Every loop's inbox; `inboxes[idx]` is ours.
    inboxes: Vec<Arc<Inbox>>,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    /// Tokens of connections holding a stalled (queue-full) job.
    stalled: Vec<u64>,
    next_token: u64,
    /// Round-robin position for dealing accepted sockets to loops.
    dealt: u64,
}

impl EventLoop {
    fn run(mut self) {
        let idle = self.shared.cfg.idle_timeout;
        // the wait timeout bounds three latencies: shutdown response,
        // stalled-job retry when *other* loops freed queue space, and
        // idle-scan resolution
        let tick = if idle.is_zero() {
            Duration::from_millis(500)
        } else {
            (idle / 4).clamp(Duration::from_millis(10), Duration::from_millis(500))
        };
        let mut events = Events::with_capacity(WAIT_BATCH);
        let mut last_scan = Instant::now();
        // connections touched this wakeup, flushed together at the end
        let mut dirty: Vec<u64> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.drain_for_shutdown();
                return;
            }
            if self.epoll.wait(&mut events, Some(tick)).is_err() {
                // a broken epoll fd cannot make progress; re-check
                // shutdown at tick cadence instead of spinning
                std::thread::sleep(tick);
                continue;
            }
            dirty.clear();
            let mut accept_ready = false;
            let mut wake_ready = false;
            for ev in events.iter() {
                match ev.token {
                    TOKEN_WAKER => wake_ready = true,
                    TOKEN_LISTENER => accept_ready = true,
                    token => {
                        if ev.readable() && !self.on_readable(token) {
                            self.close(token);
                            continue;
                        }
                        if self.conns.contains_key(&token) {
                            dirty.push(token);
                        }
                    }
                }
            }
            if wake_ready {
                self.inboxes[self.idx].waker.drain();
            }
            if accept_ready {
                self.on_accept();
            }
            // drain the inbox every pass (not only on a waker event:
            // a completion racing the drain just means one spurious
            // extra wakeup later, never a lost response)
            self.adopt_incoming();
            self.route_completions(&mut dirty);
            self.retry_stalled(&mut dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for token in dirty.drain(..) {
                self.finalize(token);
            }
            if last_scan.elapsed() >= tick {
                last_scan = Instant::now();
                self.scan_idle(idle);
            }
        }
    }

    /// Accepts until `EAGAIN`, dealing sockets round-robin across
    /// loops.
    fn on_accept(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let m = &self.shared.metrics;
                    m.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    m.conns_open.fetch_add(1, Ordering::Relaxed);
                    let target = (self.dealt % self.inboxes.len() as u64) as usize;
                    self.dealt += 1;
                    if target == self.idx {
                        self.register_conn(stream);
                    } else {
                        self.inboxes[target].hand_off(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.shared
                        .metrics
                        .accept_eagain
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // transient accept failure (e.g. fd exhaustion):
                    // yield this burst, the level-triggered listener
                    // re-reports pending connections next wait
                    return;
                }
            }
        }
    }

    /// Adopts sockets dealt to this loop by the accepting loop.
    fn adopt_incoming(&mut self) {
        let incoming = std::mem::take(
            &mut *self.inboxes[self.idx]
                .incoming
                .lock()
                .expect("inbox poisoned"),
        );
        for stream in incoming {
            self.register_conn(stream);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if stream.set_nonblocking(true).is_err()
            || self
                .epoll
                .add(&stream, token, EPOLLIN | EPOLLRDHUP)
                .is_err()
        {
            self.shared
                .metrics
                .conns_open
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.conns.insert(token, Conn::new(stream));
    }

    /// Routes finished responses to their connections' reorder maps.
    fn route_completions(&mut self, dirty: &mut Vec<u64>) {
        let completions = std::mem::take(
            &mut *self.inboxes[self.idx]
                .completions
                .lock()
                .expect("inbox poisoned"),
        );
        for (token, done) in completions {
            // a connection that died with requests in flight simply
            // drops its late completions here
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.deliver(done, &self.shared.metrics);
                dirty.push(token);
            }
        }
    }

    /// Reads until `EAGAIN` (bounded), then decodes and dispatches
    /// every complete frame. `false` means the connection broke.
    fn on_readable(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        if conn.peer_closed || conn.closing || conn.stalled.is_some() {
            return true;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut bursts = 0;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    bursts += 1;
                    if bursts >= READ_BURST {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.decode_frames(token);
        true
    }

    /// Runs every complete frame in the read buffer through the
    /// connection core, stopping at a partial frame, a stall, or a
    /// framing error. This loop *is* request pipelining — nothing
    /// waits for a response before the next frame is decoded.
    fn decode_frames(&mut self, token: u64) {
        let shared = &self.shared;
        let inbox = &self.inboxes[self.idx];
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.stalled.is_none() && !conn.closing {
            let reply = || ReplyTo::Reactor {
                conn: token,
                inbox: Arc::clone(inbox),
            };
            let Some((used, step)) = conn.core.step(&conn.rbuf[conn.roff..], shared, reply) else {
                break;
            };
            conn.roff += used;
            conn.awaiting += 1;
            match step {
                Step::Job(job) => {
                    if let Err(job) = shared.queue.try_push(job) {
                        // queue full: park the job, stop reading; the
                        // retry runs on completion wakeups and ticks
                        let m = &shared.metrics;
                        m.queue_full_stalls.fetch_add(1, Ordering::Relaxed);
                        m.read_interest_drops.fetch_add(1, Ordering::Relaxed);
                        conn.stalled = Some(job);
                        self.stalled.push(token);
                    }
                }
                Step::Reply(done) => conn.deliver(done, &shared.metrics),
                Step::Close(done) => {
                    conn.deliver(done, &shared.metrics);
                    conn.closing = true;
                }
            }
        }
        if conn.roff > 0 {
            conn.rbuf.drain(..conn.roff);
            conn.roff = 0;
        }
    }

    /// Re-offers stalled jobs to the queue; on success the connection
    /// resumes decoding right where it stopped.
    fn retry_stalled(&mut self, dirty: &mut Vec<u64>) {
        if self.stalled.is_empty() {
            return;
        }
        let candidates = std::mem::take(&mut self.stalled);
        for token in candidates {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Some(job) = conn.stalled.take() else {
                continue;
            };
            match self.shared.queue.try_push(job) {
                Ok(()) => {
                    self.shared
                        .metrics
                        .read_interest_restores
                        .fetch_add(1, Ordering::Relaxed);
                    self.decode_frames(token);
                    dirty.push(token);
                }
                Err(job) => {
                    conn.stalled = Some(job);
                    self.stalled.push(token);
                }
            }
        }
    }

    /// End-of-wakeup settling: one batched flush, interest re-arm,
    /// and teardown once a finished connection has drained.
    fn finalize(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.flush(&self.shared).is_err() {
            self.close(token);
            return;
        }
        if conn.drained() {
            self.close(token);
            return;
        }
        let want = conn.desired_interest();
        if want != conn.interest && self.epoll.modify(&conn.stream, token, want).is_ok() {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.interest = want;
            }
        }
    }

    /// Reaps connections idle past the timeout. A connection with a
    /// response still owed (in-flight prove or queued write) is
    /// working, not idle — only truly quiet sockets are reaped, so a
    /// prove outlasting the timeout cannot kill its own client.
    fn scan_idle(&mut self, idle: Duration) {
        if idle.is_zero() {
            return;
        }
        let now = Instant::now();
        let reap: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.awaiting == 0
                    && c.stalled.is_none()
                    && c.wqueue.is_empty()
                    && now.duration_since(c.last_activity) >= idle
            })
            .map(|(&t, _)| t)
            .collect();
        for token in reap {
            self.shared
                .metrics
                .idle_timeouts
                .fetch_add(1, Ordering::Relaxed);
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(&conn.stream);
            conn.core.close(&self.shared.metrics);
            self.shared
                .metrics
                .conns_open
                .fetch_sub(1, Ordering::Relaxed);
        }
        self.stalled.retain(|&t| t != token);
    }

    /// Best-effort final delivery at shutdown: responses already
    /// finished by workers get one last routed flush before the fds
    /// drop (mirrors the threaded writer draining its channel).
    fn drain_for_shutdown(&mut self) {
        let mut dirty = Vec::new();
        self.route_completions(&mut dirty);
        for conn in self.conns.values_mut() {
            let _ = conn.flush(&self.shared);
        }
    }
}
