//! Load generation: a closed loop (each connection waits for its answer
//! before sending again) and an open loop (one generator thread sends
//! on a seeded Poisson schedule, one reader thread collects answers),
//! both against a real server over loopback. Every answer is checked.

use crate::server::{connect, read_frame, send_frame};
use dpc_graph::Graph;
use dpc_service::wire::{self, Response};
use dpc_service::SchemeId;
use epoll::{Epoll, Events, EPOLLIN, EPOLLRDHUP};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One certify request and the `cached` flag its answer must carry.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub graph: &'a Graph,
    pub cached: bool,
}

/// One request as the client saw it. `due` is when it was scheduled
/// (the start, in a closed loop); `start..encoded` is the client
/// encode, `encoded..received` the round trip, `received..decoded` the
/// client decode and answer check.
pub struct Exchange {
    pub id: usize,
    pub due: Instant,
    pub start: Instant,
    pub encoded: Instant,
    pub received: Instant,
    pub decoded: Instant,
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// The answer's largest certificate in bits, or why it was wrong.
    pub verdict: Result<usize, String>,
    /// The response body, kept for the byte-exact re-prove check.
    pub body: Option<Vec<u8>>,
}

impl Exchange {
    /// Latency from the due time, in milliseconds; a failed request
    /// misses every limit.
    pub fn latency_ms(&self) -> f64 {
        match self.verdict {
            Ok(_) => ms(self.decoded - self.due),
            Err(_) => f64::INFINITY,
        }
    }

    fn failed(id: usize, due: Instant, start: Instant, why: String) -> Exchange {
        let now = Instant::now();
        Exchange {
            id,
            due,
            start,
            encoded: start,
            received: now,
            decoded: now,
            request_bytes: 0,
            response_bytes: 0,
            verdict: Err(why),
            body: None,
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks one answer: a Certified response with the expected `cached`
/// flag whose verdict accepts at every node.
pub fn check(body: &[u8], want_cached: bool) -> Result<usize, String> {
    match Response::decode(body) {
        Ok(Response::Certified {
            cached, outcome, ..
        }) => {
            if cached != want_cached {
                Err(format!("cached = {cached}, expected {want_cached}"))
            } else if !outcome.all_accept() {
                Err(format!("{} nodes rejected", outcome.reject_count()))
            } else {
                Ok(outcome.max_cert_bits)
            }
        }
        Ok(Response::Error(msg)) => Err(format!("Error response: {msg}")),
        Ok(other) => Err(format!("wrong variant: {other:?}")),
        Err(e) => Err(format!("undecodable response: {e}")),
    }
}

fn encode(job: &Job) -> Vec<u8> {
    wire::encode_certify_request(job.graph, false, SchemeId::PLANARITY)
}

/// Closed loop over `conns` connections, one request in flight on each,
/// until `window` ends or `jobs` runs out. Request ids are handed out in
/// order across connections; `keep` names the ids whose bodies are
/// retained.
pub fn closed_loop<'a>(
    addr: SocketAddr,
    conns: usize,
    window: Duration,
    jobs: &(dyn Fn(usize) -> Option<Job<'a>> + Sync),
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Result<Vec<Exchange>, String> {
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + window;
    let per_conn = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| -> Result<Vec<Exchange>, String> {
                    let mut conn = connect(addr)?;
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs(id) else { break };
                        let x = exchange(&mut conn, id, job, keep(id));
                        let lost = x.response_bytes == 0;
                        done.push(x);
                        if lost {
                            conn = connect(addr)?;
                        }
                    }
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut all: Vec<Exchange> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|x| x.id);
    Ok(all)
}

/// One blocking request/answer exchange.
pub fn exchange(conn: &mut TcpStream, id: usize, job: Job, keep: bool) -> Exchange {
    let start = Instant::now();
    let body = encode(&job);
    let encoded = Instant::now();
    let answer = send_frame(conn, &body).and_then(|()| read_frame(conn));
    let received = Instant::now();
    let resp = match answer {
        Ok(resp) => resp,
        Err(why) => return Exchange::failed(id, start, start, why),
    };
    let verdict = check(&resp, job.cached);
    let decoded = Instant::now();
    Exchange {
        id,
        due: start,
        start,
        encoded,
        received,
        decoded,
        request_bytes: body.len() + 4,
        response_bytes: resp.len() + 4,
        verdict,
        body: keep.then_some(resp),
    }
}

/// One scheduled request of an open loop: `at` is its due time after
/// the loop starts.
pub struct Scheduled<'a> {
    pub job: Job<'a>,
    pub at: Duration,
}

/// What an open loop measured.
pub struct OpenRun {
    pub exchanges: Vec<Exchange>,
    /// Requests still unanswered when the generator sent its last one.
    pub backlog_at_end: usize,
}

struct Pending {
    id: usize,
    due: Instant,
    start: Instant,
    encoded: Instant,
    cached: bool,
    request_bytes: usize,
}

/// Open loop: the calling thread paces `schedule` over two pipelined
/// connections (request `k` goes to connection `k % 2`) while one
/// reader thread multiplexes both with epoll. Responses arrive in
/// request order per connection, so each is matched to the oldest
/// pending request of its connection. Requests unanswered `drain`
/// after the last due time fail.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[Scheduled],
    keep: &(dyn Fn(usize) -> bool + Sync),
    drain: Duration,
) -> Result<OpenRun, String> {
    let readers = [connect(addr)?, connect(addr)?];
    let mut writers = Vec::new();
    for c in &readers {
        writers.push(c.try_clone().map_err(|e| format!("clone socket: {e}"))?);
    }
    let pending: [Mutex<VecDeque<Pending>>; 2] = Default::default();
    let sent = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let generator_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let last_due = start + schedule.last().map_or(Duration::ZERO, |s| s.at);
    let deadline = last_due + drain;
    let (exchanges, backlog_at_end) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            read_answers(
                &readers,
                &pending,
                &sent,
                &answered,
                &generator_done,
                deadline,
                keep,
            )
        });
        let mut failed = Vec::new();
        for (id, item) in schedule.iter().enumerate() {
            let due = start + item.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            let body = encode(&item.job);
            let encoded = Instant::now();
            let c = id % 2;
            pending[c]
                .lock()
                .expect("pending queue")
                .push_back(Pending {
                    id,
                    due,
                    start: t0,
                    encoded,
                    cached: item.job.cached,
                    request_bytes: body.len() + 4,
                });
            sent.fetch_add(1, Ordering::SeqCst);
            if let Err(why) = send_frame(&mut writers[c], &body) {
                // this and every later request fail: the loop stops
                for (rest, item) in schedule.iter().enumerate().skip(id) {
                    failed.push(Exchange::failed(rest, start + item.at, t0, why.clone()));
                }
                break;
            }
        }
        let backlog = sent.load(Ordering::SeqCst) - answered.load(Ordering::SeqCst);
        generator_done.store(true, Ordering::SeqCst);
        let mut all = reader.join().expect("reader thread panicked");
        // a request whose send failed may also have been failed by the
        // reader; keep one record per id
        all.retain(|x| !failed.iter().any(|f| f.id == x.id));
        all.extend(failed);
        (all, backlog)
    });
    let mut exchanges = exchanges;
    exchanges.sort_by_key(|x| x.id);
    Ok(OpenRun {
        exchanges,
        backlog_at_end,
    })
}

fn read_answers(
    conns: &[TcpStream; 2],
    pending: &[Mutex<VecDeque<Pending>>; 2],
    sent: &AtomicUsize,
    answered: &AtomicUsize,
    generator_done: &AtomicBool,
    deadline: Instant,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Exchange> {
    let mut done = Vec::new();
    let fail_pending = |c: usize, why: &str, done: &mut Vec<Exchange>| {
        for p in pending[c].lock().expect("pending queue").drain(..) {
            done.push(Exchange::failed(p.id, p.due, p.start, why.to_string()));
        }
    };
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(e) => {
            for c in 0..2 {
                fail_pending(c, &format!("epoll: {e}"), &mut done);
            }
            return done;
        }
    };
    let mut open = [true; 2];
    for (c, conn) in conns.iter().enumerate() {
        if let Err(e) = epoll.add(conn, c as u64, EPOLLIN | EPOLLRDHUP) {
            open[c] = false;
            fail_pending(c, &format!("epoll add: {e}"), &mut done);
        }
    }
    let mut events = Events::with_capacity(4);
    let mut bufs = [Vec::new(), Vec::new()];
    let mut chunk = vec![0u8; 256 << 10];
    loop {
        let all_answered = answered.load(Ordering::SeqCst) == sent.load(Ordering::SeqCst);
        if generator_done.load(Ordering::SeqCst) && all_answered {
            break;
        }
        if Instant::now() > deadline || !open.iter().any(|&o| o) {
            for c in 0..2 {
                fail_pending(c, "no answer before the drain deadline", &mut done);
            }
            break;
        }
        if epoll
            .wait(&mut events, Some(Duration::from_millis(20)))
            .is_err()
        {
            continue;
        }
        for ev in events.iter() {
            let c = ev.token as usize;
            if !open[c] {
                continue;
            }
            let n = match (&conns[c]).read(&mut chunk) {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    let _ = epoll.delete(&conns[c]);
                    fail_pending(c, "connection lost", &mut done);
                    continue;
                }
                Ok(n) => n,
            };
            let received = Instant::now();
            let buf = &mut bufs[c];
            buf.extend_from_slice(&chunk[..n]);
            let mut off = 0;
            while buf.len() - off >= 4 {
                let len =
                    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
                if buf.len() - off - 4 < len {
                    break;
                }
                let body = &buf[off + 4..off + 4 + len];
                off += 4 + len;
                let Some(p) = pending[c].lock().expect("pending queue").pop_front() else {
                    done.push(Exchange::failed(
                        usize::MAX,
                        received,
                        received,
                        "an answer nobody asked for".to_string(),
                    ));
                    continue;
                };
                let verdict = check(body, p.cached);
                let decoded = Instant::now();
                done.push(Exchange {
                    id: p.id,
                    due: p.due,
                    start: p.start,
                    encoded: p.encoded,
                    received,
                    decoded,
                    request_bytes: p.request_bytes,
                    response_bytes: len + 4,
                    verdict,
                    body: keep(p.id).then(|| body.to_vec()),
                });
                answered.fetch_add(1, Ordering::SeqCst);
            }
            buf.drain(..off);
        }
    }
    done
}
