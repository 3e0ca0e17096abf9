//! `svcbench`: the end-to-end and per-layer benchmark of `dpc serve`.
//!
//! ```text
//! svcbench --workload <cold-prove|warm-hit|small-open> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each run starts the release `dpc` binary as its own process with a
//! fresh `--store-dir`, drives one workload against it over loopback,
//! checks every answer, and prints every metric by name and unit; the
//! last line of standard output is one JSON object. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` runs the same workload and seed
//! again with the span recorder and prints the per-layer metrics.
//! `--smoke` shrinks every phase to a short correctness pass. See
//! README.md beside this package for the workloads and the layer map.

mod alloc;
mod inputs;
mod load;
mod server;
mod trace;

use dpc_core::harness::certify_pls;
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_graph::Graph;
use dpc_service::metrics::StatsSnapshot;
use dpc_service::wire;
use inputs::{ColdFamily, Rng, SmallSource};
use load::{closed_loop, ms, open_loop, Exchange, Job, OpenRun, Scheduled};
use server::Server;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Recorder, ReplayItem};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Connections every workload uses (the load generator is one process
/// with at most two load threads).
const CONNS: usize = 2;
/// Server set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Graphs of the warm-hit hot set (the first graphs of the cold-prove
/// family: four grids, four triangulations, ~15 MB of certificates).
const WARM_HOT: usize = 8;
/// Graphs of the small-open hot set.
const SMALL_HOT: usize = 256;
/// Share of small-open requests that are fresh graphs (writes).
const FRESH_SHARE: f64 = 0.1;
/// The first cold-prove requests: their bodies are kept for the
/// byte-exact check, and the traced run replays their layers.
const COLD_FIXED: usize = 16;
/// The small-open latency limit on p99, in milliseconds. Scheduler
/// stalls of 5–50 ms are common on a shared 2-CPU machine, so a 5 ms
/// limit measures stalls; at 50 ms the limit is crossed where queueing
/// sets in, near the server's saturation point.
const LIMIT_MS: f64 = 50.0;
/// The small-open reference rate (requests per second) at which its
/// latency is reported.
const REF_RATE: f64 = 1000.0;
/// The small-open rate ladder: `LADDER_BASE · LADDER_STEP^k` for
/// `k` in `0..=LADDER_TOP` (250 rps to ~64k rps, 5% apart).
const LADDER_BASE: f64 = 250.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_TOP: usize = 113;
/// Seconds of one ladder step; the ladder gets half of a run's window.
const PROBE_SECS: f64 = 0.5;
/// Rungs the search leaps while it has not yet bracketed the capacity
/// (24 rungs: ×3.2).
const LEAP: usize = 24;
/// Request ids of set-up requests in spans, apart from window ids.
const SETUP_REQ: u64 = 1 << 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    server: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        smoke: false,
        server: target.join("release").join("dpc"),
        work: target.join("svcbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--server" => args.server = PathBuf::from(&value),
            "--work" => args.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["cold-prove", "warm-hit", "small-open"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be cold-prove, warm-hit or small-open (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new(&args);
    let outcome = std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("{}: {e}", args.work.display()))
        .and_then(|()| match args.workload.as_str() {
            "cold-prove" => cold_prove(&args, &mut report),
            "warm-hit" => warm_hit(&args, &mut report),
            _ => small_open(&args, &mut report),
        });
    if let Err(e) = outcome {
        eprintln!("svcbench: {e}");
        std::process::exit(1);
    }
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

struct Report {
    header: String,
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn new(args: &Args) -> Report {
        Report {
            header: format!(
                "svcbench workload={} seed={} seconds={} trace={}{}",
                args.workload,
                args.seed,
                args.seconds,
                args.trace as u8,
                if args.smoke { " smoke" } else { "" }
            ),
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.noted(name, value, unit, String::new());
    }

    fn noted(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Counts a batch of exchanges as attempted and their wrong answers
    /// as failed.
    fn count(&mut self, what: &str, exchanges: &[Exchange]) {
        self.attempted += exchanges.len();
        for x in exchanges {
            if let Err(why) = &x.verdict {
                self.fail(format!("{what} request {}: {why}", x.id));
            }
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn print(&self) {
        println!("{}", self.header);
        for m in &self.metrics {
            println!("{:<44} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        let failed = self.failures.len().min(self.attempted.max(1));
        println!(
            "{:<44} {:>14.4} {:<6} ({failed} of {} requests)",
            "failed_share",
            failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted
        );
        for f in self.failures.iter().take(10) {
            println!("FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            metrics.join(", ")
        );
    }
}

/// Linear-interpolated quantile of unsorted values (`q` in `0..=1`).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if !v[hi].is_finite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of a server stage histogram (`buckets[i]` counts
/// observations in `[2^i, 2^(i+1))` µs, bucket 0 covers `[0, 2)`),
/// interpolated linearly inside the bucket that holds it, as Prometheus'
/// `histogram_quantile` does; the bucket's lower bound alone would move
/// only in factors of two.
fn bucket_median_us(buckets: &[u64]) -> f64 {
    let target = buckets.iter().sum::<u64>() as f64 / 2.0;
    let mut below = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && below + count >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (2u64 << i) as f64;
            return lo + (hi - lo) * (target - below) / count;
        }
        below += count;
    }
    0.0
}

/// The tail: the highest percentile, up to p99, that leaves at least 10
/// of the window's samples beyond it. It is taken in each quarter of the
/// window (in request order) and the median of the four is reported, so
/// one burst of scheduler stalls cannot set a run's tail. Returns the
/// value, the percentile and the count of samples beyond it.
fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    let rank = if n > 10 {
        (n - 10).min((0.99 * n as f64).ceil() as usize)
    } else {
        n
    };
    let q = rank as f64 / n.max(1) as f64;
    if n < 4 {
        return (quantile(values, 1.0), 100.0 * q, n - rank);
    }
    let quarters: Vec<f64> = (0..4)
        .map(|i| {
            let mut part = values[i * n / 4..(i + 1) * n / 4].to_vec();
            part.sort_by(f64::total_cmp);
            part[((q * part.len() as f64).ceil() as usize).clamp(1, part.len()) - 1]
        })
        .collect();
    (median(&quarters), 100.0 * q, n - rank)
}

// ---------------------------------------------------------------------------
// Shared phases.

/// Starts the server (and warms it with `warm`) `setups` times, keeping
/// the last; returns it with each set-up's seconds.
fn start_server(
    args: &Args,
    report: &mut Report,
    setups: usize,
    warm: &dyn Fn(&Server) -> Result<Vec<Exchange>, String>,
) -> Result<(Server, Vec<f64>, Vec<Exchange>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let dir = args.work.join(format!("store-{}-{i}", std::process::id()));
        let t0 = Instant::now();
        let server = Server::start(&args.server, dir)?;
        let warmed = warm(&server)?;
        times.push(t0.elapsed().as_secs_f64());
        report.count("set-up", &warmed);
        // the previous server is stopped here, outside the timed set-up
        kept = Some((server, warmed));
    }
    let (server, warmed) = kept.expect("at least one set-up");
    Ok((server, times, warmed))
}

/// Certifies every graph of a hot set once (each must be a miss).
fn warm_set(server: &Server, hot: &[Graph]) -> Result<Vec<Exchange>, String> {
    closed_loop(
        server.addr,
        CONNS,
        Duration::from_secs(3600),
        &|i| {
            hot.get(i).map(|graph| Job {
                graph,
                cached: false,
            })
        },
        &|_| true,
    )
}

/// One served answer: the graph it was for and the `cached` flag it
/// had to carry.
struct Answer<'g, 'x> {
    graph: &'g Graph,
    cached: bool,
    x: &'x Exchange,
}

impl<'g> Answer<'g, '_> {
    /// The same request for the traced replay; set-up requests get ids
    /// from `SETUP_REQ` up, apart from window ids.
    fn replay(&self, setup: bool) -> ReplayItem<'g> {
        ReplayItem {
            req: self.x.id as u64 + if setup { SETUP_REQ } else { 0 },
            graph: self.graph,
            cached: self.cached,
        }
    }
}

/// The correctness gate after the timed window, which also fixes
/// `cert_bits_max`, the largest certificate over `answers`. The answer
/// carrying it and a seeded sample of the answers whose bodies were
/// kept are re-proved locally with `certify_pls` and
/// `encode_certified_suffix`: the largest certificate must match, and a
/// kept body must match the expected body byte for byte. The server
/// proves the graph it decoded from the wire (canonical edge order), so
/// the local prove runs on the same round trip.
fn gate(report: &mut Report, seed: u64, answers: &[Answer]) -> Result<usize, String> {
    let ok: Vec<&Answer> = answers.iter().filter(|a| a.x.verdict.is_ok()).collect();
    let bits = |a: &Answer| *a.x.verdict.as_ref().expect("answered");
    let largest = *ok
        .iter()
        .max_by_key(|a| bits(a))
        .ok_or("no request was answered")?;
    let kept: Vec<&Answer> = ok.iter().copied().filter(|a| a.x.body.is_some()).collect();
    let mut picks = vec![largest];
    let mut rng = Rng::new(seed, 5);
    for _ in 0..4.min(kept.len()) {
        picks.push(kept[rng.below(kept.len() as u64) as usize]);
    }
    let scheme = PlanarityScheme::new();
    for a in picks {
        let mut bytes = Vec::new();
        wire::encode_graph(&mut bytes, a.graph);
        let graph = wire::decode_graph(&mut &bytes[..])
            .map_err(|e| format!("wire round trip of request {}: {e}", a.x.id))?;
        let local = certify_pls(&scheme, &graph)
            .map_err(|e| format!("local prove of request {}: {e}", a.x.id))?;
        if local.outcome.max_cert_bits != bits(a) {
            report.fail(format!(
                "request {}: served {} certificate bits, a local prove {}",
                a.x.id,
                bits(a),
                local.outcome.max_cert_bits
            ));
        }
        if let Some(body) = &a.x.body {
            let suffix = wire::encode_certified_suffix(&local.outcome, &local.assignment);
            if wire::certified_body_from_suffix(a.cached, &suffix) != *body {
                report.fail(format!(
                    "request {}: served bytes differ from a local prove",
                    a.x.id
                ));
            }
        }
    }
    Ok(bits(largest))
}

/// Checks the server's own cache counters over a phase against the
/// hits and misses the workload implies, and returns the hit ratio.
fn check_hits(
    report: &mut Report,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    hits: usize,
    misses: usize,
) -> f64 {
    let got_hits = after.cache_hits - before.cache_hits;
    let got_misses = after.cache_misses - before.cache_misses;
    if (got_hits, got_misses) != (hits as u64, misses as u64) {
        report.fail(format!(
            "server counted {got_hits} hits / {got_misses} misses, expected {hits} / {misses}"
        ));
    }
    got_hits as f64 / (got_hits + got_misses).max(1) as f64
}

/// Completed requests per second, from the first request's due time to
/// the last answer.
fn throughput(exchanges: &[Exchange]) -> f64 {
    let first = exchanges.iter().map(|x| x.due).min();
    let last = exchanges.iter().map(|x| x.decoded).max();
    let secs = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => return 0.0,
    };
    let completed = exchanges.iter().filter(|x| x.verdict.is_ok()).count();
    completed as f64 / secs.max(1e-9)
}

/// What a workload measured, for the shared metric code.
struct Measured<'a> {
    setup_s: Vec<f64>,
    /// The latency window (closed loop: every request; open loop: the
    /// reference-rate phase).
    window: Vec<Exchange>,
    /// True for the open loop, which alone reports the generator's lag.
    open_loop: bool,
    /// The highest ladder rate that met the limit (untraced open loop).
    capacity_rps: Option<f64>,
    rss_mb: f64,
    /// Server counters around the latency window.
    before: StatsSnapshot,
    after: StatsSnapshot,
    hit_ratio: f64,
    cert_bits_max: usize,
    replay: Vec<ReplayItem<'a>>,
    /// True when the median request is a hit (the residual's path).
    hit_path: bool,
}

fn finish(args: &Args, report: &mut Report, m: Measured) -> Result<(), String> {
    let lat: Vec<f64> = m.window.iter().map(Exchange::latency_ms).collect();
    let p50 = median(&lat);
    if !args.trace {
        let (tail_ms, pct, beyond) = tail(&lat);
        let throughput = throughput(&m.window);
        report.metric("latency_p50_ms", p50, "ms");
        report.noted(
            "latency_tail_ms",
            tail_ms,
            "ms",
            format!(
                "(p{pct:.2} of {} samples, {beyond} beyond; median of 4 quarters)",
                lat.len()
            ),
        );
        report.metric("throughput_rps", throughput, "1/s");
        if let Some(c) = m.capacity_rps {
            report.noted(
                "capacity_rps",
                c,
                "1/s",
                format!("(highest ladder rate with p99 <= {LIMIT_MS} ms, no backlog growth)"),
            );
        }
        report.noted(
            "setup_s",
            median(&m.setup_s),
            "s",
            format!("(median of {} set-ups)", m.setup_s.len()),
        );
        report.metric("rss_peak_mb", m.rss_mb, "MiB");
        report.metric("cert_bits_max", m.cert_bits_max as f64, "bit");
        return Ok(());
    }

    // ---- traced run: client spans, then the server-side replay --------
    let mut rec = Recorder::new();
    let record_start = Instant::now();
    for x in &m.window {
        if x.verdict.is_err() {
            continue;
        }
        let req = x.id as u64;
        for (name, start, end) in [
            ("client.encode", x.start, x.encoded),
            ("client.roundtrip", x.encoded, x.received),
            ("client.decode", x.received, x.decoded),
        ] {
            rec.push(trace::Span {
                name,
                req,
                parent: None,
                start,
                end,
                allocs: alloc::Allocs::default(),
            });
        }
    }
    let record_ms_per_req = ms(record_start.elapsed()) / m.window.len().max(1) as f64;
    let replay_dir = args.work.join(format!("replay-{}", std::process::id()));
    let cert_bits = trace::replay(&mut rec, &m.replay, &replay_dir)?;
    let spans_path = args
        .work
        .join(format!("spans-{}-{}.json", args.workload, args.seed));
    rec.write_json(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let by_name = rec.by_name();
    let self_ms = |name: &str| -> f64 {
        by_name
            .get(name)
            .map(|v| median(&v.iter().map(|s| s.0).collect::<Vec<_>>()))
            .unwrap_or(0.0)
    };
    let allocs = |name: &str, bytes: bool| -> f64 {
        by_name
            .get(name)
            .map(|v| {
                let counts: Vec<f64> = v
                    .iter()
                    .map(|s| if bytes { s.1.bytes } else { s.1.calls } as f64)
                    .collect();
                median(&counts)
            })
            .unwrap_or(0.0)
    };
    const TIMED: [&str; 21] = [
        "client.encode",
        "client.roundtrip",
        "client.decode",
        "graph.is_connected",
        "graph.bfs_spanning_tree",
        "graph.degeneracy",
        "graph.canon.hash_bytes",
        "planar.lr.planarity",
        "planar.tembed.t_embedding",
        "core.tree_base.build_tree_certs",
        "runtime.sim.deliver",
        "service.wire.encode_graph",
        "service.wire.decode_graph",
        "service.cache.lookup",
        "service.cache.insert",
        "service.wire.encode_certified_suffix",
        "service.wire.body_from_suffix",
        "service.wire.response_decode",
        "service.store.put",
        "core.planarity.prove",
        "core.harness.verify",
    ];
    for name in TIMED {
        let metric = match name {
            "core.planarity.prove" | "core.harness.verify" => format!("{name}.self_ms"),
            _ => format!("{name}.ms"),
        };
        report.metric(metric, self_ms(name), "ms");
    }
    for (name, metric) in [
        ("core.planarity.prove", "core.prove"),
        ("core.harness.verify", "core.verify"),
        ("service.wire.decode_graph", "service.wire.decode_graph"),
        (
            "service.wire.body_from_suffix",
            "service.wire.body_from_suffix",
        ),
        (
            "service.wire.response_decode",
            "service.wire.response_decode",
        ),
    ] {
        report.metric(format!("{metric}.allocs"), allocs(name, false), "count");
        report.metric(format!("{metric}.bytes"), allocs(name, true), "B");
    }
    let bits: Vec<f64> = cert_bits.iter().map(|&b| b as f64).collect();
    report.metric("core.cert_bits_total", median(&bits), "bit");
    let sizes = |f: fn(&Exchange) -> usize| -> f64 {
        median(&m.window.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
    };
    report.metric("service.request_bytes", sizes(|x| x.request_bytes), "B");
    report.metric("service.response_bytes", sizes(|x| x.response_bytes), "B");

    // ---- the server's own stage counters over the window --------------
    let stages = m.after.stages.diff(&m.before.stages);
    for (name, h) in [
        ("server.read_decode.p50_us", &stages.read_decode),
        ("server.queue_wait.p50_us", &stages.queue_wait),
        ("server.service.p50_us", &stages.service),
        ("server.reorder_wait.p50_us", &stages.reorder_wait),
        ("server.write_flush.p50_us", &stages.write_flush),
    ] {
        report.metric(name, bucket_median_us(&h.buckets), "us");
    }
    let (a, b) = (&m.after, &m.before);
    let certifies = (a.certify - b.certify) as f64;
    let batches = (a.batches - b.batches) as f64;
    let singles = certifies - (a.batched_certifies - b.batched_certifies) as f64;
    report.metric("server.hit_ratio", m.hit_ratio, "ratio");
    report.noted(
        "server.batch_mean",
        certifies / (batches + singles).max(1.0),
        "count",
        "(certifies per worker batch)".to_string(),
    );
    report.metric("server.proves", (a.proves - b.proves) as f64, "count");
    report.metric("server.errors", (a.errors - b.errors) as f64, "count");

    // ---- residual: the latency no layer on the median path explains ---
    let mut path: f64 = HIT_PATH.iter().map(|&name| self_ms(name)).sum();
    if !m.hit_path {
        path += MISS_PATH.iter().map(|&name| self_ms(name)).sum::<f64>();
    }
    report.noted(
        "e2e.residual_ms",
        p50 - path,
        "ms",
        format!(
            "(traced p50 {p50:.3} ms minus {path:.3} ms of layer self medians on the {} path)",
            if m.hit_path { "hit" } else { "miss" }
        ),
    );
    report.noted(
        "trace.overhead_pct",
        100.0 * record_ms_per_req / p50.max(1e-9),
        "%",
        format!("({} spans in {})", rec.len(), spans_path.display()),
    );
    if m.open_loop {
        let lags: Vec<f64> = m.window.iter().map(|x| ms(x.start - x.due)).collect();
        report.metric("loadgen.lag_p99_ms", quantile(&lags, 0.99), "ms");
    }
    Ok(())
}

/// The layers a cache hit crosses, client to client. The client decode
/// is the same call as `service.wire.response_decode`, counted once.
const HIT_PATH: [&str; 7] = [
    "client.encode",
    "service.wire.decode_graph",
    "service.wire.encode_graph",
    "graph.canon.hash_bytes",
    "service.cache.lookup",
    "service.wire.body_from_suffix",
    "client.decode",
];

/// The layers a miss adds to [`HIT_PATH`]. Connectivity runs twice: the
/// server's own check, then the prover's first step.
const MISS_PATH: [&str; 13] = [
    "graph.is_connected",
    "graph.is_connected",
    "planar.lr.planarity",
    "graph.bfs_spanning_tree",
    "planar.tembed.t_embedding",
    "core.tree_base.build_tree_certs",
    "graph.degeneracy",
    "core.planarity.prove",
    "runtime.sim.deliver",
    "core.harness.verify",
    "service.wire.encode_certified_suffix",
    "service.cache.insert",
    "service.store.put",
];

fn window(args: &Args) -> Duration {
    if args.smoke {
        Duration::from_millis(700)
    } else {
        Duration::from_secs(args.seconds)
    }
}

fn setups(args: &Args) -> usize {
    if args.trace || args.smoke {
        1
    } else {
        SETUPS
    }
}

// ---------------------------------------------------------------------------
// Workloads.

fn cold_prove(args: &Args, report: &mut Report) -> Result<(), String> {
    let family = ColdFamily::new(args.seed);
    // enough distinct graphs for ~1.5x today's throughput; a faster
    // server that exhausts them ends its window early
    let pool = if args.smoke {
        8
    } else {
        (14 * args.seconds as usize + COLD_FIXED).min(family.len())
    };
    let graphs: Vec<Graph> = (0..pool).map(|i| family.graph(i)).collect();
    let (server, setup_s, _) = start_server(args, report, setups(args), &|_| Ok(Vec::new()))?;
    let before = server.stats()?;
    let window = closed_loop(
        server.addr,
        CONNS,
        window(args),
        &|i| {
            graphs.get(i).map(|graph| Job {
                graph,
                cached: false,
            })
        },
        &|i| i < COLD_FIXED,
    )?;
    let after = server.stats()?;
    let rss_mb = server.rss_peak_mb()?;
    drop(server);
    report.count("window", &window);
    let hit_ratio = check_hits(report, &before, &after, 0, window.len());

    let answers: Vec<Answer> = window
        .iter()
        .map(|x| Answer {
            graph: &graphs[x.id],
            cached: false,
            x,
        })
        .collect();
    let bits = gate(report, args.seed, &answers)?;
    let replay = answers.iter().take(COLD_FIXED).map(|a| a.replay(false));
    let replay = replay.collect();
    finish(
        args,
        report,
        Measured {
            setup_s,
            window,
            open_loop: false,
            capacity_rps: None,
            rss_mb,
            before,
            after,
            hit_ratio,
            cert_bits_max: bits,
            replay,
            hit_path: false,
        },
    )
}

fn warm_hit(args: &Args, report: &mut Report) -> Result<(), String> {
    let family = ColdFamily::new(args.seed);
    let hot: Vec<Graph> = (0..WARM_HOT).map(|i| family.graph(i)).collect();
    let (server, setup_s, warmed) =
        start_server(args, report, setups(args), &|s| warm_set(s, &hot))?;
    let pick = |i: usize| Rng::new(args.seed, 6 + i as u64).below(WARM_HOT as u64) as usize;
    let before = server.stats()?;
    let window = closed_loop(
        server.addr,
        CONNS,
        window(args),
        &|i| {
            Some(Job {
                graph: &hot[pick(i)],
                cached: true,
            })
        },
        &|i| i < 4,
    )?;
    let after = server.stats()?;
    let rss_mb = server.rss_peak_mb()?;
    drop(server);
    report.count("window", &window);
    let hit_ratio = check_hits(report, &before, &after, window.len(), 0);

    let mut answers: Vec<Answer> = warmed
        .iter()
        .map(|x| Answer {
            graph: &hot[x.id],
            cached: false,
            x,
        })
        .collect();
    answers.extend(window.iter().map(|x| Answer {
        graph: &hot[pick(x.id)],
        cached: true,
        x,
    }));
    let bits = gate(report, args.seed, &answers)?;
    let (setup, timed) = answers.split_at(warmed.len());
    let replay = setup.iter().map(|a| a.replay(true));
    let replay = replay.chain(timed.iter().take(32).map(|a| a.replay(false)));
    let replay = replay.collect();
    finish(
        args,
        report,
        Measured {
            setup_s,
            window,
            open_loop: false,
            capacity_rps: None,
            rss_mb,
            before,
            after,
            hit_ratio,
            cert_bits_max: bits,
            replay,
            hit_path: true,
        },
    )
}

/// A small-open request: a hot-set graph (a read) or a fresh one (a
/// write), with its due time.
enum Pick {
    Hot(usize),
    Fresh(usize),
}

/// Draws an open-loop schedule at `rate` for `secs`: Poisson arrivals,
/// each a fresh graph with probability [`FRESH_SHARE`].
fn plan(
    rng: &mut Rng,
    src: &mut SmallSource,
    fresh: &mut Vec<Graph>,
    rate: f64,
    secs: f64,
) -> Vec<(Pick, Duration)> {
    let mut out = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < secs {
        let pick = if rng.unit() <= FRESH_SHARE {
            fresh.push(src.next_graph());
            Pick::Fresh(fresh.len() - 1)
        } else {
            Pick::Hot(rng.below(SMALL_HOT as u64) as usize)
        };
        out.push((pick, Duration::from_secs_f64(t)));
        t += rng.exp_gap(rate);
    }
    out
}

fn materialize<'a>(
    plan: &[(Pick, Duration)],
    hot: &'a [Graph],
    fresh: &'a [Graph],
) -> Vec<Scheduled<'a>> {
    plan.iter()
        .map(|(pick, at)| Scheduled {
            job: match *pick {
                Pick::Hot(i) => Job {
                    graph: &hot[i],
                    cached: true,
                },
                Pick::Fresh(i) => Job {
                    graph: &fresh[i],
                    cached: false,
                },
            },
            at: *at,
        })
        .collect()
}

/// How one ladder step went.
#[derive(PartialEq)]
enum Step {
    /// At least three of its four quarters met the limit.
    Met,
    /// Two quarters met it and the backlog stayed bounded: possibly a
    /// scheduler stall, so the step is tried once more.
    Marginal,
    Missed,
}

/// Judges one ladder step. Its requests are cut into four quarters by
/// due time; a quarter meets the limit when its p99 latency (failures
/// count as misses) and the generator's p99 lag are both within
/// [`LIMIT_MS`]. A step with more requests outstanding at its end than
/// the limit allows misses outright: the queue is growing.
fn judge(run: &OpenRun, rate: f64) -> Step {
    let n = run.exchanges.len();
    let mut within = 0;
    let mut worst: f64 = 0.0;
    for q in 0..4 {
        let part = &run.exchanges[q * n / 4..(q + 1) * n / 4];
        let lat: Vec<f64> = part.iter().map(Exchange::latency_ms).collect();
        let lag: Vec<f64> = part.iter().map(|x| ms(x.start - x.due)).collect();
        let p99 = quantile(&lat, 0.99).max(quantile(&lag, 0.99));
        worst = worst.max(p99);
        within += (p99 <= LIMIT_MS) as usize;
    }
    let backlog_cap = (2.0 * rate * LIMIT_MS / 1e3).max(16.0) as usize;
    let step = match within {
        _ if run.backlog_at_end > backlog_cap => Step::Missed,
        3.. => Step::Met,
        2 => Step::Marginal,
        _ => Step::Missed,
    };
    eprintln!(
        "ladder {rate:9.1}/s: {within} of 4 quarters within {LIMIT_MS} ms (worst p99 \
         {worst:.3} ms), backlog {} -> {}",
        run.backlog_at_end,
        match step {
            Step::Met => "meets the limit",
            Step::Marginal => "marginal",
            Step::Missed => "misses",
        }
    );
    step
}

fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

fn small_open(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut src = SmallSource::new(args.seed);
    let hot: Vec<Graph> = (0..SMALL_HOT).map(|_| src.next_graph()).collect();
    // the reference phase is drawn first, so traced and untraced runs of
    // a seed send it the same requests
    let secs = window(args).as_secs_f64();
    let ref_secs = if args.smoke { secs } else { 0.5 * secs };
    let mut fresh_ref = Vec::new();
    let ref_plan = plan(
        &mut Rng::new(args.seed, 3),
        &mut src,
        &mut fresh_ref,
        REF_RATE,
        ref_secs,
    );
    let (server, setup_s, warmed) =
        start_server(args, report, setups(args), &|s| warm_set(s, &hot))?;
    let drain = Duration::from_secs(10);
    let before = server.stats()?;
    let reference = open_loop(
        server.addr,
        &materialize(&ref_plan, &hot, &fresh_ref),
        &|id| id < 64,
        drain,
    )?;
    let after = server.stats()?;
    report.count("reference", &reference.exchanges);
    let ref_fresh = fresh_ref.len();
    let mut hits = ref_plan.len() - ref_fresh;
    let mut misses = ref_fresh;
    let hit_ratio = check_hits(report, &before, &after, hits, misses);

    // VmHWM before the ladder: how much the ladder sends depends on the
    // capacity it finds, and so would the memory it leaves behind
    let rss_mb = server.rss_peak_mb()?;
    let mut capacity = None;
    if !args.trace {
        let probe_secs = if args.smoke { 0.3 } else { PROBE_SECS };
        let probes = if args.smoke {
            2
        } else {
            (0.5 * secs / PROBE_SECS) as usize
        };
        let mut rng = Rng::new(args.seed, 4);
        let (mut pass, mut fail): (Option<usize>, Option<usize>) = (None, None);
        let mut k = ((REF_RATE / LADDER_BASE).ln() / LADDER_STEP.ln()).round() as usize;
        let mut retried = false;
        for _ in 0..probes {
            let rate = rung(k);
            let mut fresh = Vec::new();
            let steps = plan(&mut rng, &mut src, &mut fresh, rate, probe_secs);
            let run = open_loop(
                server.addr,
                &materialize(&steps, &hot, &fresh),
                &|_| false,
                drain,
            )?;
            report.count("ladder", &run.exchanges);
            hits += steps.len() - fresh.len();
            misses += fresh.len();
            match judge(&run, rate) {
                Step::Met => pass = Some(k),
                Step::Marginal if !retried => {
                    retried = true;
                    continue;
                }
                _ => fail = Some(k),
            }
            retried = false;
            // exponential search up from the reference rate, then
            // bisection between the highest pass and the lowest miss
            k = match (pass, fail) {
                (Some(p), Some(f)) if f <= p + 1 => break,
                (Some(p), Some(f)) => (p + f) / 2,
                (Some(p), None) if p == LADDER_TOP => break,
                (Some(p), None) => (p + LEAP).min(LADDER_TOP),
                (None, Some(0)) => break,
                (None, Some(f)) => f.saturating_sub(LEAP),
                (None, None) => unreachable!("every step passes or misses"),
            };
        }
        capacity = Some(pass.map_or(0.0, rung));
    }
    let end = server.stats()?;
    check_hits(report, &before, &end, hits, misses);
    drop(server);

    let mut answers: Vec<Answer> = warmed
        .iter()
        .map(|x| Answer {
            graph: &hot[x.id],
            cached: false,
            x,
        })
        .collect();
    // a failed exchange may carry no schedule id (an unasked-for answer)
    let answered = reference.exchanges.iter().filter(|x| x.verdict.is_ok());
    answers.extend(answered.map(|x| {
        let (graph, cached) = match ref_plan[x.id].0 {
            Pick::Hot(i) => (&hot[i], true),
            Pick::Fresh(i) => (&fresh_ref[i], false),
        };
        Answer { graph, cached, x }
    }));
    let bits = gate(report, args.seed, &answers)?;
    let (setup, timed) = answers.split_at(warmed.len());
    let replay = setup.iter().map(|a| a.replay(true));
    let replay = replay.chain(timed.iter().take(256).map(|a| a.replay(false)));
    let replay = replay.collect();
    finish(
        args,
        report,
        Measured {
            setup_s,
            window: reference.exchanges,
            open_loop: true,
            capacity_rps: capacity,
            rss_mb,
            before,
            after,
            hit_ratio,
            cert_bits_max: bits,
            replay,
            hit_path: true,
        },
    )
}
