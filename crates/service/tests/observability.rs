//! End-to-end tests of the tracing plane: per-stage histograms, the
//! slow-request log, and the Prometheus scrape endpoint.

use dpc_service::{CheckOptions, ClusterClient, ServeConfig, ServerHandle, StatsSnapshot};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn serve(cfg: ServeConfig) -> ServerHandle {
    dpc_service::serve("127.0.0.1:0", cfg).expect("bind loopback")
}

/// Stage recording trails the client's receive (write_flush is
/// stamped after the bytes are handed to the kernel), so assertions
/// about stage counts poll until they settle.
fn wait_for<F: FnMut() -> bool>(mut done: F, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn stage_counts(s: &StatsSnapshot) -> Vec<(&'static str, u64)> {
    s.stages
        .named()
        .iter()
        .map(|(name, h)| (*name, h.count()))
        .collect()
}

/// The sum property behind WIRE.md §5.3: every request whose response
/// has been fully written contributes exactly one observation to
/// every stage histogram — none double-counted, none skipped.
fn stage_counts_sum_to_completed_requests(event_loop: bool) {
    let handle = serve(ServeConfig {
        event_loop,
        ..ServeConfig::default()
    });
    let mut client = ClusterClient::connect(handle.addr()).unwrap();
    let g = dpc_graph::generators::grid(5, 5);
    let requests = 24u64;
    for i in 0..requests {
        // a mix of kinds, some pipelined: certify (cache miss then
        // hits), check, and the occasional stats poll
        match i % 3 {
            0 => {
                client.certify(&g, false).unwrap();
            }
            1 => {
                client.check(&g, CheckOptions::new()).unwrap();
            }
            _ => {
                client.stats().unwrap();
            }
        }
    }
    wait_for(
        || {
            let s = handle.stats();
            stage_counts(&s).iter().all(|&(_, c)| c == requests)
        },
        "every stage count to reach the request count",
    );
    let s = handle.stats();
    for (name, count) in stage_counts(&s) {
        assert_eq!(count, requests, "stage {name} count");
    }
    // the queue-wait and write-flush histograms are the acceptance
    // gate for "tracing is actually populated"
    assert_eq!(s.stages.queue_wait.count(), requests);
    assert_eq!(s.stages.write_flush.count(), requests);
    handle.shutdown();
}

#[test]
fn stage_counts_sum_threaded() {
    stage_counts_sum_to_completed_requests(false);
}

#[test]
fn stage_counts_sum_event_loop() {
    // falls back to the threaded front end where epoll is unavailable,
    // which still has to uphold the property
    stage_counts_sum_to_completed_requests(true);
}

#[test]
fn slow_log_captures_a_slow_prove_with_its_breakdown() {
    // threshold 1 ms: a fresh prove of a ~900-node graph crosses it,
    // the cached stats polls around it do not
    let handle = serve(ServeConfig {
        slow_ms: 1,
        ..ServeConfig::default()
    });
    let mut client = ClusterClient::connect(handle.addr()).unwrap();
    let g = dpc_graph::generators::grid(30, 30);
    client.certify(&g, true).unwrap();
    wait_for(
        || !handle.slowlog().is_empty(),
        "the slow prove to reach the slow log",
    );
    let entries = handle.slowlog();
    let e = &entries[0];
    assert_eq!(e.kind_name(), "certify");
    assert_eq!(e.scheme, 0, "planarity is scheme 0");
    assert!(e.total_us >= 1000, "crossed the 1 ms threshold: {e:?}");
    assert_eq!(
        e.total_us,
        e.read_decode_us + e.queue_wait_us + e.service_us + e.reorder_wait_us + e.write_flush_us,
        "total is the sum of the stages: {e:?}"
    );
    assert!(
        e.service_us > e.total_us / 2,
        "a slow prove is service-dominated: {e:?}"
    );
    // the same entries come back over the wire, newest first
    let wired = client.slowlog().unwrap();
    assert_eq!(wired.len(), entries.len());
    assert_eq!(wired[0].trace_id, e.trace_id);
    assert_eq!(wired[0].total_us, e.total_us);
    handle.shutdown();
}

#[test]
fn slow_log_threshold_zero_disables_capture() {
    let handle = serve(ServeConfig {
        slow_ms: 0,
        ..ServeConfig::default()
    });
    let mut client = ClusterClient::connect(handle.addr()).unwrap();
    let g = dpc_graph::generators::grid(30, 30);
    client.certify(&g, true).unwrap();
    // give the write-side trace close a moment, then confirm nothing
    // was retained
    std::thread::sleep(Duration::from_millis(50));
    assert!(handle.slowlog().is_empty());
    assert!(client.slowlog().unwrap().is_empty());
    handle.shutdown();
}

/// One HTTP GET against the scrape endpoint, returning the full
/// response (status line through body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: dpc\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let handle = serve(ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let metrics_addr = handle.metrics_addr().expect("metrics endpoint bound");
    let mut client = ClusterClient::connect(handle.addr()).unwrap();
    let g = dpc_graph::generators::grid(6, 6);
    client.certify(&g, false).unwrap();
    client.certify(&g, false).unwrap();
    wait_for(
        || handle.stats().stages.write_flush.count() >= 2,
        "the certifies' traces to close",
    );
    let resp = http_get(metrics_addr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(
        resp.contains("text/plain; version=0.0.4"),
        "Prometheus content type: {resp}"
    );
    assert!(resp.contains("# TYPE dpc_requests_total counter"), "{resp}");
    assert!(
        resp.contains("dpc_requests_total{kind=\"certify\"} 2"),
        "{resp}"
    );
    assert!(
        resp.contains("dpc_stage_duration_us_count{stage=\"queue_wait\"} 2"),
        "{resp}"
    );
    assert!(
        resp.contains("dpc_stage_duration_us_count{stage=\"write_flush\"} 2"),
        "{resp}"
    );
    assert!(resp.contains("dpc_conns_open 1"), "{resp}");
    // unknown paths 404, non-GET methods 405, and neither kills the
    // endpoint for the next scrape
    assert!(http_get(metrics_addr, "/nope").starts_with("HTTP/1.1 404"));
    let mut stream = TcpStream::connect(metrics_addr).unwrap();
    write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut resp = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    assert!(http_get(metrics_addr, "/metrics").starts_with("HTTP/1.1 200"));
    handle.shutdown();
}
