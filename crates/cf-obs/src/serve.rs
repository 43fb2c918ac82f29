//! A dependency-free blocking HTTP endpoint for the telemetry plane.
//!
//! [`MetricsServer`] wraps a `std::net::TcpListener` and serves six
//! routes, one request per connection (`Connection: close`):
//!
//! * `/metrics` — the Prometheus text snapshot from
//!   [`MetricsRegistry::render_text`](crate::MetricsRegistry::render_text)
//! * `/traces` — the Chrome-trace dump plus retained slow-query
//!   reports, from [`export::trace_dump_json`](crate::export::trace_dump_json)
//! * `/slo` — exact nearest-rank p50/p99/max latency over the retained
//!   queries and the latency objectives' burn rates, from
//!   [`Tracer::slo_json`](crate::Tracer::slo_json)
//! * `/explain/recent` — the newest per-query EXPLAIN records as a
//!   JSON array
//! * `/workload` — the retained queries as flight records, from
//!   [`Tracer::workload_json`](crate::Tracer::workload_json)
//! * `/` — a plain-text index of the above
//!
//! This is deliberately *not* a general HTTP server: it reads one
//! request line, ignores headers, and answers. That is exactly what a
//! Prometheus scrape, `curl`, or the `fielddb top` client needs, and it
//! keeps the crate dependency-free. A request that fails — a timeout, a
//! reset, a request line that is not UTF-8 — drops its own connection
//! and the server goes on to the next. [`http_get`] is the matching
//! minimal client.

use crate::export::trace_dump_json;
use crate::MetricsRegistry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Per-connection socket timeout: a stalled peer cannot wedge the
/// single-threaded serve loop for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The blocking telemetry HTTP server. See the module docs for routes.
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
}

impl MetricsServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free
    /// port — read it back with [`MetricsServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves requests from `registry`, blocking the calling thread.
    /// With `max_requests = Some(n)` the loop returns cleanly after
    /// answering `n` requests — the hook the CLI smoke test and CI use
    /// to shut the server down deterministically. `None` serves
    /// forever. Returns the number of requests answered; a failed
    /// request is not counted, and only an `accept` error ends the loop
    /// early.
    pub fn serve(&self, registry: &MetricsRegistry, max_requests: Option<u64>) -> io::Result<u64> {
        let mut served = 0u64;
        while max_requests.map(|n| served < n).unwrap_or(true) {
            let (stream, _) = self.listener.accept()?;
            // A bad peer fails its own request, not the server.
            if handle(stream, registry).is_ok() {
                served += 1;
            }
        }
        Ok(served)
    }
}

fn handle(stream: TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let path = request_line
        .split_whitespace()
        .nth(1)
        .unwrap_or("/")
        .to_owned();
    // Drain headers so the peer sees a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let mut stream = reader.into_inner();
    let (status, content_type, body) = route(&path, registry);
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn route(path: &str, registry: &MetricsRegistry) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_text(),
        ),
        "/traces" => {
            let tracer = registry.tracer();
            (
                "200 OK",
                "application/json; charset=utf-8",
                trace_dump_json(&tracer.events(), &tracer.slow_reports()),
            )
        }
        "/slo" => (
            "200 OK",
            "application/json; charset=utf-8",
            registry.tracer().slo_json().render(),
        ),
        "/explain/recent" => (
            "200 OK",
            "application/json; charset=utf-8",
            crate::Json::Arr(
                registry
                    .tracer()
                    .recent_explains()
                    .iter()
                    .map(|e| e.to_json())
                    .collect(),
            )
            .render(),
        ),
        "/workload" => (
            "200 OK",
            "application/json; charset=utf-8",
            registry.tracer().workload_json().render(),
        ),
        "/" => (
            "200 OK",
            "text/plain; charset=utf-8",
            "fielddb telemetry endpoint\n\
             /metrics         Prometheus text snapshot\n\
             /traces          Chrome-trace JSON (traceEvents + slowQueries)\n\
             /slo             exact p50/p99/max latency and objective burn rates over the query ring\n\
             /explain/recent  ring of per-query EXPLAIN records\n\
             /workload        flight-recorder query ring (replayable workload)\n"
                .to_owned(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no such route: {path}\n"),
        ),
    }
}

/// Minimal blocking HTTP GET against a [`MetricsServer`] (or anything
/// speaking HTTP/1.1 with `Connection: close`). Returns the body;
/// non-2xx statuses become errors carrying the status line.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut stream = stream;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let status_line = head.lines().next().unwrap_or_default();
    let ok = status_line
        .split_whitespace()
        .nth(1)
        .map(|code| code.starts_with('2'))
        .unwrap_or(false);
    if !ok {
        return Err(io::Error::other(format!("HTTP error: {status_line}")));
    }
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_prometheus;
    use crate::Json;

    fn serve_n(
        registry: std::sync::Arc<MetricsRegistry>,
        n: u64,
    ) -> (SocketAddr, std::thread::JoinHandle<io::Result<u64>>) {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.serve(&registry, Some(n)));
        (addr, handle)
    }

    #[test]
    fn serves_metrics_and_shuts_down() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        reg.counter("scrapes_total").add(41);
        let (addr, handle) = serve_n(reg, 2);
        let body = http_get(addr, "/metrics").expect("scrape");
        let snap = parse_prometheus(&body).expect("parseable snapshot");
        assert_eq!(snap.value("scrapes_total"), Some(41.0));
        let index = http_get(addr, "/").expect("index");
        assert!(index.contains("/metrics"), "{index}");
        // max_requests reached → serve() returns.
        assert_eq!(handle.join().expect("no panic").expect("serve"), 2);
    }

    #[test]
    fn serves_trace_dump_as_json() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        reg.tracer().set_enabled(true);
        reg.tracer().record_query(crate::explain::tests::sample());
        let (addr, handle) = serve_n(reg.clone(), 1);
        let body = http_get(addr, "/traces").expect("scrape");
        let doc = Json::parse(&body).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(events.len(), 3, "{body}");
        #[cfg(feature = "obs-off")]
        assert!(events.is_empty(), "{body}");
        assert!(doc.get("slowQueries").is_some(), "{body}");
        handle.join().expect("no panic").expect("serve");
    }

    #[test]
    fn serves_slo_and_explain_rings_as_json() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let sample = crate::explain::tests::sample();
        reg.tracer().set_enabled(true);
        reg.tracer().record_query(sample);
        let (addr, handle) = serve_n(reg, 2);
        let slo = http_get(addr, "/slo").expect("slo");
        let doc = Json::parse(&slo).expect("valid slo json");
        let num = |key| doc.get(key).and_then(Json::as_f64);
        #[cfg(not(feature = "obs-off"))]
        {
            assert_eq!(num("count"), Some(1.0), "{slo}");
            assert_eq!(num("p99_ns"), Some(sample.total_ns as f64), "{slo}");
        }
        #[cfg(feature = "obs-off")]
        assert_eq!(num("count"), Some(0.0), "{slo}");
        let objectives = doc
            .get("objectives")
            .and_then(Json::as_arr)
            .expect("objectives");
        assert_eq!(objectives.len(), 2, "{slo}");
        let recent = http_get(addr, "/explain/recent").expect("explain");
        let doc = Json::parse(&recent).expect("valid explain json");
        let arr = doc.as_arr().expect("array");
        #[cfg(not(feature = "obs-off"))]
        {
            assert_eq!(arr.len(), 1, "{recent}");
            assert_eq!(arr[0].get("plan").and_then(Json::as_str), Some("probe"));
        }
        #[cfg(feature = "obs-off")]
        assert!(arr.is_empty(), "{recent}");
        handle.join().expect("no panic").expect("serve");
    }

    #[test]
    fn serves_workload_as_json() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        reg.tracer().set_enabled(true);
        reg.tracer().record_query(crate::explain::tests::sample());
        let (addr, handle) = serve_n(reg, 1);
        let workload = http_get(addr, "/workload").expect("workload");
        let doc = Json::parse(&workload).expect("valid workload json");
        assert_eq!(doc.get("version").and_then(Json::as_f64), Some(1.0));
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(1.0));
        #[cfg(feature = "obs-off")]
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(0.0));
        handle.join().expect("no panic").expect("serve");
    }

    #[test]
    fn unknown_route_is_404_and_does_not_kill_the_server() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let (addr, handle) = serve_n(reg, 2);
        let err = http_get(addr, "/nope").expect_err("404 should error");
        assert!(err.to_string().contains("404"), "{err}");
        // The server answered the 404 and still serves the next request.
        http_get(addr, "/metrics").expect("scrape after 404");
        handle.join().expect("no panic").expect("serve");
    }

    #[test]
    fn malformed_request_fails_only_its_own_connection() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let (addr, handle) = serve_n(reg, 1);
        // A request line that is not UTF-8: the server drops it uncounted.
        TcpStream::connect(addr)
            .and_then(|mut s| s.write_all(b"\xff\xfe /x HTTP/1.1\r\n\r\n"))
            .expect("send malformed request");
        http_get(addr, "/metrics").expect("scrape after a malformed request");
        assert_eq!(handle.join().expect("no panic").expect("serve"), 1);
    }
}
