//! A minimal std-only HTTP endpoint serving the live Prometheus
//! snapshot plus Kubernetes-style health probes:
//!
//! - `GET /healthz` — liveness: no serving tick is wedged (`200 ok` /
//!   `503 <reason>`).
//! - `GET /readyz` — readiness: under the session cap and the circuit
//!   breaker is not open (`200 ok` / `503 <reason>`).
//! - any other path — the `cardbench_obs::prometheus_snapshot()` text
//!   exposition (a scrape).
//!
//! No keep-alive, no TLS — one response per connection, which is
//! exactly what a scrape or a probe is. The at-drop `<trace>.prom` file
//! export still exists; this endpoint adds *live* scrapes for
//! long-running servers. Zero new dependencies: blocking `std::net`
//! plus one accept-loop thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Liveness/readiness closures for the probe endpoints. `Ok(())` → `200
/// ok`, `Err(reason)` → `503 <reason>`. Build one from a running server
/// with `Server::probes()`; [`HealthProbes::always_ok`] suits a
/// metrics-only endpoint that outlives any one server.
#[derive(Clone)]
pub struct HealthProbes {
    /// `/healthz`: is the service making progress at all?
    pub healthy: Arc<dyn Fn() -> Result<(), String> + Send + Sync>,
    /// `/readyz`: should new work be routed here right now?
    pub ready: Arc<dyn Fn() -> Result<(), String> + Send + Sync>,
}

impl HealthProbes {
    /// Probes that always pass (a metrics-only endpoint).
    pub fn always_ok() -> HealthProbes {
        HealthProbes {
            healthy: Arc::new(|| Ok(())),
            ready: Arc::new(|| Ok(())),
        }
    }
}

/// A running metrics endpoint; shuts down on [`PromServer::shutdown`] or
/// drop.
pub struct PromServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PromServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port) and serves scrapes and the `/healthz` + `/readyz` probes on
    /// a background thread.
    pub fn bind_with_probes(addr: &str, probes: HealthProbes) -> std::io::Result<PromServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-prom".into())
                .spawn(move || accept_loop(&listener, &stop, &probes))?
        };
        Ok(PromServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scrapes the endpoint once over a real TCP connection (the load
    /// generator's self-check) and returns the response body.
    pub fn scrape(&self) -> std::io::Result<String> {
        self.get("/metrics").map(|(_, body)| body)
    }

    /// One `GET path` over a real TCP connection: `(status, body)`.
    pub fn get(&self, path: &str) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: cardbench\r\n\r\n").as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
            })?;
        response
            .split_once("\r\n\r\n")
            .map(|(_, body)| (status, body.to_string()))
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
            })
    }

    /// Stops accepting and joins the endpoint thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PromServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, probes: &HealthProbes) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf).unwrap_or(0);
        let path = request_path(&buf[..n]);
        let (status, body) = match path {
            "/healthz" => probe_response((probes.healthy)()),
            "/readyz" => probe_response((probes.ready)()),
            _ => ("200 OK", cardbench_obs::prometheus_snapshot()),
        };
        let header = format!(
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream
            .write_all(header.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()));
    }
}

fn probe_response(result: Result<(), String>) -> (&'static str, String) {
    match result {
        Ok(()) => ("200 OK", "ok\n".to_string()),
        Err(reason) => ("503 Service Unavailable", format!("{reason}\n")),
    }
}

/// Extracts the path from a `GET <path> HTTP/1.1` request line; anything
/// unparseable is a metrics scrape (the pre-probe behavior).
fn request_path(request: &[u8]) -> &str {
    std::str::from_utf8(request)
        .ok()
        .and_then(|s| s.lines().next())
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_live_snapshot_over_http() {
        let srv = PromServer::bind_with_probes("127.0.0.1:0", HealthProbes::always_ok())
            .expect("bind ephemeral port");
        let addr = srv.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("Content-Type: text/plain"));
        // Body is a (possibly empty) Prometheus exposition; with
        // recording off it is empty but the response is still well
        // formed.
        srv.shutdown();
    }

    #[test]
    fn probe_endpoints_route_and_report() {
        let healthy = Arc::new(AtomicBool::new(true));
        let probes = HealthProbes {
            healthy: {
                let healthy = Arc::clone(&healthy);
                Arc::new(move || {
                    if healthy.load(Ordering::Acquire) {
                        Ok(())
                    } else {
                        Err("tick wedged".to_string())
                    }
                })
            },
            ready: Arc::new(|| Err("circuit breaker open".to_string())),
        };
        let srv = PromServer::bind_with_probes("127.0.0.1:0", probes).expect("bind");
        let (status, body) = srv.get("/healthz").expect("healthz");
        assert_eq!((status, body.trim()), (200, "ok"));
        healthy.store(false, Ordering::Release);
        let (status, body) = srv.get("/healthz").expect("healthz");
        assert_eq!(status, 503);
        assert!(body.contains("tick wedged"), "{body}");
        let (status, body) = srv.get("/readyz").expect("readyz");
        assert_eq!(status, 503);
        assert!(body.contains("breaker open"), "{body}");
        // Non-probe paths still scrape.
        let (status, _) = srv.get("/metrics").expect("metrics");
        assert_eq!(status, 200);
        srv.shutdown();
    }
}
