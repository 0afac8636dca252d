//! The served stack every workload shares: in-process `HttpServer` over
//! `QueryService` with `Engine::Auto`, the default scheduler, and pool
//! threads = intra-query parallelism = `nproc`; plus the keep-alive
//! client and the answer identity the correctness gate compares.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use infpdb_core::json::Json;
use infpdb_logic::parse;
use infpdb_net::{client, HttpServer, ServerConfig};
use infpdb_serve::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use infpdb_ti::construction::CountableTiPdb;

/// Cores the benchmark sizes the service and its clients by.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The one service configuration of every workload.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        threads: nproc(),
        parallelism: nproc(),
        ..ServiceConfig::default()
    }
}

/// Starts the front door on an ephemeral loopback port.
pub fn start_server(service: QueryService) -> Result<HttpServer, String> {
    HttpServer::start(service, ServerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("start server: {e}"))
}

/// The bits of an answer the correctness gate compares: estimate and
/// certified interval endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bits {
    /// `estimate.to_bits()`.
    pub estimate: u64,
    /// Interval lower endpoint bits.
    pub lo: u64,
    /// Interval upper endpoint bits.
    pub hi: u64,
}

impl Bits {
    /// The identity of an in-process answer.
    pub fn of(resp: &QueryResponse) -> Bits {
        let iv = resp.interval();
        Bits {
            estimate: resp.approx.estimate.to_bits(),
            lo: iv.lo().to_bits(),
            hi: iv.hi().to_bits(),
        }
    }

    /// The interval as floats.
    pub fn interval(&self) -> (f64, f64) {
        (f64::from_bits(self.lo), f64::from_bits(self.hi))
    }
}

/// What the benchmark reads from one wire answer.
#[derive(Debug, Clone)]
pub struct WireAnswer {
    /// Answer identity.
    pub bits: Bits,
    /// Truncation length `n(ε)`.
    pub n: usize,
    /// Served from the result cache.
    pub cached: bool,
    /// Components per strategy: lifted, shannon, mc, kl.
    pub plan: [u64; 4],
    /// Components the parallel Shannon evaluator forked.
    pub forked: u64,
    /// The parallel Shannon evaluator fell back to sequential.
    pub fallback_seq: bool,
    /// Response body size.
    pub body_bytes: usize,
}

/// Parses a `200` body of `POST /query`.
pub fn parse_answer(body: &str) -> Result<WireAnswer, String> {
    let doc = Json::parse(body).map_err(|e| format!("bad response JSON: {e}"))?;
    let f = |j: Option<&Json>, what: &str| {
        j.and_then(Json::as_f64)
            .ok_or_else(|| format!("response lacks {what}"))
    };
    let iv = doc.get("interval");
    let bits = Bits {
        estimate: f(doc.get("estimate"), "estimate")?.to_bits(),
        lo: f(iv.and_then(|i| i.get("lo")), "interval.lo")?.to_bits(),
        hi: f(iv.and_then(|i| i.get("hi")), "interval.hi")?.to_bits(),
    };
    let trace = doc.get("trace");
    let int = |j: Option<&Json>| j.and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
    let plan_of = |k: &str| int(trace.and_then(|t| t.get("plan")).and_then(|p| p.get(k)));
    let par = trace.and_then(|t| t.get("parallel"));
    Ok(WireAnswer {
        bits,
        n: int(doc.get("n")) as usize,
        cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
        plan: [
            plan_of("lifted"),
            plan_of("shannon"),
            plan_of("mc"),
            plan_of("kl"),
        ],
        forked: int(par.and_then(|p| p.get("tasks"))),
        fallback_seq: par
            .and_then(|p| p.get("fallback_seq"))
            .and_then(Json::as_bool)
            .unwrap_or(false),
        body_bytes: body.len(),
    })
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    authority: String,
}

impl Conn {
    /// Connects to the front door.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        Ok(Conn {
            stream,
            authority: addr.to_string(),
        })
    }

    /// `POST /query` for one (query, ε); any non-200 status is an error.
    pub fn query(&self, body: &str) -> Result<String, String> {
        let resp = client::request_on(
            &self.stream,
            &self.authority,
            "POST",
            "/query",
            &[("content-type", "application/json")],
            body.as_bytes(),
        )?;
        let text = resp.body_utf8().map_err(|e| e.to_string())?.to_string();
        if resp.status != 200 {
            return Err(format!("HTTP {}: {text}", resp.status));
        }
        Ok(text)
    }
}

/// The request body for one (query, ε).
pub fn body(query: &str, eps: f64) -> String {
    Json::obj([("query", Json::str(query)), ("eps", Json::Float(eps))]).encode()
}

/// Evaluates in process; the reference the wire answers must equal.
pub fn evaluate(service: &QueryService, query: &str, eps: f64) -> Result<QueryResponse, String> {
    let formula = parse(query, service.pdb().schema()).map_err(|e| format!("{query}: {e}"))?;
    service
        .evaluate(QueryRequest::new(formula, eps))
        .map_err(|e| format!("{query} at {eps:e}: {e}"))
}

/// A fresh service over `pdb` with the shared configuration.
pub fn service(pdb: &CountableTiPdb) -> QueryService {
    QueryService::new(pdb.clone(), service_config())
}
