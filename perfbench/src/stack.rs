//! The served stack every workload drives, and the wire client that
//! drives it: engine → journaled `Service` → `AsyncService` → TCP
//! `NetServer`, spoken to with the framed protocol only.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use afp::net::codec::{self, read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
use afp::{
    AsyncOptions, AsyncService, Engine, FsyncPolicy, JournalOptions, Model, NetOptions, NetServer,
    PhaseBreakdown, Service, ServiceOptions, Session, Shutdown, Truth,
};

use crate::trace::Tracer;

/// Journal settings shared by every workload's served stack.
pub const JOURNAL: JournalOptions = JournalOptions {
    fsync: FsyncPolicy::EveryN(8),
    checkpoint_every: 256,
    ack_durable: false,
};

/// Every engine is built as a deployment on this box would be:
/// `threads(0)` gives one wavefront worker per core.
pub fn engine() -> Engine {
    Engine::builder().threads(0).build()
}

/// One framed-protocol connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { stream })
    }

    /// One request frame out, one response frame back.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        write_frame(&mut self.stream, line.as_bytes())?;
        let payload = read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Submit a delta; the version that first includes it.
    pub fn write(&mut self, line: &str) -> Result<u64, String> {
        let resp = self.call(line).map_err(|e| format!("{line}: {e}"))?;
        match resp.strip_prefix("{\"ok\":true,\"version\":") {
            Some(rest) => rest
                .trim_end_matches('}')
                .parse()
                .map_err(|_| format!("{line}: bad response {resp}")),
            None => Err(format!("{line}: {resp}")),
        }
    }
}

/// `(version, truth)` out of a `query` response frame.
pub fn parse_truth(resp: &str) -> Option<(u64, Truth)> {
    let rest = resp.strip_prefix("{\"version\":")?;
    let version = rest[..rest.find(',')?].parse().ok()?;
    let truth = match &resp[resp.rfind("\"truth\":\"")? + 9..] {
        t if t.starts_with("true\"") => Truth::True,
        t if t.starts_with("false\"") => Truth::False,
        t if t.starts_with("undefined\"") => Truth::Undefined,
        _ => return None,
    };
    Some((version, truth))
}

/// A served, journaled program.
pub struct Stack {
    pub service: Service,
    pub tier: Arc<AsyncService>,
    pub server: NetServer,
    pub dir: PathBuf,
}

impl Stack {
    /// Solve `session` once, journal it into `dir` (which must not hold a
    /// journal yet) and start serving it on an ephemeral loopback port.
    pub fn start(session: Session, dir: PathBuf) -> Result<Stack, String> {
        let service = Service::with_journal(session, ServiceOptions::default(), &dir, JOURNAL)
            .map_err(|e| format!("journaled service: {e}"))?;
        let tier = Arc::new(AsyncService::new(service.clone(), AsyncOptions::default()));
        let server = NetServer::bind_tcp(Arc::clone(&tier), "127.0.0.1:0", NetOptions::default())
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Stack {
            service,
            tier,
            server,
            dir,
        })
    }

    pub fn addr(&self) -> String {
        self.server.addr().to_string()
    }

    /// Clean shutdown: close the listener and connections, drain the write
    /// queue, and release the journal. Returns the live service handle.
    pub fn stop(self) -> Service {
        self.server.shutdown();
        self.tier.shutdown(Shutdown::Drain);
        drop(self.server);
        drop(self.tier);
        self.service
    }
}

/// A fresh, empty journal directory under `root`.
pub fn journal_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(format!("journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fingerprint of a model's true and undefined atom names — the parts
/// that must agree between warm and cold solves. (Which atoms are
/// *listed* as false may differ after warm retractions; their truth never
/// does.)
pub fn fingerprint(m: &Model) -> u64 {
    let mut t: Vec<String> = m.true_atoms().collect();
    let mut u: Vec<String> = m.undefined_atoms().collect();
    t.sort_unstable();
    u.sort_unstable();
    let mut h = DefaultHasher::new();
    (t, u).hash(&mut h);
    h.finish()
}

/// One wire read. A traced read also runs the request through the codec
/// in-process (`parse_command` + `execute` + `render_json`) and times the
/// snapshot pin and the truth probe on their own, so the round trip can
/// be split into codec and transport.
pub fn read(
    client: &mut Client,
    service: &Service,
    tracer: &mut Tracer,
    line: &str,
    pred: &str,
    args: &[&str],
) -> Result<(u64, Truth, Duration), String> {
    tracer.next_op();
    let op = tracer.begin("op.read");
    if tracer.enabled() {
        tracer.span("net.codec", || {
            let request = codec::parse_command(line).expect("benchmark query parses");
            codec::render_json(&codec::execute(service, &request))
        });
        let snapshot = tracer.span("service.pin", || service.snapshot());
        tracer.span("service.probe", || snapshot.truth(pred, args));
    }
    let rt = tracer.begin("net.read");
    let started = Instant::now();
    let resp = client.call(line);
    let took = started.elapsed();
    tracer.end(rt);
    tracer.end(op);
    let resp = resp.map_err(|e| format!("{line}: {e}"))?;
    let (version, truth) = parse_truth(&resp).ok_or_else(|| format!("{line}: {resp}"))?;
    Ok((version, truth, took))
}

/// Phase breakdowns of every write cycle seen so far, keyed by version.
/// The service keeps only its newest 64, so traced writers poll after
/// each write.
#[derive(Default)]
pub struct Cycles(pub BTreeMap<u64, PhaseBreakdown>);

impl Cycles {
    pub fn poll(&mut self, service: &Service) {
        for b in service.telemetry().recent_cycles() {
            self.0.insert(b.version, b);
        }
    }
}

/// Counters the serving layers export, read once at the end of a window.
pub struct Exported {
    pub session: afp::SessionStats,
    pub service: afp::ServiceStats,
    pub net: afp::NetStats,
    pub journal: afp::JournalStats,
    pub queue_wait_mean_ns: f64,
}

impl Exported {
    pub fn read(stack: &Stack) -> Exported {
        let telemetry = stack.service.telemetry();
        let queue_wait_mean_ns = telemetry
            .registry()
            .map(|r| {
                let h = r.queue_wait_ns.snapshot();
                if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                }
            })
            .unwrap_or(0.0);
        Exported {
            session: stack.service.session_stats(),
            service: stack.service.stats(),
            net: stack.server.stats(),
            journal: stack.service.journal_stats().unwrap_or_default(),
            queue_wait_mean_ns,
        }
    }
}
