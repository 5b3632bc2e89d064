//! The loopback TCP tier and the benchmark's own client: persistent
//! connections, one request in flight each (closed loop), every frame
//! pre-encoded during set-up.

use crate::inputs::{self, TxSet};
use crate::serve;
use crate::spans::Spans;
use crate::Outcome;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};
use webmm_alloc::AllocatorKind;
use webmm_net::{encode, Decoder, Frame, NetReport, NetServer, NetServerConfig, Status};

/// How long a client waits for any one response before counting the
/// connection as failed, so a stalled tier cannot hang the benchmark.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// A started tier with its client connections open and its frames
/// encoded: everything set-up does before the first timed request.
pub struct Tier {
    net: NetServer,
    conns: Vec<TcpStream>,
    frames: Vec<Vec<u8>>,
}

/// Encodes the set, starts a two-worker server for `kind` behind a
/// `NetServer` on an ephemeral loopback port, and connects `conns`
/// clients.
///
/// # Errors
///
/// Binding or connecting on loopback failed.
pub fn start(kind: AllocatorKind, set: &TxSet, conns: usize, traced: bool) -> io::Result<Tier> {
    let frames = inputs::encode_all(set);
    let net = NetServer::bind(
        serve::start(kind, traced),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )?;
    let conns = (0..conns)
        .map(|_| connect(&net))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Tier { net, conns, frames })
}

fn connect(net: &NetServer) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(net.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

/// What one TCP phase produced.
pub struct TcpServed {
    pub report: NetReport,
    /// First request to `finish()` returning, drain included.
    pub wall_s: f64,
    /// Request → status round trips.
    pub rtt_ns: Vec<u64>,
    pub sent: u64,
    pub accepted: u64,
    /// Connection-level failures (I/O errors, bad or mismatched frames).
    pub errors: Vec<String>,
}

impl TcpServed {
    pub fn tx_per_s(&self) -> f64 {
        self.report.server.completed as f64 / self.wall_s
    }

    /// The serving gate plus the wire's own: the tier's books reconcile
    /// with what the clients saw, and every request was answered
    /// `Accepted`.
    pub fn check(&self, out: &mut Outcome, what: &str) {
        let r = &self.report;
        serve::check_report(out, what, &r.server, self.sent, self.sent - self.accepted);
        out.require(r.reconciles(), || {
            format!("{what}: NetReport does not reconcile")
        });
        out.require(r.accepted == self.accepted && r.requests == self.sent, || {
            format!(
                "{what}: tier answered {} of {} requests ({} accepted), clients saw {} accepted of {} sent",
                r.requests, self.sent, r.accepted, self.accepted, self.sent
            )
        });
        for e in &self.errors {
            out.require(false, || format!("{what}: {e}"));
        }
    }
}

/// Each connection sends its share of the frames in turn, one request in
/// flight, until `dur` has passed; then the tier drains.
pub fn closed(tier: Tier, dur: Duration, spans: Option<&Spans>, label: &'static str) -> TcpServed {
    let phase = spans.map_or(0, Spans::id);
    let stride = tier.conns.len();
    let frames = &tier.frames;
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = tier
            .conns
            .into_iter()
            .enumerate()
            .map(|(first, stream)| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    if let Err(e) = client(
                        stream, frames, first, stride, start, dur, spans, phase, label, &mut t,
                    ) {
                        t.errors.push(format!("connection {first}: {e}"));
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let report = tier.net.finish();
    let end = Instant::now();
    if let Some(s) = spans {
        s.record(phase, 0, "tcp.closed", label, start, end);
    }
    let mut served = TcpServed {
        report,
        wall_s: (end - start).as_secs_f64(),
        rtt_ns: Vec::new(),
        sent: 0,
        accepted: 0,
        errors: Vec::new(),
    };
    for t in tallies {
        served.rtt_ns.extend(t.rtt_ns);
        served.sent += t.sent;
        served.accepted += t.accepted;
        served.errors.extend(t.errors);
    }
    served
}

#[derive(Default)]
struct Tally {
    rtt_ns: Vec<u64>,
    sent: u64,
    accepted: u64,
    errors: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn client(
    mut stream: TcpStream,
    frames: &[Vec<u8>],
    first: usize,
    stride: usize,
    start: Instant,
    dur: Duration,
    spans: Option<&Spans>,
    phase: u64,
    label: &'static str,
    t: &mut Tally,
) -> io::Result<()> {
    let decoder = Decoder::new();
    let mut rbuf = Vec::with_capacity(256);
    let mut next = first;
    while start.elapsed() < dur {
        let index = next % frames.len();
        next += stride;
        let sent_at = Instant::now();
        stream.write_all(&frames[index])?;
        t.sent += 1;
        let reply = read_frame(&mut stream, &decoder, &mut rbuf)?;
        let done = Instant::now();
        t.rtt_ns.push((done - sent_at).as_nanos() as u64);
        if let Some(s) = spans {
            s.leaf(phase, "net.request", label, sent_at, done);
        }
        match reply {
            Frame::Status {
                request_id,
                status: Status::Accepted,
            } if request_id == index as u64 => t.accepted += 1,
            other => t
                .errors
                .push(format!("request {index} answered with {other:?}")),
        }
    }
    let mut bye = Vec::new();
    encode(&Frame::Goodbye, &mut bye);
    stream.write_all(&bye)?;
    stream.shutdown(Shutdown::Write)
}

/// Reads until one whole frame is buffered, decodes it, and drops its
/// bytes from `rbuf`.
fn read_frame(stream: &mut TcpStream, decoder: &Decoder, rbuf: &mut Vec<u8>) -> io::Result<Frame> {
    let mut chunk = [0u8; 256];
    loop {
        match decoder.decode(rbuf) {
            Ok(Some((frame, used))) => {
                rbuf.drain(..used);
                return Ok(frame);
            }
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        rbuf.extend_from_slice(&chunk[..n]);
    }
}

/// `Ping` → `Pong` round trips on one idle connection of a fresh tier:
/// the wire and handler path with no admission behind it.
///
/// # Errors
///
/// Loopback I/O failed or the tier answered something other than `Pong`.
pub fn ping_rtts(kind: AllocatorKind, count: usize, spans: Option<&Spans>) -> io::Result<Vec<u64>> {
    let net = NetServer::bind(
        serve::start(kind, false),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )?;
    let mut stream = connect(&net)?;
    let decoder = Decoder::new();
    let mut ping = Vec::new();
    encode(&Frame::Ping, &mut ping);
    let mut rbuf = Vec::new();
    let mut rtts = Vec::with_capacity(count);
    for _ in 0..count {
        let start = Instant::now();
        stream.write_all(&ping)?;
        let reply = read_frame(&mut stream, &decoder, &mut rbuf)?;
        let end = Instant::now();
        if reply != Frame::Pong {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ping answered with {reply:?}"),
            ));
        }
        rtts.push((end - start).as_nanos() as u64);
        if let Some(s) = spans {
            s.leaf(0, "net.ping", kind.id(), start, end);
        }
    }
    drop(stream);
    let report = net.finish();
    if report.pings != count as u64 {
        return Err(io::Error::other(format!(
            "tier answered {} of {count} pings",
            report.pings
        )));
    }
    Ok(rtts)
}
