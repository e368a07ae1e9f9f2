//! The wire side: reply framing, the `xust serve` process lifecycle,
//! and the closed-loop client connections of a timed run.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::workload::{Req, Stream, Verb, Workload};

/// One reply frame of the line protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `OK <len>` followed by `len` payload bytes and a newline.
    Ok(Vec<u8>),
    /// `ERR <msg>`.
    Err(String),
}

/// Why a reply could not be read as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended before a header.
    Eof,
    /// The stream ended inside a payload.
    Short {
        want: usize,
        got: usize,
    },
    /// A header that is neither `OK <len>` nor `ERR <msg>`, or a
    /// payload not followed by its newline.
    Malformed(String),
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed before a reply"),
            FrameError::Short { want, got } => {
                write!(f, "short reply: {got} of {want} payload bytes")
            }
            FrameError::Malformed(h) => write!(f, "malformed reply: {h}"),
            FrameError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

/// Largest reply payload accepted; a longer `OK <len>` is malformed.
/// The largest reply of any workload is a few MB.
pub const MAX_REPLY: usize = 1 << 28;

/// Reads one frame; `body` is reused as the payload buffer.
pub fn read_frame<R: BufRead>(r: &mut R, body: &mut Vec<u8>) -> Result<Frame, FrameError> {
    let mut header = Vec::new();
    r.read_until(b'\n', &mut header)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    if header.is_empty() {
        return Err(FrameError::Eof);
    }
    if header.last() != Some(&b'\n') {
        return Err(FrameError::Malformed(
            String::from_utf8_lossy(&header).into_owned(),
        ));
    }
    header.pop();
    let header = String::from_utf8_lossy(&header).into_owned();
    if let Some(msg) = header.strip_prefix("ERR ") {
        return Ok(Frame::Err(msg.to_string()));
    }
    let len: usize = header
        .strip_prefix("OK ")
        .and_then(|n| n.parse().ok())
        .filter(|&n| n <= MAX_REPLY)
        .ok_or_else(|| FrameError::Malformed(header.clone()))?;
    body.clear();
    body.reserve(len + 1);
    let got = r
        .take(len as u64 + 1)
        .read_to_end(body)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    if got < len + 1 {
        return Err(FrameError::Short {
            want: len,
            got: got.min(len),
        });
    }
    if body.pop() != Some(b'\n') {
        return Err(FrameError::Malformed(format!(
            "payload of {len} bytes not newline-terminated"
        )));
    }
    Ok(Frame::Ok(std::mem::take(body)))
}

/// A reply's fingerprint: its length and a 64-bit SipHash of its bytes.
/// The oracle fingerprints its reference bodies the same way.
pub fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    (bytes.len(), h.finish())
}

/// A running `xust serve` and the files it owns.
pub struct ServerProc {
    child: Child,
    pub port: u16,
    pub stderr_path: PathBuf,
}

impl ServerProc {
    /// Starts the server on a free loopback port with the workload's
    /// documents, views and (optionally) a WAL in `dir`.
    pub fn spawn(
        xust: &Path,
        w: &Workload,
        doc_files: &[PathBuf],
        dir: &Path,
    ) -> io::Result<ServerProc> {
        let port = TcpListener::bind(("127.0.0.1", 0))?.local_addr()?.port();
        let stderr_path = dir.join("server.stderr");
        let mut cmd = Command::new(xust);
        cmd.arg("serve")
            .args(["--port", &port.to_string(), "--threads", "2"]);
        for (spec, file) in w.docs.iter().zip(doc_files) {
            cmd.arg("--doc")
                .arg(format!("{}={}", spec.name, file.display()));
        }
        for (name, text) in &w.views {
            cmd.arg("--view").arg(format!("{name}={text}"));
        }
        if w.wal {
            cmd.arg("--wal").arg(dir.join("wal.log"));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&stderr_path)?)
            .spawn()?;
        Ok(ServerProc {
            child,
            port,
            stderr_path,
        })
    }

    /// Connects once the server listens (it binds only after loading
    /// every document and registering every view).
    pub fn connect_when_ready(&mut self, timeout: Duration) -> io::Result<Conn> {
        let start = Instant::now();
        loop {
            match Conn::open(self.port) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("server exited: {status}")));
                    }
                    if start.elapsed() > timeout {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Stops the server (it serves until killed) and waits for it.
    pub fn stop(mut self) -> io::Result<()> {
        let _ = self.child.kill();
        self.child.wait().map(|_| ())
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    body: Vec<u8>,
}

impl Conn {
    pub fn open(port: u16) -> io::Result<Conn> {
        let s = TcpStream::connect(("127.0.0.1", port))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, s.try_clone()?),
            writer: BufWriter::new(s),
            body: Vec::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    pub fn recv(&mut self) -> Result<Frame, FrameError> {
        read_frame(&mut self.reader, &mut self.body)
    }

    /// Hands the payload buffer back for reuse.
    pub fn recycle(&mut self, body: Vec<u8>) {
        self.body = body;
    }

    /// One request, one reply.
    pub fn call(&mut self, line: &str) -> Result<Frame, FrameError> {
        self.send(line)
            .and_then(|_| self.flush())
            .map_err(|e| FrameError::Io(e.to_string()))?;
        self.recv()
    }

    pub fn quit(mut self) {
        let _ = self.send("QUIT").and_then(|_| self.flush());
    }
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Ok { len: usize, hash: u64 },
    Err(String),
    Transport(String),
}

/// One completed request of a timed run (or of the warm-up pass).
#[derive(Debug, Clone)]
pub struct Sample {
    pub conn: usize,
    pub req: Req,
    /// Microseconds from writing the request line to reading the whole
    /// reply.
    pub latency_us: f64,
    /// Seconds since the run started, at reply.
    pub done_s: f64,
    pub outcome: Outcome,
    /// The document states the reply may reflect, as counts of that
    /// document's updates applied: `lo..=hi`. For an `UPDATE`, `lo` is
    /// its own index (the state it produces).
    pub lo: u64,
    pub hi: u64,
    /// An `UPDATE` reply's `version=`.
    pub version: Option<u64>,
}

/// Per-document update counters shared by the connections of a run.
pub struct DocClock {
    /// Updates written to the wire.
    pub sent: Vec<AtomicU64>,
    /// Updates acknowledged.
    pub acked: Vec<AtomicU64>,
}

impl DocClock {
    pub fn new(n: usize) -> DocClock {
        DocClock {
            sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn parse_version(body: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(body).ok()?;
    s.split_whitespace()
        .find_map(|t| t.strip_prefix("version="))
        .and_then(|v| v.parse().ok())
}

/// Drives one connection's closed loop until `deadline`, keeping
/// `w.window` requests in flight, then drains what is outstanding.
pub fn run_conn(
    w: &Workload,
    conn: usize,
    mut c: Conn,
    mut stream: Stream,
    clock: &DocClock,
    start: Instant,
    deadline: Instant,
) -> (Vec<Sample>, Conn) {
    let mut samples = Vec::new();
    let mut inflight: VecDeque<(Req, Instant, u64)> = VecDeque::new();
    let mut broken: Option<String> = None;
    loop {
        if broken.is_none() {
            while inflight.len() < w.window && Instant::now() < deadline {
                let req = stream.next_req();
                let doc = req.doc();
                let own = w.writer_of(doc) == Some(conn);
                let lo = match &req {
                    Req::Update { .. } => clock.sent[doc].fetch_add(1, Ordering::SeqCst) + 1,
                    // Reads after this connection's own writes see them
                    // (writes are pipeline barriers); other writers'
                    // updates count once acknowledged.
                    _ if own => clock.sent[doc].load(Ordering::SeqCst),
                    _ => clock.acked[doc].load(Ordering::SeqCst),
                };
                let line = req.line(w);
                let sent_at = Instant::now();
                if let Err(e) = c.send(&line) {
                    broken = Some(e.to_string());
                    break;
                }
                inflight.push_back((req, sent_at, lo));
            }
            if broken.is_none() {
                if let Err(e) = c.flush() {
                    broken = Some(e.to_string());
                }
            }
        }
        let Some((req, sent_at, lo)) = inflight.pop_front() else {
            break;
        };
        let frame = if let Some(e) = &broken {
            Err(FrameError::Io(e.clone()))
        } else {
            c.recv()
        };
        let now = Instant::now();
        let latency_us = (now - sent_at).as_secs_f64() * 1e6;
        let doc = req.doc();
        let (outcome, version, hi) = match frame {
            Ok(Frame::Ok(body)) => {
                let (len, hash) = fingerprint(&body);
                let version = (req.verb() == Verb::Update)
                    .then(|| parse_version(&body))
                    .flatten();
                if req.verb() == Verb::Update {
                    clock.acked[doc].fetch_max(lo, Ordering::SeqCst);
                }
                c.recycle(body);
                let hi = match req.verb() {
                    Verb::Update => lo,
                    _ if w.writer_of(doc) == Some(conn) => lo,
                    _ => clock.sent[doc].load(Ordering::SeqCst),
                };
                (Outcome::Ok { len, hash }, version, hi)
            }
            Ok(Frame::Err(msg)) => (Outcome::Err(msg), None, lo),
            Err(e) => {
                broken.get_or_insert_with(|| e.to_string());
                (Outcome::Transport(e.to_string()), None, lo)
            }
        };
        samples.push(Sample {
            conn,
            req,
            latency_us,
            done_s: (now - start).as_secs_f64(),
            outcome,
            lo,
            hi,
            version,
        });
    }
    (samples, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(input: &[u8]) -> Vec<Result<Frame, FrameError>> {
        let mut r = io::Cursor::new(input.to_vec());
        let mut body = Vec::new();
        let mut out = Vec::new();
        loop {
            let f = read_frame(&mut r, &mut body);
            let stop = f.is_err();
            out.push(f);
            if stop {
                return out;
            }
        }
    }

    #[test]
    fn ok_and_err_frames_parse_in_order() {
        let got = frames(b"OK 5\nhello\nERR unknown view 'x'\nOK 0\n\n");
        assert_eq!(got[0], Ok(Frame::Ok(b"hello".to_vec())));
        assert_eq!(got[1], Ok(Frame::Err("unknown view 'x'".into())));
        assert_eq!(got[2], Ok(Frame::Ok(Vec::new())));
        assert_eq!(got[3], Err(FrameError::Eof));
    }

    #[test]
    fn payloads_may_hold_newlines() {
        let got = frames(b"OK 7\nab\ncd\ne\n");
        assert_eq!(got[0], Ok(Frame::Ok(b"ab\ncd\ne".to_vec())));
    }

    #[test]
    fn short_reads_are_reported() {
        assert_eq!(
            frames(b"OK 10\nabc")[0],
            Err(FrameError::Short { want: 10, got: 3 })
        );
        // The payload is complete but its newline never came.
        assert_eq!(
            frames(b"OK 3\nabc")[0],
            Err(FrameError::Short { want: 3, got: 3 })
        );
        assert!(matches!(frames(b"OK 1")[0], Err(FrameError::Malformed(_))));
    }

    #[test]
    fn bad_headers_and_terminators_are_malformed() {
        assert!(matches!(
            frames(b"HELLO\n")[0],
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            frames(b"OK x\n")[0],
            Err(FrameError::Malformed(_))
        ));
        let huge = format!("OK {}\n", MAX_REPLY + 1);
        assert!(matches!(
            frames(huge.as_bytes())[0],
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            frames(b"OK 2\nabc")[0],
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn update_replies_carry_their_version() {
        assert_eq!(
            parse_version(b"updated d3 epoch=9 version=4 targets=1 retained=0"),
            Some(4)
        );
        assert_eq!(parse_version(b"<site/>"), None);
    }
}
