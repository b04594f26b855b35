//! Byte transports the server speaks over.
//!
//! The server needs exactly two capabilities from a connection: a writer
//! that several threads can share behind a mutex, and a reader that can
//! wait *with a timeout* so connection handlers notice shutdown without a
//! byte arriving. [`TimedRead`] captures the latter; it is implemented for
//! real [`TcpStream`]s and for an in-process pipe built on channels, which
//! gives the test harness a deterministic loopback with no sockets, ports,
//! or OS-dependent backlog behaviour.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Outcome of one timed read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes were read into the buffer.
    Data(usize),
    /// The timeout elapsed with no bytes available.
    TimedOut,
    /// The peer closed the connection.
    Eof,
}

/// A reader that can bound how long it blocks.
pub trait TimedRead {
    /// Reads into `buf`, waiting at most `timeout`.
    fn read_timed(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<ReadOutcome>;
}

impl TimedRead for TcpStream {
    fn read_timed(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<ReadOutcome> {
        self.set_read_timeout(Some(timeout))?;
        match self.read(buf) {
            Ok(0) => Ok(ReadOutcome::Eof),
            Ok(n) => Ok(ReadOutcome::Data(n)),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(ReadOutcome::TimedOut)
            }
            Err(e) => Err(e),
        }
    }
}

/// A TCP writer with a per-frame deadline, so a client that stops reading
/// cannot pin a connection handler (and the writer mutex it holds) forever
/// once the socket's send buffer fills.
///
/// The protocol writes one frame as a single `write_all` + `flush`, so the
/// deadline arms on the first byte of a frame and disarms on `flush`:
/// however the kernel slices the frame into partial writes, the *whole
/// frame* must drain within `timeout`. A stall surfaces as a hard
/// [`io::ErrorKind::TimedOut`] error — the caller drops the connection
/// rather than retrying into the same full buffer.
pub struct TimedWriter {
    stream: TcpStream,
    timeout: Duration,
    /// Deadline of the frame in flight; `None` between frames.
    deadline: Option<Instant>,
}

impl TimedWriter {
    /// Wraps `stream`, bounding every frame write by `timeout`.
    pub fn new(stream: TcpStream, timeout: Duration) -> TimedWriter {
        TimedWriter { stream, timeout, deadline: None }
    }
}

impl Write for TimedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = *self
            .deadline
            .get_or_insert_with(|| Instant::now() + self.timeout);
        let mut written = 0;
        while written < buf.len() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.deadline = None;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame write stalled past deadline",
                ));
            }
            self.stream.set_write_timeout(Some(remaining))?;
            match self.stream.write(&buf[written..]) {
                Ok(0) => {
                    self.deadline = None;
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    self.deadline = None;
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "frame write stalled past deadline",
                    ));
                }
                Err(e) => {
                    self.deadline = None;
                    return Err(e);
                }
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.deadline = None;
        self.stream.flush()
    }
}

/// Write half of an in-process pipe. Each `write` ships one message; the
/// channel is bounded so a stalled reader applies backpressure instead of
/// letting memory grow.
pub struct PipeWriter {
    tx: SyncSender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe reader dropped"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Read half of an in-process pipe.
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    /// Message bytes received but not yet handed to a caller.
    leftover: Vec<u8>,
    cursor: usize,
}

impl PipeReader {
    fn take_buffered(&mut self, buf: &mut [u8]) -> usize {
        let avail = &self.leftover[self.cursor..];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.cursor += n;
        if self.cursor == self.leftover.len() {
            self.leftover.clear();
            self.cursor = 0;
        }
        n
    }
}

impl TimedRead for PipeReader {
    fn read_timed(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<ReadOutcome> {
        if self.cursor < self.leftover.len() {
            return Ok(ReadOutcome::Data(self.take_buffered(buf)));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => {
                self.leftover = msg;
                self.cursor = 0;
                Ok(ReadOutcome::Data(self.take_buffered(buf)))
            }
            Err(RecvTimeoutError::Timeout) => Ok(ReadOutcome::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Ok(ReadOutcome::Eof),
        }
    }
}

/// Creates one direction of an in-process byte stream.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = sync_channel(256);
    (PipeWriter { tx }, PipeReader { rx, leftover: Vec::new(), cursor: 0 })
}

/// One side of a bidirectional connection: a timed reader plus a writer
/// that is shared behind a mutex so the connection handler and the job
/// executor can interleave whole frames without tearing them.
pub struct Conn {
    /// Inbound bytes.
    pub reader: Box<dyn TimedRead + Send>,
    /// Outbound bytes; lock held across one full frame write.
    pub writer: std::sync::Arc<Mutex<Box<dyn Write + Send>>>,
}

impl Conn {
    /// Wraps a TCP stream (cloned so reads and writes have independent
    /// handles) with unbounded writes.
    pub fn tcp(stream: TcpStream) -> io::Result<Conn> {
        Conn::tcp_with_timeout(stream, Duration::ZERO)
    }

    /// Wraps a TCP stream, bounding every outbound frame by
    /// `write_timeout` (see [`TimedWriter`]); zero means unbounded writes.
    ///
    /// Turns Nagle off: every frame already leaves in one `write_all`, so
    /// there is nothing to coalesce, and with Nagle on a job's `GAF` waits
    /// behind the unacknowledged `ACCEPT` (and `DONE` behind `GAF`) until
    /// the peer's delayed ACK fires, ~40 ms on Linux.
    pub fn tcp_with_timeout(stream: TcpStream, write_timeout: Duration) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        let writer: Box<dyn Write + Send> = if write_timeout.is_zero() {
            Box::new(write_half)
        } else {
            Box::new(TimedWriter::new(write_half, write_timeout))
        };
        Ok(Conn { reader: Box::new(stream), writer: std::sync::Arc::new(Mutex::new(writer)) })
    }

    /// Creates a connected in-process pair: `(server_side, client_side)`.
    pub fn pair() -> (Conn, Conn) {
        let (to_client_tx, to_client_rx) = pipe();
        let (to_server_tx, to_server_rx) = pipe();
        let server = Conn {
            reader: Box::new(to_server_rx),
            writer: std::sync::Arc::new(Mutex::new(Box::new(to_client_tx))),
        };
        let client = Conn {
            reader: Box::new(to_client_rx),
            writer: std::sync::Arc::new(Mutex::new(Box::new(to_server_tx))),
        };
        (server, client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_moves_bytes_and_reports_eof() {
        let (mut w, mut r) = pipe();
        w.write_all(b"hello").unwrap();
        w.write_all(b" world").unwrap();
        let mut buf = [0u8; 3];
        assert_eq!(r.read_timed(&mut buf, Duration::from_secs(1)).unwrap(), ReadOutcome::Data(3));
        assert_eq!(&buf, b"hel");
        assert_eq!(r.read_timed(&mut buf, Duration::from_secs(1)).unwrap(), ReadOutcome::Data(2));
        assert_eq!(&buf[..2], b"lo");
        assert_eq!(r.read_timed(&mut buf, Duration::from_secs(1)).unwrap(), ReadOutcome::Data(3));
        assert_eq!(&buf, b" wo");
        drop(w);
        // Buffered bytes drain before EOF is reported.
        assert_eq!(r.read_timed(&mut buf, Duration::from_secs(1)).unwrap(), ReadOutcome::Data(3));
        assert_eq!(&buf, b"rld");
        assert_eq!(r.read_timed(&mut buf, Duration::from_secs(1)).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn pipe_times_out_when_idle() {
        let (_w, mut r) = pipe();
        let mut buf = [0u8; 8];
        assert_eq!(
            r.read_timed(&mut buf, Duration::from_millis(10)).unwrap(),
            ReadOutcome::TimedOut
        );
    }

    #[test]
    fn timed_writer_errors_when_reader_stalls() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A client that connects and then never reads a byte.
        let stalled = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();

        let conn = Conn::tcp_with_timeout(server_stream, Duration::from_millis(200)).unwrap();
        let start = Instant::now();
        let mut w = conn.writer.lock().unwrap();
        // Push frames until the socket buffers fill; the deadline must
        // then fire instead of blocking forever.
        let frame = vec![0u8; 1 << 20];
        let err = loop {
            match w.write_all(&frame).and_then(|_| w.flush()) {
                Ok(()) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "got {err}");
        // Bounded time: well under the multi-second hang an untimed
        // writer would produce (allow scheduler slop).
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(w);
        drop(stalled);
    }

    #[test]
    fn timed_writer_passes_frames_to_a_live_reader() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();

        let conn = Conn::tcp_with_timeout(server_stream, Duration::from_secs(5)).unwrap();
        {
            let mut w = conn.writer.lock().unwrap();
            w.write_all(b"hello frame").unwrap();
            w.flush().unwrap();
        }
        let mut buf = [0u8; 11];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello frame");
    }

    #[test]
    fn both_tcp_constructors_turn_nagle_off() {
        use std::net::TcpListener;

        let wrappers: [fn(TcpStream) -> io::Result<Conn>; 3] = [
            Conn::tcp,
            |s| Conn::tcp_with_timeout(s, Duration::ZERO),
            |s| Conn::tcp_with_timeout(s, Duration::from_secs(5)),
        ];
        for wrap in wrappers {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server_stream, _) = listener.accept().unwrap();
            // A clone shares the socket, so it sees the wrapped stream's
            // options.
            let probe = server_stream.try_clone().unwrap();
            assert!(!probe.nodelay().unwrap(), "sockets start with Nagle on");
            let _conn = wrap(server_stream).unwrap();
            assert!(probe.nodelay().unwrap(), "Nagle must be off once wrapped");
        }
    }

    #[test]
    fn conn_pair_is_full_duplex() {
        let (server, client) = Conn::pair();
        client.writer.lock().unwrap().write_all(b"ping").unwrap();
        server.writer.lock().unwrap().write_all(b"pong").unwrap();
        let mut server = server;
        let mut client = client;
        let mut buf = [0u8; 4];
        assert_eq!(
            server.reader.read_timed(&mut buf, Duration::from_secs(1)).unwrap(),
            ReadOutcome::Data(4)
        );
        assert_eq!(&buf, b"ping");
        assert_eq!(
            client.reader.read_timed(&mut buf, Duration::from_secs(1)).unwrap(),
            ReadOutcome::Data(4)
        );
        assert_eq!(&buf, b"pong");
    }
}
