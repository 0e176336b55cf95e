//! The benchmark's client: the server's own wire protocol over a
//! nonblocking socket, waiting for each answer by spinning for up to
//! [`SPIN`] before it blocks.
//!
//! A blocking client sleeps in `read` and, on a VM, its idle vCPU can
//! take hundreds of microseconds to be woken when the answer lands. That
//! wake-up is not the server's latency, and it varied with the host's
//! load. Spinning through a whole slow answer, on the other hand, took
//! CPU from the server's own CPU-bound work (a `TAG` rebuild ran ~25%
//! slower), so the spin is bounded. The client's CPU time is kept out of
//! `cpu_us_per_op`.

use dq_server::protocol::{frame, try_unframe};
use dq_server::{Request, Response};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the client spins for one answer: a few of the server's
/// 200µs idle sleeps.
const SPIN: Duration = Duration::from_millis(1);

pub struct SpinClient {
    stream: TcpStream,
    buf: Vec<u8>,
    /// On a single CPU spinning would starve the server: yield instead.
    spin: bool,
}

impl SpinClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<SpinClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(SpinClient {
            stream,
            buf: Vec::new(),
            spin: crate::sys::allowed_cpus().len() > 1,
        })
    }

    fn wait(&self) {
        if self.spin {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Blocks until the socket has something to read.
    fn block(&mut self, chunk: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_nonblocking(false)?;
        let n = self.stream.read(chunk);
        self.stream.set_nonblocking(true)?;
        n
    }

    /// One statement's round trip: the rendered answer, or the server's
    /// error message.
    pub fn query(&mut self, sql: &str) -> Result<String, String> {
        let out = frame(&Request::Query { sql: sql.to_owned() }.encode());
        let mut sent = 0;
        while sent < out.len() {
            match self.stream.write(&out[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.wait(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        let sent_at = Instant::now();
        let payload = loop {
            if let Some(p) = try_unframe(&mut self.buf).map_err(|e| format!("frame: {e}"))? {
                break p;
            }
            let read = if sent_at.elapsed() < SPIN {
                self.stream.read(&mut chunk)
            } else {
                self.block(&mut chunk)
            };
            match read {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.wait(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        };
        match Response::decode(&payload).map_err(|e| format!("decode: {e}"))? {
            Response::Ok { body } => Ok(body),
            Response::Err { message } => Err(message),
            Response::Pong => Err("pong to a query".into()),
        }
    }
}
