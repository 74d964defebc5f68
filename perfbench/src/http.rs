//! The benchmark's own HTTP/1.1 client: one keep-alive connection that
//! writes each request in a single `write`, reads exactly
//! `Content-Length` body bytes, and stamps the arrival of the response
//! head and of the last body byte separately. The gap between the two
//! stamps is then the server's doing, not the client's.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a request may take before it counts as a timeout.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// Largest response head the client accepts.
const MAX_HEAD: usize = 16 * 1024;

/// A complete response and its timing.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes, exactly `Content-Length` of them.
    pub body: Vec<u8>,
    /// When the request was written.
    pub sent: Instant,
    /// When the blank line ending the response head arrived.
    pub head_at: Instant,
    /// When the last body byte arrived.
    pub done_at: Instant,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One keep-alive connection, reopened when the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads its response. Any transport error or
    /// timeout drops the connection so the next request starts clean.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
        let out = self.exchange(method, path, body);
        if out.as_ref().map_or(true, |(_, close)| *close) {
            self.stream = None;
        }
        out.map(|(reply, _)| reply)
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<(Reply, bool), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, TIMEOUT)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            s.set_read_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            s.set_write_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        let sent = Instant::now();
        stream.write_all(&req).map_err(|e| format!("write: {e}"))?;

        let mut buf = Vec::with_capacity(4096);
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(i) = find(&buf, b"\r\n\r\n") {
                break i + 4;
            }
            if buf.len() > MAX_HEAD {
                return Err("response head too long".into());
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read head: {e}"))?;
            if n == 0 {
                return Err("connection closed before the response head".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head_at = Instant::now();
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("no status code")?;
        let mut length = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    length = Some(v.parse::<usize>().map_err(|_| "bad Content-Length")?);
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let mut body = buf.split_off(head_end);
        if body.len() > length {
            return Err("more bytes than Content-Length".into());
        }
        let have = body.len();
        body.resize(length, 0);
        stream
            .read_exact(&mut body[have..])
            .map_err(|e| format!("read body: {e}"))?;
        let done_at = Instant::now();
        Ok((
            Reply {
                status,
                body,
                sent,
                head_at,
                done_at,
            },
            close,
        ))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers each request with its head and body in two
    /// writes, `gap` apart, and closes after `replies` responses.
    fn two_write_server(
        gap: Duration,
        replies: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4096];
            for i in 0..replies {
                let mut got = Vec::new();
                while find(&got, b"\r\n\r\n").is_none() {
                    let n = s.read(&mut buf).expect("read");
                    got.extend_from_slice(&buf[..n]);
                }
                let conn = if i + 1 == replies {
                    "close"
                } else {
                    "keep-alive"
                };
                let head =
                    format!("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: {conn}\r\n\r\n");
                s.write_all(head.as_bytes()).expect("head");
                std::thread::sleep(gap);
                s.write_all(b"hello").expect("body");
            }
        });
        (addr, server)
    }

    #[test]
    fn stamps_head_and_body_separately() {
        let (addr, server) = two_write_server(Duration::from_millis(30), 2);
        let mut conn = Conn::new(addr);
        for _ in 0..2 {
            let r = conn.request("GET", "/x", b"").expect("reply");
            assert!(r.ok());
            assert_eq!(r.body, b"hello");
            assert!(r.done_at - r.head_at >= Duration::from_millis(25));
        }
        // The server closed after its last reply; the client noticed.
        assert!(conn.stream.is_none());
        server.join().expect("server thread");
    }
}
