//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection, `Content-Length` bodies only (all the server sends).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A response: status code and body bytes.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection. Reconnects when the server answered the
/// previous request with `Connection: close`, or closed the connection
/// while it sat idle.
pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let mut conn = Conn { addr, reader: None };
        conn.connect()?;
        Ok(conn)
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(self.reader.insert(BufReader::new(stream)))
    }

    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.request("GET", target, &[])
    }

    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<Response> {
        self.request("POST", target, body)
    }

    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Response> {
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let reused = self.reader.is_some();
        let outcome = self.exchange(&wire);
        // The server drops keep-alive connections idle past its read
        // timeout without answering; the request never reached it, so
        // sending it once more on a fresh connection is safe.
        let outcome = match outcome {
            Err(e) if reused && is_stale(&e) => {
                self.reader = None;
                self.exchange(&wire)
            }
            other => other,
        };
        match outcome {
            Ok((response, keep_alive)) => {
                if !keep_alive {
                    self.reader = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.reader = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<(Response, bool)> {
        let reader = match self.reader.as_mut() {
            Some(reader) => reader,
            None => self.connect()?,
        };
        reader.get_mut().write_all(wire)?;
        read_response(reader)
    }
}

/// Errors that mean the server had closed the connection before the
/// request reached it.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
    )
}

/// Reads one response; also returns whether the connection stays open.
fn read_response(reader: &mut impl BufRead) -> io::Result<(Response, bool)> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        // closed before any byte of a response: the request was not served
        return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "connection closed"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{}`", line.trim_end())))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("headers cut short".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| bad(format!("bad Content-Length `{value}`")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok((Response { status, body }, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_keep_alive_response_and_leaves_the_next_one() {
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nokHTTP/1.1 503 x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
        let mut reader = BufReader::new(wire.as_bytes());
        let (first, keep) = read_response(&mut reader).unwrap();
        assert_eq!((first.status, first.body.as_slice(), keep), (200, &b"ok"[..], true));
        let (second, keep) = read_response(&mut reader).unwrap();
        assert_eq!((second.status, second.body.len(), keep), (503, 0, false));
    }
}
