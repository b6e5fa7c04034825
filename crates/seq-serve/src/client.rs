//! Minimal wire client for the `seqd` line protocol (`seqsh --connect`,
//! tests, and the benchmark's wire workloads).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::session::Reply;

/// One server response: the payload lines of an `OK`, or the error line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK <n>` payload, terminator stripped.
    Ok(Vec<String>),
    /// `ERR <code> <message>`.
    Err {
        /// Machine-readable error class (`busy`, `query`, `proto`, ...).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl From<Reply> for Response {
    /// The response a wire client reads for `reply`: an error message
    /// travels on one line.
    fn from(reply: Reply) -> Response {
        match reply {
            Ok(lines) => Response::Ok(lines),
            Err((code, message)) => {
                Response::Err { code: code.to_string(), message: message.replace('\n', " ") }
            }
        }
    }
}

impl Response {
    /// Whether this is an `ERR` with the given code.
    pub fn is_err_code(&self, want: &str) -> bool {
        matches!(self, Response::Err { code, .. } if code == want)
    }
}

/// A connected `seqd` session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One command per round trip: latency matters more than packet count.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Send one command line and read the full response.
    pub fn send(&mut self, line: &str) -> std::io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut head = String::new();
        if self.reader.read_line(&mut head)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let head = head.trim_end();
        if let Some(rest) = head.strip_prefix("ERR ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Ok(Response::Err { code: code.to_string(), message: message.to_string() });
        }
        let n: usize = head.strip_prefix("OK ").and_then(|n| n.parse().ok()).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response head: {head:?}"),
            )
        })?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            lines.push(line.trim_end().to_string());
        }
        let mut terminator = String::new();
        self.reader.read_line(&mut terminator)?;
        if terminator.trim_end() != "." {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("missing terminator, got {terminator:?}"),
            ));
        }
        Ok(Response::Ok(lines))
    }
}
