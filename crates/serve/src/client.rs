//! A small blocking client, used by the differential tests, `bench serve`
//! and anything else that wants to talk to an `isax serve` instance
//! from Rust without hand-rolling the framing.

use crate::protocol::{
    decode_response, encode_request, Artifacts, ErrorCode, Frame, Reply, Request, Response,
    WireError,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a server. One request is in flight at a
/// time (send, then read the matching response).
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            next_id: 1,
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// I/O failures and undecodable responses surface as `WireError`s.
    pub fn request(&mut self, request: Request) -> Result<Response, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let line = encode_request(&Frame { id, request });
        self.send_raw(&line)
    }

    /// Sends a pre-encoded (possibly malformed, for tests) frame and
    /// blocks for one response line.
    ///
    /// # Errors
    ///
    /// I/O failures and undecodable responses surface as `WireError`s.
    pub fn send_raw(&mut self, line: &str) -> Result<Response, WireError> {
        let io_err = |e: std::io::Error| WireError::new(ErrorCode::TruncatedFrame, e.to_string());
        self.writer.write_all(line.as_bytes()).map_err(io_err)?;
        self.writer.write_all(b"\n").map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        self.read_response()
    }

    /// Reads one response line (used after half-close tests where the
    /// request had no terminating newline).
    ///
    /// # Errors
    ///
    /// I/O failures and undecodable responses surface as `WireError`s.
    pub fn read_response(&mut self) -> Result<Response, WireError> {
        let mut resp_line = String::new();
        let n = self
            .reader
            .read_line(&mut resp_line)
            .map_err(|e| WireError::new(ErrorCode::TruncatedFrame, e.to_string()))?;
        if n == 0 {
            return Err(WireError::new(
                ErrorCode::TruncatedFrame,
                "server closed the connection",
            ));
        }
        decode_response(resp_line.trim_end_matches('\n'))
    }

    /// Sends `request` and unwraps an artifact reply, erroring on
    /// anything else.
    ///
    /// # Errors
    ///
    /// Transport errors and server error replies.
    pub fn artifacts(&mut self, request: Request) -> Result<(bool, Artifacts), WireError> {
        match self.request(request)?.reply {
            Reply::Artifacts { cached, artifacts } => Ok((cached, artifacts)),
            Reply::Error(e) => Err(e),
            other => Err(WireError::new(
                ErrorCode::BadRequest,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Fetches the Prometheus-text metrics exposition.
    ///
    /// # Errors
    ///
    /// Transport errors and server error replies.
    pub fn metrics(&mut self) -> Result<String, WireError> {
        match self.request(Request::Metrics)?.reply {
            Reply::Metrics(text) => Ok(text),
            Reply::Error(e) => Err(e),
            other => Err(WireError::new(
                ErrorCode::BadRequest,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Half-closes the write side, so the server sees EOF (used by the
    /// truncated-frame tests).
    ///
    /// # Errors
    ///
    /// Propagates socket shutdown failures.
    pub fn shutdown_write(&mut self) -> std::io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }

    /// Writes raw bytes without framing (for truncation tests).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }
}
