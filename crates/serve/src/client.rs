//! A minimal blocking client for the daemon's line protocol, shared by
//! `crp-cli` and the integration tests.
//!
//! Each request line leaves in one write on a `TCP_NODELAY` socket. A
//! line split over two writes would send its tail as a second small
//! segment, which Nagle's algorithm holds until the daemon ACKs the
//! first — and the daemon delays that ACK by up to ~40 ms, because it
//! has nothing to answer until the newline arrives.

use crate::error::ServeError;
use crate::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One connection to a `crpd` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the connection fails.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::new(format!("cannot connect to {addr}: {e}")))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request object and reads one response line.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on transport failure, a malformed
    /// response, or an `{"ok":false}` response (carrying the daemon's
    /// error message).
    pub fn call(&mut self, request: &Json) -> Result<Json, ServeError> {
        self.send(request)?;
        self.read_response()
    }

    /// Sends one request object without reading a response (used by
    /// `watch`, which then consumes a stream).
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on transport failure.
    pub fn send(&mut self, request: &Json) -> Result<(), ServeError> {
        let mut line = request.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Reads the next response line, unwrapping the `ok` envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on EOF, malformed JSON, or an error
    /// response.
    pub fn read_response(&mut self) -> Result<Json, ServeError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::new("daemon closed the connection"));
        }
        let v = parse(&line)?;
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(v)
        } else {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown daemon error");
            Err(ServeError::new(msg))
        }
    }
}
