//! A minimal blocking NDJSON client — enough for `greenness query` and the
//! integration tests.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;

/// One connection to a `greenness serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read one response line (without the
    /// trailing newline).
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        let mut line = request.trim().to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        // `read_line` also returns on EOF mid-line; a response without its
        // trailing newline is torn, not complete — surface that as a clean
        // protocol error rather than handing back truncated JSON.
        if !response.ends_with('\n') {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-response (no trailing newline)",
            ));
        }
        Ok(response.trim_end_matches('\n').to_string())
    }
}

/// One-shot convenience: connect, send, receive, disconnect.
pub fn query(addr: &str, request: &str) -> std::io::Result<String> {
    Client::connect(addr)?.roundtrip(request)
}
