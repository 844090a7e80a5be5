//! A minimal keep-alive HTTP/1.1 client for the daemon's protocol.
//!
//! Shared by `fastvg-loadgen`, the integration tests, the `serve`
//! example and [`crate::remote::RemoteExtractor`] so none of them
//! re-implement response framing or transport policy. [`ClientConfig`]
//! is the one place connect/read timeouts, keep-alive socket options and
//! connect retries are decided; one [`Client`] is one persistent
//! connection; drop it to close.

use fastvg_wire::{Json, JsonError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Transport policy for daemon connections: builder-style, one config
/// shared by every client in the workspace (loadgen, tests,
/// [`crate::remote::RemoteExtractor`]).
///
/// ```no_run
/// use fastvg_serve::ClientConfig;
/// use std::time::Duration;
///
/// let mut client = ClientConfig::new()
///     .connect_timeout(Duration::from_secs(2))
///     .read_timeout(Duration::from_secs(30))
///     .retries(3, Duration::from_millis(50))
///     .connect("127.0.0.1:8737")?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "the config does nothing until connect() is called"]
pub struct ClientConfig {
    connect_timeout: Duration,
    read_timeout: Option<Duration>,
    retries: u32,
    retry_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Some(Duration::from_secs(120)),
            retries: 0,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

impl ClientConfig {
    /// The default policy: 10 s connect timeout, 120 s read timeout
    /// (sized for `?wait` extraction requests), `TCP_NODELAY`, no
    /// retries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum time to establish the TCP connection (per attempt).
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Maximum time a response read may block; `None` blocks forever.
    pub fn read_timeout(mut self, timeout: impl Into<Option<Duration>>) -> Self {
        self.read_timeout = timeout.into();
        self
    }

    /// Retry refused/timed-out connects up to `retries` extra times,
    /// sleeping `backoff × n` before retry `n`. Useful when racing a
    /// daemon that is still binding its socket.
    pub fn retries(mut self, retries: u32, backoff: Duration) -> Self {
        self.retries = retries;
        self.retry_backoff = backoff;
        self
    }

    /// The sleep before retry `attempt` (1-based): the linear backoff
    /// `backoff × attempt`.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        self.retry_backoff * attempt
    }

    /// Opens one persistent connection to `addr`
    /// (e.g. `"127.0.0.1:8737"`).
    ///
    /// # Errors
    ///
    /// Returns the last attempt's error after the retry budget is spent.
    pub fn connect(&self, addr: &str) -> std::io::Result<Client> {
        let mut last_err = None;
        for attempt in 0..=self.retries {
            if attempt > 0 {
                std::thread::sleep(self.backoff_delay(attempt));
            }
            match self.connect_once(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one connect attempt"))
    }

    fn connect_once(&self, addr: &str) -> std::io::Result<Client> {
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{addr:?} resolved to no address"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sockaddr, self.connect_timeout)?;
        stream.set_read_timeout(self.read_timeout)?;
        // Requests are small and latency-sensitive.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers (names lowercased) in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as one (newline-framed) JSON document.
    ///
    /// # Errors
    ///
    /// Returns the [`JsonError`] for non-JSON bodies.
    pub fn json(&self) -> Result<Json, JsonError> {
        let text = std::str::from_utf8(&self.body).map_err(|_| JsonError {
            offset: 0,
            message: "body is not UTF-8".to_string(),
        })?;
        Json::parse(text.trim_end_matches(['\r', '\n']))
    }
}

/// A persistent connection to a `fastvg-serve` daemon.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:8737"`) with the default
    /// [`ClientConfig`] policy.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        ClientConfig::new().connect(addr)
    }

    /// [`Client::connect`] with an explicit read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        ClientConfig::new().read_timeout(timeout).connect(addr)
    }

    /// Sends a `GET`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, &[])
    }

    /// Sends a `POST` with a body.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
        self.request("POST", path, body)
    }

    /// Sends a `PUT` with a body (the cache-seeding verb of the fleet
    /// protocol).
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn put(&mut self, path: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
        self.request("PUT", path, body)
    }

    /// Sends an arbitrary method with a body — e.g. the fleet protocol's
    /// `GET /cache/<fingerprint>` probe, whose optional body carries the
    /// canonical key for collision verification.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        self.request(method, path, body)
    }

    /// [`Client::send`] with extra request headers — how trace context
    /// (`x-fastvg-trace`) rides along without every caller paying for a
    /// header parameter. Header names and values must be line-free; the
    /// client does not validate them.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn send_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: fastvg\r\n");
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        self.read_response()
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        self.send_with_headers(method, path, body, &[])
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let malformed = |what: &str| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("malformed {what}"))
        };
        let mut status_line = String::new();
        loop {
            status_line.clear();
            if self.reader.read_line(&mut status_line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before response",
                ));
            }
            let status = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| malformed("status line"))?;
            // Interim 1xx responses (100 Continue) precede the real one.
            if status >= 200 {
                break;
            }
            self.read_headers()?; // discard the interim header block
        }
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| malformed("status line"))?;
        let headers = self.read_headers()?;
        let length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| malformed("content-length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    fn read_headers(&mut self) -> std::io::Result<Vec<(String, String)>> {
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed inside headers",
                ));
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                return Ok(headers);
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_the_linear_schedule() {
        let config = ClientConfig::new().retries(5, Duration::from_millis(50));
        for attempt in 1..=5 {
            assert_eq!(
                config.backoff_delay(attempt),
                Duration::from_millis(50) * attempt
            );
        }
    }
}
