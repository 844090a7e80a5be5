//! Framing-edge tests for the epoll reactor, over raw sockets: the
//! cases a friendly keep-alive client never produces — pipelined
//! segments, heads split across writes, slowloris bodies, half-open
//! disconnects, accept-time overload, graceful drain with a response
//! still in flight, deferred fallbacks and peers that stop reading.

use fastvg_serve::{
    deferred, Completer, Handler, HttpConfig, HttpServer, Outcome, Request, Response,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long `/fallback` parks before the reactor answers for it.
const FALLBACK_AFTER: Duration = Duration::from_millis(150);

/// Body length of `/big`: far more than the kernel buffers hold.
const BIG_BODY: usize = 32 << 20;

/// Echoes `<method> <path>` (+ `:<body>` when non-empty); `/defer`
/// parks the request and hands its [`Completer`] to the test thread,
/// `/fallback` does the same with a `202 fallback` armed
/// [`FALLBACK_AFTER`] out, and `/big` answers a [`BIG_BODY`]-byte body.
struct TestHandler {
    completers: Mutex<Sender<Completer>>,
}

impl Handler for TestHandler {
    fn handle(&self, request: &Request) -> Outcome {
        if request.path == "/defer" || request.path == "/fallback" {
            let (mut deferred, completer) = deferred();
            if request.path == "/fallback" {
                deferred = deferred.with_fallback(
                    Instant::now() + FALLBACK_AFTER,
                    Response::text(202, "fallback"),
                );
            }
            self.completers
                .lock()
                .unwrap()
                .send(completer)
                .expect("test thread holds the receiver");
            return Outcome::Pending(deferred);
        }
        if request.path == "/big" {
            return Outcome::Ready(Response::text(200, vec![b'x'; BIG_BODY]));
        }
        let mut text = format!("{} {}", request.method, request.path);
        if !request.body.is_empty() {
            text.push(':');
            text.push_str(&String::from_utf8_lossy(&request.body));
        }
        Outcome::Ready(Response::text(200, text))
    }
}

struct TestServer {
    server: HttpServer,
    addr: String,
    #[allow(dead_code)]
    completers: std::sync::mpsc::Receiver<Completer>,
}

fn boot(tweak: impl FnOnce(&mut HttpConfig)) -> TestServer {
    let (tx, rx) = channel();
    let handler = Arc::new(TestHandler {
        completers: Mutex::new(tx),
    });
    let mut config = HttpConfig::default();
    tweak(&mut config);
    let server = HttpServer::bind("127.0.0.1:0", handler, config).expect("ephemeral bind");
    let addr = server.addr().to_string();
    TestServer {
        server,
        addr,
        completers: rx,
    }
}

/// Reads one full response (status line + headers + content-length
/// body) out of `buf`, pulling more bytes off the stream as needed.
/// Trailing bytes — the next pipelined response, when the reactor
/// coalesces several into one segment — stay in `buf` for the next
/// call.
fn read_response_into(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).expect("response read");
        assert!(n > 0, "connection closed before a full head: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or(0);
    while buf.len() < head_end + length {
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).expect("body read");
        assert!(n > 0, "connection closed inside the body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[head_end..head_end + length].to_vec();
    buf.drain(..head_end + length);
    (status, headers, body)
}

/// [`read_response_into`] for streams with at most one response in
/// flight (every test but the pipelined one).
fn read_response(stream: &mut TcpStream) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut buf = Vec::new();
    read_response_into(stream, &mut buf)
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    let ts = boot(|_| {});
    let mut stream = connect(&ts.addr);
    stream
        .write_all(
            b"GET /first HTTP/1.1\r\nhost: t\r\n\r\n\
              POST /second HTTP/1.1\r\nhost: t\r\ncontent-length: 5\r\n\r\nhello\
              GET /third HTTP/1.1\r\nhost: t\r\n\r\n",
        )
        .unwrap();
    let mut buf = Vec::new();
    let (status, _, body) = read_response_into(&mut stream, &mut buf);
    assert_eq!((status, body.as_slice()), (200, b"GET /first".as_slice()));
    let (status, _, body) = read_response_into(&mut stream, &mut buf);
    assert_eq!(
        (status, body.as_slice()),
        (200, b"POST /second:hello".as_slice())
    );
    let (status, _, body) = read_response_into(&mut stream, &mut buf);
    assert_eq!((status, body.as_slice()), (200, b"GET /third".as_slice()));
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn heads_split_across_many_writes_still_parse() {
    let ts = boot(|_| {});
    let mut stream = connect(&ts.addr);
    for piece in [
        "POST /sp",
        "lit HTTP/1.1\r\nho",
        "st: t\r\ncontent-le",
        "ngth: 4\r\n\r\n",
        "ab",
        "cd",
    ] {
        stream.write_all(piece.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(body, b"POST /split:abcd");
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn slowloris_bodies_hit_the_read_deadline_with_408() {
    let ts = boot(|config| {
        config.request_read_deadline = Duration::from_millis(200);
        config.idle_timeout = Duration::from_secs(30);
    });
    let mut stream = connect(&ts.addr);
    // Head complete, body trickling: one byte of forty ever arrives.
    stream
        .write_all(b"POST /drip HTTP/1.1\r\nhost: t\r\ncontent-length: 40\r\n\r\nx")
        .unwrap();
    let (status, headers, _) = read_response(&mut stream);
    assert_eq!(status, 408, "trickling request must time out");
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "connection" && v == "close"),
        "a timed-out connection is not reusable: {headers:?}"
    );
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn idle_keepalive_connections_close_silently_not_with_408() {
    let ts = boot(|config| {
        config.idle_timeout = Duration::from_millis(200);
        config.request_read_deadline = Duration::from_secs(30);
    });
    let mut stream = connect(&ts.addr);
    // One complete request proves the connection is established and
    // idle-between-requests, not mid-request.
    stream
        .write_all(b"GET /warm HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200);

    // Now sit idle past the timeout: the server closes without writing a
    // single byte (no 408 — the request deadline is for started
    // requests).
    let mut trailing = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match stream.read_to_end(&mut trailing) {
        Ok(_) => assert_eq!(trailing, b"", "idle close must be silent, got {trailing:?}"),
        Err(e) => panic!("expected clean close, got {e}"),
    }
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn client_disconnect_while_parked_does_not_kill_the_reactor() {
    let ts = boot(|_| {});
    {
        let mut stream = connect(&ts.addr);
        stream
            .write_all(b"GET /defer HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        // The handler parked the request; drop the connection mid-wait.
        let completer = ts
            .completers
            .recv_timeout(Duration::from_secs(5))
            .expect("request reaches the handler");
        drop(stream);
        std::thread::sleep(Duration::from_millis(50));
        // The completion lands on a dead connection: must be a no-op.
        completer.complete(Response::text(200, "too late"));
    }
    // The reactor survived and serves the next connection.
    let mut stream = connect(&ts.addr);
    stream
        .write_all(b"GET /alive HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut stream);
    assert_eq!((status, body.as_slice()), (200, b"GET /alive".as_slice()));
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn shutdown_drains_parked_requests_before_exiting() {
    let ts = boot(|config| config.drain_deadline = Duration::from_secs(10));
    let mut idle: Vec<TcpStream> = (0..2).map(|_| connect(&ts.addr)).collect();
    for stream in &mut idle {
        stream
            .write_all(b"GET /warm HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        assert_eq!(read_response(stream).0, 200);
    }
    let mut stream = connect(&ts.addr);
    stream
        .write_all(b"GET /defer HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let completer = ts
        .completers
        .recv_timeout(Duration::from_secs(5))
        .expect("request reaches the handler");

    // Shutdown with the response still pending: idle connections close
    // at once and silently, while the reactor waits for the parked
    // response, delivers it, then exits.
    let handle = ts.server.shutdown_handle();
    handle.shutdown();
    for stream in &mut idle {
        let mut trailing = Vec::new();
        stream.read_to_end(&mut trailing).expect("clean close");
        assert_eq!(trailing, b"", "an idle close writes nothing");
    }
    completer.complete(Response::text(200, "drained"));

    let (status, headers, body) = read_response(&mut stream);
    assert_eq!((status, body.as_slice()), (200, b"drained".as_slice()));
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "connection" && v == "close"),
        "draining responses must close: {headers:?}"
    );
    ts.server.join();
}

#[test]
fn parked_requests_get_their_fallback_and_keep_serving() {
    let ts = boot(|_| {});
    // Sixteen connections park 10 ms apart, so later arrivals wake the
    // reactor while earlier fallbacks are pending; none may fire early.
    let mut streams: Vec<TcpStream> = std::thread::scope(|scope| {
        let parked: Vec<_> = (0..16)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(10));
                let mut stream = connect(&ts.addr);
                scope.spawn(move || {
                    let sent = Instant::now();
                    stream
                        .write_all(b"GET /fallback HTTP/1.1\r\nhost: t\r\n\r\n")
                        .unwrap();
                    let (status, _, body) = read_response(&mut stream);
                    assert_eq!((status, body.as_slice()), (202, b"fallback".as_slice()));
                    let waited = sent.elapsed();
                    assert!(waited >= FALLBACK_AFTER, "fallback after {waited:?}");
                    stream
                })
            })
            .collect();
        parked.into_iter().map(|p| p.join().unwrap()).collect()
    });
    let completers: Vec<Completer> = (0..streams.len())
        .map(|_| {
            ts.completers
                .recv_timeout(Duration::from_secs(5))
                .expect("request reaches the handler")
        })
        .collect();
    // Late completions land on connections that already moved on.
    for completer in completers {
        completer.complete(Response::text(200, "too late"));
    }
    for (i, stream) in streams.iter_mut().enumerate() {
        stream
            .write_all(format!("GET /next{i} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
            .unwrap();
        let (status, _, body) = read_response(stream);
        assert_eq!(status, 200);
        assert_eq!(body, format!("GET /next{i}").into_bytes());
    }
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn a_completed_response_cancels_its_fallback() {
    let ts = boot(|_| {});
    let mut stream = connect(&ts.addr);
    stream
        .write_all(b"GET /fallback HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let completer = ts
        .completers
        .recv_timeout(Duration::from_secs(5))
        .expect("request reaches the handler");
    completer.complete(Response::text(200, "done"));
    let (status, _, body) = read_response(&mut stream);
    assert_eq!((status, body.as_slice()), (200, b"done".as_slice()));

    // The fallback's instant passes with the connection idle: nothing
    // is written, and the next request is answered as usual.
    std::thread::sleep(2 * FALLBACK_AFTER);
    stream
        .write_all(b"GET /after HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut stream);
    assert_eq!((status, body.as_slice()), (200, b"GET /after".as_slice()));
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn a_peer_that_stops_reading_is_closed() {
    let ts = boot(|config| config.request_read_deadline = Duration::from_millis(300));
    let mut stream = connect(&ts.addr);
    stream
        .write_all(b"GET /big HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    // Read nothing: the reactor's write blocks once the kernel buffers
    // fill, and the write deadline gives up on the peer.
    std::thread::sleep(Duration::from_millis(1500));
    let mut received = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => received += n,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the server kept the stalled connection open: {e}"),
        }
    }
    assert!(
        received < BIG_BODY,
        "the connection closed only after the whole body ({received} bytes)"
    );

    let mut stream = connect(&ts.addr);
    stream
        .write_all(b"GET /alive HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut stream);
    assert_eq!((status, body.as_slice()), (200, b"GET /alive".as_slice()));
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn over_limit_accepts_get_503_and_close() {
    let ts = boot(|config| config.max_connections = 2);
    let mut first = connect(&ts.addr);
    let mut second = connect(&ts.addr);
    for stream in [&mut first, &mut second] {
        stream
            .write_all(b"GET /seat HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let (status, _, _) = read_response(stream);
        assert_eq!(status, 200);
    }
    let mut third = connect(&ts.addr);
    let (status, headers, _) = read_response(&mut third);
    assert_eq!(status, 503, "third seat is over the limit");
    assert!(headers
        .iter()
        .any(|(k, v)| k == "connection" && v == "close"));

    // Releasing a seat makes room for the next accept.
    drop(first);
    std::thread::sleep(Duration::from_millis(100));
    let mut fourth = connect(&ts.addr);
    fourth
        .write_all(b"GET /seat HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut fourth);
    assert_eq!(status, 200);
    assert!(ts.server.stats().rejected() >= 1);
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn oversized_heads_get_431() {
    let ts = boot(|config| config.max_head_bytes = 256);
    let mut stream = connect(&ts.addr);
    let huge = format!(
        "GET /x HTTP/1.1\r\nhost: t\r\nx-filler: {}\r\n\r\n",
        "f".repeat(1024)
    );
    stream.write_all(huge.as_bytes()).unwrap();
    let (status, headers, _) = read_response(&mut stream);
    assert_eq!(status, 431);
    assert!(headers
        .iter()
        .any(|(k, v)| k == "connection" && v == "close"));
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn many_keepalive_connections_round_robin_through_one_reactor() {
    let ts = boot(|_| {});
    let mut streams: Vec<TcpStream> = (0..64).map(|_| connect(&ts.addr)).collect();
    for round in 0..3 {
        for (i, stream) in streams.iter_mut().enumerate() {
            stream
                .write_all(format!("GET /c{i}r{round} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
                .unwrap();
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let (status, _, body) = read_response(stream);
            assert_eq!(status, 200);
            assert_eq!(body, format!("GET /c{i}r{round}").into_bytes());
        }
    }
    assert_eq!(ts.server.stats().open(), 64);
    assert_eq!(ts.server.stats().requests(), 64 * 3);
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn write_errors_on_closed_sockets_are_contained() {
    // A client that sends a request and slams the connection before
    // reading: the reactor's write hits ECONNRESET/EPIPE and must just
    // drop the connection.
    let ts = boot(|_| {});
    for _ in 0..16 {
        let mut stream = connect(&ts.addr);
        stream
            .write_all(b"GET /hitandrun HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        // Close both directions immediately; the server's response write
        // lands on a shut-down socket.
        stream.shutdown(std::net::Shutdown::Both).ok();
        drop(stream);
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut stream = connect(&ts.addr);
    stream
        .write_all(b"GET /alive HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut stream);
    assert_eq!((status, body.as_slice()), (200, b"GET /alive".as_slice()));
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}

#[test]
fn read_timeout_guard() {
    // Sanity for the helper: a read timeout on our side must not be
    // mistaken for a server close in the silent-idle test.
    let ts = boot(|config| config.idle_timeout = Duration::from_secs(30));
    let stream = connect(&ts.addr);
    let mut probe = stream.try_clone().unwrap();
    probe
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut byte = [0u8; 1];
    let err = probe.read(&mut byte).unwrap_err();
    assert!(
        matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "{err:?}"
    );
    ts.server.shutdown_handle().shutdown();
    ts.server.join();
}
