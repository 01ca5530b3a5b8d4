//! The TCP front end: one listener, one thread per connection, newline-
//! delimited JSON both ways.
//!
//! Shutdown discipline: a granted `shutdown` op (or [`Server::shutdown`])
//! first closes the admission gate — queued requests are turned away with
//! `shutting_down`, in-flight ones run to completion — then raises the stop
//! flag. Connection threads notice the flag at their next read timeout and
//! hang up *between* responses; each response's segments are written in
//! order by the stream's single connection thread before the next read, so
//! output is never torn even mid-drain.
//!
//! The loop is generic over a [`LineHandler`]: a single [`Service`] and the
//! fleet router (`greenness-fleet`) share this one accept/connection loop
//! and differ only in how a request line becomes a reply.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::{Disposition, Service, ServiceConfig};

/// How long a connection thread blocks in `read` before re-checking the
/// stop flag.
const READ_TICK: Duration = Duration::from_millis(50);
/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(5);
/// The longest request line a connection buffers: one that has grown past
/// this without a newline is answered with a single `bad_request` and a
/// hang-up, so a connection holds at most this plus one read chunk.
const MAX_LINE_BYTES: usize = 1 << 20;

/// What the connection loop does once a request line has been handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// The reply is written; keep reading from this connection.
    Continue,
    /// Nothing was written: hang up (an injected connection-drop fault; the
    /// client reconnects and retries).
    HangUp,
    /// The reply to a granted `shutdown` op is written and the handler has
    /// already begun draining: stop the listener.
    Shutdown,
}

/// Whatever answers the request lines a [`Server`] reads off its sockets.
pub trait LineHandler: Send + Sync + 'static {
    /// Handle one trimmed, non-empty request line, writing exactly one
    /// newline-terminated reply to `out` (nothing for [`Next::HangUp`]).
    fn answer(&self, line: &str, out: &mut impl Write) -> io::Result<Next>;

    /// Refuse input that never became a request line (the loop's line cap):
    /// count it as a bad request and return the `bad_request` reply line,
    /// without its newline.
    fn refuse(&self, message: &str) -> String;

    /// Begin draining: turn queued and new requests away, let in-flight
    /// ones finish.
    fn drain(&self);
}

impl LineHandler for Service {
    fn answer(&self, line: &str, out: &mut impl Write) -> io::Result<Next> {
        let outcome = self.handle_line(line);
        if outcome.disposition == Disposition::Dropped {
            return Ok(Next::HangUp);
        }
        // Zero-copy: the response's payload segment is the cache's own
        // allocation, streamed straight to the socket without assembling
        // an intermediate line.
        outcome.response.write_to(out)?;
        Ok(if outcome.shutdown {
            Next::Shutdown
        } else {
            Next::Continue
        })
    }

    fn refuse(&self, message: &str) -> String {
        self.bad_request("null", message)
    }

    fn drain(&self) {
        self.gate().shutdown();
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or send a `shutdown` op) and then [`Server::join`].
pub struct Server<H: LineHandler = Service> {
    addr: SocketAddr,
    service: Arc<H>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving in background threads.
    pub fn start(addr: &str, config: ServiceConfig) -> io::Result<Server> {
        Server::start_with_service(addr, Arc::new(Service::new(config)))
    }
}

impl<H: LineHandler> Server<H> {
    /// Bind `addr` and serve an **existing** handler instance. The fleet
    /// uses this to put its router behind the loop, and to expose a shard's
    /// service — cache, gate, and metrics included — on its own debug port
    /// while the router keeps handling the same instance in-process.
    pub fn start_with_service(addr: &str, service: Arc<H>) -> io::Result<Server<H>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, service, stop))
        };
        Ok(Server {
            addr,
            service,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (the ephemeral port lives here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared handler (tests read its metrics).
    pub fn service(&self) -> &Arc<H> {
        &self.service
    }

    /// Begin draining: close the gate, then raise the stop flag.
    pub fn shutdown(&self) {
        self.service.drain();
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Wait until the accept loop and every connection thread exit.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Block the calling thread until the server is asked to stop, then
    /// drain. This is what `greenness serve` does after printing the
    /// address.
    pub fn run_to_completion(self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(READ_TICK);
        }
        self.join();
    }
}

/// Forget the connection threads that have exited, so a long-lived server
/// answering one-shot clients holds handles only for its open connections.
fn reap(conns: &mut Vec<JoinHandle<()>>) {
    conns.retain(|handle| !handle.is_finished());
}

fn accept_loop<H: LineHandler>(listener: TcpListener, service: Arc<H>, stop: Arc<AtomicBool>) {
    // Touched by this thread alone: pushed on accept, joined at shutdown.
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                reap(&mut conns);
                conns.push(std::thread::spawn(move || {
                    connection_loop(stream, &*service, &stop)
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_TICK),
            Err(_) => break,
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

fn connection_loop(mut stream: TcpStream, service: &impl LineHandler, stop: &AtomicBool) {
    // A plain byte accumulator instead of BufReader: a buffered reader may
    // hold a partial line across a read *timeout*, and we need timeouts to
    // poll the stop flag without dropping bytes.
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => {
                // Whatever was already pending held no newline when it
                // arrived: only the new bytes need searching.
                let mut searched = pending.len();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending[searched..].iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=searched + pos).collect();
                    searched = 0;
                    let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    match service.answer(trimmed, &mut stream) {
                        Ok(Next::Continue) => {}
                        Ok(Next::Shutdown) => {
                            let _ = stream.flush();
                            stop.store(true, Ordering::SeqCst);
                            return;
                        }
                        Ok(Next::HangUp) | Err(_) => return,
                    }
                }
                if pending.len() > MAX_LINE_BYTES {
                    let reply =
                        service.refuse(&format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                    let _ = stream.write_all(format!("{reply}\n").as_bytes());
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reap_keeps_only_the_threads_still_running() {
        let (release, parked) = mpsc::channel::<()>();
        let mut conns: Vec<JoinHandle<()>> = (0..3).map(|_| std::thread::spawn(|| {})).collect();
        conns.push(std::thread::spawn(move || {
            let _ = parked.recv();
        }));
        // `is_finished` turns true as a thread exits, not when it is joined.
        while conns.iter().filter(|h| h.is_finished()).count() < 3 {
            std::thread::yield_now();
        }
        reap(&mut conns);
        assert_eq!(conns.len(), 1, "the parked thread alone is kept");
        drop(release);
        for handle in conns {
            handle.join().expect("the parked thread exits cleanly");
        }
    }
}
