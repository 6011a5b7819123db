//! The dependency-free HTTP/1.1 transport: one acceptor thread feeding a
//! bounded pool of worker threads over a channel, each worker answering
//! one connection at a time through the same [`ServeHandle`] code path
//! the in-process API uses. Deliberately minimal — `GET` only,
//! `Connection: close`, no keep-alive, no TLS — because the transport is
//! not the contribution; the resident indexed state is.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ens_dropcatch::{QueryError, MAX_WORKERS};

use crate::{Request, ServeHandle};

/// Maximum bytes of request head (request line + headers) we will read
/// before calling the request oversized. Adversarial clients get a 400,
/// not unbounded memory.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How many accepted-but-unserved connections may queue before the
/// acceptor blocks (backpressure instead of unbounded growth).
const ACCEPT_QUEUE: usize = 1024;

/// A running HTTP server: the acceptor thread, its worker pool, and the
/// shutdown flag they all watch.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts `workers` worker threads, at least 1 and at
    /// most [`MAX_WORKERS`] (the cap `shard_map` applies), so no caller can
    /// make the daemon start thousands of OS threads. Returns as soon as
    /// the listener is accepting; queries are served until
    /// [`Server::shutdown`].
    pub fn start(handle: ServeHandle, addr: &str, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) = sync_channel(ACCEPT_QUEUE);
        let rx = Arc::new(Mutex::new(rx));

        let workers = workers.clamp(1, MAX_WORKERS);
        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let handle = handle.clone();
            pool.push(std::thread::spawn(move || loop {
                // Holding the lock only for the recv keeps the pool busy:
                // the next worker can pick up a connection while this one
                // is still writing its response.
                let stream = match rx.lock().expect("receiver lock").recv() {
                    Ok(s) => s,
                    Err(_) => return, // acceptor dropped the sender: drain done
                };
                serve_connection(stream, &handle);
            }));
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        // The wake-up connection (and any later ones) are
                        // dropped unanswered; queued connections still drain.
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            if tx.send(s).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
                // Dropping `tx` here closes the channel: workers finish
                // whatever is queued, then exit.
            })
        };

        Ok(Server {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
            workers: pool,
        })
    }

    /// The bound address (useful with `:0` for an OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, let every accepted connection
    /// finish, then join all threads. In-flight requests complete; the
    /// listener closes.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // `incoming()` blocks in accept(); a throwaway connection wakes
        // it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Reads one request, answers it, closes the connection.
fn serve_connection(stream: TcpStream, handle: &ServeHandle) {
    // A stalled or byte-dribbling client must not pin a worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    let request_line = match read_head(&mut reader) {
        Ok(line) => line,
        Err(detail) => {
            let err = QueryError::BadRequest(detail);
            let mut stream = reader.into_inner();
            let _ = write_response(&mut stream, 400, &ServeHandle::error_body(&err));
            return;
        }
    };
    let mut stream = reader.into_inner();
    let (status, body) = respond(handle, &request_line);
    let _ = write_response(&mut stream, status, &body);
}

/// Reads the request line and discards headers, with a hard size cap.
/// Returns the request line, or a description of what was malformed.
fn read_head<R: Read>(reader: &mut BufReader<R>) -> Result<String, String> {
    let mut request_line = String::new();
    let mut total = 0usize;
    loop {
        let mut line = String::new();
        // Cap each read at what the head may still hold plus one byte, so
        // a client that never sends a newline cannot grow `line` past it.
        let budget = (MAX_HEAD_BYTES + 1 - total) as u64;
        match reader.by_ref().take(budget).read_line(&mut line) {
            Ok(0) => return Err("connection closed mid-request".to_string()),
            Ok(n) => total += n,
            Err(e) => return Err(format!("read failed: {e}")),
        }
        if total > MAX_HEAD_BYTES {
            return Err("request head exceeds 16 KiB".to_string());
        }
        if request_line.is_empty() {
            request_line = line.trim_end().to_string();
            if request_line.is_empty() {
                return Err("empty request line".to_string());
            }
            continue;
        }
        if line == "\r\n" || line == "\n" {
            return Ok(request_line);
        }
    }
}

/// Maps one request line onto a status + deterministic JSON body.
fn respond(handle: &ServeHandle, request_line: &str) -> (u16, String) {
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => {
            let err = QueryError::BadRequest(format!("malformed request line {request_line:?}"));
            return (400, ServeHandle::error_body(&err));
        }
    };
    if method != "GET" {
        let err = QueryError::BadRequest(format!("method {method} not allowed (GET only)"));
        return (405, ServeHandle::error_body(&err));
    }
    if target == "/healthz" {
        return (200, "{\"ok\": true}".to_string());
    }
    match Request::from_target(target).and_then(|req| handle.query(&req)) {
        Ok(body) => (200, body),
        Err(err) => {
            let status = if err.is_not_found() { 404 } else { 400 };
            (status, ServeHandle::error_body(&err))
        }
    }
}

/// Writes a minimal HTTP/1.1 response and flushes it.
fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ens_dropcatch::Dataset;

    use super::*;
    use crate::ServeState;

    #[test]
    fn worker_pool_is_capped_at_the_scheduler_bound() {
        let handle = ServeHandle::new(Arc::new(ServeState::build(Dataset::default(), 1)));
        let server = Server::start(handle, "127.0.0.1:0", 200).expect("binds a local port");
        let started = server.workers.len();
        server.shutdown();
        assert_eq!(started, MAX_WORKERS, "asked for 200 workers");
    }
}
