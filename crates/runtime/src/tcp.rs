//! TCP loopback transport: genuinely concurrent kernel socket I/O.
//!
//! Each processor binds a listener on `127.0.0.1:0` and runs one
//! acceptor thread that serves connections *one at a time* — accept,
//! read a whole frame, tally, accept again. That sequential accept loop
//! is the receive half of the paper's port model made physical: a
//! processor ingests one message at a time, and concurrent senders to
//! the same destination queue in the kernel's accept backlog (FCFS by
//! real arrival). The send half is enforced by the shaped engine, which
//! runs one worker thread per sender.
//!
//! Frame format: 16-byte header (`src` and payload length as
//! little-endian `u64`s) followed by the payload. A frame with length
//! `u64::MAX` is the shutdown sentinel delivered by [`TcpTransport::shutdown`].

use crate::error::RuntimeError;
use crate::transport::{checksum, ReceiptSummary, Transport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

const SHUTDOWN: u64 = u64::MAX;
/// Ceiling on a single frame's payload, against corrupt headers.
pub const MAX_FRAME: u64 = 1 << 30;

fn io_err(context: &str, e: std::io::Error) -> RuntimeError {
    RuntimeError::Transport {
        detail: format!("{context}: {e}"),
    }
}

/// Writes one `(tag, len, payload)` frame: the 16-byte header is two
/// little-endian `u64`s (`tag`, payload length) followed by the
/// payload. This is the transport's frame layout, exported so other
/// framed protocols (the plan server's client, notably) share the
/// plumbing instead of reinventing it.
pub fn write_frame(stream: &mut TcpStream, tag: u64, payload: &[u8]) -> Result<(), RuntimeError> {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&tag.to_le_bytes());
    header[8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    stream
        .write_all(&header)
        .map_err(|e| io_err("write header", e))?;
    stream
        .write_all(payload)
        .map_err(|e| io_err("write payload", e))?;
    Ok(())
}

/// Reads one frame header: `(tag, payload length)`.
pub fn read_header(stream: &mut TcpStream) -> Result<(u64, u64), RuntimeError> {
    let mut header = [0u8; 16];
    stream
        .read_exact(&mut header)
        .map_err(|e| io_err("read header", e))?;
    let tag = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
    Ok((tag, len))
}

/// Reads a frame payload of `len` bytes, bounded by `max`.
pub fn read_payload(stream: &mut TcpStream, len: u64, max: u64) -> Result<Vec<u8>, RuntimeError> {
    if len > max {
        return Err(RuntimeError::Transport {
            detail: format!("frame of {len} bytes exceeds the {max} limit"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    stream
        .read_exact(&mut payload)
        .map_err(|e| io_err("read payload", e))?;
    Ok(payload)
}

/// Reads one whole `(tag, payload)` frame, bounding the payload at
/// `max` bytes. The counterpart of [`write_frame`].
pub fn read_frame(stream: &mut TcpStream, max: u64) -> Result<(u64, Vec<u8>), RuntimeError> {
    let (tag, len) = read_header(stream)?;
    let payload = read_payload(stream, len, max)?;
    Ok((tag, payload))
}

struct Acceptor {
    handle: JoinHandle<Result<ReceiptSummary, RuntimeError>>,
}

/// A set of loopback endpoints, one per processor.
pub struct TcpTransport {
    addrs: Vec<SocketAddr>,
    acceptors: Mutex<Vec<Option<Acceptor>>>,
    receipts: Mutex<Vec<ReceiptSummary>>,
}

impl TcpTransport {
    /// Binds `p` listeners on loopback and starts their acceptor
    /// threads.
    pub fn new(p: usize) -> Result<Self, RuntimeError> {
        let mut addrs = Vec::with_capacity(p);
        let mut acceptors = Vec::with_capacity(p);
        for dst in 0..p {
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind loopback", e))?;
            addrs.push(listener.local_addr().map_err(|e| io_err("local_addr", e))?);
            let handle = std::thread::Builder::new()
                .name(format!("adaptcomm-recv-{dst}"))
                .spawn(move || accept_loop(listener))
                .map_err(|e| io_err("spawn acceptor", e))?;
            acceptors.push(Some(Acceptor { handle }));
        }
        Ok(TcpTransport {
            addrs,
            acceptors: Mutex::new(acceptors),
            receipts: Mutex::new(vec![ReceiptSummary::default(); p]),
        })
    }

    /// Stops every acceptor and folds its tally into the receipts.
    /// Idempotent; called automatically by `receipts()` consumers via
    /// [`TcpTransport::finish`].
    pub fn shutdown(&self) -> Result<(), RuntimeError> {
        let mut acceptors = self.acceptors.lock().map_err(|_| RuntimeError::Transport {
            detail: "acceptor registry poisoned".into(),
        })?;
        for (dst, slot) in acceptors.iter_mut().enumerate() {
            let Some(acceptor) = slot.take() else {
                continue;
            };
            // Sentinel frame unblocks the acceptor's accept().
            let mut stream = TcpStream::connect(self.addrs[dst])
                .map_err(|e| io_err("connect for shutdown", e))?;
            let mut header = [0u8; 16];
            header[..8].copy_from_slice(&(u64::MAX).to_le_bytes());
            header[8..].copy_from_slice(&SHUTDOWN.to_le_bytes());
            stream
                .write_all(&header)
                .map_err(|e| io_err("write shutdown", e))?;
            drop(stream);
            let summary = acceptor
                .handle
                .join()
                .map_err(|_| RuntimeError::Transport {
                    detail: format!("acceptor {dst} panicked"),
                })??;
            self.receipts.lock().unwrap_or_else(PoisonError::into_inner)[dst] = summary;
        }
        Ok(())
    }

    /// Shuts the transport down and returns the final receipts.
    pub fn finish(self) -> Result<Vec<ReceiptSummary>, RuntimeError> {
        self.shutdown()?;
        Ok(self.receipts())
    }
}

fn accept_loop(listener: TcpListener) -> Result<ReceiptSummary, RuntimeError> {
    let mut summary = ReceiptSummary::default();
    loop {
        let (mut stream, _) = listener.accept().map_err(|e| io_err("accept", e))?;
        let (_src, len) = read_header(&mut stream)?;
        if len == SHUTDOWN {
            return Ok(summary);
        }
        let payload = read_payload(&mut stream, len, MAX_FRAME)?;
        summary.add(payload.len(), checksum(&payload));
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
        let addr = *self.addrs.get(dst).ok_or_else(|| RuntimeError::Transport {
            detail: format!("destination {dst} out of range"),
        })?;
        let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        write_frame(&mut stream, src as u64, payload)
    }

    /// Receipts folded in so far. Only complete after
    /// [`TcpTransport::shutdown`]; acceptors still running contribute
    /// nothing yet. A poisoned tally is read as it stands.
    fn receipts(&self) -> Vec<ReceiptSummary> {
        self.receipts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{expected_receipts, fill_payload, physical_len};
    use adaptcomm_model::units::Bytes;

    #[test]
    fn frames_cross_real_sockets_and_tally() {
        let sizes = vec![
            vec![Bytes::ZERO, Bytes::from_kb(2), Bytes::new(17)],
            vec![Bytes::new(5), Bytes::ZERO, Bytes::ZERO],
            vec![Bytes::from_kb(1), Bytes::new(9), Bytes::ZERO],
        ];
        let t = TcpTransport::new(3).expect("bind loopback");
        // Concurrent senders, as the shaped engine would run them.
        std::thread::scope(|s| {
            for src in 0..3 {
                let t = &t;
                let sizes = &sizes;
                s.spawn(move || {
                    for dst in 0..3 {
                        if src != dst {
                            let len = physical_len(sizes[src][dst], None);
                            t.deliver(src, dst, &fill_payload(src, dst, len)).unwrap();
                        }
                    }
                });
            }
        });
        let receipts = t.finish().expect("clean shutdown");
        assert_eq!(receipts, expected_receipts(&sizes, None));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let t = TcpTransport::new(2).expect("bind loopback");
        t.shutdown().expect("first shutdown");
        t.shutdown().expect("second shutdown is a no-op");
        assert_eq!(t.receipts().len(), 2);
    }

    #[test]
    fn a_poisoned_tally_is_read_as_it_stands() {
        let t = TcpTransport::new(2).expect("bind loopback");
        t.deliver(1, 0, &fill_payload(1, 0, 12)).unwrap();
        std::thread::scope(|s| {
            let died = s.spawn(|| {
                let _tally = t.receipts.lock();
                panic!("a reader died holding the tally");
            });
            assert!(died.join().is_err());
        });
        let receipts = t.finish().expect("shutdown folds into a poisoned tally");
        assert_eq!((receipts[0].messages, receipts[0].bytes), (1, 12));
    }

    #[test]
    fn out_of_range_destination_is_a_transport_error() {
        let t = TcpTransport::new(2).expect("bind loopback");
        assert!(t.deliver(0, 7, &[1, 2, 3]).is_err());
        t.shutdown().expect("shutdown");
    }
}
