//! The app-side UDP receiver: [`UdpIngress`], plus the shared
//! [`UdpConfig`].
//!
//! An ingress pairs a bound socket with a pump thread and a detachable
//! pipe of its own.  The pipe is what gives a socket the full receiver
//! surface the rest of the system is written against — blocking and
//! non-blocking batch receives, watcher-based readiness, clean EOF —
//! without teaching any consumer about sockets:
//!
//! ```text
//!   socket ──(pump: decode, count)──▶ pipe ──▶ consumer
//! ```
//!
//! The proxy side never uses it: production traffic rides the
//! reactor-driven [`SharedUdpIngress`](crate::SharedUdpIngress) /
//! [`SharedUdpEgress`](crate::SharedUdpEgress) carriers.  `UdpIngress` is
//! the blocking application-side endpoint that receives what a carrier
//! sends.

use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rapidware_packet::Packet;
use rapidware_streams::{
    pipe, DetachableReceiver, DetachableSender, PipeWatcher, RecvError, TryRecvError,
};

use crate::stats::TransportStats;
use crate::{is_stream_fin, MAX_DATAGRAM_LEN};

/// Tuning for a UDP endpoint.
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Capacity (in packets) of the pipe behind each receiving route; this
    /// is the back-pressure window between the socket and the consumer.
    pub capacity: usize,
    /// How many datagrams one shared-socket drain or flush pass moves.
    pub batch_size: usize,
    /// How often an ingress pump re-checks its shutdown flag while idle.
    /// Pure shutdown latency — it never gates data movement.
    pub poll_interval: Duration,
}

impl Default for UdpConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            batch_size: 32,
            poll_interval: Duration::from_millis(20),
        }
    }
}

impl UdpConfig {
    /// Overrides the pipe capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "endpoint pipe capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// Overrides the batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// A blocking UDP receiver: a bound socket whose pump thread decodes each
/// arriving datagram into the endpoint's own detachable pipe, exposed
/// through `recv` / `recv_up_to` / `try_recv_up_to` / watcher registration
/// by delegation.
///
/// A received per-stream FIN ([`stream_fin_packet`](crate::stream_fin_packet))
/// closes the pipe, so consumers observe the same clean end of stream a
/// local producer's `close()` would deliver.  The endpoint carries exactly
/// one logical stream, so the FIN's stream id is not checked.
pub struct UdpIngress {
    local_addr: SocketAddr,
    receiver: DetachableReceiver<Packet>,
    stats: TransportStats,
    stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
}

impl fmt::Debug for UdpIngress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpIngress")
            .field("local_addr", &self.local_addr)
            .field("rx_packets", &self.stats.rx_packets())
            .finish()
    }
}

impl UdpIngress {
    /// Binds a socket on `addr` and delivers decoded packets into a fresh
    /// internal pipe whose receiver surface this endpoint exposes.
    ///
    /// # Errors
    ///
    /// Returns the socket `bind`/configuration error, if any.
    pub fn bind(addr: impl ToSocketAddrs, config: &UdpConfig) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(config.poll_interval))?;
        let local_addr = socket.local_addr()?;
        let (sink, receiver) = pipe(config.capacity);
        let stats = TransportStats::new();
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let stats = stats.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("udp-ingress-{local_addr}"))
                .spawn(move || pump_ingress(&socket, &sink, &stats, &stop))
                .expect("spawning the ingress pump thread")
        };
        Ok(Self {
            local_addr,
            receiver,
            stats,
            stop,
            pump: Some(pump),
        })
    }

    /// The socket's bound address (the port is concrete even when the
    /// endpoint was bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This endpoint's transfer counters.
    pub fn stats(&self) -> TransportStats {
        self.stats.clone()
    }

    /// A clone of the consumer-facing pipe receiver, for handing to code
    /// written against [`DetachableReceiver`].
    pub fn receiver(&self) -> DetachableReceiver<Packet> {
        self.receiver.clone()
    }

    /// Blocks until a packet arrives and returns it (see
    /// [`DetachableReceiver::recv`]).
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Eof`] after a FIN frame drained, or
    /// [`RecvError::Closed`] if the pipe was closed locally.
    pub fn recv(&self) -> Result<Packet, RecvError> {
        self.receiver.recv()
    }

    /// Receives up to `max` buffered packets, blocking only for the first
    /// (see [`DetachableReceiver::recv_up_to`]).
    ///
    /// # Errors
    ///
    /// Same as [`recv`](Self::recv).
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn recv_up_to(&self, max: usize) -> Result<Vec<Packet>, RecvError> {
        self.receiver.recv_up_to(max)
    }

    /// Receives up to `max` buffered packets without blocking (see
    /// [`DetachableReceiver::try_recv_up_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] when nothing is buffered, plus the
    /// end-of-stream errors of [`recv`](Self::recv).
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn try_recv_up_to(&self, max: usize) -> Result<Vec<Packet>, TryRecvError> {
        self.receiver.try_recv_up_to(max)
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] on timeout, plus the usual
    /// end-of-stream errors.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet, TryRecvError> {
        self.receiver.recv_timeout(timeout)
    }

    /// Installs the data-readiness watcher on the consumer side (see
    /// [`DetachableReceiver::set_data_watcher`] — registration fires
    /// immediately when data, EOF, or close is already observable).
    pub fn set_data_watcher(&self, watcher: Arc<dyn PipeWatcher>) {
        self.receiver.set_data_watcher(watcher);
    }

    /// Number of packets currently buffered.
    pub fn available(&self) -> usize {
        self.receiver.available()
    }

    /// Stops the pump thread and waits for it to exit.
    ///
    /// Teardown ordering is identical to `Drop`: the pipe is closed
    /// *before* the join, so a pump stalled on back-pressure — or a
    /// consumer blocked on `recv` — is released and the join cannot hang.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.receiver.close();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for UdpIngress {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn pump_ingress(
    socket: &UdpSocket,
    sink: &DetachableSender<Packet>,
    stats: &TransportStats,
    stop: &AtomicBool,
) {
    let mut buf = vec![0u8; MAX_DATAGRAM_LEN];
    while !stop.load(Ordering::SeqCst) {
        let len = match socket.recv_from(&mut buf) {
            Ok((len, _peer)) => len,
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        stats.record_rx_datagram();
        match Packet::decode(&buf[..len]) {
            Ok(packet) if is_stream_fin(&packet) => {
                // The remote stream ended: propagate EOF through the pipe.
                sink.close();
                return;
            }
            Ok(mut packet) => {
                // Stamp the span clock at the socket boundary: end-to-end
                // latency spans start the moment the datagram left the OS.
                packet.stamp_ingress_ns(rapidware_telemetry::now_ns());
                // Received ⇒ counted: the counter moves before the packet
                // becomes observable to any consumer.
                stats.record_rx_packet();
                if sink.send(packet).is_err() {
                    stats.record_drop();
                    return;
                }
            }
            Err(_) => stats.record_decode_error(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(seq: u64) -> Packet {
        Packet::new(StreamId::new(7), SeqNo::new(seq), PacketKind::AudioData, vec![seq as u8; 48])
    }

    fn send(socket: &UdpSocket, peer: SocketAddr, packet: &Packet) {
        socket.send_to(&packet.encode(), peer).expect("loopback send");
    }

    #[test]
    fn loopback_round_trip_preserves_packets_in_order() {
        let config = UdpConfig::default();
        let ingress = UdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sent: Vec<Packet> = (0..64).map(packet).collect();
        for p in &sent {
            send(&tx, ingress.local_addr(), p);
        }
        let mut received = Vec::new();
        while received.len() < sent.len() {
            received.extend(ingress.recv_up_to(16).expect("stream is still open"));
        }
        assert_eq!(received, sent);
        assert_eq!(ingress.stats().rx_packets(), 64);
        assert_eq!(ingress.stats().decode_errors(), 0);
    }

    #[test]
    fn a_stream_fin_ends_the_stream() {
        let config = UdpConfig::default();
        let ingress = UdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        send(&tx, ingress.local_addr(), &packet(1));
        send(&tx, ingress.local_addr(), &crate::stream_fin_packet(StreamId::new(7)));
        assert_eq!(ingress.recv().unwrap().seq().value(), 1);
        assert_eq!(ingress.recv().unwrap_err(), RecvError::Eof);
    }

    #[test]
    fn garbage_datagrams_count_as_decode_errors_without_breaking_the_stream() {
        let config = UdpConfig::default();
        let ingress = UdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe.send_to(b"definitely not a packet", ingress.local_addr()).unwrap();
        send(&probe, ingress.local_addr(), &packet(9));
        assert_eq!(ingress.recv().unwrap().seq().value(), 9);
        assert_eq!(ingress.stats().decode_errors(), 1);
        assert_eq!(ingress.stats().rx_datagrams(), 2);
        assert_eq!(ingress.stats().rx_packets(), 1);
    }

    #[test]
    fn try_surfaces_work_over_sockets() {
        let config = UdpConfig::default().with_capacity(64);
        let ingress = UdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..32 {
            send(&tx, ingress.local_addr(), &packet(seq));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let mut received = 0usize;
        while received < 32 {
            assert!(std::time::Instant::now() < deadline, "ingress stalled");
            match ingress.try_recv_up_to(8) {
                Ok(batch) => received += batch.len(),
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(other) => panic!("unexpected receive error: {other}"),
            }
        }
    }

    #[test]
    fn data_watcher_fires_for_socket_arrivals() {
        struct Gate {
            fired: std::sync::Mutex<bool>,
            cv: std::sync::Condvar,
        }
        impl PipeWatcher for Gate {
            fn notify(&self) {
                *self.fired.lock().unwrap() = true;
                self.cv.notify_all();
            }
        }
        let config = UdpConfig::default();
        let ingress = UdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let gate = Arc::new(Gate {
            fired: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        });
        ingress.set_data_watcher(gate.clone());
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        send(&tx, ingress.local_addr(), &packet(0));
        let guard = gate.fired.lock().unwrap();
        let (guard, timeout) = gate
            .cv
            .wait_timeout_while(guard, Duration::from_secs(10), |fired| !*fired)
            .unwrap();
        assert!(!timeout.timed_out(), "watcher never fired for a socket arrival");
        drop(guard);
        assert_eq!(ingress.available(), 1);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let ingress = UdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        assert!(format!("{ingress:?}").contains("UdpIngress"));
    }

    #[test]
    fn shutdown_releases_a_consumer_blocked_on_an_owned_ingress() {
        // Regression: stopping the pump without closing the pipe left a
        // blocked `recv` waiting for a packet that could never arrive.
        let config = UdpConfig::default();
        let mut ingress = UdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let rx = ingress.receiver();
        let consumer = std::thread::spawn(move || {
            // Blocks until the shutdown-path close errors it out.
            let _ = rx.recv();
        });
        ingress.shutdown();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = consumer.join();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the blocked consumer is still blocked after teardown");
        let _ = waiter.join();
    }
}
