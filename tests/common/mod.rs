//! Helpers shared by the integration suites (`runtime_soak`,
//! `udp_transport`, `scenario_matrix`, `generated_scenarios`, `chaos`,
//! `multicast_soak`).
//!
//! Every suite is its own binary, so each compiles just the subset it uses
//! — hence the `dead_code` allowance.  The helpers encode the house test
//! discipline:
//!
//! * **watchdogs, not sleeps** — anything that could wedge runs on a
//!   supervised thread ([`watchdog`]) or against a deadline
//!   ([`drain_count`]/[`drain_to_eof`]), so a deadlock fails the test
//!   instead of hanging CI;
//! * **conservation, not vibes** — delivery claims go through
//!   [`assert_conservation`]: `sent == delivered + lost + undelivered`,
//!   with the terms tallied from *independent* counters;
//! * **seeded runs compare byte-for-byte** — applier agreement is asserted
//!   on canonical trace text via [`assert_same_outcome`].

#![allow(dead_code)]

use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::streams::{DetachableReceiver, TryRecvError};
use rapidware::transport::TransportStats;

/// Default wall-clock bound for a whole suite body.
pub const WATCHDOG: Duration = Duration::from_secs(120);

/// A small deterministic audio-data packet: seq-derived payload of
/// `payload_len` bytes on stream 1.
pub fn audio_packet(seq: u64, payload_len: usize) -> Packet {
    Packet::new(
        StreamId::new(1),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![(seq % 251) as u8; payload_len],
    )
}

/// Encodes `packet` and sends it as one datagram to `peer`.
pub fn send_encoded(socket: &UdpSocket, peer: SocketAddr, packet: &Packet) {
    let mut scratch = Vec::new();
    packet.encode_into(&mut scratch);
    socket.send_to(&scratch, peer).expect("loopback send never fails");
}

/// Sends `packets` to `peer`, one datagram each, in windows of `window`:
/// after every window it waits (under `deadline`) until the `ingress`
/// counter of received datagrams has grown by `expected(sent)`, where
/// `sent` counts the packets sent so far.  UDP has no end-to-end
/// back-pressure, so an unpaced burst can overflow a kernel socket buffer
/// anywhere on the path and the OS — not the proxy — would drop
/// datagrams; the receiver's accounting is the only flow control there is.
///
/// Pace against the *last* socket on the path (the app-side receiver)
/// so every hop in between drains within one window.  `expected` maps
/// packets sent to datagrams that receiver must have seen: `|sent| sent`
/// for a 1:1 path, or the exact ratio a filter or lossy hop imposes
/// (valid at every window boundary).
pub fn send_paced(
    socket: &UdpSocket,
    peer: SocketAddr,
    packets: impl IntoIterator<Item = Packet>,
    window: usize,
    ingress: &TransportStats,
    expected: impl Fn(u64) -> u64,
    deadline: Instant,
) {
    let base = ingress.rx_datagrams();
    let mut packets = packets.into_iter();
    let mut sent = 0u64;
    loop {
        let before = sent;
        for packet in packets.by_ref().take(window) {
            send_encoded(socket, peer, &packet);
            sent += 1;
        }
        if sent == before {
            return;
        }
        let target = base + expected(sent);
        while ingress.rx_datagrams() < target {
            assert!(
                Instant::now() < deadline,
                "paced stream stalled: receiver at {}/{} datagrams after {sent} sent",
                ingress.rx_datagrams() - base,
                target - base
            );
            std::thread::yield_now();
        }
    }
}

/// Runs `body` on a supervised thread and fails the test if it has not
/// finished within `wall_clock` — the no-deadlock bound every soak and
/// chaos suite runs under.  Panics from `body` propagate.
pub fn watchdog(name: &str, wall_clock: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            body();
            let _ = done_tx.send(());
        })
        .expect("spawning the supervised test thread never fails");
    match done_rx.recv_timeout(wall_clock) {
        Ok(()) => thread.join().expect("supervised test thread must not panic"),
        Err(_) => panic!("{name} did not finish within {wall_clock:?}: deadlock or livelock"),
    }
}

/// Drains exactly `count` packets from `rx` under the deadline.
pub fn drain_count(rx: &DetachableReceiver<Packet>, count: usize, deadline: Instant) -> Vec<Packet> {
    let mut packets = Vec::with_capacity(count);
    while packets.len() < count {
        assert!(
            Instant::now() < deadline,
            "stream stalled at {}/{count}",
            packets.len()
        );
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(packet) => packets.push(packet),
            Err(TryRecvError::Empty) => continue,
            Err(other) => panic!("stream ended early at {}/{count}: {other}", packets.len()),
        }
    }
    packets
}

/// Drains `rx` to EOF under the deadline, returning what was left.
pub fn drain_to_eof(rx: &DetachableReceiver<Packet>, deadline: Instant) -> Vec<Packet> {
    let mut packets = Vec::new();
    loop {
        assert!(Instant::now() < deadline, "stream never ended ({} left over)", packets.len());
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(packet) => packets.push(packet),
            Err(TryRecvError::Empty) => continue,
            Err(_) => return packets,
        }
    }
}

/// Non-blockingly drains `rx` to EOF (spinning through `Empty`), returning
/// the delivered-packet count.  For endpoints whose upstream is already
/// closing — pair with a [`watchdog`] so a wedge cannot spin forever.
pub fn drain_count_to_eof(rx: &DetachableReceiver<Packet>, batch: usize) -> u64 {
    let mut delivered = 0u64;
    loop {
        match rx.try_recv_up_to(batch) {
            Ok(packets) => delivered += packets.len() as u64,
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(_) => return delivered,
        }
    }
}

/// The conservation invariant every delivery path must satisfy:
/// `sent == delivered + lost + undelivered`, with each term tallied from an
/// independent counter (pipe stats vs. consumer tally vs. endpoint depth).
pub fn assert_conservation(context: &str, sent: u64, delivered: u64, lost: u64, undelivered: u64) {
    assert_eq!(
        sent,
        delivered + lost + undelivered,
        "{context}: conservation violated \
         (sent {sent} != delivered {delivered} + lost {lost} + undelivered {undelivered})"
    );
}

/// Asserts two appliers produced the same closed-loop outcome: canonical
/// trace text byte-for-byte, and equal reports.
pub fn assert_same_outcome<R: PartialEq + std::fmt::Debug>(
    context: &str,
    applier: &str,
    expected_trace: &str,
    expected_report: &R,
    actual_trace: &str,
    actual_report: &R,
) {
    assert_eq!(
        expected_trace, actual_trace,
        "{context}: sync and {applier} appliers diverge"
    );
    assert_eq!(
        expected_report, actual_report,
        "{context}: {applier} report differs"
    );
}

/// Reads a reduced-iteration profile from the environment: `name` must be a
/// positive integer if set; anything unset or unparsable falls back to
/// `default`.  CI jobs use this to run trimmed-down generated suites.
pub fn env_profile(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|value| value.trim().parse::<usize>().ok())
        .filter(|&count| count > 0)
        .unwrap_or(default)
}
