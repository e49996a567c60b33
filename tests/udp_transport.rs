//! Transport integration: the proxy's carrier-backed streams and sessions,
//! end to end over real loopback sockets.
//!
//! * a flat chain (FEC encode → decode spliced live) round-trips every
//!   packet over socket → carrier → chain → carrier → socket;
//! * a 4-lane fanout session delivers the full stream to every lane's
//!   socket out of the one carrier socket;
//! * a seeded [`ImpairedUdp`] drop regime is fully repaired by FEC — the
//!   paper's claim, demonstrated on the wire instead of the simulator;
//! * a 50-stream soak multiplexes one carrier at fleet scale on a fixed
//!   worker pool.
//!
//! Determinism rules: impairment is seeded (`ImpairmentPlan`), every
//! blocking wait is deadline-bounded (watchdog asserts, not sleeps), every
//! app-side burst is window-paced against a receive counter
//! ([`send_paced`]), and the stream content is drained before
//! `close_input` — UDP has no end-to-end back-pressure, so closing the
//! chain while datagrams are still in flight would discard them by
//! design, exactly as a real socket would.

mod common;

use std::net::UdpSocket;
use std::time::Instant;

use rapidware::filters::{FecDecoderFilter, Filter};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::{
    FilterSpec, Proxy, RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig,
    UdpCarrierConfig,
};
use rapidware::transport::{ImpairedUdp, ImpairmentPlan, UdpConfig, UdpIngress};

use common::{audio_packet, drain_count, drain_to_eof, send_paced, WATCHDOG};

/// Source packets per paced window: ten complete FEC(6,4) blocks.
const WINDOW: usize = 40;

fn packet(seq: u64) -> Packet {
    audio_packet(seq, 96)
}

/// Waits (under `deadline`) until `predicate` holds: egress counters move
/// only after the OS accepted a datagram, so a receiver can observe a
/// frame a moment before its sender's counter does.
fn wait_until(what: &str, deadline: Instant, predicate: impl Fn() -> bool) {
    while !predicate() {
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::yield_now();
    }
}

#[test]
fn a_flat_fec_chain_round_trips_over_loopback_udp() {
    let deadline = Instant::now() + WATCHDOG;
    let app_rx = UdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
    let mut proxy = Proxy::with_runtime("edge", RuntimeConfig::new(2, 8));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    const TOTAL: u64 = 400;
    let handle = proxy
        .add_stream_udp_shared(
            "audio",
            SharedUdpStreamConfig::on_carrier("wire", app_rx.local_addr())
                .with_stream(StreamId::new(1))
                // The whole stream fits the chain input, so the carrier
                // never has to shed a frame while the chain catches up.
                .with_capacity(TOTAL as usize),
        )
        .unwrap();
    // Live splices through the ordinary control surface, on a stream whose
    // endpoints are sockets.
    proxy.insert_filter("audio", 0, &FilterSpec::new("fec-encoder")).unwrap();
    proxy.insert_filter("audio", 1, &FilterSpec::new("fec-decoder")).unwrap();

    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let consumer = {
        let rx = app_rx.receiver();
        std::thread::spawn(move || drain_count(&rx, TOTAL as usize, deadline))
    };
    // Paced end to end: encode and decode cancel out, so the app socket
    // sees one datagram per packet sent.
    send_paced(
        &app_tx,
        handle.ingress_addr(),
        (0..TOTAL).map(packet),
        WINDOW,
        &app_rx.stats(),
        |sent| sent,
        deadline,
    );
    let received = consumer.join().unwrap();
    let seqs: Vec<u64> = received.iter().map(|p| p.seq().value()).collect();
    assert_eq!(seqs, (0..TOTAL).collect::<Vec<_>>(), "every packet, in order");

    // End the stream: the flush residue (none here) and the FIN arrive.
    handle.close_input();
    assert!(drain_to_eof(&app_rx.receiver(), deadline).is_empty());
    assert_eq!(carrier.ingress_stats().rx_packets(), TOTAL);
    assert_eq!(carrier.ingress_stats().decode_errors(), 0);
    let status = proxy.status();
    assert_eq!(status.transports.len(), 1);
    assert_eq!(status.transports[0].ingress.rx_packets, TOTAL);
    proxy.shutdown().unwrap();
}

#[test]
fn a_four_lane_fanout_session_on_the_pooled_runtime_serves_every_socket() {
    let deadline = Instant::now() + WATCHDOG;
    let config = UdpConfig::default();
    let lane_sockets: Vec<UdpIngress> = (0..4)
        .map(|_| UdpIngress::bind("127.0.0.1:0", &config).unwrap())
        .collect();
    let mut proxy = Proxy::with_runtime("edge", RuntimeConfig::new(4, 16));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    let mut session_config =
        SharedUdpSessionConfig::on_carrier("wire").with_stream(StreamId::new(1));
    for (index, socket) in lane_sockets.iter().enumerate() {
        session_config = session_config.with_lane(format!("lane-{index}"), socket.local_addr());
    }
    let handle = proxy.add_session_udp_shared("fanout", session_config).unwrap();

    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    const TOTAL: u64 = 200;
    let consumers: Vec<_> = lane_sockets
        .iter()
        .map(|socket| {
            let rx = socket.receiver();
            std::thread::spawn(move || drain_count(&rx, TOTAL as usize, deadline))
        })
        .collect();
    // Every lane socket sees one datagram per packet sent; pacing on the
    // first bounds what is in flight towards all four.
    send_paced(
        &app_tx,
        handle.ingress_addr(),
        (0..TOTAL).map(packet),
        WINDOW,
        &lane_sockets[0].stats(),
        |sent| sent,
        deadline,
    );
    for (lane, consumer) in consumers.into_iter().enumerate() {
        let received = consumer.join().unwrap();
        let seqs: Vec<u64> = received.iter().map(|p| p.seq().value()).collect();
        assert_eq!(
            seqs,
            (0..TOTAL).collect::<Vec<_>>(),
            "lane {lane} must see the whole stream, in order"
        );
    }
    handle.close_input();
    for socket in &lane_sockets {
        assert!(drain_to_eof(&socket.receiver(), deadline).is_empty());
    }
    // Every lane leaves the one carrier socket: 4 x (data + 1 FIN).
    let egress = carrier.egress_stats();
    wait_until("the lane FINs' tx count", deadline, || {
        egress.tx_packets() == 4 * (TOTAL + 1)
    });
    proxy.shutdown().unwrap();
}

#[test]
fn a_seeded_impaired_drop_regime_is_fully_repaired_by_fec() {
    // The paper's argument, on the wire: a proxy inserts FEC(6,4) ahead of
    // a lossy hop; the receiver repairs the losses without retransmission.
    // The lossy hop is an `ImpairedUdp` relay dropping every 5th frame —
    // a stride that provably never exceeds the 2 losses a (6,4) block
    // tolerates — so *complete* recovery is a hard assertion, not a
    // statistical hope, and the stride makes the survivor count exact.
    let deadline = Instant::now() + WATCHDOG;
    let app_rx = UdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
    let relay = ImpairedUdp::spawn(app_rx.local_addr(), ImpairmentPlan::drop_every(2001, 5)).unwrap();
    let mut proxy = Proxy::with_runtime("edge", RuntimeConfig::new(2, 8));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    let handle = proxy
        .add_stream_udp_shared(
            "audio",
            SharedUdpStreamConfig::on_carrier("wire", relay.local_addr())
                .with_stream(StreamId::new(1)),
        )
        .unwrap();
    proxy
        .insert_filter(
            "audio",
            0,
            &FilterSpec::new("fec-encoder").with_param("n", "6").with_param("k", "4"),
        )
        .unwrap();

    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    const TOTAL: u64 = 200; // 50 complete (6,4) blocks → 100 parity frames
    const SURVIVORS: usize = 300 - 60; // every 5th of 300 frames dropped
    let consumer = {
        let rx = app_rx.receiver();
        std::thread::spawn(move || drain_count(&rx, SURVIVORS, deadline))
    };
    // Paced end to end, against the app socket behind the lossy hop: each
    // window of 40 sources is ten (6,4) blocks — 60 frames, of which the
    // relay drops every 5th — so 6/5 survivors reach the app per source.
    // Pacing only the proxy ingress is not enough: the chain and the
    // carrier then burst a window's frames at the relay faster than its
    // thread may drain them, and its socket buffer overflows.
    send_paced(
        &app_tx,
        handle.ingress_addr(),
        (0..TOTAL).map(packet),
        WINDOW,
        &app_rx.stats(),
        |sent| sent * 6 / 5,
        deadline,
    );
    let mut survivors = consumer.join().unwrap();
    handle.close_input();
    survivors.extend(drain_to_eof(&app_rx.receiver(), deadline));

    // Decode at the receiver: every source packet must come back, either
    // delivered or reconstructed from parity.
    let mut decoder = FecDecoderFilter::new(6, 4).unwrap();
    let mut emitted = Vec::new();
    let mut received_data = 0u64;
    for survivor in &survivors {
        if survivor.kind().is_payload() {
            received_data += 1;
        }
        let _ = decoder.process(survivor.clone(), &mut emitted);
    }
    let mut seqs: Vec<u64> = emitted
        .iter()
        .filter(|p| p.kind().is_payload())
        .map(|p| p.seq().value())
        .collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(
        seqs,
        (0..TOTAL).collect::<Vec<_>>(),
        "FEC must repair every dropped frame"
    );
    assert!(received_data < TOTAL, "the relay must actually have dropped data frames");
    assert_eq!(relay.stats().dropped(), 60);
    assert!(carrier.egress_stats().tx_packets() >= 300, "parity rode the wire");
    proxy.shutdown().unwrap();
}

#[test]
fn fifty_udp_sessions_soak_the_pooled_runtime() {
    // Fleet-scale smoke: 50 streams multiplexed onto one carrier socket
    // and a 4-worker pool (zero per-stream threads), each carrying its own
    // stream id to its own app socket, all inside the watchdog.
    const SESSIONS: u32 = 50;
    const PER_SESSION: u64 = 40;
    let deadline = Instant::now() + WATCHDOG;
    let config = UdpConfig::default();
    let mut proxy = Proxy::with_runtime("fleet", RuntimeConfig::new(4, 16));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    let mut consumers = Vec::new();
    let mut app_sockets = Vec::new();
    for index in 0..SESSIONS {
        let app_rx = UdpIngress::bind("127.0.0.1:0", &config).unwrap();
        proxy
            .add_stream_udp_shared(
                format!("stream-{index}"),
                SharedUdpStreamConfig::on_carrier("wire", app_rx.local_addr())
                    .with_stream(StreamId::new(index + 1)),
            )
            .unwrap();
        let rx = app_rx.receiver();
        consumers.push(std::thread::spawn(move || {
            drain_count(&rx, PER_SESSION as usize, deadline)
        }));
        app_sockets.push(app_rx);
    }
    // One round of every stream per window, interleaved on the one socket.
    let packets = (0..PER_SESSION).flat_map(|seq| {
        (1..=SESSIONS).map(move |stream| {
            Packet::new(StreamId::new(stream), SeqNo::new(seq), PacketKind::AudioData, vec![0; 96])
        })
    });
    // Each app socket sees one datagram per round; the carrier ingress is
    // the socket the whole fleet shares.
    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    send_paced(
        &app_tx,
        carrier.ingress_addr(),
        packets,
        SESSIONS as usize,
        &carrier.ingress_stats(),
        |sent| sent,
        deadline,
    );
    for (index, consumer) in consumers.into_iter().enumerate() {
        let received = consumer.join().unwrap();
        let seqs: Vec<u64> = received.iter().map(|p| p.seq().value()).collect();
        assert_eq!(
            seqs,
            (0..PER_SESSION).collect::<Vec<_>>(),
            "session {index} lost or reordered traffic"
        );
    }
    let status = proxy.status();
    assert_eq!(status.transports.len(), 1);
    assert_eq!(status.transports[0].ingress.rx_packets, u64::from(SESSIONS) * PER_SESSION);
    assert_eq!(proxy.stream_names().len(), SESSIONS as usize);
    proxy.shutdown().unwrap();
    assert_eq!(
        proxy.status().transports.len(),
        0,
        "shutdown must tear every transport down"
    );
}
