//! Per-layer costs measured by calling each layer's public functions on
//! the workload's own packets, outside the proxy.

use std::collections::BTreeMap;
use std::time::Instant;

use rapidware_fec::FecCodec;
use rapidware_filters::FilterChain;
use rapidware_packet::{Packet, PacketKind};
use rapidware_proxy::{FilterRegistry, FilterSpec};

use crate::harness::{link_drops, median, source_packet};
use crate::workload::{Workload, BATCH, CAPACITY, FEC_K, FEC_N, KEY};

/// Repetitions per measurement; the median is reported.
const REPS: usize = 7;
/// Sample packets per repetition.
const SAMPLE: usize = 512;

/// Filter kinds replayed through a sync chain, in report order.
pub const FILTER_KINDS: [&str; 4] = ["fec-encoder", "encrypt", "fec-decoder", "decrypt"];

/// What [`measure`] found.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// `Packet::encode_into`, ns per packet.
    pub encode_ns: f64,
    /// `Packet::decode` (including the CRC check), ns per packet.
    pub decode_ns: f64,
    /// `send_batch` → `try_recv_up_to` through one pipe, ns per packet.
    pub hop_ns: f64,
    /// `FilterChain::process_batch` with one filter of each kind, ns per
    /// input packet.
    pub filter_ns: BTreeMap<&'static str, f64>,
    /// `FecCodec::encode_into`, ns per FEC(6,4) block.
    pub fec_encode_block_ns: f64,
    /// `FecCodec::decode_into` with two sources missing, ns per block.
    pub fec_decode_block_ns: f64,
}

/// Median over [`REPS`] of `run`'s nanoseconds divided by `units`.
fn ns_per(units: usize, mut run: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&samples)
}

fn spec(kind: &str) -> FilterSpec {
    let spec = FilterSpec::new(kind);
    match kind {
        "fec-encoder" | "fec-decoder" => spec
            .with_param("n", FEC_N.to_string())
            .with_param("k", FEC_K.to_string()),
        _ => spec.with_param("key", KEY.to_string()),
    }
}

/// Runs `input` through a fresh one-filter chain of `kind` in runtime-sized
/// batches; returns the output and the time taken.
fn replay(registry: &FilterRegistry, kind: &str, input: &[Packet]) -> (Vec<Packet>, f64) {
    let mut chain = FilterChain::new();
    chain
        .push_back(registry.instantiate(&spec(kind)).expect("built-in filter"))
        .expect("empty chain accepts a filter");
    let batches: Vec<Vec<Packet>> = input.chunks(BATCH).map(<[Packet]>::to_vec).collect();
    let start = Instant::now();
    let mut out = Vec::new();
    for batch in batches {
        out.extend(
            chain
                .process_batch(batch)
                .expect("replay through a built-in filter"),
        );
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    (out, elapsed)
}

/// Measures every layer on `workload`'s packets.
pub fn measure(workload: &Workload, seed: u64) -> LayerCosts {
    let packets: Vec<Packet> = (0..SAMPLE as u64)
        .map(|seq| source_packet(seed, workload.media, 0, seq, workload.payload, seq))
        .collect();
    let wires: Vec<Vec<u8>> = packets
        .iter()
        .map(|packet| {
            let mut wire = Vec::new();
            packet.encode_into(&mut wire);
            wire
        })
        .collect();

    let mut scratch = Vec::new();
    let encode_ns = ns_per(SAMPLE, || {
        for packet in &packets {
            packet.encode_into(&mut scratch);
            std::hint::black_box(&scratch);
        }
    });
    let decode_ns = ns_per(SAMPLE, || {
        for wire in &wires {
            std::hint::black_box(Packet::decode(wire).expect("own encoding decodes"));
        }
    });
    let (tx, rx) = rapidware_streams::pipe::<Packet>(CAPACITY);
    let hop_ns = ns_per(SAMPLE, || {
        for batch in packets.chunks(BATCH) {
            tx.send_batch(batch.to_vec()).expect("pipe open");
            let mut left = batch.len();
            while left > 0 {
                left -= rx.try_recv_up_to(BATCH).expect("queued packets").len();
            }
        }
    });

    let registry = FilterRegistry::with_builtins();
    let mut filter_ns = BTreeMap::new();
    let timed = |kind: &'static str, input: &[Packet]| -> (Vec<Packet>, f64) {
        let mut out = Vec::new();
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let (replayed, ns) = replay(&registry, kind, input);
                out = replayed;
                ns / input.len() as f64
            })
            .collect();
        (out, median(&samples))
    };
    let (encoded, ns) = timed("fec-encoder", &packets);
    filter_ns.insert("fec-encoder", ns);
    let (sealed, ns) = timed("encrypt", &packets);
    filter_ns.insert("encrypt", ns);
    let received: Vec<Packet> = encoded
        .into_iter()
        .filter(|packet| {
            let (block, slot) = match packet.kind() {
                PacketKind::Parity { block, index, .. } => (block.value(), usize::from(index)),
                _ => (
                    packet.seq().value() / FEC_K as u64,
                    (packet.seq().value() % FEC_K as u64) as usize,
                ),
            };
            !link_drops(seed, 0, 0, block, slot, workload.loss.max(0.05))
        })
        .collect();
    let (_, ns) = timed("fec-decoder", &received);
    filter_ns.insert("fec-decoder", ns);
    let (_, ns) = timed("decrypt", &sealed);
    filter_ns.insert("decrypt", ns);

    let codec = FecCodec::new(FEC_N, FEC_K).expect("valid FEC parameters");
    let shards: Vec<&[u8]> = wires[..FEC_K].iter().map(Vec::as_slice).collect();
    let shard_len = shards[0].len();
    let mut parities = Vec::new();
    let blocks = SAMPLE / FEC_K;
    let fec_encode_block_ns = ns_per(blocks, || {
        for _ in 0..blocks {
            codec
                .encode_into(&shards, &mut parities)
                .expect("equal shards");
        }
    });
    let available = [
        (0, shards[0]),
        (2, shards[2]),
        (4, parities[0].as_slice()),
        (5, parities[1].as_slice()),
    ];
    let mut sources = Vec::new();
    let fec_decode_block_ns = ns_per(blocks, || {
        for _ in 0..blocks {
            codec
                .decode_into(&available, shard_len, &mut sources)
                .expect("k shards available");
        }
    });
    assert_eq!(
        sources[1], shards[1],
        "FEC decode rebuilt the missing source"
    );

    LayerCosts {
        encode_ns,
        decode_ns,
        hop_ns,
        filter_ns,
        fec_encode_block_ns,
        fec_decode_block_ns,
    }
}
