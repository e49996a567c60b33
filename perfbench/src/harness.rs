//! The pure half of the harness: everything a run derives from its seed
//! (stream interleaving, payloads, the emulated link's loss pattern), the
//! ledger that verifies every delivered packet against it, and the
//! percentile rules.  Nothing here touches a socket or a clock.

use rapidware_packet::{FrameType, Packet, PacketKind};

/// SplitMix64's finaliser: a bijective 64-bit mixer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a seed and a tuple of coordinates into one word.
pub fn hash(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix(seed), |acc, &part| mix(acc ^ part))
}

/// Domain tags keep the derived streams of randomness independent.
const TAG_PERMUTATION: u64 = 1;
const TAG_ROTATION: u64 = 2;
const TAG_PAYLOAD: u64 = 3;
const TAG_LINK: u64 = 4;

/// What a workload's source packets carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Media {
    /// PCM audio frames.
    Audio,
    /// Video: four packets per frame, an I frame every 32 packets.
    Video,
    /// Opaque small datagrams.
    Data,
}

impl Media {
    /// The kind of source packet `seq` of any stream.
    pub fn kind(self, seq: u64) -> PacketKind {
        match self {
            Media::Audio => PacketKind::AudioData,
            Media::Data => PacketKind::Data,
            Media::Video => PacketKind::VideoFrame {
                frame: if seq.is_multiple_of(32) {
                    FrameType::I
                } else {
                    FrameType::P
                },
                boundary: seq.is_multiple_of(4),
            },
        }
    }
}

/// The order in which the generator visits streams.  Every stream sends
/// exactly one packet per round, so a stream's sequence number *is* the
/// round number; within a round, streams go in a seeded base permutation
/// rotated by a seeded per-round offset.
#[derive(Debug, Clone)]
pub struct Schedule {
    seed: u64,
    position: Vec<usize>,
    stream_at: Vec<usize>,
}

impl Schedule {
    /// The interleaving of `streams` streams under `seed`.
    pub fn new(seed: u64, streams: usize) -> Self {
        assert!(streams > 0, "a schedule needs at least one stream");
        let mut stream_at: Vec<usize> = (0..streams).collect();
        for i in (1..streams).rev() {
            let j = (hash(seed, &[TAG_PERMUTATION, i as u64]) % (i as u64 + 1)) as usize;
            stream_at.swap(i, j);
        }
        let mut position = vec![0; streams];
        for (pos, &stream) in stream_at.iter().enumerate() {
            position[stream] = pos;
        }
        Self {
            seed,
            position,
            stream_at,
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.position.len()
    }

    fn rotation(&self, round: u64) -> usize {
        (hash(self.seed, &[TAG_ROTATION, round]) % self.streams() as u64) as usize
    }

    /// The stream sending at `pos` of `round`.
    pub fn stream_at(&self, round: u64, pos: usize) -> usize {
        let n = self.streams();
        self.stream_at[(pos + n - self.rotation(round)) % n]
    }

    /// Where `stream` sends within `round`.
    pub fn position_of(&self, round: u64, stream: usize) -> usize {
        (self.position[stream] + self.rotation(round)) % self.streams()
    }
}

/// Fills `out` with the payload of packet `seq` on `stream`.
pub fn fill_payload(seed: u64, stream: usize, seq: u64, len: usize, out: &mut Vec<u8>) {
    out.clear();
    let mut state = hash(seed, &[TAG_PAYLOAD, stream as u64, seq]);
    while out.len() < len {
        state = mix(state);
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&state.to_le_bytes()[..take]);
    }
}

/// The source packet `seq` of `stream` as the application sends it.
pub fn source_packet(
    seed: u64,
    media: Media,
    stream: usize,
    seq: u64,
    len: usize,
    timestamp_us: u64,
) -> Packet {
    let mut payload = Vec::with_capacity(len);
    fill_payload(seed, stream, seq, len, &mut payload);
    Packet::with_timestamp(
        stream_id(stream),
        rapidware_packet::SeqNo::new(seq),
        media.kind(seq),
        timestamp_us,
        payload,
    )
}

/// Wire stream id of stream index `stream`.
pub fn stream_id(stream: usize) -> rapidware_packet::StreamId {
    rapidware_packet::StreamId::new(stream as u32 + 1)
}

/// The emulated wireless link's Bernoulli loss, as a pure function of the
/// seed and the datagram's coordinates: slot `slot` (`0..k` sources,
/// `k..n` parities) of FEC block `block` of `stream` on `lane`.
pub fn link_drops(
    seed: u64,
    lane: usize,
    stream: usize,
    block: u64,
    slot: usize,
    loss: f64,
) -> bool {
    let draw = hash(
        seed,
        &[TAG_LINK, lane as u64, stream as u64, block, slot as u64],
    );
    (draw >> 11) as f64 / (1u64 << 53) as f64 <= loss && loss > 0.0
}

/// Whether the emulated link alone makes source `seq` unrecoverable: the
/// link dropped it *and* more than `n - k` datagrams of its FEC(n, k)
/// block.  Such a loss is the link's, not the proxy's.
pub fn link_loses_source(
    seed: u64,
    lane: usize,
    stream: usize,
    seq: u64,
    n: usize,
    k: usize,
    loss: f64,
) -> bool {
    let block = seq / k as u64;
    let slot = (seq % k as u64) as usize;
    if !link_drops(seed, lane, stream, block, slot, loss) {
        return false;
    }
    let dropped = (0..n)
        .filter(|&slot| link_drops(seed, lane, stream, block, slot, loss))
        .count();
    dropped > n - k
}

/// Value at quantile `p` of an ascending slice (nearest rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Quantile `p` of one window of latency samples, where a lost sample
/// (`NaN`) counts as `lost_as` — a value over the workload's limit.
pub fn window_percentile(samples: &[f32], p: f64, lost_as: f64) -> f64 {
    let mut values: Vec<f64> = samples
        .iter()
        .map(|&v| if v.is_nan() { lost_as } else { f64::from(v) })
        .collect();
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

/// Quantile `p` of every window of `window` consecutive samples (a short
/// last window counts only if at least half full, or if it is the only
/// one).
pub fn window_percentiles(samples: &[f32], window: usize, p: f64, lost_as: f64) -> Vec<f64> {
    let window = window.max(1);
    samples
        .chunks(window)
        .filter(|chunk| chunk.len() * 2 >= window || samples.len() < window)
        .map(|chunk| window_percentile(chunk, p, lost_as))
        .collect()
}

/// A growable bit set of delivered sequence numbers.
#[derive(Debug, Clone, Default)]
pub struct SeenSet {
    bits: Vec<u64>,
}

impl SeenSet {
    /// Marks `seq`; `false` if it was already marked.
    pub fn insert(&mut self, seq: u64) -> bool {
        let word = (seq / 64) as usize;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << (seq % 64);
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        fresh
    }
}

/// One block of rounds sent at a fixed rate: `rounds` measured rounds,
/// then `tail` unmeasured rounds at the same rate that complete the last
/// FEC blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// First round (= first sequence number of every stream).
    pub first_round: u64,
    /// Measured rounds.
    pub rounds: u64,
    /// Unmeasured trailing rounds.
    pub tail: u64,
    /// Due time of the phase's first packet.
    pub start_ns: u64,
    /// Gap between consecutive due times (1 / offered rate).
    pub period_ns: f64,
}

impl PhaseSpec {
    /// One past the last round sent.
    pub fn end_round(&self) -> u64 {
        self.first_round + self.rounds + self.tail
    }

    /// Due time of packet `index` (counted across streams) of the phase.
    pub fn due_ns(&self, index: u64) -> u64 {
        self.start_ns + (index as f64 * self.period_ns) as u64
    }
}

/// What the ledger made of one delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A fresh, byte-exact source packet.
    Delivered,
    /// Same packet delivered before on this lane.
    Duplicate,
    /// Payload, kind or stream does not match what was sent.
    Corrupt,
}

/// Verifies every delivered source packet and records its latency.
///
/// Latencies live in one `f32` microsecond slot per (measured packet,
/// lane), in due order, so a slot that stays `NaN` is a packet that never
/// arrived.
#[derive(Debug)]
pub struct Ledger {
    seed: u64,
    media: Media,
    payload_len: usize,
    lanes: usize,
    schedule: Schedule,
    phases: Vec<(PhaseSpec, Vec<f32>)>,
    seen: Vec<SeenSet>,
    scratch: Vec<u8>,
    /// Deliveries that were not byte-exact.
    pub corrupt: u64,
    /// Repeated deliveries.
    pub duplicate: u64,
}

impl Ledger {
    /// A ledger for `lanes` receiving lanes of the `schedule`'s streams.
    pub fn new(
        seed: u64,
        media: Media,
        payload_len: usize,
        lanes: usize,
        schedule: Schedule,
    ) -> Self {
        let seen = vec![SeenSet::default(); lanes * schedule.streams()];
        Self {
            seed,
            media,
            payload_len,
            lanes,
            schedule,
            phases: Vec::new(),
            seen,
            scratch: Vec::new(),
            corrupt: 0,
            duplicate: 0,
        }
    }

    /// Opens a phase; its latency slots start out lost.
    pub fn begin_phase(&mut self, spec: PhaseSpec) -> usize {
        let slots = spec.rounds as usize * self.schedule.streams() * self.lanes;
        self.phases.push((spec, vec![f32::NAN; slots]));
        self.phases.len() - 1
    }

    /// The phase's spec and latency slots.
    pub fn phase(&self, phase: usize) -> (&PhaseSpec, &[f32]) {
        let (spec, slots) = &self.phases[phase];
        (spec, slots)
    }

    /// Checks `packet`, delivered on `lane` at `now_ns`.
    pub fn accept(&mut self, lane: usize, packet: &Packet, now_ns: u64) -> Verdict {
        let streams = self.schedule.streams();
        let stream = packet.stream().value() as usize;
        if stream == 0 || stream > streams || lane >= self.lanes {
            self.corrupt += 1;
            return Verdict::Corrupt;
        }
        let stream = stream - 1;
        let seq = packet.seq().value();
        fill_payload(self.seed, stream, seq, self.payload_len, &mut self.scratch);
        if packet.kind() != self.media.kind(seq) || packet.payload() != self.scratch.as_slice() {
            self.corrupt += 1;
            return Verdict::Corrupt;
        }
        if !self.seen[lane * streams + stream].insert(seq) {
            self.duplicate += 1;
            return Verdict::Duplicate;
        }
        let Some((spec, slots)) = self
            .phases
            .iter_mut()
            .rev()
            .find(|(spec, _)| spec.first_round <= seq && seq < spec.end_round())
        else {
            return Verdict::Delivered;
        };
        if seq < spec.first_round + spec.rounds {
            let index = (seq - spec.first_round) * streams as u64
                + self.schedule.position_of(seq, stream) as u64;
            let latency_us = now_ns.saturating_sub(spec.due_ns(index)) as f64 / 1_000.0;
            slots[index as usize * self.lanes + lane] = latency_us as f32;
        }
        Verdict::Delivered
    }

    /// The (round, stream, lane) a latency slot of `spec` stands for.
    pub fn slot_coordinates(&self, spec: &PhaseSpec, slot: usize) -> (u64, usize, usize) {
        let streams = self.schedule.streams();
        let index = slot / self.lanes;
        let round = spec.first_round + (index / streams) as u64;
        let stream = self.schedule.stream_at(round, index % streams);
        (round, stream, slot % self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_seeded_bijection_per_round() {
        let a = Schedule::new(7, 32);
        let b = Schedule::new(7, 32);
        let c = Schedule::new(8, 32);
        let order = |s: &Schedule, round| {
            (0..32)
                .map(|pos| s.stream_at(round, pos))
                .collect::<Vec<_>>()
        };
        for round in 0..50 {
            let mut streams = order(&a, round);
            assert_eq!(streams, order(&b, round));
            for (pos, &stream) in streams.iter().enumerate() {
                assert_eq!(a.position_of(round, stream), pos);
            }
            streams.sort_unstable();
            assert_eq!(streams, (0..32).collect::<Vec<_>>());
        }
        assert!((0..50).any(|round| order(&a, round) != order(&c, round)));
    }

    #[test]
    fn packets_and_loss_pattern_are_pure_functions_of_the_seed() {
        let p = source_packet(11, Media::Video, 3, 40, 1024, 0);
        assert_eq!(p, source_packet(11, Media::Video, 3, 40, 1024, 0));
        assert_ne!(
            p.payload(),
            source_packet(12, Media::Video, 3, 40, 1024, 0).payload()
        );
        assert_ne!(
            p.payload(),
            source_packet(11, Media::Video, 3, 41, 1024, 0).payload()
        );
        assert_eq!(p.payload_len(), 1024);

        let pattern = |seed| {
            (0..20_000u64)
                .map(|b| link_drops(seed, 2, 1, b, 3, 0.05))
                .collect::<Vec<_>>()
        };
        let drops = pattern(5);
        assert_eq!(drops, pattern(5));
        assert_ne!(drops, pattern(6));
        let rate = drops.iter().filter(|&&d| d).count() as f64 / drops.len() as f64;
        assert!((rate - 0.05).abs() < 0.01, "Bernoulli rate {rate}");
        assert!(!(0..1_000).any(|b| link_drops(5, 0, 0, b, 0, 0.0)));
    }

    #[test]
    fn only_blocks_past_the_parity_budget_lose_sources_to_the_link() {
        for seq in 0..4_000u64 {
            let (block, slot) = (seq / 4, (seq % 4) as usize);
            let dropped = (0..6)
                .filter(|&s| link_drops(9, 0, 0, block, s, 0.2))
                .count();
            let expected = link_drops(9, 0, 0, block, slot, 0.2) && dropped > 2;
            assert_eq!(link_loses_source(9, 0, 0, seq, 6, 4, 0.2), expected);
        }
    }

    fn ledger_with_phase() -> (Ledger, usize) {
        let mut ledger = Ledger::new(3, Media::Audio, 320, 2, Schedule::new(3, 4));
        let phase = ledger.begin_phase(PhaseSpec {
            first_round: 10,
            rounds: 5,
            tail: 1,
            start_ns: 1_000_000,
            period_ns: 1_000.0,
        });
        (ledger, phase)
    }

    #[test]
    fn verifier_flags_corrupt_duplicate_and_missing_packets() {
        let (mut ledger, phase) = ledger_with_phase();
        for round in 10..16 {
            for stream in 0..4 {
                for lane in 0..2 {
                    if (round, stream, lane) == (12, 1, 1) {
                        continue;
                    }
                    let packet = source_packet(3, Media::Audio, stream, round, 320, 0);
                    assert_eq!(ledger.accept(lane, &packet, 2_000_000), Verdict::Delivered);
                }
            }
        }
        let again = source_packet(3, Media::Audio, 2, 11, 320, 0);
        assert_eq!(ledger.accept(0, &again, 2_000_000), Verdict::Duplicate);
        let mut tampered = source_packet(3, Media::Audio, 0, 16, 320, 0);
        tampered.payload_edit(|bytes| bytes[100] ^= 1);
        assert_eq!(ledger.accept(0, &tampered, 2_000_000), Verdict::Corrupt);
        let wrong_seed = source_packet(4, Media::Audio, 0, 17, 320, 0);
        assert_eq!(ledger.accept(0, &wrong_seed, 2_000_000), Verdict::Corrupt);
        let foreign = source_packet(3, Media::Audio, 9, 17, 320, 0);
        assert_eq!(ledger.accept(0, &foreign, 2_000_000), Verdict::Corrupt);
        assert_eq!((ledger.corrupt, ledger.duplicate), (3, 1));

        let (spec, slots) = ledger.phase(phase);
        let spec = *spec;
        let missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_nan()).collect();
        assert_eq!(missing.len(), 1);
        assert_eq!(ledger.slot_coordinates(&spec, missing[0]), (12, 1, 1));
        // Latency is measured from each packet's own due time.
        let first = ledger.phase(phase).1[0];
        assert!((f64::from(first) - 1_000.0).abs() < 1e-3, "{first}");
    }

    #[test]
    fn percentiles_count_lost_packets_as_over_the_limit() {
        let mut samples = vec![100.0f32; 98];
        samples.extend([f32::NAN, f32::NAN]);
        assert_eq!(window_percentile(&samples, 0.5, 5_000.0), 100.0);
        assert_eq!(window_percentile(&samples, 0.99, 5_000.0), 5_000.0);
        let delivered_only: Vec<f32> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
        assert_eq!(window_percentile(&delivered_only, 0.99, 5_000.0), 100.0);
        // A single bad window moves the windowed median by one rank only.
        let mut many = vec![50.0f32; 1_000];
        many[..100].iter_mut().for_each(|v| *v = f32::NAN);
        assert_eq!(median(&window_percentiles(&many, 100, 0.99, 5_000.0)), 50.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
