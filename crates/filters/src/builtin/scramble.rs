//! Payload scrambling filter pair.
//!
//! RAPIDware's goals include security services composed into proxies at run
//! time.  True cryptography is out of scope for this reproduction, but the
//! *composition* behaviour — a keyed, stateful, order-sensitive payload
//! transformation that must be paired with its inverse on the other side of
//! the lossy hop — is exercised by this keyed XOR-stream scrambler.  It is
//! self-synchronising per packet (the keystream is derived from the key and
//! the packet's sequence number), so packet loss does not break decoding of
//! later packets.

use rapidware_packet::Packet;

use crate::error::FilterError;
use crate::filter::{Filter, FilterDescriptor, FilterOutput};

fn keystream_byte(key: u64, seq: u64, index: usize) -> u8 {
    // A small xorshift-style mixer seeded by (key, seq, index); not secure,
    // but deterministic, fast, and key/seq sensitive.
    let mut x = key ^ seq.rotate_left(17) ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    (x & 0xFF) as u8
}

fn apply(key: u64, mut packet: Packet) -> Packet {
    let seq = packet.seq().value();
    // Copy-on-write rewrite: a uniquely owned payload is transformed in
    // place with no allocation, while a payload shared with fan-out
    // siblings (other receiver lanes of a session) is copied first so the
    // siblings keep the original bytes.
    for (i, byte) in packet.payload_mut().iter_mut().enumerate() {
        *byte ^= keystream_byte(key, seq, i);
    }
    packet
}

/// Scrambles payloads with a keyed XOR keystream.
#[derive(Debug)]
pub struct ScramblerFilter {
    name: String,
    key: u64,
    packets: u64,
}

/// Reverses [`ScramblerFilter`] (the transformation is an involution, but a
/// distinct type keeps chains self-documenting).
#[derive(Debug)]
pub struct DescramblerFilter {
    name: String,
    key: u64,
    packets: u64,
}

impl ScramblerFilter {
    /// Creates a scrambler with the given key.
    pub fn new(key: u64) -> Self {
        Self {
            name: format!("scrambler(key={key:#x})"),
            key,
            packets: 0,
        }
    }
}

impl DescramblerFilter {
    /// Creates a descrambler with the given key.
    pub fn new(key: u64) -> Self {
        Self {
            name: format!("descrambler(key={key:#x})"),
            key,
            packets: 0,
        }
    }
}

impl Filter for ScramblerFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut dyn FilterOutput) -> Result<(), FilterError> {
        if !packet.kind().is_payload() {
            out.emit(packet);
            return Ok(());
        }
        self.packets += 1;
        out.emit(apply(self.key, packet));
        Ok(())
    }

    fn descriptor(&self) -> FilterDescriptor {
        FilterDescriptor {
            name: self.name.clone(),
            kind: "scrambler".to_string(),
            parameters: format!("packets={}", self.packets),
        }
    }
}

impl Filter for DescramblerFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut dyn FilterOutput) -> Result<(), FilterError> {
        if !packet.kind().is_payload() {
            out.emit(packet);
            return Ok(());
        }
        self.packets += 1;
        out.emit(apply(self.key, packet));
        Ok(())
    }

    fn descriptor(&self) -> FilterDescriptor {
        FilterDescriptor {
            name: self.name.clone(),
            kind: "descrambler".to_string(),
            parameters: format!("packets={}", self.packets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(seq: u64, payload: Vec<u8>) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, payload)
    }

    #[test]
    fn scramble_then_descramble_restores_payload() {
        let mut scrambler = ScramblerFilter::new(0xDEADBEEF);
        let mut descrambler = DescramblerFilter::new(0xDEADBEEF);
        let original = packet(5, (0..200u8).collect());
        let mut mid: Vec<Packet> = Vec::new();
        scrambler.process(original.clone(), &mut mid).unwrap();
        assert_ne!(mid[0].payload(), original.payload());
        let mut out: Vec<Packet> = Vec::new();
        descrambler.process(mid.pop().unwrap(), &mut out).unwrap();
        assert_eq!(out[0], original);
    }

    #[test]
    fn wrong_key_does_not_restore() {
        let mut scrambler = ScramblerFilter::new(1);
        let mut descrambler = DescramblerFilter::new(2);
        let original = packet(5, vec![7u8; 64]);
        let mut mid: Vec<Packet> = Vec::new();
        scrambler.process(original.clone(), &mut mid).unwrap();
        let mut out: Vec<Packet> = Vec::new();
        descrambler.process(mid.pop().unwrap(), &mut out).unwrap();
        assert_ne!(out[0].payload(), original.payload());
    }

    #[test]
    fn scrambling_is_seq_sensitive() {
        let mut scrambler = ScramblerFilter::new(42);
        let mut out: Vec<Packet> = Vec::new();
        scrambler.process(packet(1, vec![0u8; 32]), &mut out).unwrap();
        scrambler.process(packet(2, vec![0u8; 32]), &mut out).unwrap();
        assert_ne!(out[0].payload(), out[1].payload());
    }

    #[test]
    fn loss_of_one_packet_does_not_break_the_next() {
        let mut scrambler = ScramblerFilter::new(9);
        let mut descrambler = DescramblerFilter::new(9);
        let packets: Vec<Packet> = (0..4).map(|s| packet(s, vec![s as u8 + 1; 50])).collect();
        let mut scrambled: Vec<Packet> = Vec::new();
        for p in &packets {
            scrambler.process(p.clone(), &mut scrambled).unwrap();
        }
        // Drop packet 1 in transit; the rest still descramble correctly.
        let mut out: Vec<Packet> = Vec::new();
        for p in scrambled.into_iter().filter(|p| p.seq().value() != 1) {
            descrambler.process(p, &mut out).unwrap();
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], packets[0]);
        assert_eq!(out[1], packets[2]);
        assert_eq!(out[2], packets[3]);
    }

    #[test]
    fn control_packets_are_untouched() {
        let mut scrambler = ScramblerFilter::new(3);
        let control = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Control, vec![1, 2, 3]);
        let mut out: Vec<Packet> = Vec::new();
        scrambler.process(control.clone(), &mut out).unwrap();
        assert_eq!(out[0], control);
    }

    #[test]
    fn descriptors_mention_kind() {
        assert_eq!(ScramblerFilter::new(1).descriptor().kind, "scrambler");
        assert_eq!(DescramblerFilter::new(1).descriptor().kind, "descrambler");
    }
}
