//! The mmX packet format.
//!
//! §6.1: "similar to most wireless communication systems, each mmX's
//! packet has known preamble bits. These bits are used to distinguish the
//! signal of Beam 0 from Beam 1" — i.e. the preamble both synchronizes
//! the receiver and resolves the OTAM polarity.
//!
//! Wire layout (MSB-first bits):
//!
//! ```text
//! [ preamble 32 bits | node id u8 | seq u16 | len u16 | payload | crc32 ]
//! ```

use crate::bits::{bits_to_bytes, bytes_to_bits, crc32};

/// The 32-bit preamble: two Barker-like alternation-rich words chosen for
/// a sharp autocorrelation peak and a balanced 1/0 count (16 each), so
/// the slicer can learn both envelope levels from it.
pub const PREAMBLE: [bool; 32] = preamble_bits();

const fn preamble_bits() -> [bool; 32] {
    // 0xB59A_2CD2: balanced (16 ones), low autocorrelation sidelobes.
    let word: u32 = 0xB59A_2CD2;
    let mut bits = [false; 32];
    let mut i = 0;
    while i < 32 {
        bits[i] = (word >> (31 - i)) & 1 == 1;
        i += 1;
    }
    bits
}

/// Maximum payload size in bytes (16-bit length field).
pub const MAX_PAYLOAD: usize = 65_535;

/// A PHY packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source node identifier.
    pub node_id: u8,
    /// Sequence number.
    pub seq: u16,
    /// Payload bytes.
    pub payload: Box<[u8]>,
}

/// Why a packet failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Not enough bits for the fixed header.
    Truncated,
    /// The length field points past the end of the bit stream.
    BadLength,
    /// CRC mismatch — the payload took uncorrected bit errors.
    BadCrc,
}

impl Packet {
    /// Creates a packet. Panics when the payload exceeds [`MAX_PAYLOAD`].
    pub fn new(node_id: u8, seq: u16, payload: impl Into<Box<[u8]>>) -> Self {
        let payload = payload.into();
        assert!(payload.len() <= MAX_PAYLOAD, "payload too large");
        Packet {
            node_id,
            seq,
            payload,
        }
    }

    /// Header + payload bytes (everything the CRC covers).
    fn body_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.payload.len());
        out.push(self.node_id);
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Serializes to the on-air bit sequence (preamble included).
    pub fn to_bits(&self) -> Vec<bool> {
        let body = self.body_bytes();
        let crc = crc32(&body);
        let mut bits = Vec::with_capacity(32 + (body.len() + 4) * 8);
        bits.extend_from_slice(&PREAMBLE);
        bits.extend(bytes_to_bits(&body));
        bits.extend(bytes_to_bits(&crc.to_be_bytes()));
        bits
    }

    /// Number of on-air bits for a given payload size.
    pub fn air_bits(payload_len: usize) -> usize {
        32 + (1 + 2 + 2 + payload_len + 4) * 8
    }

    /// Parses a packet from bits that start *right after* the preamble.
    pub fn from_bits(bits: &[bool]) -> Result<Packet, PacketError> {
        const HEADER_BITS: usize = (1 + 2 + 2) * 8;
        if bits.len() < HEADER_BITS {
            return Err(PacketError::Truncated);
        }
        let header = bits_to_bytes(&bits[..HEADER_BITS]);
        let node_id = header[0];
        let seq = u16::from_be_bytes([header[1], header[2]]);
        let len = u16::from_be_bytes([header[3], header[4]]) as usize;
        let need = HEADER_BITS + (len + 4) * 8;
        if bits.len() < need {
            return Err(PacketError::BadLength);
        }
        let body_bits = &bits[..HEADER_BITS + len * 8];
        let body = bits_to_bytes(body_bits);
        let crc_bits = &bits[HEADER_BITS + len * 8..need];
        let crc_bytes = bits_to_bytes(crc_bits);
        let got = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if got != crc32(&body) {
            return Err(PacketError::BadCrc);
        }
        Ok(Packet {
            node_id,
            seq,
            payload: body[5..].into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::new(7, 1234, &b"hello mmWave world"[..])
    }

    #[test]
    fn preamble_is_balanced() {
        let ones = PREAMBLE.iter().filter(|&&b| b).count();
        assert_eq!(ones, 16);
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let bits = p.to_bits();
        assert_eq!(bits.len(), Packet::air_bits(p.payload.len()));
        // Strip the preamble as the receiver would after sync.
        let parsed = Packet::from_bits(&bits[32..]).expect("parse");
        assert_eq!(parsed, p);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = Packet::new(0, 0, Vec::new());
        let parsed = Packet::from_bits(&p.to_bits()[32..]).expect("parse");
        assert_eq!(parsed, p);
    }

    #[test]
    fn bits_start_with_preamble() {
        let bits = sample().to_bits();
        assert_eq!(&bits[..32], &PREAMBLE[..]);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut bits = sample().to_bits();
        let flip = 32 + 40 + 17; // somewhere inside the payload
        bits[flip] = !bits[flip];
        assert_eq!(Packet::from_bits(&bits[32..]), Err(PacketError::BadCrc));
    }

    #[test]
    fn corrupted_header_fails() {
        let mut bits = sample().to_bits();
        bits[32] = !bits[32]; // node id bit
                              // Either CRC failure or (if the length field were hit) BadLength.
        assert!(Packet::from_bits(&bits[32..]).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let bits = sample().to_bits();
        assert_eq!(
            Packet::from_bits(&bits[32..60]),
            Err(PacketError::Truncated)
        );
        assert_eq!(
            Packet::from_bits(&bits[32..bits.len() - 8]),
            Err(PacketError::BadLength)
        );
    }

    #[test]
    fn length_field_limits_parse() {
        // A length field larger than the remaining bits must be caught.
        let p = Packet::new(1, 1, &b"xy"[..]);
        let mut bits = p.to_bits();
        // Set the length field (bits 32+24 .. 32+40) to huge.
        for i in 0..16 {
            bits[32 + 24 + i] = true;
        }
        assert_eq!(Packet::from_bits(&bits[32..]), Err(PacketError::BadLength));
    }

    #[test]
    fn air_bits_formula() {
        assert_eq!(Packet::air_bits(0), 32 + 9 * 8);
        assert_eq!(Packet::air_bits(100), 32 + 109 * 8);
    }

    #[test]
    fn distinct_sequence_numbers_produce_distinct_bits() {
        let a = Packet::new(1, 1, &b"data"[..]).to_bits();
        let b = Packet::new(1, 2, &b"data"[..]).to_bits();
        assert_ne!(a, b);
    }
}
