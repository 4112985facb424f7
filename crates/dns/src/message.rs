//! Full DNS messages: header, four sections, encode/decode, and the
//! DoC-specific canonicalization helpers from §4.2 of the paper.

use crate::name::{CompressionMap, Name};
use crate::rr::{Record, RecordClass, RecordType};
use crate::DnsError;

/// DNS opcodes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Standard query (0).
    Query,
    /// Anything else, preserved numerically (1..=15).
    Other(u8),
}

impl Opcode {
    fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Other(v) => v & 0x0F,
        }
    }
    pub(crate) fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            other => Opcode::Other(other),
        }
    }
}

/// DNS response codes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error (0).
    NoError,
    /// Format error (1).
    FormErr,
    /// Server failure (2).
    ServFail,
    /// Name error / NXDOMAIN (3).
    NxDomain,
    /// Not implemented (4).
    NotImp,
    /// Refused (5).
    Refused,
    /// Anything else (6..=15).
    Other(u8),
}

impl Rcode {
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }
    pub(crate) fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// The 12-byte DNS message header (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier. DoC sets this to 0 for encrypted
    /// transports to keep the CoAP cache key deterministic (§4.2).
    pub id: u16,
    /// Query (false) or response (true).
    pub qr: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncation flag.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A recursion-desired query header with the given ID.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            qr: false,
            opcode: Opcode::Query,
            aa: false,
            tc: false,
            rd: true,
            ra: false,
            rcode: Rcode::NoError,
        }
    }

    /// A response header answering `query`.
    pub fn response_to(query: &Header, rcode: Rcode) -> Self {
        Header {
            id: query.id,
            qr: true,
            opcode: query.opcode,
            aa: false,
            tc: false,
            rd: query.rd,
            ra: true,
            rcode,
        }
    }
}

impl Header {
    /// The 12-byte wire header: ID, flag word, then the
    /// question/answer/authority/additional `counts`.
    pub fn to_bytes(&self, counts: [u16; 4]) -> [u8; 12] {
        let mut flags = 0u16;
        if self.qr {
            flags |= 1 << 15;
        }
        flags |= (self.opcode.to_u8() as u16) << 11;
        if self.aa {
            flags |= 1 << 10;
        }
        if self.tc {
            flags |= 1 << 9;
        }
        if self.rd {
            flags |= 1 << 8;
        }
        if self.ra {
            flags |= 1 << 7;
        }
        flags |= self.rcode.to_u8() as u16;
        let mut bytes = [0u8; 12];
        for (chunk, word) in bytes
            .chunks_exact_mut(2)
            .zip([self.id, flags].into_iter().chain(counts))
        {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        bytes
    }
}

/// A question-section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

impl Question {
    /// An `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }
}

/// Which RR section a record lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message header.
    pub header: Header,
    /// Question section. The paper (§3.2) observes real questions
    /// sections always contain exactly 1 entry; this type permits any
    /// count but [`Message::query`] builds the 1-entry form.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section. §3.2: "unsolicited NS records serve little
    /// purpose in a constrained environment and should be omitted".
    pub authority: Vec<Record>,
    /// Additional section.
    pub additional: Vec<Record>,
}

impl Message {
    /// Build a single-question query (the common DoC request shape).
    pub fn query(id: u16, qname: Name, qtype: RecordType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(qname, qtype)],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Build a response to `query` carrying `answers`.
    pub fn response(query: &Message, rcode: Rcode, answers: Vec<Record>) -> Self {
        Message {
            header: Header::response_to(&query.header, rcode),
            questions: query.questions.clone(),
            answers,
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Encode to the RFC 1035 wire format (with name compression).
    pub fn encode(&self) -> Vec<u8> {
        // The uncompressed size is an exact upper bound, so the buffer
        // never reallocates while encoding.
        let mut msg = Vec::with_capacity(self.uncompressed_len());
        self.encode_into(&mut msg);
        msg
    }

    /// Wire size this message would have with *no* name compression —
    /// an exact upper bound on (and capacity hint for) the compressed
    /// encoding.
    pub fn uncompressed_len(&self) -> usize {
        12 + self
            .questions
            .iter()
            .map(|q| q.qname.wire_len() + 4)
            .sum::<usize>()
            + self
                .records()
                .map(|(_, r)| r.uncompressed_len())
                .sum::<usize>()
    }

    /// Append the RFC 1035 wire format (with name compression) to an
    /// existing buffer. With a reused (cleared) `out`, the whole encode
    /// performs no heap allocation beyond buffer growth: the
    /// compression state lives in a stack-resident [`CompressionMap`].
    ///
    /// Compression pointers are message-relative, so the zero-copy path
    /// requires the message to start at offset 0. Appending to a
    /// non-empty buffer is still correct — the message is then built
    /// standalone and copied, costing one allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        if !out.is_empty() {
            out.extend_from_slice(&self.encode());
            return;
        }
        let msg = out;
        self.encode_header_into(msg);
        let mut table = CompressionMap::new();
        for q in &self.questions {
            q.qname.encode_compressed(msg, &mut table);
            msg.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            msg.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
        }
        for rec in self
            .answers
            .iter()
            .chain(&self.authority)
            .chain(&self.additional)
        {
            rec.encode(msg, &mut table);
        }
    }

    /// Encode with *no* name compression: exactly
    /// [`Message::uncompressed_len`] bytes — the baseline wire form the
    /// compression analyses and property tests compare against.
    pub fn encode_uncompressed(&self) -> Vec<u8> {
        let mut msg = Vec::with_capacity(self.uncompressed_len());
        self.encode_header_into(&mut msg);
        for q in &self.questions {
            q.qname.encode(&mut msg);
            msg.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            msg.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
        }
        for rec in self
            .answers
            .iter()
            .chain(&self.authority)
            .chain(&self.additional)
        {
            rec.encode_uncompressed(&mut msg);
        }
        msg
    }

    /// The 12-byte header: id, flag word, section counts.
    fn encode_header_into(&self, msg: &mut Vec<u8>) {
        let counts = [
            self.questions.len(),
            self.answers.len(),
            self.authority.len(),
            self.additional.len(),
        ];
        msg.extend_from_slice(&self.header.to_bytes(counts.map(|c| c as u16)));
    }

    /// Decode from wire format.
    pub fn decode(msg: &[u8]) -> Result<Self, DnsError> {
        if msg.len() < 12 {
            return Err(DnsError::Truncated);
        }
        let id = u16::from_be_bytes([msg[0], msg[1]]);
        let flags = u16::from_be_bytes([msg[2], msg[3]]);
        let header = Header {
            id,
            qr: flags & (1 << 15) != 0,
            opcode: Opcode::from_u8((flags >> 11) as u8),
            aa: flags & (1 << 10) != 0,
            tc: flags & (1 << 9) != 0,
            rd: flags & (1 << 8) != 0,
            ra: flags & (1 << 7) != 0,
            rcode: Rcode::from_u8(flags as u8),
        };
        let qdcount = u16::from_be_bytes([msg[4], msg[5]]) as usize;
        let ancount = u16::from_be_bytes([msg[6], msg[7]]) as usize;
        let nscount = u16::from_be_bytes([msg[8], msg[9]]) as usize;
        let arcount = u16::from_be_bytes([msg[10], msg[11]]) as usize;
        // Cheap sanity bound: each question needs >= 5 bytes, each RR >= 11.
        let min_len = 12 + qdcount * 5 + (ancount + nscount + arcount) * 11;
        if min_len > msg.len() {
            return Err(DnsError::Inconsistent);
        }

        let mut pos = 12usize;
        let mut questions = Vec::with_capacity(qdcount);
        for _ in 0..qdcount {
            let qname = Name::decode(msg, &mut pos)?;
            let fixed = msg.get(pos..pos + 4).ok_or(DnsError::Truncated)?;
            questions.push(Question {
                qname,
                qtype: RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]])),
                qclass: RecordClass::from_u16(u16::from_be_bytes([fixed[2], fixed[3]])),
            });
            pos += 4;
        }
        let read_section = |count: usize, pos: &mut usize| -> Result<Vec<Record>, DnsError> {
            let mut recs = Vec::with_capacity(count);
            for _ in 0..count {
                recs.push(Record::decode(msg, pos)?);
            }
            Ok(recs)
        };
        let answers = read_section(ancount, &mut pos)?;
        let authority = read_section(nscount, &mut pos)?;
        let additional = read_section(arcount, &mut pos)?;
        Ok(Message {
            header,
            questions,
            answers,
            authority,
            additional,
        })
    }

    /// Iterate all resource records with their section.
    pub fn records(&self) -> impl Iterator<Item = (Section, &Record)> {
        self.answers
            .iter()
            .map(|r| (Section::Answer, r))
            .chain(self.authority.iter().map(|r| (Section::Authority, r)))
            .chain(self.additional.iter().map(|r| (Section::Additional, r)))
    }

    /// Mutable iteration over all records.
    pub fn records_mut(&mut self) -> impl Iterator<Item = &mut Record> {
        self.answers
            .iter_mut()
            .chain(self.authority.iter_mut())
            .chain(self.additional.iter_mut())
    }

    // ------------------------------------------------------------------
    // DoC canonicalization helpers (paper §4.2 / §7)
    // ------------------------------------------------------------------

    /// Set the transaction ID to 0.
    ///
    /// §4.2: "we propose to set this ID to 0 for either encrypted CoAP
    /// mode. This yields a deterministic wire format" — the CoAP cache
    /// key covers the payload (FETCH) or URI (GET), so a varying ID
    /// would defeat en-route caching.
    pub fn canonicalize_id(&mut self) {
        self.header.id = 0;
    }

    /// Minimum TTL across all records, if any record exists.
    ///
    /// The DoC server sets the CoAP `Max-Age` option to this value
    /// (§4.2, both the DoH-like and EOL TTLs schemes).
    pub fn min_ttl(&self) -> Option<u32> {
        self.records().map(|(_, r)| r.ttl).min()
    }

    /// Set every TTL to `ttl`.
    ///
    /// With `ttl = 0` this is the paper's *EOL TTLs* rewrite: "a DoC
    /// server sets the Max-Age CoAP option to the minimum TTL of the
    /// resource records in the DNS response and rewrites all DNS TTLs
    /// to 0", making the payload — and hence the ETag — stable across
    /// TTL decay.
    pub fn set_all_ttls(&mut self, ttl: u32) {
        for r in self.records_mut() {
            r.ttl = ttl;
        }
    }

    /// Add `max_age` seconds to every TTL. A DoC client receiving an
    /// *EOL TTLs* response "copies the CoAP Max-Age into the DNS
    /// resource records to restore the correctly decremented TTL
    /// values" (§4.2).
    pub fn restore_ttls_from_max_age(&mut self, max_age: u32) {
        for r in self.records_mut() {
            r.ttl = r.ttl.saturating_add(max_age);
        }
    }

    /// Sort answer records deterministically (by type, then RDATA wire
    /// bytes). §7: "One approach to support load balancing without
    /// altering the message is to sort incoming records at the DoC
    /// server and randomize records at the DoC client."
    pub fn sort_answers(&mut self) {
        self.answers.sort_by(|a, b| {
            a.rtype.to_u16().cmp(&b.rtype.to_u16()).then_with(|| {
                let mut wa = Vec::new();
                let mut wb = Vec::new();
                a.data.encode(&mut wa);
                b.data.encode(&mut wb);
                wa.cmp(&wb).then_with(|| a.name.cmp(&b.name))
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn example_query() -> Message {
        Message::query(
            0x1234,
            Name::parse("name0123456.iot.example.org").unwrap(),
            RecordType::Aaaa,
        )
    }

    fn v6(i: u16) -> Ipv6Addr {
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i)
    }

    fn example_response(ttl: u32, n: usize) -> Message {
        let q = example_query();
        let name = q.questions[0].qname.clone();
        let answers = (0..n)
            .map(|i| Record::aaaa(name.clone(), ttl, v6(i as u16 + 1)))
            .collect();
        Message::response(&q, Rcode::NoError, answers)
    }

    #[test]
    fn query_roundtrip() {
        let q = example_query();
        let wire = q.encode();
        assert_eq!(Message::decode(&wire).unwrap(), q);
    }

    /// A query for a 24-character name must be 12 (header) + name wire
    /// + 4 bytes = 42 bytes, matching the paper's Fig. 6 query sizes.
    #[test]
    fn query_size_24_char_name() {
        // "name0123456.iot.example.org" is 27 chars; build the paper's
        // canonical 24-char name instead.
        let name = Name::parse("name-012345.doc.example.org").unwrap();
        assert_eq!(name.presentation_len(), 27);
        let name24 = Name::parse("name-0123.c.example.org").unwrap();
        assert_eq!(name24.presentation_len(), 23);
        let q = Message::query(
            0,
            Name::parse("name-01234.c.example.org").unwrap(),
            RecordType::A,
        );
        assert_eq!(q.questions[0].qname.presentation_len(), 24);
        let wire = q.encode();
        // header 12 + name (24 chars + 2 extra length/terminator bytes
        // beyond the dots: wire_len = 24 + 2) + qtype/qclass 4
        assert_eq!(wire.len(), 12 + 26 + 4);
    }

    #[test]
    fn response_roundtrip_multiple_answers() {
        let r = example_response(300, 4);
        let wire = r.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.answers.len(), 4);
    }

    #[test]
    fn encode_into_nonempty_buffer_keeps_pointers_valid() {
        // Appending after framing bytes must not skew compression
        // pointers (they are message-relative, not buffer-relative).
        let r = example_response(300, 4);
        let mut buf = vec![0xAB, 0xCD, 0xEF];
        r.encode_into(&mut buf);
        assert_eq!(Message::decode(&buf[3..]).unwrap(), r);
        assert_eq!(&buf[..3], &[0xAB, 0xCD, 0xEF]);
    }

    #[test]
    fn uncompressed_len_is_exact_upper_bound() {
        for msg in [example_query(), example_response(300, 4)] {
            let wire = msg.encode();
            assert!(wire.len() <= msg.uncompressed_len());
            let flat = msg.encode_uncompressed();
            assert_eq!(flat.len(), msg.uncompressed_len());
            // The uncompressed wire decodes to the same message.
            assert_eq!(Message::decode(&flat).unwrap(), msg);
        }
        // A single-question query has nothing to compress: exact.
        let q = example_query();
        assert_eq!(q.encode().len(), q.uncompressed_len());
    }

    #[test]
    fn compression_reduces_size() {
        let r = example_response(300, 4);
        let wire = r.encode();
        // Without compression each answer would repeat the 29-byte name;
        // with pointers each answer's owner is 2 bytes.
        let name_wire = r.questions[0].qname.wire_len();
        let uncompressed_estimate = 12 + name_wire + 4 + 4 * (name_wire + 10 + 16);
        assert!(wire.len() < uncompressed_estimate - 3 * (name_wire - 2));
    }

    #[test]
    fn header_flags_roundtrip() {
        let mut m = example_query();
        m.header.qr = true;
        m.header.aa = true;
        m.header.tc = true;
        m.header.ra = true;
        m.header.rcode = Rcode::NxDomain;
        m.header.opcode = Opcode::Other(2);
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.header, m.header);
    }

    #[test]
    fn rcode_mapping() {
        for (code, val) in [
            (Rcode::NoError, 0u8),
            (Rcode::FormErr, 1),
            (Rcode::ServFail, 2),
            (Rcode::NxDomain, 3),
            (Rcode::NotImp, 4),
            (Rcode::Refused, 5),
            (Rcode::Other(9), 9),
        ] {
            assert_eq!(code.to_u8(), val);
            assert_eq!(Rcode::from_u8(val), code);
        }
    }

    #[test]
    fn canonicalize_id_zeroes() {
        let mut q = example_query();
        q.canonicalize_id();
        assert_eq!(q.header.id, 0);
        // Two queries for the same name now have identical wire bytes —
        // the deterministic cache key property of §4.2.
        let mut q2 = Message::query(0x9999, q.questions[0].qname.clone(), RecordType::Aaaa);
        q2.canonicalize_id();
        assert_eq!(q.encode(), q2.encode());
    }

    #[test]
    fn min_ttl_and_rewrite() {
        let mut r = example_response(300, 3);
        r.answers[1].ttl = 42;
        assert_eq!(r.min_ttl(), Some(42));
        r.set_all_ttls(0);
        assert!(r.records().all(|(_, rec)| rec.ttl == 0));
        assert_eq!(r.min_ttl(), Some(0));
        assert_eq!(example_query().min_ttl(), None);
    }

    #[test]
    fn eol_ttl_rewrite_stabilizes_wire_format() {
        // Same answer set, different TTLs -> different wire bytes with
        // DoH-like, identical wire bytes after EOL rewrite.
        let mut r1 = example_response(300, 2);
        let mut r2 = example_response(25, 2);
        assert_ne!(r1.encode(), r2.encode());
        r1.set_all_ttls(0);
        r2.set_all_ttls(0);
        assert_eq!(r1.encode(), r2.encode());
    }

    #[test]
    fn ttl_restore_from_max_age() {
        let mut r = example_response(300, 2);
        r.set_all_ttls(0);
        r.restore_ttls_from_max_age(123);
        assert!(r.answers.iter().all(|rec| rec.ttl == 123));
    }

    #[test]
    fn sort_then_shuffle_preserves_set() {
        let mut r = example_response(60, 5);
        r.answers.reverse();
        let mut sorted = r.clone();
        sorted.sort_answers();
        // Sorting is canonical: any permutation sorts to the same order.
        let mut r2 = example_response(60, 5);
        r2.sort_answers();
        assert_eq!(sorted.answers, r2.answers);
        // A client-side shuffle keeps the set: it sorts back to the
        // same order.
        let mut shuffled = sorted.clone();
        shuffled.answers.rotate_left(2);
        assert_ne!(shuffled.answers, sorted.answers);
        shuffled.sort_answers();
        assert_eq!(shuffled.answers, sorted.answers);
    }

    #[test]
    fn decode_rejects_short_header() {
        assert_eq!(Message::decode(&[0u8; 11]), Err(DnsError::Truncated));
    }

    #[test]
    fn decode_rejects_inflated_counts() {
        let mut wire = example_query().encode();
        // Claim 1000 answers.
        wire[6] = 0x03;
        wire[7] = 0xE8;
        assert_eq!(Message::decode(&wire), Err(DnsError::Inconsistent));
    }

    #[test]
    fn records_iterator_sections() {
        let mut r = example_response(60, 2);
        r.authority.push(r.answers[0].clone());
        r.additional.push(r.answers[1].clone());
        let sections: Vec<Section> = r.records().map(|(s, _)| s).collect();
        assert_eq!(
            sections,
            vec![
                Section::Answer,
                Section::Answer,
                Section::Authority,
                Section::Additional
            ]
        );
    }
}
