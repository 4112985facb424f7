//! Borrowed, zero-copy views over DNS wire messages.
//!
//! [`MessageView`] is the decode-side counterpart of the zero-copy
//! encode layer: where [`Message::decode`](crate::Message::decode)
//! materializes one `Vec` per label, record and section, a view walks
//! the wire bytes **in place** — compression pointers are resolved
//! against the original buffer, names stay as offsets, RDATA stays as a
//! slice. Parsing validates the entire message up front (the same
//! accept/reject decisions as the owned decoder, property-tested in
//! `tests/properties.rs`), so the lazy iterators afterwards are
//! infallible and never re-check bounds.
//!
//! Use a view when the message does not need to outlive its datagram —
//! the proxy/server request hot path, cache-key derivation, OSCORE
//! unprotection. Use [`MessageView::to_owned`] (or the owned decoder
//! directly) at the single point where it must: cache insertion,
//! retransmission queues, anything stored across packets.

use crate::message::{Header, Message, Opcode, Question, Rcode, Section};
use crate::name::{Name, MAX_NAME_LEN};
use crate::rr::{Record, RecordClass, RecordData, RecordType};
use crate::DnsError;

/// A borrowed domain name: an offset into the original message bytes.
///
/// Labels are yielded by [`NameRef::labels`] directly from the wire
/// (following compression pointers), without materializing any `Vec`.
/// Comparisons are case-insensitive, matching the owned [`Name`]'s
/// lowercase-on-decode semantics.
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'a> {
    msg: &'a [u8],
    offset: usize,
}

impl<'a> NameRef<'a> {
    /// Iterate the labels of this name in order, as raw wire slices
    /// (original case — compare case-insensitively).
    pub fn labels(&self) -> LabelIter<'a> {
        LabelIter {
            msg: self.msg,
            cursor: self.offset,
            min_pointer: usize::MAX,
        }
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Uncompressed wire length of this name (labels + length octets +
    /// root terminator).
    pub fn wire_len(&self) -> usize {
        self.labels().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Materialize an owned (lowercased) [`Name`].
    pub fn to_owned(&self) -> Name {
        let labels: Vec<&[u8]> = self.labels().collect();
        // lint:allow(no-panic-in-parsers): labels were bounds- and length-checked by skip_name before this view existed
        Name::from_labels(&labels).expect("validated on parse")
    }

    /// Case-insensitive equality against an owned name.
    pub fn eq_name(&self, other: &Name) -> bool {
        let mut ours = self.labels();
        let mut theirs = other.labels().iter();
        loop {
            match (ours.next(), theirs.next()) {
                (None, None) => return true,
                (Some(a), Some(b)) if a.eq_ignore_ascii_case(b) => {}
                _ => return false,
            }
        }
    }
}

impl PartialEq for NameRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        let mut a = self.labels();
        let mut b = other.labels();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if x.eq_ignore_ascii_case(y) => {}
                _ => return false,
            }
        }
    }
}

impl PartialEq<Name> for NameRef<'_> {
    fn eq(&self, other: &Name) -> bool {
        self.eq_name(other)
    }
}

impl core::fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut first = true;
        for label in self.labels() {
            if !first {
                write!(f, ".")?;
            }
            first = false;
            for &b in label {
                let lower = b.to_ascii_lowercase();
                if lower.is_ascii_graphic() && lower != b'.' && lower != b'\\' {
                    write!(f, "{}", lower as char)?;
                } else {
                    write!(f, "\\{lower:03}")?;
                }
            }
        }
        if first {
            write!(f, ".")?;
        }
        Ok(())
    }
}

/// Iterator over the labels of a [`NameRef`], resolving compression
/// pointers against the original message. Total by construction: the
/// walk was validated at parse time, and the pointer guards are kept so
/// the iterator is safe even on a view forged from unvalidated offsets.
#[derive(Debug, Clone)]
pub struct LabelIter<'a> {
    msg: &'a [u8],
    cursor: usize,
    min_pointer: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            let len_octet = *self.msg.get(self.cursor)?;
            match len_octet {
                0 => return None,
                1..=63 => {
                    let l = len_octet as usize;
                    let label = self.msg.get(self.cursor + 1..self.cursor + 1 + l)?;
                    self.cursor += 1 + l;
                    return Some(label);
                }
                0xC0..=0xFF => {
                    let second = *self.msg.get(self.cursor + 1)?;
                    let target = (((len_octet & 0x3F) as usize) << 8) | second as usize;
                    if target >= self.cursor || target >= self.min_pointer {
                        return None; // invalid; parse would have rejected
                    }
                    self.min_pointer = target;
                    self.cursor = target;
                }
                _ => return None,
            }
        }
    }
}

/// Walk one (possibly compressed) name at `*pos`, validating with the
/// exact rules of [`Name::decode`] but materializing nothing.
fn skip_name(msg: &[u8], pos: &mut usize) -> Result<(), DnsError> {
    let mut cursor = *pos;
    let mut followed_pointer = false;
    let mut min_pointer = usize::MAX;
    let mut total_len = 0usize;
    loop {
        let len_octet = *msg.get(cursor).ok_or(DnsError::Truncated)?;
        match len_octet {
            0 => {
                if !followed_pointer {
                    *pos = cursor + 1;
                }
                return Ok(());
            }
            1..=63 => {
                let l = len_octet as usize;
                if msg.get(cursor + 1..cursor + 1 + l).is_none() {
                    return Err(DnsError::Truncated);
                }
                total_len += l + 1;
                if total_len + 1 > MAX_NAME_LEN {
                    return Err(DnsError::NameTooLong);
                }
                cursor += 1 + l;
            }
            0xC0..=0xFF => {
                let second = *msg.get(cursor + 1).ok_or(DnsError::Truncated)?;
                let target = (((len_octet & 0x3F) as usize) << 8) | second as usize;
                if !followed_pointer {
                    *pos = cursor + 2;
                    followed_pointer = true;
                }
                if target >= cursor || target >= min_pointer {
                    return Err(DnsError::BadPointer);
                }
                min_pointer = target;
                cursor = target;
            }
            _ => return Err(DnsError::BadLabel),
        }
    }
}

/// Validate RDATA of `rtype` in place — the allocation-free twin of
/// [`RecordData::decode`], accepting and rejecting exactly the same
/// inputs (kept adjacent in spirit; the equivalence is property-tested).
fn validate_rdata(
    rtype: RecordType,
    msg: &[u8],
    rdata_start: usize,
    rdlen: usize,
) -> Result<(), DnsError> {
    let end = rdata_start.checked_add(rdlen).ok_or(DnsError::Truncated)?;
    let slice = msg.get(rdata_start..end).ok_or(DnsError::Truncated)?;
    match rtype {
        RecordType::A if slice.len() != 4 => return Err(DnsError::BadRdata),
        RecordType::Aaaa if slice.len() != 16 => return Err(DnsError::BadRdata),
        RecordType::A | RecordType::Aaaa => {}
        RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
            let mut pos = rdata_start;
            skip_name(msg, &mut pos)?;
            if pos > end {
                return Err(DnsError::BadRdata);
            }
        }
        RecordType::Txt => {
            let mut i = 0usize;
            while let Some(&l) = slice.get(i) {
                let l = l as usize;
                if slice.get(i + 1..i + 1 + l).is_none() {
                    return Err(DnsError::BadRdata);
                }
                i += 1 + l;
            }
        }
        RecordType::Srv => {
            if slice.len() < 7 {
                return Err(DnsError::BadRdata);
            }
            let mut pos = rdata_start + 6;
            skip_name(msg, &mut pos)?;
            if pos > end {
                return Err(DnsError::BadRdata);
            }
        }
        RecordType::Soa => {
            let mut pos = rdata_start;
            skip_name(msg, &mut pos)?;
            skip_name(msg, &mut pos)?;
            if msg.get(pos..pos + 20).is_none() {
                return Err(DnsError::BadRdata);
            }
            if pos + 20 > end {
                return Err(DnsError::BadRdata);
            }
        }
        RecordType::Https => {
            if slice.len() < 3 {
                return Err(DnsError::BadRdata);
            }
            let mut pos = rdata_start + 2;
            skip_name(msg, &mut pos)?;
            if pos > end {
                return Err(DnsError::BadRdata);
            }
        }
        _ => {}
    }
    Ok(())
}

/// A borrowed question-section entry.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Queried name (borrowed).
    pub qname: NameRef<'a>,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

impl QuestionView<'_> {
    /// Materialize an owned [`Question`].
    pub fn to_owned(&self) -> Question {
        Question {
            qname: self.qname.to_owned(),
            qtype: self.qtype,
            qclass: self.qclass,
        }
    }
}

/// A borrowed resource record: fixed fields decoded, owner name and
/// RDATA left as references into the message.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    msg: &'a [u8],
    /// Owner name (borrowed).
    pub name: NameRef<'a>,
    /// Record type.
    pub rtype: RecordType,
    /// Record class.
    pub rclass: RecordClass,
    /// Time to live in seconds.
    pub ttl: u32,
    rdata_start: usize,
    rdlen: usize,
}

impl RecordView<'_> {
    /// Raw RDATA bytes (undecoded; names inside may be compressed).
    pub fn rdata(&self) -> &[u8] {
        // lint:allow(no-panic-in-parsers): rdata_start..+rdlen was bounds-checked by validate_rdata before this view existed
        &self.msg[self.rdata_start..self.rdata_start + self.rdlen]
    }

    /// Decode the typed RDATA (allocates — the escape hatch).
    pub fn data(&self) -> RecordData {
        RecordData::decode(self.rtype, self.msg, self.rdata_start, self.rdlen)
            // lint:allow(no-panic-in-parsers): validate_rdata accepted exactly this RDATA at parse; decode cannot fail
            .expect("validated on parse")
    }

    /// Materialize an owned [`Record`].
    pub fn to_owned(&self) -> Record {
        Record {
            name: self.name.to_owned(),
            rtype: self.rtype,
            rclass: self.rclass,
            ttl: self.ttl,
            data: self.data(),
        }
    }
}

/// A validated, borrowed view of a DNS wire message.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    msg: &'a [u8],
    header: Header,
    qdcount: usize,
    ancount: usize,
    nscount: usize,
    arcount: usize,
    /// Offset of the first question (always 12).
    questions_start: usize,
    /// Offset of the first answer record.
    answers_start: usize,
}

impl<'a> MessageView<'a> {
    /// Parse and fully validate `msg`, accepting and rejecting exactly
    /// the inputs [`Message::decode`] does, without allocating.
    pub fn parse(msg: &'a [u8]) -> Result<Self, DnsError> {
        let (fixed, _) = msg.split_first_chunk::<12>().ok_or(DnsError::Truncated)?;
        let &[id_hi, id_lo, f_hi, f_lo, qd_hi, qd_lo, an_hi, an_lo, ns_hi, ns_lo, ar_hi, ar_lo] =
            fixed;
        let id = u16::from_be_bytes([id_hi, id_lo]);
        let flags = u16::from_be_bytes([f_hi, f_lo]);
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
        let qdcount = u16::from_be_bytes([qd_hi, qd_lo]) as usize;
        let ancount = u16::from_be_bytes([an_hi, an_lo]) as usize;
        let nscount = u16::from_be_bytes([ns_hi, ns_lo]) as usize;
        let arcount = u16::from_be_bytes([ar_hi, ar_lo]) as usize;
        let min_len = 12 + qdcount * 5 + (ancount + nscount + arcount) * 11;
        if min_len > msg.len() {
            return Err(DnsError::Inconsistent);
        }

        let mut pos = 12usize;
        for _ in 0..qdcount {
            skip_name(msg, &mut pos)?;
            if msg.get(pos..pos + 4).is_none() {
                return Err(DnsError::Truncated);
            }
            pos += 4;
        }
        let answers_start = pos;
        for _ in 0..ancount + nscount + arcount {
            skip_record(msg, &mut pos)?;
        }
        Ok(MessageView {
            msg,
            header,
            qdcount,
            ancount,
            nscount,
            arcount,
            questions_start: 12,
            answers_start,
        })
    }

    /// The raw message bytes this view borrows.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.msg
    }

    /// The decoded header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// Number of questions.
    pub fn question_count(&self) -> usize {
        self.qdcount
    }

    /// Number of records across all three RR sections.
    pub fn record_count(&self) -> usize {
        self.ancount + self.nscount + self.arcount
    }

    /// Iterate the question section lazily.
    pub fn questions(&self) -> QuestionIter<'a> {
        QuestionIter {
            msg: self.msg,
            pos: self.questions_start,
            remaining: self.qdcount,
        }
    }

    /// First question, if any (the common single-question DoC shape).
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    /// Iterate every resource record lazily, tagged with its section.
    pub fn records(&self) -> RecordIter<'a> {
        RecordIter {
            msg: self.msg,
            pos: self.answers_start,
            in_answers: self.ancount,
            in_authority: self.nscount,
            in_additional: self.arcount,
        }
    }

    /// Minimum TTL across all records — the view twin of
    /// [`Message::min_ttl`].
    pub fn min_ttl(&self) -> Option<u32> {
        self.records().map(|(_, r)| r.ttl).min()
    }

    /// Materialize a fully owned [`Message`] — the escape hatch for the
    /// moment a message must outlive its datagram.
    pub fn to_owned(&self) -> Message {
        Message {
            header: self.header,
            questions: self.questions().map(|q| q.to_owned()).collect(),
            answers: self
                .records()
                .filter(|(s, _)| *s == Section::Answer)
                .map(|(_, r)| r.to_owned())
                .collect(),
            authority: self
                .records()
                .filter(|(s, _)| *s == Section::Authority)
                .map(|(_, r)| r.to_owned())
                .collect(),
            additional: self
                .records()
                .filter(|(s, _)| *s == Section::Additional)
                .map(|(_, r)| r.to_owned())
                .collect(),
        }
    }
}

/// Validate one record and advance `*pos` past it.
fn skip_record(msg: &[u8], pos: &mut usize) -> Result<(), DnsError> {
    skip_name(msg, pos)?;
    let Some(&[t_hi, t_lo, _, _, _, _, _, _, l_hi, l_lo]) = msg.get(*pos..*pos + 10) else {
        return Err(DnsError::Truncated);
    };
    let rtype = RecordType::from_u16(u16::from_be_bytes([t_hi, t_lo]));
    let rdlen = u16::from_be_bytes([l_hi, l_lo]) as usize;
    *pos += 10;
    validate_rdata(rtype, msg, *pos, rdlen)?;
    *pos += rdlen;
    Ok(())
}

/// Read the record at `*pos` (already validated) as a view. `None` is
/// unreachable after `MessageView::parse` succeeded, but the checked
/// reads keep this total on any input.
fn read_record<'a>(msg: &'a [u8], pos: &mut usize) -> Option<RecordView<'a>> {
    let name = NameRef { msg, offset: *pos };
    skip_name(msg, pos).ok()?;
    let Some(&[t_hi, t_lo, c_hi, c_lo, ttl0, ttl1, ttl2, ttl3, l_hi, l_lo]) =
        msg.get(*pos..*pos + 10)
    else {
        return None;
    };
    let rtype = RecordType::from_u16(u16::from_be_bytes([t_hi, t_lo]));
    let rclass = RecordClass::from_u16(u16::from_be_bytes([c_hi, c_lo]));
    let ttl = u32::from_be_bytes([ttl0, ttl1, ttl2, ttl3]);
    let rdlen = u16::from_be_bytes([l_hi, l_lo]) as usize;
    *pos += 10;
    let rdata_start = *pos;
    *pos += rdlen;
    Some(RecordView {
        msg,
        name,
        rtype,
        rclass,
        ttl,
        rdata_start,
        rdlen,
    })
}

/// Lazy iterator over the question section.
#[derive(Debug, Clone)]
pub struct QuestionIter<'a> {
    msg: &'a [u8],
    pos: usize,
    remaining: usize,
}

impl<'a> Iterator for QuestionIter<'a> {
    type Item = QuestionView<'a>;

    fn next(&mut self) -> Option<QuestionView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let qname = NameRef {
            msg: self.msg,
            offset: self.pos,
        };
        skip_name(self.msg, &mut self.pos).ok()?;
        let Some(&[t_hi, t_lo, c_hi, c_lo]) = self.msg.get(self.pos..self.pos + 4) else {
            return None;
        };
        self.pos += 4;
        Some(QuestionView {
            qname,
            qtype: RecordType::from_u16(u16::from_be_bytes([t_hi, t_lo])),
            qclass: RecordClass::from_u16(u16::from_be_bytes([c_hi, c_lo])),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Lazy iterator over all resource records, tagged with their section.
#[derive(Debug, Clone)]
pub struct RecordIter<'a> {
    msg: &'a [u8],
    pos: usize,
    in_answers: usize,
    in_authority: usize,
    in_additional: usize,
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = (Section, RecordView<'a>);

    fn next(&mut self) -> Option<(Section, RecordView<'a>)> {
        let section = if self.in_answers > 0 {
            self.in_answers -= 1;
            Section::Answer
        } else if self.in_authority > 0 {
            self.in_authority -= 1;
            Section::Authority
        } else if self.in_additional > 0 {
            self.in_additional -= 1;
            Section::Additional
        } else {
            return None;
        };
        let record = read_record(self.msg, &mut self.pos)?;
        Some((section, record))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.in_answers + self.in_authority + self.in_additional;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Rcode;
    use std::net::Ipv6Addr;

    fn example_response(n: usize) -> Message {
        let q = Message::query(
            0x1234,
            Name::parse("name0123456.iot.example.org").unwrap(),
            RecordType::Aaaa,
        );
        let name = q.questions[0].qname.clone();
        let answers = (0..n)
            .map(|i| {
                Record::aaaa(
                    name.clone(),
                    300,
                    Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16 + 1),
                )
            })
            .collect();
        Message::response(&q, Rcode::NoError, answers)
    }

    #[test]
    fn view_agrees_with_owned_decode() {
        for msg in [example_response(0), example_response(4)] {
            let wire = msg.encode();
            let view = MessageView::parse(&wire).unwrap();
            let owned = Message::decode(&wire).unwrap();
            assert_eq!(view.to_owned(), owned);
            assert_eq!(view.header(), owned.header);
            assert_eq!(view.question_count(), owned.questions.len());
            let answers = view.records().filter(|(s, _)| *s == Section::Answer);
            assert_eq!(answers.count(), owned.answers.len());
        }
    }

    #[test]
    fn name_ref_follows_compression_pointers() {
        let wire = example_response(3).encode();
        let view = MessageView::parse(&wire).unwrap();
        let qname = view.question().unwrap().qname;
        assert_eq!(qname.label_count(), 4);
        assert_eq!(qname.to_string(), "name0123456.iot.example.org");
        for (_, rec) in view.records() {
            // Answer owner names are compression pointers to the
            // question name; the view resolves them in place.
            assert!(rec.name == qname);
            assert!(rec
                .name
                .eq_name(&Name::parse("name0123456.iot.example.org").unwrap()));
            assert_eq!(rec.rdata().len(), 16);
        }
    }

    #[test]
    fn name_ref_case_insensitive() {
        let mut wire = Vec::new();
        Name::parse("a.b").unwrap().encode(&mut wire);
        // Manually uppercase the first label on the wire.
        wire[1] = b'A';
        let name = NameRef {
            msg: &wire,
            offset: 0,
        };
        assert!(name.eq_name(&Name::parse("a.b").unwrap()));
        assert_eq!(name.to_owned(), Name::parse("a.b").unwrap());
        assert_eq!(name.to_string(), "a.b");
    }

    #[test]
    fn view_rejects_what_owned_rejects() {
        // Truncated header.
        assert_eq!(
            MessageView::parse(&[0u8; 11]).unwrap_err(),
            DnsError::Truncated
        );
        // Inflated counts.
        let mut wire = example_response(1).encode();
        wire[6] = 0x03;
        wire[7] = 0xE8;
        assert!(MessageView::parse(&wire).is_err());
        assert!(Message::decode(&wire).is_err());
        // Truncated tail.
        let wire = example_response(2).encode();
        for cut in 0..wire.len() {
            let slice = &wire[..cut];
            assert_eq!(
                MessageView::parse(slice).is_ok(),
                Message::decode(slice).is_ok(),
                "divergence at cut {cut}"
            );
        }
    }

    #[test]
    fn min_ttl_matches() {
        let mut msg = example_response(3);
        msg.answers[1].ttl = 42;
        let wire = msg.encode();
        let view = MessageView::parse(&wire).unwrap();
        assert_eq!(view.min_ttl(), msg.min_ttl());
        let q = Message::query(1, Name::parse("x.y").unwrap(), RecordType::A);
        let wire = q.encode();
        assert_eq!(MessageView::parse(&wire).unwrap().min_ttl(), None);
    }

    #[test]
    fn record_sections_tagged() {
        let mut msg = example_response(2);
        msg.authority.push(msg.answers[0].clone());
        msg.additional.push(msg.answers[1].clone());
        let wire = msg.encode();
        let view = MessageView::parse(&wire).unwrap();
        let sections: Vec<Section> = view.records().map(|(s, _)| s).collect();
        assert_eq!(
            sections,
            vec![
                Section::Answer,
                Section::Answer,
                Section::Authority,
                Section::Additional
            ]
        );
        assert_eq!(view.record_count(), 4);
    }

    #[test]
    fn parse_never_panics_on_fuzz_corpus() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        for start in (0..data.len() - 128).step_by(11) {
            for len in [0usize, 4, 12, 13, 29, 64, 128] {
                let slice = &data[start..start + len];
                let view = MessageView::parse(slice);
                let owned = Message::decode(slice);
                assert_eq!(view.is_ok(), owned.is_ok());
                if let Ok(v) = view {
                    // Iterators must be total on whatever parsed.
                    for q in v.questions() {
                        let _ = q.qname.label_count();
                    }
                    for (_, r) in v.records() {
                        let _ = (r.name.wire_len(), r.rdata().len());
                    }
                }
            }
        }
    }

    #[test]
    fn rdata_accessor_decodes_typed_data() {
        let wire = example_response(1).encode();
        let view = MessageView::parse(&wire).unwrap();
        let (_, rec) = view.records().next().unwrap();
        match rec.data() {
            RecordData::Aaaa(addr) => {
                assert_eq!(addr, Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1));
            }
            other => panic!("expected AAAA, got {other:?}"),
        }
    }
}
