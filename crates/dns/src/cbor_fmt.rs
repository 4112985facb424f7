//! `application/dns+cbor` — the compressed DNS message format sketched
//! in §7 of the paper (draft-lenders-dns-cbor).
//!
//! The paper's proposal exploits the transactional context of CoAP:
//!
//! * A **query** is a CBOR array of up to three entries: the name (text
//!   string), an optional record type (unsigned integer) and an
//!   optional record class (unsigned integer). "If record type and
//!   class are elided, DoC implies AAAA and IN."
//! * A **response** "could use only one CBOR array, which contains the
//!   DNS answer section" because it can be matched to its request. Each
//!   answer entry carries a TTL, optionally a name (elided when equal
//!   to the question name), an optional type (elided when equal to the
//!   question type), and the RDATA as a byte string.
//!
//! §7 verifies "the wire-format of an AAAA response packet compresses
//! from 70 bytes down to 24 bytes—a reduction by 66%"; the tests at the
//! bottom of this module reproduce exactly that number from real
//! encodings.

use crate::message::{Message, Question, Rcode};
use crate::name::Name;
use crate::rr::{Record, RecordClass, RecordData, RecordType};
use crate::DnsError;
use doc_crypto::cbor::Value;

/// CoAP Content-Format number provisionally used for
/// `application/dns+cbor` in this workspace (the draft has no IANA
/// allocation; 65053 lies in the experimental range).
pub const CONTENT_FORMAT_DNS_CBOR: u16 = 65053;

/// Encode a DNS query (single question) as dns+cbor.
///
/// Elision rules per §7: type omitted when AAAA, class omitted when IN
/// (class can only be present when type is).
pub fn encode_query(q: &Question) -> Vec<u8> {
    let mut items = vec![Value::Text(q.qname.to_string())];
    let class_elidable = q.qclass == RecordClass::In;
    let type_elidable = q.qtype == RecordType::Aaaa && class_elidable;
    if !type_elidable {
        items.push(Value::Uint(q.qtype.to_u16() as u64));
        if !class_elidable {
            items.push(Value::Uint(q.qclass.to_u16() as u64));
        }
    }
    Value::Array(items).encode()
}

/// Encode the answer section of `msg` as a dns+cbor response, eliding
/// data derivable from the request context `q`.
///
/// Answer-entry shape: `[?name(text), ttl(uint), ?type(uint),
/// rdata(bytes)]` — name elided when equal to the question name, type
/// elided when equal to the question type; class is always IN in this
/// profile (matching the paper's data: Table 4 contains only IN).
pub fn encode_response(msg: &Message, q: &Question) -> Vec<u8> {
    let answers: Vec<Value> = msg
        .answers
        .iter()
        .map(|rec| {
            let mut items = Vec::with_capacity(4);
            if rec.name != q.qname {
                items.push(Value::Text(rec.name.to_string()));
            }
            items.push(Value::Uint(rec.ttl as u64));
            if rec.rtype != q.qtype {
                items.push(Value::Uint(rec.rtype.to_u16() as u64));
            }
            let mut rdata = Vec::new();
            rec.data.encode(&mut rdata);
            items.push(Value::Bytes(rdata));
            Value::Array(items)
        })
        .collect();
    Value::Array(answers).encode()
}

/// Decode a dns+cbor response into a full [`Message`], reconstructing
/// elided fields from the request context `q`.
// lint:allow(pub-needs-caller): the §7 CBOR decoder, oracle of the compression round-trip tests and of the crate doctest
pub fn decode_response(data: &[u8], q: &Question) -> Result<Message, DnsError> {
    let v = Value::decode(data).map_err(|_| DnsError::BadCbor)?;
    let entries = v.as_array().ok_or(DnsError::BadCbor)?;
    let mut answers = Vec::with_capacity(entries.len());
    for entry in entries {
        let items = entry.as_array().ok_or(DnsError::BadCbor)?;
        let mut idx = 0usize;
        // Optional leading name.
        let name = if let Some(Value::Text(t)) = items.first() {
            idx = 1;
            Name::parse(t)?
        } else {
            q.qname.clone()
        };
        let ttl_v = items.get(idx).ok_or(DnsError::BadCbor)?;
        let ttl = u32::try_from(ttl_v.as_uint().ok_or(DnsError::BadCbor)?)
            .map_err(|_| DnsError::BadCbor)?;
        idx += 1;
        // Optional type before the rdata bytes.
        let rtype = if let Some(Value::Uint(t)) = items.get(idx) {
            idx += 1;
            RecordType::from_u16(u16::try_from(*t).map_err(|_| DnsError::BadCbor)?)
        } else {
            q.qtype
        };
        let rdata_bytes = items
            .get(idx)
            .and_then(|v| v.as_bytes())
            .ok_or(DnsError::BadCbor)?;
        if idx + 1 != items.len() {
            return Err(DnsError::BadCbor);
        }
        // Typed decode: RDATA was encoded uncompressed, so it parses as
        // a standalone message slice.
        let data = RecordData::decode(rtype, rdata_bytes, 0, rdata_bytes.len())?;
        answers.push(Record {
            name,
            rtype,
            rclass: RecordClass::In,
            ttl,
            data,
        });
    }
    let query_msg = Message {
        header: crate::message::Header::query(0),
        questions: vec![q.clone()],
        answers: Vec::new(),
        authority: Vec::new(),
        additional: Vec::new(),
    };
    Ok(Message::response(&query_msg, Rcode::NoError, answers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn q24() -> Question {
        // 24-character name — the paper's canonical median name length.
        let name = Name::parse("name-01234.doc.example.c").unwrap();
        assert_eq!(name.presentation_len(), 24);
        Question::new(name, RecordType::Aaaa)
    }

    fn aaaa_response(q: &Question, ttl: u32) -> Message {
        let query = Message::query(0, q.qname.clone(), q.qtype);
        Message::response(
            &query,
            Rcode::NoError,
            vec![Record::aaaa(
                q.qname.clone(),
                ttl,
                Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            )],
        )
    }

    /// Reproduces the paper's §7 numbers: a 70-byte AAAA wire response
    /// compresses to 24 bytes — a 66% reduction.
    #[test]
    fn paper_section7_seventy_to_24_bytes() {
        let q = q24();
        // TTL > 0xFFFF so its CBOR encoding takes the 5-byte form the
        // paper's example implies (e.g. a day-long TTL).
        let resp = aaaa_response(&q, 86_400);
        let wire = resp.encode();
        assert_eq!(wire.len(), 70, "DNS wire format of the AAAA response");
        let cbor = encode_response(&resp, &q);
        assert_eq!(cbor.len(), 24, "dns+cbor encoding of the same response");
        let reduction = 1.0 - cbor.len() as f64 / wire.len() as f64;
        assert!(
            (reduction - 0.657).abs() < 0.01,
            "≈66% reduction, got {reduction}"
        );
    }

    /// Short TTLs compress even further ("up to 70%", abstract).
    #[test]
    fn short_ttl_reduction_up_to_70_percent() {
        let q = q24();
        let resp = aaaa_response(&q, 20); // 1-byte CBOR TTL
        let cbor = encode_response(&resp, &q);
        assert_eq!(cbor.len(), 20);
        let reduction = 1.0 - cbor.len() as f64 / resp.encode().len() as f64;
        assert!(reduction > 0.70, "reduction {reduction} should exceed 70%");
    }

    #[test]
    fn query_elides_aaaa_in() {
        let q = q24();
        let enc = encode_query(&q);
        // array(1) + text header (1 + 1 len byte for 24 chars) + 24
        assert_eq!(enc.len(), 1 + 2 + 24);
        assert_eq!(
            enc,
            Value::Array(vec![Value::Text(q.qname.to_string())]).encode()
        );
    }

    #[test]
    fn query_with_explicit_type() {
        let q = Question::new(Name::parse("example.org").unwrap(), RecordType::A);
        let enc = encode_query(&q);
        let items = vec![Value::Text("example.org".into()), Value::Uint(1)];
        assert_eq!(enc, Value::Array(items).encode(), "class IN elided");
    }

    #[test]
    fn query_with_explicit_class() {
        let q = Question {
            qname: Name::parse("example.org").unwrap(),
            qtype: RecordType::Txt,
            qclass: RecordClass::Other(3),
        };
        let items = vec![
            Value::Text("example.org".into()),
            Value::Uint(16),
            Value::Uint(3),
        ];
        assert_eq!(encode_query(&q), Value::Array(items).encode());
    }

    #[test]
    fn response_roundtrip_name_and_type_elided() {
        let q = q24();
        let resp = aaaa_response(&q, 300);
        let back = decode_response(&encode_response(&resp, &q), &q).unwrap();
        assert_eq!(back.answers, resp.answers);
        assert_eq!(back.questions, resp.questions);
    }

    #[test]
    fn response_roundtrip_explicit_name_and_type() {
        let q = q24();
        let query = Message::query(0, q.qname.clone(), q.qtype);
        let other_name = Name::parse("cdn.example.net").unwrap();
        let resp = Message::response(
            &query,
            Rcode::NoError,
            vec![
                Record {
                    name: q.qname.clone(),
                    rtype: RecordType::Cname,
                    rclass: RecordClass::In,
                    ttl: 60,
                    data: RecordData::Cname(other_name.clone()),
                },
                Record::aaaa(other_name, 120, "2001:db8::2".parse().unwrap()),
            ],
        );
        let back = decode_response(&encode_response(&resp, &q), &q).unwrap();
        assert_eq!(back.answers, resp.answers);
    }

    #[test]
    fn multi_answer_roundtrip() {
        let q = q24();
        let query = Message::query(0, q.qname.clone(), q.qtype);
        let answers: Vec<Record> = (1..=4u16)
            .map(|i| {
                Record::aaaa(
                    q.qname.clone(),
                    300,
                    Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i),
                )
            })
            .collect();
        let resp = Message::response(&query, Rcode::NoError, answers);
        let back = decode_response(&encode_response(&resp, &q), &q).unwrap();
        assert_eq!(back.answers.len(), 4);
        assert_eq!(back.answers, resp.answers);
    }

    #[test]
    fn reject_malformed() {
        let q = q24();
        assert!(decode_response(&[0x81, 0x05], &q).is_err()); // answer not array
                                                              // Answer array with trailing garbage element.
        let bad = Value::Array(vec![Value::Array(vec![
            Value::Uint(60),
            Value::Bytes(vec![0u8; 16]),
            Value::Uint(9),
        ])])
        .encode();
        assert!(decode_response(&bad, &q).is_err());
    }
}
