//! Resource records: types, classes, typed RDATA.
//!
//! The record-type coverage follows the paper's Table 4 — the types
//! actually queried by IoT devices and at the IXP: A, AAAA, ANY, HTTPS,
//! NS, PTR, SRV, TXT — plus CNAME/SOA/OPT which any practical resolver
//! path encounters.

use crate::name::{CompressionMap, Name};
use crate::DnsError;
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS RR TYPE values (RFC 1035 §3.2.2 and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address (1).
    A,
    /// Authoritative name server (2).
    Ns,
    /// Canonical name (5).
    Cname,
    /// Start of authority (6).
    Soa,
    /// Domain name pointer (12).
    Ptr,
    /// Text strings (16).
    Txt,
    /// IPv6 host address (28).
    Aaaa,
    /// Server selection (33, RFC 2782).
    Srv,
    /// EDNS(0) pseudo-record (41).
    Opt,
    /// HTTPS service binding (65, RFC 9460).
    Https,
    /// Query-only: all records (255).
    Any,
    /// Anything else, preserved numerically.
    Other(u16),
}

impl RecordType {
    /// Numeric TYPE value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Srv => 33,
            RecordType::Opt => 41,
            RecordType::Https => 65,
            RecordType::Any => 255,
            RecordType::Other(v) => v,
        }
    }

    /// From numeric TYPE value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            33 => RecordType::Srv,
            41 => RecordType::Opt,
            65 => RecordType::Https,
            255 => RecordType::Any,
            other => RecordType::Other(other),
        }
    }
}

impl core::fmt::Display for RecordType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Srv => write!(f, "SRV"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Https => write!(f, "HTTPS"),
            RecordType::Any => write!(f, "ANY"),
            RecordType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// DNS CLASS values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// The Internet (1) — the only class the paper's data contains.
    In,
    /// Anything else, preserved numerically.
    Other(u16),
}

impl RecordClass {
    /// Numeric CLASS value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Other(v) => v,
        }
    }

    /// From numeric CLASS value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            other => RecordClass::Other(other),
        }
    }
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordData {
    /// A: IPv4 address.
    A(Ipv4Addr),
    /// AAAA: IPv6 address.
    Aaaa(Ipv6Addr),
    /// NS: name-server name.
    Ns(Name),
    /// CNAME: canonical name.
    Cname(Name),
    /// PTR: pointer name.
    Ptr(Name),
    /// TXT: one or more character strings.
    Txt(Vec<Vec<u8>>),
    /// SRV: priority, weight, port, target (RFC 2782).
    Srv {
        /// Target-selection priority.
        priority: u16,
        /// Relative weight among same-priority targets.
        weight: u16,
        /// Service port.
        port: u16,
        /// Target host name.
        target: Name,
    },
    /// SOA (RFC 1035 §3.3.13).
    Soa {
        /// Primary name server.
        mname: Name,
        /// Responsible mailbox.
        rname: Name,
        /// Zone serial.
        serial: u32,
        /// Refresh interval.
        refresh: u32,
        /// Retry interval.
        retry: u32,
        /// Expire limit.
        expire: u32,
        /// Negative-caching TTL.
        minimum: u32,
    },
    /// HTTPS (SVCB form, RFC 9460): priority, target, raw params.
    Https {
        /// SvcPriority.
        priority: u16,
        /// TargetName.
        target: Name,
        /// SvcParams, kept opaque.
        params: Vec<u8>,
    },
    /// Unknown/opaque RDATA, preserved verbatim.
    Raw(Vec<u8>),
}

impl RecordData {
    /// Wire length of this RDATA, computed without encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            RecordData::A(_) => 4,
            RecordData::Aaaa(_) => 16,
            RecordData::Ns(n) | RecordData::Cname(n) | RecordData::Ptr(n) => n.wire_len(),
            RecordData::Txt(strings) => strings.iter().map(|s| 1 + s.len()).sum(),
            RecordData::Srv { target, .. } => 6 + target.wire_len(),
            RecordData::Soa { mname, rname, .. } => mname.wire_len() + rname.wire_len() + 20,
            RecordData::Https { target, params, .. } => 2 + target.wire_len() + params.len(),
            RecordData::Raw(data) => data.len(),
        }
    }

    /// Encode RDATA (uncompressed names — RFC 3597 forbids compression
    /// in RDATA of newer types; for simplicity and cache-key stability
    /// DoC never compresses RDATA names).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RecordData::A(a) => out.extend_from_slice(&a.octets()),
            RecordData::Aaaa(a) => out.extend_from_slice(&a.octets()),
            RecordData::Ns(n) | RecordData::Cname(n) | RecordData::Ptr(n) => n.encode(out),
            RecordData::Txt(strings) => {
                for s in strings {
                    out.push(s.len() as u8);
                    out.extend_from_slice(s);
                }
            }
            RecordData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                out.extend_from_slice(&priority.to_be_bytes());
                out.extend_from_slice(&weight.to_be_bytes());
                out.extend_from_slice(&port.to_be_bytes());
                target.encode(out);
            }
            RecordData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                mname.encode(out);
                rname.encode(out);
                out.extend_from_slice(&serial.to_be_bytes());
                out.extend_from_slice(&refresh.to_be_bytes());
                out.extend_from_slice(&retry.to_be_bytes());
                out.extend_from_slice(&expire.to_be_bytes());
                out.extend_from_slice(&minimum.to_be_bytes());
            }
            RecordData::Https {
                priority,
                target,
                params,
            } => {
                out.extend_from_slice(&priority.to_be_bytes());
                target.encode(out);
                out.extend_from_slice(params);
            }
            RecordData::Raw(data) => out.extend_from_slice(data),
        }
    }

    /// Decode RDATA of `rtype` from `msg[rdata_start..rdata_start+rdlen]`.
    ///
    /// `msg` is the whole message so that compressed names inside legacy
    /// RDATA (NS/CNAME/PTR/SOA from real resolvers) can be followed.
    pub fn decode(
        rtype: RecordType,
        msg: &[u8],
        rdata_start: usize,
        rdlen: usize,
    ) -> Result<Self, DnsError> {
        let end = rdata_start
            .checked_add(rdlen)
            .filter(|&e| e <= msg.len())
            .ok_or(DnsError::Truncated)?;
        let slice = &msg[rdata_start..end];
        match rtype {
            RecordType::A => {
                let arr: [u8; 4] = slice.try_into().map_err(|_| DnsError::BadRdata)?;
                Ok(RecordData::A(Ipv4Addr::from(arr)))
            }
            RecordType::Aaaa => {
                let arr: [u8; 16] = slice.try_into().map_err(|_| DnsError::BadRdata)?;
                Ok(RecordData::Aaaa(Ipv6Addr::from(arr)))
            }
            RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
                let mut pos = rdata_start;
                let name = Name::decode(msg, &mut pos)?;
                if pos > end {
                    return Err(DnsError::BadRdata);
                }
                Ok(match rtype {
                    RecordType::Ns => RecordData::Ns(name),
                    RecordType::Cname => RecordData::Cname(name),
                    _ => RecordData::Ptr(name),
                })
            }
            RecordType::Txt => {
                let mut strings = Vec::new();
                let mut i = 0usize;
                while i < slice.len() {
                    let l = slice[i] as usize;
                    let s = slice.get(i + 1..i + 1 + l).ok_or(DnsError::BadRdata)?;
                    strings.push(s.to_vec());
                    i += 1 + l;
                }
                Ok(RecordData::Txt(strings))
            }
            RecordType::Srv => {
                if slice.len() < 7 {
                    return Err(DnsError::BadRdata);
                }
                let priority = u16::from_be_bytes([slice[0], slice[1]]);
                let weight = u16::from_be_bytes([slice[2], slice[3]]);
                let port = u16::from_be_bytes([slice[4], slice[5]]);
                let mut pos = rdata_start + 6;
                let target = Name::decode(msg, &mut pos)?;
                if pos > end {
                    return Err(DnsError::BadRdata);
                }
                Ok(RecordData::Srv {
                    priority,
                    weight,
                    port,
                    target,
                })
            }
            RecordType::Soa => {
                let mut pos = rdata_start;
                let mname = Name::decode(msg, &mut pos)?;
                let rname = Name::decode(msg, &mut pos)?;
                let fixed = msg.get(pos..pos + 20).ok_or(DnsError::BadRdata)?;
                if pos + 20 > end {
                    return Err(DnsError::BadRdata);
                }
                let word = |i: usize| {
                    u32::from_be_bytes([fixed[i], fixed[i + 1], fixed[i + 2], fixed[i + 3]])
                };
                Ok(RecordData::Soa {
                    mname,
                    rname,
                    serial: word(0),
                    refresh: word(4),
                    retry: word(8),
                    expire: word(12),
                    minimum: word(16),
                })
            }
            RecordType::Https => {
                if slice.len() < 3 {
                    return Err(DnsError::BadRdata);
                }
                let priority = u16::from_be_bytes([slice[0], slice[1]]);
                let mut pos = rdata_start + 2;
                let target = Name::decode(msg, &mut pos)?;
                if pos > end {
                    return Err(DnsError::BadRdata);
                }
                Ok(RecordData::Https {
                    priority,
                    target,
                    params: msg[pos..end].to_vec(),
                })
            }
            _ => Ok(RecordData::Raw(slice.to_vec())),
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record type (authoritative even for `RecordData::Raw`).
    pub rtype: RecordType,
    /// Record class.
    pub rclass: RecordClass,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed record data.
    pub data: RecordData,
}

impl Record {
    /// Convenience constructor for an A record.
    pub fn a(name: Name, ttl: u32, addr: Ipv4Addr) -> Self {
        Record {
            name,
            rtype: RecordType::A,
            rclass: RecordClass::In,
            ttl,
            data: RecordData::A(addr),
        }
    }

    /// Convenience constructor for an AAAA record.
    pub fn aaaa(name: Name, ttl: u32, addr: Ipv6Addr) -> Self {
        Record {
            name,
            rtype: RecordType::Aaaa,
            rclass: RecordClass::In,
            ttl,
            data: RecordData::Aaaa(addr),
        }
    }

    /// Wire length of this record with its owner name *uncompressed* —
    /// an exact upper bound on the compressed encoding.
    pub fn uncompressed_len(&self) -> usize {
        self.name.wire_len() + 10 + self.data.encoded_len()
    }

    /// Encode this record (name uncompressed unless a compression table
    /// is threaded by the caller in [`crate::message`]).
    pub fn encode(&self, msg: &mut Vec<u8>, table: &mut CompressionMap) {
        self.name.encode_compressed(msg, table);
        self.encode_after_name(msg);
    }

    /// Encode this record with its owner name uncompressed — the
    /// baseline the compression analyses (and the compression property
    /// test) compare against.
    pub fn encode_uncompressed(&self, msg: &mut Vec<u8>) {
        self.name.encode(msg);
        self.encode_after_name(msg);
    }

    /// Fixed RR fields + length-prefixed RDATA after the owner name.
    fn encode_after_name(&self, msg: &mut Vec<u8>) {
        msg.extend_from_slice(&self.rtype.to_u16().to_be_bytes());
        msg.extend_from_slice(&self.rclass.to_u16().to_be_bytes());
        msg.extend_from_slice(&self.ttl.to_be_bytes());
        let rdlen_pos = msg.len();
        msg.extend_from_slice(&[0, 0]);
        let rdata_start = msg.len();
        self.data.encode(msg);
        let rdlen = (msg.len() - rdata_start) as u16;
        msg[rdlen_pos..rdlen_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Decode one record from `msg` at `*pos`.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, DnsError> {
        let name = Name::decode(msg, pos)?;
        let fixed = msg.get(*pos..*pos + 10).ok_or(DnsError::Truncated)?;
        let rtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
        let rclass = RecordClass::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
        let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
        let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
        *pos += 10;
        let data = RecordData::decode(rtype, msg, *pos, rdlen)?;
        *pos += rdlen;
        Ok(Record {
            name,
            rtype,
            rclass,
            ttl,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &Record) -> Record {
        let mut msg = Vec::new();
        let mut table = CompressionMap::new();
        rec.encode(&mut msg, &mut table);
        let mut pos = 0;
        let back = Record::decode(&msg, &mut pos).unwrap();
        assert_eq!(pos, msg.len());
        back
    }

    #[test]
    fn a_record_roundtrip() {
        let rec = Record::a(
            Name::parse("example.org").unwrap(),
            300,
            Ipv4Addr::new(192, 0, 2, 1),
        );
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn aaaa_record_roundtrip() {
        let rec = Record::aaaa(
            Name::parse("example.org").unwrap(),
            3600,
            "2001:db8::1".parse().unwrap(),
        );
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn aaaa_rdata_is_16_bytes() {
        let rec = Record::aaaa(
            Name::parse("x.y").unwrap(),
            1,
            "2001:db8::1".parse().unwrap(),
        );
        let mut msg = Vec::new();
        rec.encode(&mut msg, &mut CompressionMap::new());
        // name(5) + type(2) + class(2) + ttl(4) + rdlen(2) + rdata(16)
        assert_eq!(msg.len(), 5 + 2 + 2 + 4 + 2 + 16);
    }

    #[test]
    fn txt_roundtrip() {
        let rec = Record {
            name: Name::parse("_service._tcp.local").unwrap(),
            rtype: RecordType::Txt,
            rclass: RecordClass::In,
            ttl: 120,
            data: RecordData::Txt(vec![b"path=/".to_vec(), b"v=1".to_vec()]),
        };
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn srv_roundtrip() {
        let rec = Record {
            name: Name::parse("_coap._udp.example.org").unwrap(),
            rtype: RecordType::Srv,
            rclass: RecordClass::In,
            ttl: 60,
            data: RecordData::Srv {
                priority: 10,
                weight: 5,
                port: 5683,
                target: Name::parse("gw.example.org").unwrap(),
            },
        };
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn soa_roundtrip() {
        let rec = Record {
            name: Name::parse("example.org").unwrap(),
            rtype: RecordType::Soa,
            rclass: RecordClass::In,
            ttl: 86400,
            data: RecordData::Soa {
                mname: Name::parse("ns1.example.org").unwrap(),
                rname: Name::parse("admin.example.org").unwrap(),
                serial: 2023092601,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        };
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn https_roundtrip() {
        let rec = Record {
            name: Name::parse("example.org").unwrap(),
            rtype: RecordType::Https,
            rclass: RecordClass::In,
            ttl: 300,
            data: RecordData::Https {
                priority: 1,
                target: Name::root(),
                params: vec![0, 1, 0, 3, 2, b'h', b'2'],
            },
        };
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn unknown_type_preserved() {
        let rec = Record {
            name: Name::parse("x.example").unwrap(),
            rtype: RecordType::Other(4242),
            rclass: RecordClass::In,
            ttl: 5,
            data: RecordData::Raw(vec![1, 2, 3, 4, 5]),
        };
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn type_code_mapping_roundtrip() {
        for v in [1u16, 2, 5, 6, 12, 16, 28, 33, 41, 65, 255, 999] {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
        assert_eq!(RecordType::Aaaa.to_string(), "AAAA");
        assert_eq!(RecordType::Other(999).to_string(), "TYPE999");
    }

    #[test]
    fn bad_rdata_rejected() {
        // A record with 3-byte RDATA.
        let mut msg = Vec::new();
        Name::parse("a.b").unwrap().encode(&mut msg);
        msg.extend_from_slice(&1u16.to_be_bytes()); // A
        msg.extend_from_slice(&1u16.to_be_bytes()); // IN
        msg.extend_from_slice(&60u32.to_be_bytes());
        msg.extend_from_slice(&3u16.to_be_bytes()); // rdlen = 3
        msg.extend_from_slice(&[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(Record::decode(&msg, &mut pos), Err(DnsError::BadRdata));
    }

    #[test]
    fn truncated_header_rejected() {
        let mut msg = Vec::new();
        Name::parse("a.b").unwrap().encode(&mut msg);
        msg.extend_from_slice(&[0, 1, 0]); // incomplete fixed part
        let mut pos = 0;
        assert_eq!(Record::decode(&msg, &mut pos), Err(DnsError::Truncated));
    }

    #[test]
    fn rdlen_beyond_message_rejected() {
        let mut msg = Vec::new();
        Name::parse("a.b").unwrap().encode(&mut msg);
        msg.extend_from_slice(&16u16.to_be_bytes()); // TXT
        msg.extend_from_slice(&1u16.to_be_bytes());
        msg.extend_from_slice(&0u32.to_be_bytes());
        msg.extend_from_slice(&200u16.to_be_bytes()); // rdlen too large
        msg.push(0);
        let mut pos = 0;
        assert_eq!(Record::decode(&msg, &mut pos), Err(DnsError::Truncated));
    }
}
