//! DNS-Based Service Discovery (RFC 6763) over multicast DNS (RFC
//! 6762) message shapes.
//!
//! §3.2 of the paper observes that IoT devices using DNS-SD query
//! ANY/PTR/SRV/TXT records and produce the long-name tail of Fig. 1
//! (service instances and UUID device names); §7/§8 propose DNS-SD
//! over Group OSCORE as future work, which
//! [`doc_oscore::group`](../../oscore) implements. This module supplies
//! the DNS-SD message layer: service enumeration (PTR browse),
//! instance resolution (SRV + TXT + address records) and the
//! corresponding response construction.

use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::rr::{Record, RecordClass, RecordData, RecordType};
use crate::DnsError;
use std::net::Ipv6Addr;

/// A discoverable service instance
/// (`<instance>.<service>.<proto>.<domain>`, e.g.
/// `Kitchen Cam._coap._udp.local`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInstance {
    /// Instance label (unescaped UTF-8, e.g. "Kitchen Cam").
    pub instance: String,
    /// Service type incl. protocol, e.g. "_coap._udp".
    pub service: String,
    /// Domain, e.g. "local".
    pub domain: String,
    /// Host offering the service.
    pub target: Name,
    /// Service port.
    pub port: u16,
    /// TXT key=value metadata.
    pub txt: Vec<(String, String)>,
    /// Host address.
    pub address: Ipv6Addr,
}

impl ServiceInstance {
    /// The browse name (`<service>.<domain>`), the owner of PTR
    /// records.
    pub fn service_name(&self) -> Result<Name, DnsError> {
        Name::parse(&format!("{}.{}", self.service, self.domain))
    }

    /// The full instance name (`<instance>.<service>.<domain>`).
    pub fn instance_name(&self) -> Result<Name, DnsError> {
        let mut labels: Vec<Vec<u8>> = vec![self.instance.as_bytes().to_vec()];
        for part in self.service.split('.') {
            labels.push(part.as_bytes().to_vec());
        }
        for part in self.domain.split('.') {
            labels.push(part.as_bytes().to_vec());
        }
        Name::from_labels(&labels)
    }

    /// TXT RDATA strings (`key=value` character strings, RFC 6763 §6).
    pub fn txt_strings(&self) -> Vec<Vec<u8>> {
        if self.txt.is_empty() {
            // RFC 6763 §6.1: an empty TXT record contains one zero
            // bytes string.
            return vec![Vec::new()];
        }
        self.txt
            .iter()
            .map(|(k, v)| format!("{k}={v}").into_bytes())
            .collect()
    }
}

/// Build a PTR browse query for a service type ("which instances of
/// `_coap._udp.local` exist?").
pub fn browse_query(service: &str, domain: &str, id: u16) -> Result<Message, DnsError> {
    let qname = Name::parse(&format!("{service}.{domain}"))?;
    Ok(Message::query(id, qname, RecordType::Ptr))
}

/// Build the browse response: one PTR per instance, with the SRV/TXT/
/// AAAA records in the additional section (RFC 6763 §12.1 additional-
/// record rules — the efficient single-exchange form mDNS responders
/// use).
pub fn browse_response(
    query: &Message,
    instances: &[ServiceInstance],
    ttl: u32,
) -> Result<Message, DnsError> {
    let mut answers = Vec::new();
    let mut additional = Vec::new();
    for inst in instances {
        let service_name = inst.service_name()?;
        let instance_name = inst.instance_name()?;
        answers.push(Record {
            name: service_name,
            rtype: RecordType::Ptr,
            rclass: RecordClass::In,
            ttl,
            data: RecordData::Ptr(instance_name.clone()),
        });
        additional.push(Record {
            name: instance_name.clone(),
            rtype: RecordType::Srv,
            rclass: RecordClass::In,
            ttl,
            data: RecordData::Srv {
                priority: 0,
                weight: 0,
                port: inst.port,
                target: inst.target.clone(),
            },
        });
        additional.push(Record {
            name: instance_name,
            rtype: RecordType::Txt,
            rclass: RecordClass::In,
            ttl,
            data: RecordData::Txt(inst.txt_strings()),
        });
        additional.push(Record::aaaa(inst.target.clone(), ttl, inst.address));
    }
    let mut resp = Message::response(query, Rcode::NoError, answers);
    resp.additional = additional;
    Ok(resp)
}

/// Parse a browse response back into discovered instances. Follows the
/// PTR answers into the additional section for SRV/TXT/AAAA.
pub fn parse_browse_response(resp: &Message) -> Result<Vec<ServiceInstance>, DnsError> {
    let mut out = Vec::new();
    for ptr in resp.answers.iter().filter(|r| r.rtype == RecordType::Ptr) {
        let RecordData::Ptr(instance_name) = &ptr.data else {
            return Err(DnsError::BadRdata);
        };
        // Decompose <instance>.<service..>.<domain> heuristically:
        // instance = first label; service = labels starting with '_';
        // domain = the rest.
        let labels = instance_name.labels();
        if labels.len() < 3 {
            return Err(DnsError::BadLabel);
        }
        let instance = String::from_utf8_lossy(&labels[0]).into_owned();
        let service_labels: Vec<String> = labels[1..]
            .iter()
            .take_while(|l| l.first() == Some(&b'_'))
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();
        let domain_labels: Vec<String> = labels[1 + service_labels.len()..]
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();

        let srv = resp
            .additional
            .iter()
            .find(|r| r.rtype == RecordType::Srv && &r.name == instance_name)
            .ok_or(DnsError::Inconsistent)?;
        let RecordData::Srv { port, target, .. } = &srv.data else {
            return Err(DnsError::BadRdata);
        };
        let txt = resp
            .additional
            .iter()
            .find(|r| r.rtype == RecordType::Txt && &r.name == instance_name)
            .map(|r| match &r.data {
                RecordData::Txt(strings) => strings
                    .iter()
                    .filter_map(|s| {
                        let s = String::from_utf8_lossy(s);
                        s.split_once('=')
                            .map(|(k, v)| (k.to_string(), v.to_string()))
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .unwrap_or_default();
        let address = resp
            .additional
            .iter()
            .find(|r| r.rtype == RecordType::Aaaa && r.name == *target)
            .and_then(|r| match r.data {
                RecordData::Aaaa(a) => Some(a),
                _ => None,
            })
            .ok_or(DnsError::Inconsistent)?;
        out.push(ServiceInstance {
            instance,
            service: service_labels.join("."),
            domain: domain_labels.join("."),
            target: target.clone(),
            port: *port,
            txt,
            address,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera() -> ServiceInstance {
        ServiceInstance {
            instance: "kitchen-cam".into(),
            service: "_coap._udp".into(),
            domain: "local".into(),
            target: Name::parse("cam-1234.local").unwrap(),
            port: 5683,
            txt: vec![("path".into(), "/dns".into()), ("v".into(), "1".into())],
            address: "fe80::1".parse().unwrap(),
        }
    }

    #[test]
    fn names_compose() {
        let c = camera();
        assert_eq!(c.service_name().unwrap().to_string(), "_coap._udp.local");
        assert_eq!(
            c.instance_name().unwrap().to_string(),
            "kitchen-cam._coap._udp.local"
        );
    }

    #[test]
    fn browse_roundtrip() {
        let q = browse_query("_coap._udp", "local", 1).unwrap();
        assert_eq!(q.questions[0].qtype, RecordType::Ptr);
        let instances = vec![camera(), {
            let mut c = camera();
            c.instance = "hall-sensor".into();
            c.target = Name::parse("sensor-9.local").unwrap();
            c.address = "fe80::2".parse().unwrap();
            c
        }];
        let resp = browse_response(&q, &instances, 120).unwrap();
        assert_eq!(resp.answers.len(), 2);
        assert_eq!(resp.additional.len(), 6);
        // Full wire round-trip first.
        let wire = resp.encode();
        let back = Message::decode(&wire).unwrap();
        let found = parse_browse_response(&back).unwrap();
        assert_eq!(found, instances);
    }

    #[test]
    fn empty_txt_is_single_empty_string() {
        let mut c = camera();
        c.txt.clear();
        assert_eq!(c.txt_strings(), vec![Vec::<u8>::new()]);
    }

    /// §3.2: DNS-SD instance names drive the long-name tail of Fig. 1.
    #[test]
    fn instance_names_are_long() {
        let mut c = camera();
        c.instance = "70ee50a3-4f84-4e3b-b9ac-1f6a7f9d2b31".into(); // UUID
        let n = c.instance_name().unwrap();
        assert!(n.presentation_len() > 50, "{}", n.presentation_len());
    }

    #[test]
    fn missing_srv_rejected() {
        let q = browse_query("_coap._udp", "local", 1).unwrap();
        let mut resp = browse_response(&q, &[camera()], 120).unwrap();
        resp.additional.retain(|r| r.rtype != RecordType::Srv);
        assert_eq!(parse_browse_response(&resp), Err(DnsError::Inconsistent));
    }

    #[test]
    fn missing_address_rejected() {
        let q = browse_query("_coap._udp", "local", 1).unwrap();
        let mut resp = browse_response(&q, &[camera()], 120).unwrap();
        resp.additional.retain(|r| r.rtype != RecordType::Aaaa);
        assert_eq!(parse_browse_response(&resp), Err(DnsError::Inconsistent));
    }
}
