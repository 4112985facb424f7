//! The DoC request-method mappings (paper §4.1, Table 5).
//!
//! | Feature                          | GET | POST | FETCH |
//! |----------------------------------|-----|------|-------|
//! | Cacheable                        |  ✓  |  ✘   |   ✓   |
//! | Application data carried in body |  ✘  |  ✓   |   ✓   |
//! | Block-wise transferable query    |  ✘  |  ✓   |   ✓   |

use crate::uri_template::UriTemplate;
use crate::{DocError, CONTENT_FORMAT_DNS_MESSAGE, DEFAULT_RESOURCE};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_crypto::base64url;

/// The CoAP method a DoC client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocMethod {
    /// FETCH (RFC 8132) — cacheable, body-carrying, block-wise capable;
    /// "the preferred method for DoC".
    Fetch,
    /// GET — cacheable but base64url-inflates the query into the URI.
    Get,
    /// POST — body-carrying but responses are not cacheable.
    Post,
}

impl DocMethod {
    /// The CoAP request code.
    pub fn code(self) -> Code {
        match self {
            DocMethod::Fetch => Code::FETCH,
            DocMethod::Get => Code::GET,
            DocMethod::Post => Code::POST,
        }
    }

    /// Whether responses to this method can be cached (Table 5 row 1).
    pub fn cacheable(self) -> bool {
        doc_coap::cache::is_cacheable_method(self.code())
    }

    /// Whether the DNS query rides in the body (Table 5 row 2).
    pub fn body_carried(self) -> bool {
        matches!(self, DocMethod::Fetch | DocMethod::Post)
    }

    /// Whether the query can use Block1 transfer (Table 5 row 3).
    pub fn blockwise_query(self) -> bool {
        self.body_carried()
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DocMethod::Fetch => "FETCH",
            DocMethod::Get => "GET",
            DocMethod::Post => "POST",
        }
    }
}

/// Build a DoC request carrying `dns_query` wire bytes for `method`.
///
/// * FETCH/POST: query in the payload, `Content-Format:
///   application/dns-message`.
/// * GET: query base64url-encoded into the `dns` variable of the URI
///   template (default `/dns{?dns}`), Content-Format elided (paper
///   §5.2: "the Content-Format option is elided" for GET).
pub fn build_request(
    method: DocMethod,
    dns_query: &[u8],
    mtype: MsgType,
    message_id: u16,
    token: Vec<u8>,
) -> Result<CoapMessage, DocError> {
    build_request_at(
        method,
        dns_query,
        mtype,
        message_id,
        token,
        DEFAULT_RESOURCE,
    )
}

/// [`build_request`] against a non-default resource path.
pub fn build_request_at(
    method: DocMethod,
    dns_query: &[u8],
    mtype: MsgType,
    message_id: u16,
    token: Vec<u8>,
    resource: &str,
) -> Result<CoapMessage, DocError> {
    let mut msg = CoapMessage::request(method.code(), mtype, message_id, token);
    match method {
        DocMethod::Fetch | DocMethod::Post => {
            msg.options.push(CoapOption::new(
                OptionNumber::URI_PATH,
                resource.as_bytes().to_vec(),
            ));
            msg.options.push(CoapOption::uint(
                OptionNumber::CONTENT_FORMAT,
                CONTENT_FORMAT_DNS_MESSAGE as u32,
            ));
            if method == DocMethod::Fetch {
                // FETCH also declares what it accepts back.
                msg.options.push(CoapOption::uint(
                    OptionNumber::ACCEPT,
                    CONTENT_FORMAT_DNS_MESSAGE as u32,
                ));
            }
            msg.payload = dns_query.to_vec();
        }
        DocMethod::Get => {
            let template = UriTemplate::parse(&format!("/{resource}{{?dns}}"))
                .expect("static template is valid");
            let encoded = base64url::encode(dns_query);
            let uri = template.expand("dns", &encoded)?;
            let (paths, queries) = UriTemplate::to_coap_options(&uri);
            for p in paths {
                msg.options
                    .push(CoapOption::new(OptionNumber::URI_PATH, p.into_bytes()));
            }
            for q in queries {
                msg.options
                    .push(CoapOption::new(OptionNumber::URI_QUERY, q.into_bytes()));
            }
        }
    }
    Ok(msg)
}

/// Extract the DNS query wire bytes from a DoC request view (server
/// side). FETCH/POST queries come back as a borrow of the datagram
/// payload — no copy; GET's
/// base64url variable is decoded into `buf` (cleared first), a buffer
/// the caller reuses across requests.
pub fn extract_query_view<'a>(
    req: &doc_coap::view::CoapView<'a>,
    buf: &'a mut Vec<u8>,
) -> Result<&'a [u8], DocError> {
    match req.code {
        Code::FETCH | Code::POST => {
            if req.payload().is_empty() {
                return Err(DocError::BadRequest);
            }
            Ok(req.payload())
        }
        Code::GET => {
            for q in req.options_of(OptionNumber::URI_QUERY) {
                if let Some(encoded) = q.value.strip_prefix(b"dns=") {
                    // base64url is ASCII: any other byte, invalid
                    // UTF-8 included, is just an invalid encoding.
                    buf.clear();
                    base64url::decode_into(encoded, buf).map_err(|_| DocError::BadEncoding)?;
                    return Ok(buf);
                }
            }
            Err(DocError::BadRequest)
        }
        _ => Err(DocError::BadRequest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doc_dns::{Message, Name, RecordType};

    fn dns_query() -> Vec<u8> {
        let mut q = Message::query(
            0,
            Name::parse("name-01234.c.example.org").unwrap(),
            RecordType::Aaaa,
        );
        q.canonicalize_id();
        q.encode()
    }

    /// [`extract_query_view`] over the encoded request, copied out.
    fn extract_query(req: &CoapMessage) -> Result<Vec<u8>, DocError> {
        let wire = req.encode();
        let view = doc_coap::view::CoapView::parse(&wire).unwrap();
        let mut buf = Vec::new();
        extract_query_view(&view, &mut buf).map(<[u8]>::to_vec)
    }

    #[test]
    fn table5_feature_matrix() {
        assert!(DocMethod::Fetch.cacheable());
        assert!(DocMethod::Get.cacheable());
        assert!(!DocMethod::Post.cacheable());

        assert!(DocMethod::Fetch.body_carried());
        assert!(!DocMethod::Get.body_carried());
        assert!(DocMethod::Post.body_carried());

        assert!(DocMethod::Fetch.blockwise_query());
        assert!(!DocMethod::Get.blockwise_query());
        assert!(DocMethod::Post.blockwise_query());
    }

    #[test]
    fn fetch_roundtrip() {
        let q = dns_query();
        let req = build_request(DocMethod::Fetch, &q, MsgType::Con, 1, vec![1]).unwrap();
        assert_eq!(req.code, Code::FETCH);
        assert_eq!(
            req.options_of(OptionNumber::URI_PATH)
                .map(|o| o.as_str())
                .collect::<Vec<_>>(),
            ["dns"]
        );
        assert_eq!(
            req.option(OptionNumber::CONTENT_FORMAT).unwrap().as_uint(),
            553
        );
        assert_eq!(extract_query(&req).unwrap(), q);
    }

    #[test]
    fn post_roundtrip() {
        let q = dns_query();
        let req = build_request(DocMethod::Post, &q, MsgType::Con, 1, vec![1]).unwrap();
        assert_eq!(req.code, Code::POST);
        assert!(req.option(OptionNumber::ACCEPT).is_none());
        assert_eq!(extract_query(&req).unwrap(), q);
    }

    #[test]
    fn get_roundtrip_base64url() {
        let q = dns_query();
        let req = build_request(DocMethod::Get, &q, MsgType::Con, 1, vec![1]).unwrap();
        assert_eq!(req.code, Code::GET);
        assert!(req.payload.is_empty());
        // Content-Format is elided on GET.
        assert!(req.option(OptionNumber::CONTENT_FORMAT).is_none());
        let uq = req.option(OptionNumber::URI_QUERY).unwrap().as_str();
        assert!(uq.starts_with("dns="));
        assert_eq!(extract_query(&req).unwrap(), q);
    }

    /// §5.3: GET inflates requests ≈1.5× over binary FETCH/POST.
    #[test]
    fn get_is_roughly_1_5x_larger() {
        let q = dns_query();
        let fetch = build_request(DocMethod::Fetch, &q, MsgType::Con, 1, vec![1, 2])
            .unwrap()
            .encoded_len();
        let get = build_request(DocMethod::Get, &q, MsgType::Con, 1, vec![1, 2])
            .unwrap()
            .encoded_len();
        let ratio = get as f64 / fetch as f64;
        assert!(
            (1.2..1.6).contains(&ratio),
            "GET/FETCH size ratio {ratio:.2}"
        );
    }

    #[test]
    fn custom_resource_path() {
        let q = dns_query();
        let req =
            build_request_at(DocMethod::Fetch, &q, MsgType::Con, 1, vec![], "resolve").unwrap();
        assert_eq!(
            req.options_of(OptionNumber::URI_PATH)
                .map(|o| o.as_str())
                .collect::<Vec<_>>(),
            ["resolve"]
        );
    }

    #[test]
    fn extract_rejects_bad_requests() {
        let empty_fetch = CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![]);
        assert_eq!(extract_query(&empty_fetch), Err(DocError::BadRequest));

        let get_no_var = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()));
        assert_eq!(extract_query(&get_no_var), Err(DocError::BadRequest));

        let get_bad_b64 = get_no_var.with_option(CoapOption::new(
            OptionNumber::URI_QUERY,
            b"dns=!!!".to_vec(),
        ));
        assert_eq!(extract_query(&get_bad_b64), Err(DocError::BadEncoding));

        let put = CoapMessage::request(Code::PUT, MsgType::Con, 1, vec![]);
        assert_eq!(extract_query(&put), Err(DocError::BadRequest));
    }

    /// §4.2: identical queries yield byte-identical FETCH requests —
    /// the deterministic cache key.
    #[test]
    fn deterministic_requests_for_cache_key() {
        let q = dns_query();
        let r1 = build_request(DocMethod::Fetch, &q, MsgType::Con, 7, vec![9]).unwrap();
        let r2 = build_request(DocMethod::Fetch, &q, MsgType::Con, 8, vec![3]).unwrap();
        use doc_coap::cache::cache_key;
        assert_eq!(cache_key(&r1), cache_key(&r2));
    }
}
