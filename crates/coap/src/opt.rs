//! CoAP option numbers and their properties (RFC 7252 §5.10 / §5.4).
//!
//! Option numbers encode their own semantics in the low bits: bit 0 =
//! Critical, bit 1 = Unsafe (for proxies), and `(num & 0x1e) == 0x1c`
//! marks NoCacheKey options, which are excluded from the cache key.

/// Well-known CoAP option numbers used in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OptionNumber(pub u16);

impl OptionNumber {
    /// If-Match (RFC 7252).
    pub const IF_MATCH: OptionNumber = OptionNumber(1);
    /// Uri-Host (RFC 7252).
    pub const URI_HOST: OptionNumber = OptionNumber(3);
    /// ETag (RFC 7252).
    pub const ETAG: OptionNumber = OptionNumber(4);
    /// If-None-Match (RFC 7252).
    pub const IF_NONE_MATCH: OptionNumber = OptionNumber(5);
    /// Observe (RFC 7641).
    pub const OBSERVE: OptionNumber = OptionNumber(6);
    /// Uri-Port (RFC 7252).
    pub const URI_PORT: OptionNumber = OptionNumber(7);
    /// Location-Path (RFC 7252).
    pub const LOCATION_PATH: OptionNumber = OptionNumber(8);
    /// OSCORE (RFC 8613).
    pub const OSCORE: OptionNumber = OptionNumber(9);
    /// Uri-Path (RFC 7252).
    pub const URI_PATH: OptionNumber = OptionNumber(11);
    /// Content-Format (RFC 7252).
    pub const CONTENT_FORMAT: OptionNumber = OptionNumber(12);
    /// Max-Age (RFC 7252).
    pub const MAX_AGE: OptionNumber = OptionNumber(14);
    /// Uri-Query (RFC 7252).
    pub const URI_QUERY: OptionNumber = OptionNumber(15);
    /// Accept (RFC 7252).
    pub const ACCEPT: OptionNumber = OptionNumber(17);
    /// Location-Query (RFC 7252).
    pub const LOCATION_QUERY: OptionNumber = OptionNumber(20);
    /// Block2 (RFC 7959).
    pub const BLOCK2: OptionNumber = OptionNumber(23);
    /// Block1 (RFC 7959).
    pub const BLOCK1: OptionNumber = OptionNumber(27);
    /// Size2 (RFC 7959).
    pub const SIZE2: OptionNumber = OptionNumber(28);
    /// Proxy-Uri (RFC 7252).
    pub const PROXY_URI: OptionNumber = OptionNumber(35);
    /// Proxy-Scheme (RFC 7252).
    pub const PROXY_SCHEME: OptionNumber = OptionNumber(39);
    /// Size1 (RFC 7252).
    pub const SIZE1: OptionNumber = OptionNumber(60);
    /// Echo (RFC 9175) — used by OSCORE replay-window initialization
    /// (the paper's Fig. 6 "4.01 Unauthorized + Query w/ Echo" flow).
    pub const ECHO: OptionNumber = OptionNumber(252);
    /// No-Response (RFC 7967).
    pub const NO_RESPONSE: OptionNumber = OptionNumber(258);

    /// Unsafe options must be forwarded opaquely / block proxying (bit 1).
    pub fn is_unsafe_to_forward(self) -> bool {
        self.0 & 2 != 0
    }

    /// NoCacheKey options are excluded from the cache key
    /// (`(num & 0x1e) == 0x1c`, only meaningful for Safe options).
    pub fn is_no_cache_key(self) -> bool {
        !self.is_unsafe_to_forward() && (self.0 & 0x1e) == 0x1c
    }
}

impl core::fmt::Display for OptionNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match *self {
            OptionNumber::IF_MATCH => "If-Match",
            OptionNumber::URI_HOST => "Uri-Host",
            OptionNumber::ETAG => "ETag",
            OptionNumber::IF_NONE_MATCH => "If-None-Match",
            OptionNumber::OBSERVE => "Observe",
            OptionNumber::URI_PORT => "Uri-Port",
            OptionNumber::LOCATION_PATH => "Location-Path",
            OptionNumber::OSCORE => "OSCORE",
            OptionNumber::URI_PATH => "Uri-Path",
            OptionNumber::CONTENT_FORMAT => "Content-Format",
            OptionNumber::MAX_AGE => "Max-Age",
            OptionNumber::URI_QUERY => "Uri-Query",
            OptionNumber::ACCEPT => "Accept",
            OptionNumber::LOCATION_QUERY => "Location-Query",
            OptionNumber::BLOCK2 => "Block2",
            OptionNumber::BLOCK1 => "Block1",
            OptionNumber::SIZE2 => "Size2",
            OptionNumber::PROXY_URI => "Proxy-Uri",
            OptionNumber::PROXY_SCHEME => "Proxy-Scheme",
            OptionNumber::SIZE1 => "Size1",
            OptionNumber::ECHO => "Echo",
            OptionNumber::NO_RESPONSE => "No-Response",
            _ => return write!(f, "Option({})", self.0),
        };
        write!(f, "{name}")
    }
}

/// One option instance: number plus raw value bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoapOption {
    /// Option number.
    pub number: OptionNumber,
    /// Raw option value.
    pub value: Vec<u8>,
}

impl CoapOption {
    /// Construct an option from a number and value bytes.
    pub fn new(number: OptionNumber, value: Vec<u8>) -> Self {
        CoapOption { number, value }
    }

    /// Construct a uint-valued option (RFC 7252 §3.2 encoding: shortest
    /// big-endian form, zero encodes as empty).
    pub fn uint(number: OptionNumber, v: u32) -> Self {
        CoapOption {
            number,
            value: encode_uint_value(v),
        }
    }

    /// Decode this option's value as a uint.
    pub fn as_uint(&self) -> u32 {
        decode_uint_value(&self.value)
    }

    /// Decode this option's value as UTF-8 (lossy).
    pub fn as_str(&self) -> String {
        String::from_utf8_lossy(&self.value).into_owned()
    }
}

/// Encode an option uint value in the shortest big-endian form.
pub fn encode_uint_value(v: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(4);
    encode_uint_into(v, &mut out);
    out
}

/// Append an option uint value in the shortest big-endian form — the
/// allocation-free counterpart of [`encode_uint_value`].
pub fn encode_uint_into(v: u32, out: &mut Vec<u8>) {
    let bytes = v.to_be_bytes();
    let skip = bytes.iter().take_while(|&&b| b == 0).count();
    out.extend_from_slice(&bytes[skip..]);
}

/// Decode an option uint value (empty = 0). Values longer than 4 bytes
/// saturate to `u32::MAX` — the conservative reading for Max-Age, where
/// truncating to the first bytes would *shorten* a freshness lifetime a
/// peer declared to be enormous. (We never emit such values ourselves.)
pub fn decode_uint_value(value: &[u8]) -> u32 {
    // Leading zero octets are tolerated (non-shortest form); only
    // significant bytes beyond 4 saturate.
    let significant = &value[value.iter().take_while(|&&b| b == 0).count()..];
    if significant.len() > 4 {
        return u32::MAX;
    }
    significant
        .iter()
        .fold(0u32, |v, &b| (v << 8) | u32::from(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_options() {
        // Unsafe-to-forward per RFC 7252 Table 4: the URI options,
        // Max-Age and the Proxy options.
        assert!(OptionNumber::MAX_AGE.is_unsafe_to_forward());
        assert!(OptionNumber::PROXY_URI.is_unsafe_to_forward());
        assert!(OptionNumber::URI_HOST.is_unsafe_to_forward());
        assert!(OptionNumber::URI_PATH.is_unsafe_to_forward());
        assert!(OptionNumber::URI_QUERY.is_unsafe_to_forward());
        // Block1/Block2 are also Unsafe (RFC 7959 Table 1: a proxy
        // must understand them to forward block-wise transfers).
        assert!(OptionNumber::BLOCK1.is_unsafe_to_forward());
        assert!(OptionNumber::BLOCK2.is_unsafe_to_forward());
        // Safe-to-forward: ETag, Accept, Content-Format.
        assert!(!OptionNumber::ETAG.is_unsafe_to_forward());
        assert!(!OptionNumber::ACCEPT.is_unsafe_to_forward());
        assert!(!OptionNumber::CONTENT_FORMAT.is_unsafe_to_forward());
    }

    #[test]
    fn no_cache_key() {
        // Per RFC 7252 §5.4.6 Size1 (60 = 0b111100) is NoCacheKey.
        assert!(OptionNumber::SIZE1.is_no_cache_key());
        assert!(!OptionNumber::URI_PATH.is_no_cache_key());
        assert!(!OptionNumber::ETAG.is_no_cache_key());
        // Max-Age is Unsafe, so NoCacheKey flag does not apply.
        assert!(!OptionNumber::MAX_AGE.is_no_cache_key());
    }

    #[test]
    fn uint_value_shortest_form() {
        assert_eq!(encode_uint_value(0), Vec::<u8>::new());
        assert_eq!(encode_uint_value(60), vec![60]);
        assert_eq!(encode_uint_value(0x1234), vec![0x12, 0x34]);
        assert_eq!(encode_uint_value(0x0100_0000), vec![1, 0, 0, 0]);
    }

    #[test]
    fn uint_value_roundtrip() {
        for v in [0u32, 1, 59, 255, 256, 65535, 65536, u32::MAX] {
            assert_eq!(decode_uint_value(&encode_uint_value(v)), v);
        }
    }

    #[test]
    fn uint_value_longer_than_4_bytes_saturates() {
        // Regression: the decoder used to *truncate* to the first four
        // bytes, reading 0x0100000000 (2^32) as 0x01000000.
        assert_eq!(decode_uint_value(&[1, 0, 0, 0, 0]), u32::MAX);
        assert_eq!(decode_uint_value(&[0xFF; 9]), u32::MAX);
        // Non-shortest (zero-padded) forms are values, not saturation.
        assert_eq!(decode_uint_value(&[0, 0, 0, 0, 60]), 60);
        assert_eq!(decode_uint_value(&[0, 0, 0, 0, 0]), 0);
    }

    #[test]
    fn option_constructors() {
        let o = CoapOption::uint(OptionNumber::MAX_AGE, 300);
        assert_eq!(o.as_uint(), 300);
        let s = CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec());
        assert_eq!(s.as_str(), "dns");
    }

    #[test]
    fn display_names() {
        assert_eq!(OptionNumber::BLOCK2.to_string(), "Block2");
        assert_eq!(OptionNumber(9999).to_string(), "Option(9999)");
    }
}
