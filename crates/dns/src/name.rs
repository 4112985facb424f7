//! Domain names: presentation↔wire conversion, compression pointers.
//!
//! Wire format per RFC 1035 §3.1: a sequence of labels, each preceded by
//! a length octet, terminated by the root label (0). Compression
//! pointers (§4.1.4) are two octets with the top bits `11`, pointing at
//! a prior offset in the message. Decompression is loop-safe: pointers
//! must strictly decrease.

use crate::DnsError;

/// Maximum length of one label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum wire length of a full name (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Upper bound on labels per name (each label costs ≥ 2 wire bytes).
pub const MAX_LABELS: usize = MAX_NAME_LEN / 2;

/// Highest message offset a compression pointer can address (14 bits).
const MAX_POINTER: usize = 0x3FFF;

/// Fixed-capacity suffix→offset map used by [`Name::encode_compressed`].
///
/// Each registered suffix is stored as a 64-bit hash of its labels plus
/// the message offset where it was encoded. Lookups compare candidate
/// hashes first and then verify the labels **against the message bytes
/// in place** (following compression pointers), so no suffix `Name` is
/// ever materialized and the map itself never touches the heap — it is
/// a plain inline array that lives on the encoder's stack.
///
/// The capacity bounds work, not correctness: once full, further
/// suffixes simply are not registered, which can only cost compression
/// opportunities, never produce an invalid message.
#[derive(Debug, Clone)]
pub struct CompressionMap {
    len: usize,
    entries: [(u64, u16); Self::CAPACITY],
}

impl Default for CompressionMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CompressionMap {
    /// Registered-suffix capacity. 64 suffixes cover every answer name
    /// of the largest responses the figures exercise; overflow only
    /// degrades compression.
    pub const CAPACITY: usize = 64;

    /// An empty map.
    pub fn new() -> Self {
        CompressionMap {
            len: 0,
            entries: [(0, 0); Self::CAPACITY],
        }
    }

    /// Drop all registered suffixes (for buffer-reuse encode loops).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of registered suffixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no suffix is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register `hash` at `offset` (ignored past the pointer limit or
    /// when full).
    fn insert(&mut self, hash: u64, offset: usize) {
        if offset <= MAX_POINTER && self.len < Self::CAPACITY {
            self.entries[self.len] = (hash, offset as u16);
            self.len += 1;
        }
    }

    /// Find a registered suffix equal to `labels`, verifying candidate
    /// offsets against `msg` in place.
    fn find<L: AsRef<[u8]>>(&self, hash: u64, msg: &[u8], labels: &[L]) -> Option<u16> {
        self.entries[..self.len]
            .iter()
            .find(|&&(h, off)| h == hash && suffix_matches(msg, off as usize, labels))
            .map(|&(_, off)| off)
    }
}

/// Compare the label sequence encoded in `msg` at `offset` (following
/// compression pointers) against `labels`. Message bytes are lowercase
/// by construction, so a direct byte comparison suffices.
fn suffix_matches<L: AsRef<[u8]>>(msg: &[u8], mut offset: usize, labels: &[L]) -> bool {
    let mut next = 0usize;
    // Pointers strictly decrease in well-formed output; the guard makes
    // the walk total even on a corrupted buffer.
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > MAX_LABELS + 8 {
            return false;
        }
        let Some(&len_octet) = msg.get(offset) else {
            return false;
        };
        match len_octet {
            0 => return next == labels.len(),
            1..=63 => {
                let l = len_octet as usize;
                let Some(wire_label) = msg.get(offset + 1..offset + 1 + l) else {
                    return false;
                };
                if next >= labels.len() || labels[next].as_ref() != wire_label {
                    return false;
                }
                next += 1;
                offset += 1 + l;
            }
            0xC0..=0xFF => {
                let Some(&second) = msg.get(offset + 1) else {
                    return false;
                };
                let target = (((len_octet & 0x3F) as usize) << 8) | second as usize;
                if target >= offset {
                    return false;
                }
                offset = target;
            }
            _ => return false,
        }
    }
}

/// FNV-1a over one label's bytes.
fn label_hash(label: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Combine a label hash with the hash of the suffix to its right.
/// Asymmetric so that label order matters.
fn suffix_hash(label: &[u8], rest: u64) -> u64 {
    rest.rotate_left(23)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(label_hash(label))
}

/// [`Name::encode_compressed`] for a name given as its label sequence,
/// which must already be lowercase and at most [`MAX_NAME_LEN`] bytes in
/// wire form — so a name read from a message view can be written
/// without building a [`Name`].
pub fn encode_labels_compressed<L: AsRef<[u8]>>(
    labels: &[L],
    msg: &mut Vec<u8>,
    table: &mut CompressionMap,
) {
    let n = labels.len();
    debug_assert!(n <= MAX_LABELS, "wire_len bound implies label bound");
    // Hash every suffix right-to-left in one pass.
    let mut hashes = [0u64; MAX_LABELS];
    let mut h = 0u64;
    for i in (0..n).rev() {
        h = suffix_hash(labels[i].as_ref(), h);
        hashes[i] = h;
    }
    // Longest known suffix = smallest skip.
    let mut skip = n;
    let mut pointer = None;
    for (s, &h) in hashes[..n].iter().enumerate() {
        if let Some(off) = table.find(h, msg, &labels[s..]) {
            skip = s;
            pointer = Some(off);
            break;
        }
    }
    // Emit the unshared leading labels, registering their suffixes.
    for (i, label) in labels[..skip].iter().enumerate() {
        let label = label.as_ref();
        table.insert(hashes[i], msg.len());
        msg.push(label.len() as u8);
        msg.extend_from_slice(label);
    }
    match pointer {
        Some(off) => {
            msg.push(0xC0 | ((off >> 8) as u8));
            msg.push(off as u8);
        }
        None => msg.push(0),
    }
}

/// A fully-qualified domain name stored as lowercase labels.
///
/// Comparison and hashing are case-insensitive by construction: labels
/// are lowercased on creation (DNS name matching is case-insensitive,
/// RFC 1035 §2.3.3; lowercasing also gives the deterministic cache keys
/// that DoC requires, §4.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parse a presentation-format name (`example.org`, trailing dot
    /// optional). Empty string or `"."` yields the root.
    pub fn parse(s: &str) -> Result<Self, DnsError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        for label in s.split('.') {
            if label.is_empty() || label.len() > MAX_LABEL_LEN {
                return Err(DnsError::BadLabel);
            }
            labels.push(label.as_bytes().to_ascii_lowercase());
        }
        let name = Name { labels };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong);
        }
        Ok(name)
    }

    /// Build from raw label byte slices.
    pub fn from_labels<L: AsRef<[u8]>>(labels: &[L]) -> Result<Self, DnsError> {
        let mut out = Vec::with_capacity(labels.len());
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() || l.len() > MAX_LABEL_LEN {
                return Err(DnsError::BadLabel);
            }
            out.push(l.to_ascii_lowercase());
        }
        let name = Name { labels: out };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong);
        }
        Ok(name)
    }

    /// The labels of this name, root-less, in order.
    pub fn labels(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Presentation format length in characters (dots between labels,
    /// no trailing dot) — the quantity the paper's Table 3 statistics
    /// describe ("name length in characters").
    pub fn presentation_len(&self) -> usize {
        if self.labels.is_empty() {
            return 0;
        }
        self.labels.iter().map(|l| l.len()).sum::<usize>() + self.labels.len() - 1
    }

    /// Uncompressed wire length: one length octet per label + label
    /// bytes + terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Append the uncompressed wire form to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for label in &self.labels {
            out.push(label.len() as u8);
            out.extend_from_slice(label);
        }
        out.push(0);
    }

    /// Append the wire form, compressing against names already encoded
    /// in `msg` (suffix offsets recorded in `table`).
    ///
    /// `table` maps previously encoded *suffixes* to their message
    /// offsets; new suffixes of this name are registered as a side
    /// effect. Offsets beyond 0x3FFF are not registered (pointer limit).
    /// The whole operation is allocation-free: suffixes are keyed by
    /// hash and verified against `msg` in place.
    pub fn encode_compressed(&self, msg: &mut Vec<u8>, table: &mut CompressionMap) {
        encode_labels_compressed(&self.labels, msg, table);
    }

    /// Decode a (possibly compressed) name from `msg` starting at
    /// `*pos`. `*pos` is advanced past the name's in-place bytes.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, DnsError> {
        let mut labels = Vec::new();
        let mut cursor = *pos;
        let mut followed_pointer = false;
        let mut min_pointer = usize::MAX; // pointers must strictly decrease
        let mut total_len = 0usize;
        loop {
            let len_octet = *msg.get(cursor).ok_or(DnsError::Truncated)?;
            match len_octet {
                0 => {
                    if !followed_pointer {
                        *pos = cursor + 1;
                    }
                    return Ok(Name { labels });
                }
                1..=63 => {
                    let l = len_octet as usize;
                    let label = msg
                        .get(cursor + 1..cursor + 1 + l)
                        .ok_or(DnsError::Truncated)?;
                    total_len += l + 1;
                    if total_len + 1 > MAX_NAME_LEN {
                        return Err(DnsError::NameTooLong);
                    }
                    labels.push(label.to_ascii_lowercase());
                    cursor += 1 + l;
                }
                0xC0..=0xFF => {
                    let second = *msg.get(cursor + 1).ok_or(DnsError::Truncated)?;
                    let target = (((len_octet & 0x3F) as usize) << 8) | second as usize;
                    if !followed_pointer {
                        *pos = cursor + 2;
                        followed_pointer = true;
                    }
                    // Loop protection: each pointer must point strictly
                    // before the previous pointer target (and before the
                    // original position).
                    if target >= cursor || target >= min_pointer {
                        return Err(DnsError::BadPointer);
                    }
                    min_pointer = target;
                    cursor = target;
                }
                _ => return Err(DnsError::BadLabel), // 0x40..0xBF reserved
            }
        }
    }

    /// Whether `other` is a suffix of (or equal to) this name.
    pub fn ends_with(&self, other: &Name) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - other.labels.len();
        self.labels[skip..] == other.labels[..]
    }
}

impl core::fmt::Display for Name {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for (i, label) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in label {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = DnsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = Name::parse("Example.ORG").unwrap();
        assert_eq!(n.to_string(), "example.org");
        assert_eq!(n.label_count(), 2);
        assert_eq!(n.presentation_len(), 11);
    }

    #[test]
    fn root_name() {
        assert_eq!(Name::parse("").unwrap(), Name::root());
        assert_eq!(Name::parse(".").unwrap(), Name::root());
        assert_eq!(Name::root().wire_len(), 1);
        assert_eq!(Name::root().presentation_len(), 0);
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn trailing_dot_equivalence() {
        assert_eq!(
            Name::parse("example.org.").unwrap(),
            Name::parse("example.org").unwrap()
        );
    }

    #[test]
    fn wire_roundtrip() {
        let n = Name::parse("a.bc.def.example.org").unwrap();
        let mut wire = Vec::new();
        n.encode(&mut wire);
        assert_eq!(wire.len(), n.wire_len());
        let mut pos = 0;
        let back = Name::decode(&wire, &mut pos).unwrap();
        assert_eq!(back, n);
        assert_eq!(pos, wire.len());
    }

    #[test]
    fn reject_bad_labels() {
        assert!(Name::parse("a..b").is_err());
        let long = "x".repeat(64);
        assert!(Name::parse(&long).is_err());
        assert!(Name::parse(&"x".repeat(63)).is_ok());
    }

    #[test]
    fn reject_name_too_long() {
        // 4 * 63 + dots > 255 wire bytes
        let label = "x".repeat(63);
        let name = format!("{label}.{label}.{label}.{label}");
        assert!(Name::parse(&name).is_err());
    }

    #[test]
    fn compression_shares_suffix() {
        let mut msg = vec![0u8; 12]; // fake header
        let mut table = CompressionMap::new();
        let n1 = Name::parse("www.example.org").unwrap();
        let n2 = Name::parse("mail.example.org").unwrap();
        n1.encode_compressed(&mut msg, &mut table);
        let len_after_first = msg.len();
        n2.encode_compressed(&mut msg, &mut table);
        // Second name should be 4(mail)+1(len)+2(pointer) = 7 bytes.
        assert_eq!(msg.len() - len_after_first, 7);
        // Decode both back.
        let mut pos = 12;
        assert_eq!(Name::decode(&msg, &mut pos).unwrap(), n1);
        assert_eq!(Name::decode(&msg, &mut pos).unwrap(), n2);
        assert_eq!(pos, msg.len());
    }

    #[test]
    fn identical_name_compresses_to_pointer() {
        let mut msg = Vec::new();
        let mut table = CompressionMap::new();
        let n = Name::parse("example.org").unwrap();
        n.encode_compressed(&mut msg, &mut table);
        let first = msg.len();
        n.encode_compressed(&mut msg, &mut table);
        assert_eq!(msg.len() - first, 2); // just a pointer
        let mut pos = first;
        assert_eq!(Name::decode(&msg, &mut pos).unwrap(), n);
    }

    #[test]
    fn pointer_loop_rejected() {
        // A pointer at offset 0 pointing to itself.
        let msg = [0xC0u8, 0x00];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos), Err(DnsError::BadPointer));
    }

    #[test]
    fn mutual_pointer_loop_rejected() {
        // offset 0 -> 2, offset 2 -> 0.
        let msg = [0xC0u8, 0x02, 0xC0, 0x00];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos), Err(DnsError::BadPointer));
        let mut pos = 2;
        // 2 -> 0 is backwards, then 0 -> 2 is >= min_pointer: rejected.
        assert_eq!(Name::decode(&msg, &mut pos), Err(DnsError::BadPointer));
    }

    #[test]
    fn forward_pointer_rejected() {
        let msg = [0xC0u8, 0x04, 0, 0, 1, b'a', 0];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos), Err(DnsError::BadPointer));
    }

    #[test]
    fn truncated_rejected() {
        let msg = [3u8, b'a', b'b'];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos), Err(DnsError::Truncated));
        let msg2 = [0xC0u8];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg2, &mut pos), Err(DnsError::Truncated));
    }

    #[test]
    fn reserved_label_type_rejected() {
        let msg = [0x40u8, 0x00];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos), Err(DnsError::BadLabel));
    }

    #[test]
    fn case_insensitive_equality() {
        let a = Name::parse("ExAmPlE.Org").unwrap();
        let b = Name::parse("example.ORG").unwrap();
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn ends_with_suffix() {
        let n = Name::parse("www.example.org").unwrap();
        assert!(n.ends_with(&Name::parse("example.org").unwrap()));
        assert!(n.ends_with(&Name::parse("org").unwrap()));
        assert!(n.ends_with(&n));
        assert!(n.ends_with(&Name::root()));
        assert!(!n.ends_with(&Name::parse("example.com").unwrap()));
        assert!(!Name::parse("org").unwrap().ends_with(&n));
    }

    #[test]
    fn display_escapes_nonprintable() {
        let n = Name::from_labels(&[&[0x01u8, 0x02][..]]).unwrap();
        assert_eq!(n.to_string(), "\\001\\002");
    }

    #[test]
    fn from_labels_validation() {
        assert!(Name::from_labels(&[&b""[..]]).is_err());
        assert!(Name::from_labels(&[&[b'a'; 64][..]]).is_err());
        let n = Name::from_labels(&[b"a", b"b"]).unwrap();
        assert_eq!(n.to_string(), "a.b");
    }

    #[test]
    fn partial_suffix_match_emits_labels_plus_pointer() {
        // "a.b.example.org" after "example.org": 1+1 + 1+1 + pointer.
        let mut msg = Vec::new();
        let mut table = CompressionMap::new();
        let base = Name::parse("example.org").unwrap();
        let sub = Name::parse("a.b.example.org").unwrap();
        base.encode_compressed(&mut msg, &mut table);
        let first = msg.len();
        sub.encode_compressed(&mut msg, &mut table);
        assert_eq!(msg.len() - first, 2 + 2 + 2);
        let mut pos = first;
        assert_eq!(Name::decode(&msg, &mut pos).unwrap(), sub);
        // The new suffixes are themselves registered: "b.example.org"
        // now compresses to a single pointer.
        let prev = msg.len();
        Name::parse("b.example.org")
            .unwrap()
            .encode_compressed(&mut msg, &mut table);
        assert_eq!(msg.len() - prev, 2);
        let mut pos = prev;
        assert_eq!(
            Name::decode(&msg, &mut pos).unwrap(),
            Name::parse("b.example.org").unwrap()
        );
    }

    #[test]
    fn compression_map_overflow_degrades_gracefully() {
        // More distinct suffixes than CAPACITY: later names cannot all
        // be registered, but every encoding must still decode exactly.
        let mut msg = Vec::new();
        let mut table = CompressionMap::new();
        let names: Vec<Name> = (0..CompressionMap::CAPACITY + 10)
            .map(|i| Name::parse(&format!("h{i}.d{i}.example.org")).unwrap())
            .collect();
        let mut offsets = Vec::new();
        for n in &names {
            offsets.push(msg.len());
            n.encode_compressed(&mut msg, &mut table);
        }
        for (n, &off) in names.iter().zip(&offsets) {
            let mut pos = off;
            assert_eq!(&Name::decode(&msg, &mut pos).unwrap(), n);
        }
    }

    #[test]
    fn equal_hash_different_labels_not_confused() {
        // find() verifies labels against message bytes, so even if two
        // suffixes collided in hash, the wrong offset is rejected. Use
        // names that share length but not content to exercise the
        // verification path.
        let mut msg = Vec::new();
        let mut table = CompressionMap::new();
        let a = Name::parse("aa.example.org").unwrap();
        let b = Name::parse("ab.example.org").unwrap();
        a.encode_compressed(&mut msg, &mut table);
        let first = msg.len();
        b.encode_compressed(&mut msg, &mut table);
        // "ab" must be emitted literally (3 bytes) + pointer (2).
        assert_eq!(msg.len() - first, 5);
        let mut pos = first;
        assert_eq!(Name::decode(&msg, &mut pos).unwrap(), b);
    }

    #[test]
    fn compression_map_clear_reuses_buffer() {
        let mut table = CompressionMap::new();
        let n = Name::parse("www.example.org").unwrap();
        let mut msg = Vec::new();
        n.encode_compressed(&mut msg, &mut table);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        table.clear();
        msg.clear();
        assert!(table.is_empty());
        // A cleared table must not point into the cleared buffer.
        n.encode_compressed(&mut msg, &mut table);
        assert_eq!(msg.len(), n.wire_len());
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos).unwrap(), n);
    }

    #[test]
    fn offsets_beyond_pointer_limit_not_registered() {
        let mut msg = vec![0u8; 0x4000]; // padding past the 14-bit limit
        let mut table = CompressionMap::new();
        let n = Name::parse("example.org").unwrap();
        n.encode_compressed(&mut msg, &mut table);
        assert!(table.is_empty());
        let before = msg.len();
        // Re-encoding cannot point at the unregistered copy.
        n.encode_compressed(&mut msg, &mut table);
        assert_eq!(msg.len() - before, n.wire_len());
    }
}
