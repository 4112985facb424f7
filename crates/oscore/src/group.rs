//! Group OSCORE (draft-ietf-core-oscore-groupcomm) — the paper's §7/§8
//! future-work item: "DoC integration for mDNS protected by Group
//! OSCORE to enable service discovery".
//!
//! A group shares a Group Manager-provisioned security context; every
//! member derives per-sender keys from the group master secret and the
//! sender's ID, so any member can decrypt any other member's messages.
//! One multicast request (e.g. an mDNS PTR browse) yields protected
//! unicast responses from several members, each bound to the request.
//!
//! Group protection runs on the pairwise OSCORE core: the same HKDF
//! `info` (with the group id as ID context), nonce, Enc_structure AAD
//! (with the group id as the fifth external-AAD element), inner codec,
//! outer messages, [`OscoreOption`] codec (the group id travels as the
//! kid context) and partial-IV step. What stays here is only what is
//! group-specific: per-sender key derivation from the group secret, the
//! authenticity tag below, and one replay window per peer.
//!
//! **Substitution note (see DESIGN.md):** real Group OSCORE
//! additionally countersigns every message with the sender's asymmetric
//! key pair so that group members cannot impersonate each other. This
//! workspace has no asymmetric-crypto substrate; the group mode
//! documented here provides group confidentiality and request binding
//! (the properties the paper's discussion evaluates for DNS-SD) and
//! carries an HMAC-based authenticity tag keyed with a per-sender
//! authentication key in place of the countersignature. The packet
//! *shape* (ciphertext + fixed-size authenticity tag) matches; the
//! source-authenticity guarantee is group-internal rather than
//! cryptographically non-repudiable.

use crate::context::{
    decode_piv, derive_param, next_piv, nonce, KEY_LEN, MAX_ID_LEN, NONCE_LEN, TAG_LEN,
};
use crate::protect::{
    build_aad, encode_inner, open_inner, outer_request, outer_response, OscoreOption,
    RequestBinding, MAX_KID_CONTEXT_LEN,
};
use crate::OscoreError;
use doc_coap::msg::CoapMessage;
use doc_coap::opt::OptionNumber;
use doc_crypto::ccm::AesCcm;
use doc_crypto::replay::ReplayWindow;
use std::collections::HashMap;

/// Length of the per-message authenticity tag standing in for the
/// Group OSCORE countersignature.
pub const AUTH_TAG_LEN: usize = 8;

/// One member's view of the group security context.
pub struct GroupContext {
    /// This member's sender ID.
    pub sender_id: Vec<u8>,
    /// Group identifier (the OSCORE `kid context`).
    pub group_id: Vec<u8>,
    group_secret: Vec<u8>,
    group_salt: Vec<u8>,
    /// Our derived sender key.
    sender_key: [u8; KEY_LEN],
    /// Our derived authenticity key (countersignature stand-in).
    sender_auth_key: [u8; 32],
    /// Common IV shared by the group.
    common_iv: [u8; NONCE_LEN],
    /// Next partial IV.
    sender_seq: u64,
    /// Replay windows per known peer.
    replay: HashMap<Vec<u8>, ReplayWindow>,
}

/// The AEAD key and authenticity key of group member `id`.
fn member_keys(secret: &[u8], salt: &[u8], gid: &[u8], id: &[u8]) -> ([u8; KEY_LEN], [u8; 32]) {
    (
        derive_param(secret, salt, id, Some(gid), "Key"),
        derive_param(secret, salt, id, Some(gid), "Auth"),
    )
}

/// The authenticity tag over `ciphertext` (countersignature stand-in).
fn auth_tag(auth_key: &[u8; 32], ciphertext: &[u8]) -> [u8; AUTH_TAG_LEN] {
    let mac = doc_crypto::hmac::hmac_sha256(auth_key, ciphertext);
    mac[..AUTH_TAG_LEN].try_into().expect("8 bytes")
}

impl GroupContext {
    /// Join a group: derive this member's keys from the group master
    /// secret/salt (as provisioned by a Group Manager).
    ///
    /// # Panics
    ///
    /// If `group_id` is longer than `MAX_KID_CONTEXT_LEN` (32) bytes, or
    /// `sender_id` longer than [`MAX_ID_LEN`] (7), the most the nonce
    /// holds (RFC 8613 §3.3).
    pub fn join(group_secret: &[u8], group_salt: &[u8], group_id: &[u8], sender_id: &[u8]) -> Self {
        assert!(
            group_id.len() <= MAX_KID_CONTEXT_LEN,
            "group id longer than 32 bytes"
        );
        assert!(
            sender_id.len() <= MAX_ID_LEN,
            "sender id longer than 7 bytes"
        );
        let (sender_key, sender_auth_key) =
            member_keys(group_secret, group_salt, group_id, sender_id);
        GroupContext {
            sender_id: sender_id.to_vec(),
            group_id: group_id.to_vec(),
            group_secret: group_secret.to_vec(),
            group_salt: group_salt.to_vec(),
            sender_key,
            sender_auth_key,
            common_iv: derive_param(group_secret, group_salt, &[], Some(group_id), "IV"),
            sender_seq: 0,
            replay: HashMap::new(),
        }
    }

    /// Seal `msg`'s inner form under our sender key with partial IV
    /// `piv`, bound to `request`, and append the authenticity tag.
    fn seal(
        &self,
        msg: &CoapMessage,
        piv: &[u8],
        request: &RequestBinding,
    ) -> Result<Vec<u8>, OscoreError> {
        let mut sealed = encode_inner(msg);
        let aad = build_aad(&request.kid, &request.piv, &self.group_id);
        let nonce = nonce(&self.common_iv, &self.sender_id, piv);
        AesCcm::cose_ccm_16_64_128(&self.sender_key)
            .seal_suffix_in_place(&nonce, aad.as_slice(), &mut sealed, 0)
            .map_err(|_| OscoreError::Crypto)?;
        let tag = auth_tag(&self.sender_auth_key, &sealed);
        sealed.extend_from_slice(&tag);
        Ok(sealed)
    }

    /// Check member `kid`'s authenticity tag on `outer`'s payload and
    /// open it (partial IV `piv`, bound to `request`).
    fn open(
        &self,
        outer: &CoapMessage,
        kid: &[u8],
        piv: &[u8],
        request: &RequestBinding,
    ) -> Result<CoapMessage, OscoreError> {
        if outer.payload.len() < AUTH_TAG_LEN + TAG_LEN {
            return Err(OscoreError::Malformed);
        }
        let (ciphertext, auth) = outer.payload.split_at(outer.payload.len() - AUTH_TAG_LEN);
        let (key, auth_key) =
            member_keys(&self.group_secret, &self.group_salt, &self.group_id, kid);
        if !doc_crypto::ct_eq(&auth_tag(&auth_key, ciphertext), auth) {
            return Err(OscoreError::Crypto);
        }
        let aad = build_aad(&request.kid, &request.piv, &self.group_id);
        let nonce = nonce(&self.common_iv, kid, piv);
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        open_inner(&ccm, &nonce, aad.as_slice(), outer, ciphertext)
    }

    /// Protect a (multicast) group request. The OSCORE option carries
    /// kid context = group id and kid = sender id, so any member can
    /// locate the group and the sender; the Class-U options stay on
    /// the outer message.
    pub fn protect_request(
        &mut self,
        msg: &CoapMessage,
    ) -> Result<(CoapMessage, RequestBinding), OscoreError> {
        let piv = next_piv(&mut self.sender_seq)?;
        let binding = RequestBinding {
            kid: self.sender_id.clone(),
            piv,
        };
        let ciphertext = self.seal(msg, &binding.piv, &binding)?;
        let opt = OscoreOption {
            piv: binding.piv.clone(),
            kid: Some(binding.kid.clone()),
            kid_context: Some(self.group_id.clone()),
        };
        Ok((outer_request(msg, &opt, ciphertext), binding))
    }

    /// Unprotect a group request from any member; returns the inner
    /// message, the sender's ID and the binding for responding.
    pub fn unprotect_request(
        &mut self,
        outer: &CoapMessage,
    ) -> Result<(CoapMessage, Vec<u8>, RequestBinding), OscoreError> {
        let opt_value = outer
            .option(OptionNumber::OSCORE)
            .ok_or(OscoreError::NotOscore)?;
        let opt = OscoreOption::decode(&opt_value.value)?;
        let (Some(gid), Some(kid)) = (opt.kid_context, opt.kid) else {
            return Err(OscoreError::Malformed);
        };
        if gid != self.group_id {
            return Err(OscoreError::Crypto);
        }
        if kid.is_empty() {
            return Err(OscoreError::Malformed);
        }
        let seq = decode_piv(&opt.piv).ok_or(OscoreError::Malformed)?;
        let binding = RequestBinding { kid, piv: opt.piv };
        let inner = self.open(outer, &binding.kid, &binding.piv, &binding)?;
        self.check_replay(&binding.kid, seq)?;
        Ok((inner, binding.kid.clone(), binding))
    }

    /// Accept partial IV `seq` from member `kid` once. Requests and
    /// responses share one window per member, because a member draws
    /// the partial IVs of both from one sequence.
    fn check_replay(&mut self, kid: &[u8], seq: u64) -> Result<(), OscoreError> {
        let window = self
            .replay
            .entry(kid.to_vec())
            .or_insert_with(|| ReplayWindow::new(64));
        if window.check_and_update(seq) {
            Ok(())
        } else {
            Err(OscoreError::Replay)
        }
    }

    /// Protect a unicast response to a group request. The responder
    /// uses its own PIV (group responses need unique nonces because
    /// *several* members answer the same request).
    pub fn protect_response(
        &mut self,
        msg: &CoapMessage,
        request: &RequestBinding,
        request_outer: &CoapMessage,
    ) -> Result<CoapMessage, OscoreError> {
        let piv = next_piv(&mut self.sender_seq)?;
        let ciphertext = self.seal(msg, &piv, request)?;
        // Response option: piv + kid (the responder's), no kid context.
        let opt = OscoreOption {
            piv,
            kid: Some(self.sender_id.clone()),
            kid_context: None,
        };
        Ok(outer_response(msg, request_outer, &opt, ciphertext))
    }

    /// Unprotect one member's response to our group request.
    pub fn unprotect_response(
        &mut self,
        outer: &CoapMessage,
        request: &RequestBinding,
    ) -> Result<(CoapMessage, Vec<u8>), OscoreError> {
        let opt_value = outer
            .option(OptionNumber::OSCORE)
            .ok_or(OscoreError::NotOscore)?;
        let opt = OscoreOption::decode(&opt_value.value)?;
        let kid = opt.kid.ok_or(OscoreError::Malformed)?;
        let seq = decode_piv(&opt.piv).ok_or(OscoreError::Malformed)?;
        let inner = self.open(outer, &kid, &opt.piv, request)?;
        self.check_replay(&kid, seq)?;
        Ok((inner, kid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doc_coap::msg::{Code, MsgType};
    use doc_coap::opt::CoapOption;

    const SECRET: &[u8] = b"group-master-secret!";
    const SALT: &[u8] = b"gsalt";
    const GID: &[u8] = b"dns-sd";

    fn member(id: &[u8]) -> GroupContext {
        GroupContext::join(SECRET, SALT, GID, id)
    }

    fn browse_request() -> CoapMessage {
        CoapMessage::request(Code::FETCH, MsgType::Non, 7, vec![0x31])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(b"ptr query for _coap._udp.local".to_vec())
    }

    /// One multicast request, several members answer — the paper's
    /// DNS-SD over Group OSCORE scenario.
    #[test]
    fn multicast_browse_roundtrip() {
        let mut querier = member(b"Q");
        let mut cam = member(b"A");
        let mut sensor = member(b"B");

        let (outer, binding) = querier.protect_request(&browse_request()).unwrap();
        // Both responders decrypt the same multicast request.
        let (inner_a, from_a, bind_a) = cam.unprotect_request(&outer).unwrap();
        let (inner_b, from_b, bind_b) = sensor.unprotect_request(&outer).unwrap();
        assert_eq!(inner_a.code, Code::FETCH);
        assert_eq!(inner_a.payload, inner_b.payload);
        assert_eq!(from_a, b"Q");
        assert_eq!(from_b, b"Q");

        // Each answers with its own instance.
        let resp_a = CoapMessage::ack_response(&inner_a, Code::CONTENT)
            .with_payload(b"kitchen-cam._coap._udp.local".to_vec());
        let resp_b = CoapMessage::ack_response(&inner_b, Code::CONTENT)
            .with_payload(b"hall-sensor._coap._udp.local".to_vec());
        let outer_a = cam.protect_response(&resp_a, &bind_a, &outer).unwrap();
        let outer_b = sensor.protect_response(&resp_b, &bind_b, &outer).unwrap();

        // The querier decrypts both, attributing each to its sender.
        let (in_a, kid_a) = querier.unprotect_response(&outer_a, &binding).unwrap();
        let (in_b, kid_b) = querier.unprotect_response(&outer_b, &binding).unwrap();
        assert_eq!(kid_a, b"A");
        assert_eq!(kid_b, b"B");
        assert_eq!(in_a.payload, b"kitchen-cam._coap._udp.local");
        assert_eq!(in_b.payload, b"hall-sensor._coap._udp.local");
    }

    /// A 7-byte sender id, the most the nonce holds, joins and
    /// round-trips; an 8-byte one is refused at join.
    #[test]
    fn sender_id_is_bounded_at_join() {
        let mut querier = member(b"querier");
        let mut responder = member(b"respond");
        let (outer, _) = querier.protect_request(&browse_request()).unwrap();
        let (inner, from, _) = responder.unprotect_request(&outer).unwrap();
        assert_eq!(
            (inner.payload, from),
            (browse_request().payload, b"querier".to_vec())
        );
        assert!(std::panic::catch_unwind(|| member(b"querier8")).is_err());
    }

    #[test]
    fn non_member_cannot_decrypt() {
        let mut querier = member(b"Q");
        let mut outsider = GroupContext::join(b"other-secret-entirely", SALT, GID, b"X");
        let (outer, _) = querier.protect_request(&browse_request()).unwrap();
        assert!(matches!(
            outsider.unprotect_request(&outer),
            Err(OscoreError::Crypto)
        ));
    }

    #[test]
    fn wrong_group_id_rejected() {
        let mut querier = member(b"Q");
        let mut other_group = GroupContext::join(SECRET, SALT, b"other", b"A");
        let (outer, _) = querier.protect_request(&browse_request()).unwrap();
        assert!(matches!(
            other_group.unprotect_request(&outer),
            Err(OscoreError::Crypto)
        ));
    }

    #[test]
    fn replay_rejected_per_sender() {
        let mut querier = member(b"Q");
        let mut responder = member(b"A");
        let (outer, _) = querier.protect_request(&browse_request()).unwrap();
        assert!(responder.unprotect_request(&outer).is_ok());
        assert!(matches!(
            responder.unprotect_request(&outer),
            Err(OscoreError::Replay)
        ));
    }

    /// A member's protected response is accepted once; the same
    /// response again is a replay, like a repeated request.
    #[test]
    fn response_replay_rejected() {
        let mut querier = member(b"Q");
        let mut responder = member(b"A");
        let (outer, binding) = querier.protect_request(&browse_request()).unwrap();
        let (inner, _, bind) = responder.unprotect_request(&outer).unwrap();
        let resp = CoapMessage::ack_response(&inner, Code::CONTENT).with_payload(b"x".to_vec());
        let protected = responder.protect_response(&resp, &bind, &outer).unwrap();
        let (opened, kid) = querier.unprotect_response(&protected, &binding).unwrap();
        assert_eq!((opened.payload, kid), (b"x".to_vec(), b"A".to_vec()));
        assert!(matches!(
            querier.unprotect_response(&protected, &binding),
            Err(OscoreError::Replay)
        ));
    }

    #[test]
    fn tampered_ciphertext_rejected_by_auth_tag() {
        let mut querier = member(b"Q");
        let mut responder = member(b"A");
        let (mut outer, _) = querier.protect_request(&browse_request()).unwrap();
        outer.payload[2] ^= 0x01;
        assert!(matches!(
            responder.unprotect_request(&outer),
            Err(OscoreError::Crypto)
        ));
    }

    #[test]
    fn responses_bound_to_request() {
        let mut querier = member(b"Q");
        let mut responder = member(b"A");
        let (outer1, binding1) = querier.protect_request(&browse_request()).unwrap();
        let (outer2, binding2) = querier.protect_request(&browse_request()).unwrap();
        let (inner, _, bind) = responder.unprotect_request(&outer1).unwrap();
        let resp = CoapMessage::ack_response(&inner, Code::CONTENT).with_payload(b"x".to_vec());
        let protected = responder.protect_response(&resp, &bind, &outer1).unwrap();
        assert!(querier.unprotect_response(&protected, &binding1).is_ok());
        // Rebinding to another request fails (mismatch protection).
        let protected = responder
            .unprotect_request(&outer2)
            .ok()
            .map(|(inner2, _, bind2)| {
                let r2 =
                    CoapMessage::ack_response(&inner2, Code::CONTENT).with_payload(b"x".to_vec());
                responder.protect_response(&r2, &bind2, &outer2).unwrap()
            })
            .unwrap();
        assert!(matches!(
            querier.unprotect_response(&protected, &binding1),
            Err(OscoreError::Crypto)
        ));
        let _ = binding2;
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact wire of one multicast request and one member's
    /// response for fixed inputs, so a change to the shared OSCORE
    /// core cannot silently move the group wire.
    #[test]
    fn group_wire_is_pinned() {
        let mut querier = member(b"Q");
        let mut cam = member(b"A");
        let (outer, _) = querier.protect_request(&browse_request()).unwrap();
        assert_eq!(hex(&outer.encode()), "51020007319a190006646e732d736451ff8b02a4ded31c904cddd119b6a20d3768c00db8e6aa0c052fd8860c58d047c45f948950599f15a20bb61397d8daf6a4493a2466ed");
        let (inner, _, bind) = cam.unprotect_request(&outer).unwrap();
        let resp = CoapMessage::ack_response(&inner, Code::CONTENT)
            .with_payload(b"kitchen-cam._coap._udp.local".to_vec());
        let outer_resp = cam.protect_response(&resp, &bind, &outer).unwrap();
        assert_eq!(hex(&outer_resp.encode()), "614400073193090041ff076d384d18222f1daf0e9f907b07642210b6897fd1b2a414f632c57e0650598667fa4281e5a2232d649a81c2de09");
    }

    /// A group request's Uri-Host is a Class-U option: it stays on the
    /// outer message, as pairwise OSCORE keeps it, and out of the
    /// ciphertext.
    #[test]
    fn group_request_keeps_uri_host_outside() {
        let mut querier = member(b"Q");
        let mut twin = member(b"Q");
        let mut responder = member(b"A");
        let with_host =
            browse_request().with_option(CoapOption::new(OptionNumber::URI_HOST, b"mdns".to_vec()));
        let (outer, _) = querier.protect_request(&with_host).unwrap();
        let (plain, _) = twin.protect_request(&browse_request()).unwrap();
        assert_eq!(
            outer
                .option(OptionNumber::URI_HOST)
                .map(|o| o.value.as_slice()),
            Some(&b"mdns"[..])
        );
        assert_eq!(outer.payload.len(), plain.payload.len());
        let (inner, _, _) = responder.unprotect_request(&outer).unwrap();
        assert!(inner.option(OptionNumber::URI_HOST).is_none());
        assert_eq!(inner.payload, with_host.payload);
    }

    #[test]
    fn distinct_members_have_distinct_keys() {
        let a = member(b"A");
        let b = member(b"B");
        assert_ne!(a.sender_key, b.sender_key);
        assert_ne!(a.sender_auth_key, b.sender_auth_key);
        assert_eq!(a.common_iv, b.common_iv);
    }
}
