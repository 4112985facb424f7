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

use crate::context::{decode_piv, ALG_AES_CCM_16_64_128, KEY_LEN, NONCE_LEN, TAG_LEN};
use crate::protect::OscoreOption;
use crate::OscoreError;
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_crypto::cbor::Value;
use doc_crypto::ccm::AesCcm;
use doc_crypto::hkdf;
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

fn kdf_info(id: &[u8], group_id: &[u8], type_: &str, len: usize) -> Vec<u8> {
    Value::Array(vec![
        Value::Bytes(id.to_vec()),
        Value::Bytes(group_id.to_vec()),
        Value::int(ALG_AES_CCM_16_64_128),
        Value::Text(type_.to_string()),
        Value::Uint(len as u64),
    ])
    .encode()
}

impl GroupContext {
    /// Join a group: derive this member's keys from the group master
    /// secret/salt (as provisioned by a Group Manager).
    pub fn join(group_secret: &[u8], group_salt: &[u8], group_id: &[u8], sender_id: &[u8]) -> Self {
        let mut sender_key = [0u8; KEY_LEN];
        sender_key.copy_from_slice(&hkdf::hkdf(
            group_salt,
            group_secret,
            &kdf_info(sender_id, group_id, "Key", KEY_LEN),
            KEY_LEN,
        ));
        let mut sender_auth_key = [0u8; 32];
        sender_auth_key.copy_from_slice(&hkdf::hkdf(
            group_salt,
            group_secret,
            &kdf_info(sender_id, group_id, "Auth", 32),
            32,
        ));
        let mut common_iv = [0u8; NONCE_LEN];
        common_iv.copy_from_slice(&hkdf::hkdf(
            group_salt,
            group_secret,
            &kdf_info(&[], group_id, "IV", NONCE_LEN),
            NONCE_LEN,
        ));
        GroupContext {
            sender_id: sender_id.to_vec(),
            group_id: group_id.to_vec(),
            group_secret: group_secret.to_vec(),
            group_salt: group_salt.to_vec(),
            sender_key,
            sender_auth_key,
            common_iv,
            sender_seq: 0,
            replay: HashMap::new(),
        }
    }

    /// Derive the (recipient) key material of any group member.
    fn peer_keys(&self, peer_id: &[u8]) -> ([u8; KEY_LEN], [u8; 32]) {
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&hkdf::hkdf(
            &self.group_salt,
            &self.group_secret,
            &kdf_info(peer_id, &self.group_id, "Key", KEY_LEN),
            KEY_LEN,
        ));
        let mut auth = [0u8; 32];
        auth.copy_from_slice(&hkdf::hkdf(
            &self.group_salt,
            &self.group_secret,
            &kdf_info(peer_id, &self.group_id, "Auth", 32),
            32,
        ));
        (key, auth)
    }

    fn nonce(&self, id: &[u8], piv: &[u8]) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[0] = id.len() as u8;
        let id_field_len = NONCE_LEN - 6;
        nonce[1 + id_field_len - id.len()..1 + id_field_len].copy_from_slice(id);
        nonce[NONCE_LEN - piv.len()..].copy_from_slice(piv);
        for (n, c) in nonce.iter_mut().zip(self.common_iv.iter()) {
            *n ^= c;
        }
        nonce
    }

    fn aad(&self, request_kid: &[u8], request_piv: &[u8]) -> Vec<u8> {
        let external_aad = Value::Array(vec![
            Value::Uint(1),
            Value::Array(vec![Value::int(ALG_AES_CCM_16_64_128)]),
            Value::Bytes(request_kid.to_vec()),
            Value::Bytes(request_piv.to_vec()),
            Value::Bytes(self.group_id.clone()), // gid enters the AAD
        ])
        .encode();
        Value::Array(vec![
            Value::Text("Encrypt0".to_string()),
            Value::Bytes(Vec::new()),
            Value::Bytes(external_aad),
        ])
        .encode()
    }

    fn encode_inner(msg: &CoapMessage) -> Vec<u8> {
        let shadow = CoapMessage {
            mtype: MsgType::Non,
            code: msg.code,
            message_id: 0,
            token: Vec::new(),
            options: msg
                .options
                .iter()
                .filter(|o| o.number != OptionNumber::OSCORE)
                .cloned()
                .collect(),
            payload: msg.payload.clone(),
        };
        let wire = shadow.encode();
        let mut out = vec![msg.code.0];
        out.extend_from_slice(&wire[4..]);
        out
    }

    fn decode_inner(plain: &[u8]) -> Result<CoapMessage, OscoreError> {
        if plain.is_empty() {
            return Err(OscoreError::Malformed);
        }
        let mut wire = vec![0x40, plain[0], 0, 0];
        wire.extend_from_slice(&plain[1..]);
        CoapMessage::decode(&wire).map_err(|_| OscoreError::Malformed)
    }

    fn auth_tag(auth_key: &[u8; 32], ciphertext: &[u8]) -> [u8; AUTH_TAG_LEN] {
        let mac = doc_crypto::hmac::hmac_sha256(auth_key, ciphertext);
        mac[..AUTH_TAG_LEN].try_into().expect("8 bytes")
    }

    /// Protect a (multicast) group request. The OSCORE option carries
    /// kid context = group id and kid = sender id, so any member can
    /// locate the group and the sender.
    pub fn protect_request(
        &mut self,
        msg: &CoapMessage,
    ) -> Result<(CoapMessage, GroupBinding), OscoreError> {
        if self.sender_seq >= 1 << 40 {
            return Err(OscoreError::PivExhausted);
        }
        let piv = crate::context::encode_piv(self.sender_seq);
        self.sender_seq += 1;
        let plaintext = Self::encode_inner(msg);
        let aad = self.aad(&self.sender_id, &piv);
        let nonce = self.nonce(&self.sender_id, &piv);
        let ccm = AesCcm::cose_ccm_16_64_128(&self.sender_key);
        let mut ciphertext = ccm
            .seal(&nonce, &aad, &plaintext)
            .map_err(|_| OscoreError::Crypto)?;
        // Countersignature stand-in.
        let tag = Self::auth_tag(&self.sender_auth_key, &ciphertext);
        ciphertext.extend_from_slice(&tag);

        // Option value with kid context (h flag): flags | piv |
        // ctxlen | ctx | kid.
        let mut value = Vec::new();
        value.push(0x18 | piv.len() as u8); // h=1, k=1, n=piv len
        value.extend_from_slice(&piv);
        value.push(self.group_id.len() as u8);
        value.extend_from_slice(&self.group_id);
        value.extend_from_slice(&self.sender_id);

        let mut outer = CoapMessage {
            mtype: msg.mtype,
            code: Code::POST,
            message_id: msg.message_id,
            token: msg.token.clone(),
            options: Vec::new(),
            payload: ciphertext,
        };
        outer.set_option(CoapOption::new(OptionNumber::OSCORE, value));
        Ok((
            outer,
            GroupBinding {
                kid: self.sender_id.clone(),
                piv,
            },
        ))
    }

    /// Unprotect a group request from any member; returns the inner
    /// message, the sender's ID and the binding for responding.
    pub fn unprotect_request(
        &mut self,
        outer: &CoapMessage,
    ) -> Result<(CoapMessage, Vec<u8>, GroupBinding), OscoreError> {
        let opt = outer
            .option(OptionNumber::OSCORE)
            .ok_or(OscoreError::NotOscore)?;
        let value = &opt.value;
        if value.is_empty() || value[0] & 0x18 != 0x18 {
            return Err(OscoreError::Malformed);
        }
        let n = (value[0] & 0x07) as usize;
        let piv = value.get(1..1 + n).ok_or(OscoreError::Malformed)?.to_vec();
        let ctx_len = *value.get(1 + n).ok_or(OscoreError::Malformed)? as usize;
        let gid = value
            .get(2 + n..2 + n + ctx_len)
            .ok_or(OscoreError::Malformed)?
            .to_vec();
        if gid != self.group_id {
            return Err(OscoreError::Crypto);
        }
        let kid = value[2 + n + ctx_len..].to_vec();
        if kid.is_empty() {
            return Err(OscoreError::Malformed);
        }
        let seq = decode_piv(&piv).ok_or(OscoreError::Malformed)?;

        // Split ciphertext || auth tag.
        if outer.payload.len() < AUTH_TAG_LEN + TAG_LEN {
            return Err(OscoreError::Malformed);
        }
        let split = outer.payload.len() - AUTH_TAG_LEN;
        let (ciphertext, auth) = outer.payload.split_at(split);
        let (peer_key, peer_auth) = self.peer_keys(&kid);
        let expect = Self::auth_tag(&peer_auth, ciphertext);
        if !doc_crypto::ct_eq(&expect, auth) {
            return Err(OscoreError::Crypto);
        }
        let aad = self.aad(&kid, &piv);
        let nonce = self.nonce(&kid, &piv);
        let ccm = AesCcm::cose_ccm_16_64_128(&peer_key);
        let plain = ccm
            .open(&nonce, &aad, ciphertext)
            .map_err(|_| OscoreError::Crypto)?;
        // Replay protection per peer.
        let window = self
            .replay
            .entry(kid.clone())
            .or_insert_with(|| ReplayWindow::new(64));
        if !window.check_and_update(seq) {
            return Err(OscoreError::Replay);
        }
        let mut inner = Self::decode_inner(&plain)?;
        inner.mtype = outer.mtype;
        inner.message_id = outer.message_id;
        inner.token = outer.token.clone();
        Ok((inner, kid.clone(), GroupBinding { kid, piv }))
    }

    /// Protect a unicast response to a group request. The responder
    /// uses its own PIV (group responses need unique nonces because
    /// *several* members answer the same request).
    pub fn protect_response(
        &mut self,
        msg: &CoapMessage,
        request: &GroupBinding,
        request_outer: &CoapMessage,
    ) -> Result<CoapMessage, OscoreError> {
        if self.sender_seq >= 1 << 40 {
            return Err(OscoreError::PivExhausted);
        }
        let piv = crate::context::encode_piv(self.sender_seq);
        self.sender_seq += 1;
        let plaintext = Self::encode_inner(msg);
        let aad = self.aad(&request.kid, &request.piv);
        let nonce = self.nonce(&self.sender_id, &piv);
        let ccm = AesCcm::cose_ccm_16_64_128(&self.sender_key);
        let mut ciphertext = ccm
            .seal(&nonce, &aad, &plaintext)
            .map_err(|_| OscoreError::Crypto)?;
        let tag = Self::auth_tag(&self.sender_auth_key, &ciphertext);
        ciphertext.extend_from_slice(&tag);

        // Response option: piv + kid (the responder's), no kid context.
        let opt = OscoreOption {
            piv,
            kid: Some(self.sender_id.clone()),
        };
        let mut outer = CoapMessage {
            mtype: msg.mtype,
            code: Code::CHANGED,
            message_id: request_outer.message_id,
            token: request_outer.token.clone(),
            options: Vec::new(),
            payload: ciphertext,
        };
        outer.set_option(CoapOption::new(OptionNumber::OSCORE, opt.encode()));
        Ok(outer)
    }

    /// Unprotect one member's response to our group request.
    pub fn unprotect_response(
        &mut self,
        outer: &CoapMessage,
        request: &GroupBinding,
    ) -> Result<(CoapMessage, Vec<u8>), OscoreError> {
        let opt_value = outer
            .option(OptionNumber::OSCORE)
            .ok_or(OscoreError::NotOscore)?;
        let opt = OscoreOption::decode(&opt_value.value)?;
        let kid = opt.kid.clone().ok_or(OscoreError::Malformed)?;
        if opt.piv.is_empty() {
            return Err(OscoreError::Malformed);
        }
        if outer.payload.len() < AUTH_TAG_LEN + TAG_LEN {
            return Err(OscoreError::Malformed);
        }
        let split = outer.payload.len() - AUTH_TAG_LEN;
        let (ciphertext, auth) = outer.payload.split_at(split);
        let (peer_key, peer_auth) = self.peer_keys(&kid);
        if !doc_crypto::ct_eq(&Self::auth_tag(&peer_auth, ciphertext), auth) {
            return Err(OscoreError::Crypto);
        }
        let aad = self.aad(&request.kid, &request.piv);
        let nonce = self.nonce(&kid, &opt.piv);
        let ccm = AesCcm::cose_ccm_16_64_128(&peer_key);
        let plain = ccm
            .open(&nonce, &aad, ciphertext)
            .map_err(|_| OscoreError::Crypto)?;
        let mut inner = Self::decode_inner(&plain)?;
        inner.mtype = outer.mtype;
        inner.message_id = outer.message_id;
        inner.token = outer.token.clone();
        Ok((inner, kid))
    }
}

/// Binding of a group request (kid + piv of the requester).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBinding {
    /// Requester's sender ID.
    pub kid: Vec<u8>,
    /// Requester's partial IV.
    pub piv: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn distinct_members_have_distinct_keys() {
        let a = member(b"A");
        let b = member(b"B");
        assert_ne!(a.sender_key, b.sender_key);
        assert_ne!(a.sender_auth_key, b.sender_auth_key);
        assert_eq!(a.common_iv, b.common_iv);
    }
}
