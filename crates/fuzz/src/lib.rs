//! `doc-fuzz` — a deterministic differential fuzzing harness.
//!
//! The proxy hot path runs on three parallel parser stacks: owned
//! decoders ([`doc_dns::Message`], [`doc_coap::CoapMessage`],
//! [`doc_dtls::record::Record`]), borrowed zero-copy views
//! ([`doc_dns::MessageView`], [`doc_coap::CoapView`],
//! [`doc_dtls::record::RecordView`]) and the QUIC-lite stream codecs.
//! Their equivalence was previously spot-checked by per-crate
//! proptests; this crate makes it a continuously-enforced invariant by
//! feeding one mutated corpus through *every* implementation of each
//! format and cross-checking:
//!
//! * **accept/reject equivalence** — both parsers admit exactly the
//!   same byte strings;
//! * **semantic equality** — accepted parses agree after `to_owned()`;
//! * **re-encode stability** — re-encoding an accepted parse decodes
//!   back to the same value (byte-exact where the framing is
//!   canonical, e.g. DoQ).
//!
//! Everything is deterministic and seedable: the same campaign seed
//! replays the same mutation stream, so any reported divergence can be
//! reproduced from the one-line replay command in its report. Minimal
//! counterexamples come from the vendored proptest stand-in's
//! shrinker ([`proptest::minimize`]).
//!
//! The [`target::DifferentialTarget`] trait is the extension point;
//! [`targets::all`] enumerates the built-in families (dns, coap, dtls,
//! quic, json, sixlowpan, crypto and origin, the last holding the mock
//! upstream's answer wire and ETag memo to its owned resolution path).
//! The `fuzz_gate` binary runs a
//! bounded campaign over all of them and is wired into `./ci.sh fuzz`.

pub mod corpus;
pub mod engine;
pub mod hex;
pub mod mutate;
pub mod target;
pub mod targets;

pub use engine::{run_campaign, Campaign, CampaignStats, Divergence, DEFAULT_SEED};
pub use target::{DifferentialTarget, Outcome};
