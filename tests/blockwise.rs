//! Block-wise transfer integration (paper Appendix A/D, Fig. 12/14/15):
//! Block1 query slicing and Block2 response retrieval through the real
//! DoC server, plus the simulated Fig. 15 behaviour.

use doc_repro::coap::block::{Block1Sender, BlockAssembler, BlockOpt};
use doc_repro::coap::msg::{CoapMessage, Code, MsgType};
use doc_repro::coap::opt::OptionNumber;
use doc_repro::dns::{Message, Name, RecordType};
use doc_repro::doc::experiment::{run, ExperimentConfig};
use doc_repro::doc::method::{build_request, DocMethod};
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::server::{DocServer, MockUpstream};

fn server_with(n_answers: u16, block: usize) -> (DocServer, Name) {
    let name = Name::parse("name-00000.c.example.org").unwrap();
    let up = MockUpstream::new(1, 60, 60);
    up.add_aaaa(name.clone(), n_answers);
    (
        DocServer::new(CachePolicy::EolTtls, up).with_block_size(block),
        name,
    )
}

fn query_bytes(name: &Name) -> Vec<u8> {
    let mut q = Message::query(0, name.clone(), RecordType::Aaaa);
    q.canonicalize_id();
    q.encode()
}

/// Block1-sliced query followed by Block2-sliced response, end to end
/// against the real server.
#[test]
fn block1_query_then_block2_response() {
    let (server, name) = server_with(4, 32);
    let dns_query = query_bytes(&name);
    assert!(dns_query.len() > 32, "query needs slicing at 32 B blocks");

    // Client side: slice the query with Block1 (token reused across the
    // transaction, like the experiment driver does).
    let token = vec![0x42, 0x01];
    let mut sender = Block1Sender::new(dns_query.clone(), 32).unwrap();
    let mut mid = 1u16;
    let mut final_resp: Option<CoapMessage> = None;
    while let Some((slice, block)) = sender.next_block() {
        let mut req =
            build_request(DocMethod::Fetch, &[], MsgType::Con, mid, token.clone()).unwrap();
        doc_repro::coap::block::apply_block1(&mut req, slice, block);
        let resp = server.handle_request(&req, 0);
        mid += 1;
        if block.more {
            assert_eq!(resp.code, Code::CONTINUE, "intermediate blocks get 2.31");
            let echoed = BlockOpt::from_message(&resp, OptionNumber::BLOCK1)
                .unwrap()
                .unwrap();
            assert_eq!(echoed, block);
        } else {
            assert_eq!(resp.code, Code::CONTENT);
            final_resp = Some(resp);
        }
    }
    // Server sliced the (large, 4-answer) response with Block2.
    let first = final_resp.expect("final response");
    let b0 = BlockOpt::from_message(&first, OptionNumber::BLOCK2)
        .expect("Block2 present")
        .unwrap();
    assert_eq!(b0.num, 0);
    assert!(b0.more);
    assert_eq!(first.payload.len(), 32);

    // Retrieve the remaining blocks.
    let mut assembler = BlockAssembler::new();
    let mut body = assembler.push(b0, &first.payload).unwrap();
    let mut num = 1u32;
    while body.is_none() {
        let mut follow = CoapMessage::request(Code::FETCH, MsgType::Con, mid, token.clone());
        follow.options.push(doc_repro::coap::opt::CoapOption::new(
            OptionNumber::URI_PATH,
            b"dns".to_vec(),
        ));
        follow.set_option(
            BlockOpt::new(num, false, 32)
                .unwrap()
                .to_option(OptionNumber::BLOCK2),
        );
        let resp = server.handle_request(&follow, 0);
        assert_eq!(resp.code, Code::CONTENT);
        let b = BlockOpt::from_message(&resp, OptionNumber::BLOCK2)
            .unwrap()
            .unwrap();
        body = assembler.push(b, &resp.payload).unwrap();
        num += 1;
        mid += 1;
    }
    let msg = Message::decode(&body.unwrap()).unwrap();
    assert_eq!(msg.answers.len(), 4);
}

/// Two clients' concurrent block transfers must not interfere (the
/// server keys state per (peer, token)).
#[test]
fn concurrent_transfers_do_not_collide() {
    let (server, name) = server_with(4, 32);
    let dns_query = query_bytes(&name);
    let tok_a = vec![0xA0];
    let tok_b = vec![0xB0];
    let mut sender_a = Block1Sender::new(dns_query.clone(), 32).unwrap();
    let mut sender_b = Block1Sender::new(dns_query, 32).unwrap();
    // Interleave: a0, b0, a1, b1, a2, b2 — with peers 1 and 2.
    let mut mid = 1;
    loop {
        let next_a = sender_a.next_block();
        let next_b = sender_b.next_block();
        if next_a.is_none() && next_b.is_none() {
            break;
        }
        for (peer, tok, next) in [(1u64, &tok_a, next_a), (2u64, &tok_b, next_b)] {
            if let Some((slice, block)) = next {
                let mut req =
                    build_request(DocMethod::Fetch, &[], MsgType::Con, mid, tok.clone()).unwrap();
                doc_repro::coap::block::apply_block1(&mut req, slice, block);
                let resp = server.handle_request_from(peer, &req, 0);
                mid += 1;
                if block.more {
                    assert_eq!(resp.code, Code::CONTINUE);
                } else {
                    assert_eq!(resp.code, Code::CONTENT, "peer {peer} completes");
                }
            }
        }
    }
    assert_eq!(server.stats().errors, 0);
}

/// Fig. 15 behaviour in the full simulator: smaller blocks succeed less
/// often / take longer under loss, and 32-byte blocks avoid any
/// 6LoWPAN fragmentation.
#[test]
fn fig15_blockwise_in_simulation() {
    let base = ExperimentConfig {
        num_queries: 15,
        num_names: 15,
        loss_permille: 60,
        seed: 0xB10C,
        ..Default::default()
    };
    let plain = run(&base);
    let b32 = run(&ExperimentConfig {
        block_size: Some(32),
        ..base.clone()
    });
    let b16 = run(&ExperimentConfig {
        block_size: Some(16),
        ..base.clone()
    });
    assert!(plain.success_rate() > 0.9);
    assert!(b32.success_rate() > 0.8, "b32 {}", b32.success_rate());
    assert!(b16.success_rate() > 0.6, "b16 {}", b16.success_rate());
    // More exchanges → more frames on the first hop.
    assert!(b16.client_proxy.frames > plain.client_proxy.frames);
    assert!(b16.client_proxy.frames >= b32.client_proxy.frames);
    // Median latency grows as blocks shrink.
    let median = |r: &doc_repro::doc::experiment::ExperimentResult| {
        let l = r.sorted_latencies();
        l[l.len() / 2]
    };
    assert!(median(&b16) >= median(&b32));
    assert!(median(&b32) >= median(&plain));
}
