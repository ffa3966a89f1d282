//! Property tests for the wire protocol: arbitrary messages round-trip
//! bit-exactly, frame ids survive a wire trip, and corrupted frames
//! (truncations, lying counts, oversized prefixes) are rejected with a
//! [`ProtoError`](dls_serve::ProtoError), never a panic or an
//! attacker-sized allocation.

use dls_serve::proto::{
    decode_request_framed, decode_response_framed, encode_request_framed, encode_response_framed,
    read_frame, write_frame, Request, RequestClass, Response, MAX_FRAME_LEN, PROTO_VERSION,
};
use dls_sparse::SparseVec;
use proptest::prelude::*;

/// Strategy: an arbitrary valid sparse vector (dim ≤ 32, values exact in
/// f64 so equality is bit-exact).
fn arb_sparse() -> impl Strategy<Value = SparseVec> {
    (1usize..32)
        .prop_flat_map(|dim| (Just(dim), proptest::collection::vec(-8i32..=8, dim)))
        .prop_map(|(dim, dense)| {
            let (mut indices, mut values) = (Vec::new(), Vec::new());
            for (i, v) in dense.into_iter().enumerate().take(dim) {
                if v != 0 {
                    indices.push(i);
                    values.push(f64::from(v) * 0.5);
                }
            }
            SparseVec::new(dim, indices, values)
        })
}

fn arb_name() -> impl Strategy<Value = String> {
    // Includes the empty string and multi-byte UTF-8.
    prop_oneof![
        Just(String::new()),
        (0u32..1000).prop_map(|i| format!("model-{i}")),
        Just("μοντέλο/日本語".to_string()),
    ]
}

fn arb_class() -> impl Strategy<Value = RequestClass> {
    prop_oneof![Just(RequestClass::Interactive), Just(RequestClass::Batch)]
}

fn arb_predict() -> impl Strategy<Value = Request> {
    (
        arb_name(),
        0u32..100_000,
        arb_class(),
        0u32..10_000_000,
        proptest::collection::vec(arb_sparse(), 0..6),
    )
        .prop_map(|(model, deadline_ms, class, slo_us, vectors)| Request::Predict {
            model,
            deadline_ms,
            class,
            slo_us,
            vectors,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let schedule = (
        arb_name(),
        1u64..64,
        1u64..64,
        proptest::collection::vec((0u64..64, 0u64..64, -4i32..=4), 0..40),
    )
        .prop_map(|(strategy, rows, cols, raw)| Request::Schedule {
            strategy,
            rows,
            cols,
            entries: raw.into_iter().map(|(r, c, v)| (r % rows, c % cols, f64::from(v))).collect(),
        });
    prop_oneof![arb_predict(), schedule, Just(Request::Stats), Just(Request::Shutdown)]
}

fn arb_response() -> impl Strategy<Value = Response> {
    let predictions = proptest::collection::vec(-1000i64..1000, 0..40)
        .prop_map(|vs| Response::Predictions(vs.into_iter().map(|v| v as f64 / 8.0).collect()));
    let scheduled =
        (arb_name(), arb_name(), proptest::collection::vec((arb_name(), -100i32..100), 0..9))
            .prop_map(|(format, reason, raw)| Response::Scheduled {
                format,
                reason,
                scores: raw.into_iter().map(|(n, s)| (n, f64::from(s) * 0.25)).collect(),
            });
    prop_oneof![
        predictions,
        scheduled,
        arb_name().prop_map(Response::Stats),
        Just(Response::Busy),
        Just(Response::TimedOut),
        Just(Response::ShuttingDown),
        arb_name().prop_map(Response::Error),
    ]
}

fn encode(req: &Request) -> Vec<u8> {
    encode_request_framed(req, PROTO_VERSION, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every request — class and SLO
    /// included — and the decoder reports the one live version.
    #[test]
    fn requests_round_trip(req in arb_request()) {
        prop_assert_eq!(decode_request_framed(&encode(&req)).unwrap(), (PROTO_VERSION, 0, req));
    }

    /// Frame ids survive a wire trip bit-exactly on requests and
    /// responses alike.
    #[test]
    fn frame_ids_round_trip(req in arb_request(), resp in arb_response(), id in 0u64..u64::MAX) {
        let (_, got, _) = decode_request_framed(&encode_request_framed(&req, PROTO_VERSION, id)).unwrap();
        prop_assert_eq!(got, id);
        let (_, got, _) = decode_response_framed(&encode_response_framed(&resp, PROTO_VERSION, id)).unwrap();
        prop_assert_eq!(got, id);
    }

    /// encode → decode is the identity for every response.
    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let payload = encode_response_framed(&resp, PROTO_VERSION, 0);
        prop_assert_eq!(decode_response_framed(&payload).unwrap(), (PROTO_VERSION, 0, resp));
    }

    /// Every strict prefix of a valid request payload is rejected cleanly
    /// (no panic, no accept).
    #[test]
    fn truncated_requests_are_rejected(req in arb_request()) {
        let payload = encode(&req);
        for cut in 0..payload.len() {
            prop_assert!(decode_request_framed(&payload[..cut]).is_err(), "prefix {} accepted", cut);
        }
    }

    /// Framed transport round-trips and clean EOF is distinguishable.
    #[test]
    fn frames_round_trip(req in arb_request()) {
        let payload = encode(&req);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        prop_assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&payload[..]));
        prop_assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&payload[..]));
        prop_assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// Flipping the version or tag byte never round-trips as valid. (The
    /// tag sits *after* the 8-byte frame id, whose bytes are all payload
    /// — corrupting those changes the id, not validity.)
    #[test]
    fn corrupt_header_bytes_are_rejected(req in arb_request(), pick_tag in 0usize..2, val in 64u8..255) {
        let mut payload = encode(&req);
        let byte = if pick_tag == 1 { 9 } else { 0 };
        if payload[byte] != val {
            payload[byte] = val;
            prop_assert!(decode_request_framed(&payload).is_err());
        }
    }
}

#[test]
fn oversized_length_prefix_is_refused_before_reading() {
    let prefix = ((MAX_FRAME_LEN as u32) + 1).to_le_bytes();
    let err = read_frame(&mut &prefix[..]).unwrap_err();
    // The refusal is typed and downcastable, not a stringly io error.
    assert_eq!(
        dls_serve::proto_error_of(&err),
        Some(&dls_serve::ProtoError::FrameTooLarge(MAX_FRAME_LEN + 1))
    );
}

#[test]
fn non_finite_feature_values_are_refused() {
    // DEN and DIA multiply stored zeros by every scattered slot, so an
    // infinity in a column no support vector touches would answer NaN on
    // those layouts and a finite value on the others.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let payload = encode(&Request::Predict {
            model: "m".into(),
            deadline_ms: 0,
            class: RequestClass::Interactive,
            slo_us: 0,
            vectors: vec![SparseVec::new(4, vec![1, 3], vec![0.5, bad])],
        });
        assert!(
            matches!(decode_request_framed(&payload), Err(dls_serve::ProtoError::Malformed(_))),
            "{bad} accepted"
        );
    }
}

#[test]
fn lying_interior_count_cannot_oversize_an_allocation() {
    // A Predict payload whose vector count claims far more elements than
    // the frame carries must fail before allocating for them.
    let mut payload = encode(&Request::Predict {
        model: "m".into(),
        deadline_ms: 0,
        class: RequestClass::Interactive,
        slo_us: 0,
        vectors: vec![],
    });
    let count_at = payload.len() - 4;
    payload[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_request_framed(&payload).is_err(), "accepted a lying count");
}
