//! Pipelining on one connection: [`PipelinedClient`] matches responses to
//! requests by frame id whatever order they arrive in, and the server
//! answers every frame of a deep pipeline exactly once.

mod common;

use common::{query, serve};
use dls_serve::proto::{decode_request_framed, read_frame, write_frame};
use dls_serve::{
    encode_response_framed, PipelinedClient, PredictRequest, Request, Response, ServerConfig,
    PROTO_VERSION,
};
use std::net::TcpListener;
use std::time::Duration;

fn predict_req(seed: usize) -> Request {
    Request::from(&PredictRequest::builder("m").vector(query(seed)).build())
}

/// The pin for out-of-order reassembly: a scripted peer reads two frames
/// and answers them in reverse order, each reply carrying its request's
/// frame id as its value. Waiting on the first frame stashes the second
/// frame's reply, and `recv` then hands the stashed reply back.
#[test]
fn responses_in_reverse_order_reassemble_by_frame_id() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let ids: Vec<u64> = (0..2)
            .map(|_| {
                let frame = read_frame(&mut stream).expect("read").expect("a frame");
                decode_request_framed(&frame).expect("decodes").1
            })
            .collect();
        for &id in ids.iter().rev() {
            let reply = Response::Predictions(vec![id as f64]);
            write_frame(&mut stream, &encode_response_framed(&reply, PROTO_VERSION, id))
                .expect("write");
        }
    });

    let mut client = PipelinedClient::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let first = client.submit(&predict_req(1)).expect("submit first");
    let second = client.submit(&Request::Stats).expect("submit second");
    assert_eq!(client.in_flight(), 2);

    assert_eq!(client.wait(first).expect("first"), Response::Predictions(vec![first as f64]));
    assert_eq!(client.in_flight(), 1, "the second reply is stashed, not dropped");
    let (id, resp) = client.recv().expect("stashed reply");
    assert_eq!((id, resp), (second, Response::Predictions(vec![second as f64])));
    assert_eq!(client.in_flight(), 0);
    peer.join().expect("peer");
}

/// Many pipelined predicts on one socket all come back, each tagged with
/// its own frame id.
#[test]
fn a_pipeline_of_predicts_completes_exactly_once_per_frame() {
    let handle = serve(ServerConfig::default());
    let mut client = PipelinedClient::connect(handle.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let ids: Vec<u64> = (0..32).map(|i| client.submit(&predict_req(i)).expect("submit")).collect();
    let mut seen = Vec::new();
    for _ in 0..ids.len() {
        let (id, resp) = client.recv().expect("recv");
        match resp {
            Response::Predictions(vals) => assert_eq!(vals.len(), 1),
            other => panic!("expected Predictions, got {other:?}"),
        }
        seen.push(id);
    }
    seen.sort_unstable();
    assert_eq!(seen, ids, "every frame answered exactly once");
    drop(client);
    handle.shutdown();
}
