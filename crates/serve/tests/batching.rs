//! Cross-connection batching, in its own test binary: the assertions read
//! deltas of the process-global metrics registry, which only this
//! process's one server increments.

use std::sync::Arc;
use std::time::Duration;

use graphbi::{GraphStore, MvccStore, QueryRequest, Session};
use graphbi_serve::{Client, ServeConfig, ServeStore, Server};
use graphbi_testkit::Scenario;

/// Many idle-then-simultaneous clients on one store must land in shared
/// batches, visible in the counters, with answers still bit-identical.
#[test]
fn concurrent_connections_share_batches() {
    let scenario = Scenario::generate(41);
    let store = Arc::new(MvccStore::new_mem(GraphStore::load(
        scenario.universe.clone(),
        &scenario.records,
    )));
    let mut reqs: Vec<QueryRequest> = Vec::new();
    reqs.extend(scenario.queries.iter().cloned().map(QueryRequest::new));
    reqs.extend(scenario.exprs.iter().cloned().map(QueryRequest::expr));
    reqs.extend(scenario.aggs.iter().cloned().map(QueryRequest::aggregate));
    let expected: Vec<String> = store
        .evaluate_many(&reqs)
        .expect("in-process evaluation")
        .into_iter()
        .map(|(resp, _)| resp.to_text())
        .collect();

    let server = Server::start(
        ServeStore::Mvcc(store),
        "127.0.0.1:0",
        ServeConfig {
            // A small stall per batch lets concurrent arrivals pile up
            // behind the first, forcing multi-request batches.
            batch_delay: Duration::from_millis(3),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let reg = graphbi_obs::global();
    let batches_before = reg.counter("graphbi_serve_batches_total").get();
    let requests_before = reg.counter("graphbi_serve_batched_requests_total").get();

    let threads: Vec<_> = (0..6)
        .map(|t| {
            let reqs = reqs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..4 {
                    let i = (t + round) % reqs.len();
                    let got = client.query(&reqs[i]).expect("query");
                    assert_eq!(got.to_text(), expected[i]);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let batches = reg.counter("graphbi_serve_batches_total").get() - batches_before;
    let served = reg.counter("graphbi_serve_batched_requests_total").get() - requests_before;
    assert_eq!(served, 24, "every request went through the batcher");
    assert!(
        batches < served,
        "expected some multi-request batches, got {batches} batches for {served} requests"
    );
}
