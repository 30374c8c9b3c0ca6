//! A hostile tenant name through the server and back out of a capture.
//!
//! This test owns its binary because it enables the process-global
//! registry; sharing a binary with other integration tests would leak
//! that state across threads.

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_obs::{AttrValue, Snapshot};
use adaptcomm_plansrv::proto::{PlanResponse, QosSpec};
use adaptcomm_plansrv::{PlanClient, PlanServer, PlanServerConfig};

#[test]
fn a_hostile_tenant_name_is_served_and_reads_back_from_a_capture() {
    // Quotes, a slash, a newline, JSON braces, dots and non-ASCII.
    const HOSTILE: &str = "alice \"a\"/链路\n{x.y}";
    let obs = adaptcomm_obs::global();
    obs.clear();
    obs.set_enabled(true);
    let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let matrix = CommMatrix::from_fn(4, |s, d| if s == d { 0.0 } else { (s * 4 + d) as f64 });
    for _ in 0..2 {
        let reply = client.plan(HOSTILE, "greedy", &matrix, QosSpec::default());
        assert!(matches!(reply, Ok(PlanResponse::Ok(_))), "{reply:?}");
    }
    server.shutdown();
    let snap = obs.snapshot();
    obs.set_enabled(false);

    let back = Snapshot::from_jsonl(&snap.to_jsonl()).expect("capture reads back");
    let hostile = AttrValue::Str(HOSTILE.into());
    let served = |name: &str| {
        back.spans()
            .filter(|s| s.name == name)
            .filter(|s| s.attrs.iter().any(|(k, v)| k == "tenant" && *v == hostile))
            .count()
    };
    // Both requests are admitted; the cold one goes to a worker.
    assert_eq!(served("plansrv.admission"), 2);
    assert_eq!(served("plansrv.worker"), 1);
}
