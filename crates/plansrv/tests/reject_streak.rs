//! The reject-streak flight dump, pinned against the decision core: the
//! recorder auto-dumps exactly once, at the third consecutive deadline
//! rejection, and an admit or an exact hit answered inline in between
//! restarts the count.
//!
//! This test owns its binary because it arms the process-global flight
//! recorder's auto-dump directory.

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_plansrv::proto::{CacheDisposition, PlanRequest, PlanResponse, QosSpec};
use adaptcomm_plansrv::service::{contained, Action, Service, REJECT_STREAK_DUMP};
use adaptcomm_plansrv::PlanServerConfig;
use std::path::Path;

fn matrix(salt: f64) -> CommMatrix {
    CommMatrix::from_fn(4, |s, d| {
        if s == d {
            0.0
        } else {
            salt + (s * 4 + d) as f64
        }
    })
}

fn request(matrix: &CommMatrix, deadline_ms: Option<f64>) -> PlanRequest {
    PlanRequest {
        tenant: "t".into(),
        algorithm: "greedy".into(),
        matrix: Some(matrix.clone()),
        fingerprint: None,
        qos: QosSpec {
            deadline_ms,
            ..QosSpec::default()
        },
        trace: None,
    }
}

fn dumps(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).expect("the dump directory");
    let names = entries.map(|e| e.expect("an entry").file_name());
    names
        .filter(|n| {
            n.to_string_lossy()
                .starts_with("flight-plansrv-reject-streak-")
        })
        .count()
}

/// One worker; requests numbered from 1; virtual time stands still.
struct Harness {
    core: Service<u32>,
    token: u32,
}

impl Harness {
    fn ask(&mut self, request: PlanRequest) -> Vec<Action<u32>> {
        self.token += 1;
        self.core.on_request(self.token, request, 0.0)
    }

    fn answer(&mut self, request: PlanRequest) -> PlanResponse {
        match self.ask(request).pop() {
            Some(Action::Reply(_, response)) => response,
            other => panic!("expected an answer at once, got {other:?}"),
        }
    }

    fn reject(&mut self) {
        let response = self.answer(request(&matrix(200.0), Some(1.0)));
        assert!(
            matches!(response, PlanResponse::Rejected { .. }),
            "{response:?}"
        );
    }
}

#[test]
fn the_third_consecutive_rejection_dumps_once_and_admits_and_hits_reset_the_count() {
    assert_eq!(REJECT_STREAK_DUMP, 3);
    let dir = std::env::temp_dir().join(format!("plansrv-reject-streak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a dump directory");
    adaptcomm_obs::flight().set_auto_dir(Some(dir.clone()));

    let config = PlanServerConfig {
        workers: 1,
        ..PlanServerConfig::default()
    };
    let mut h = Harness {
        core: Service::new(config),
        token: 0,
    };

    // Solve `cached` so it can be hit inline later.
    let cached = matrix(0.0);
    let Some(Action::Solve(worker, job)) = h.ask(request(&cached, None)).pop() else {
        panic!("an idle worker takes the first request");
    };
    let result = contained(|| job.compute());
    let solved = h.core.on_solved(worker, *job, result, 1.0);
    assert!(matches!(
        solved.as_slice(),
        [Action::Reply(_, PlanResponse::Ok(_))]
    ));

    // Occupy the only worker, so a 1 ms deadline cannot be met.
    let busy = h.ask(request(&matrix(100.0), None));
    assert!(matches!(busy.as_slice(), [Action::Solve(..)]));

    h.reject();
    h.reject();
    assert_eq!(dumps(&dir), 0, "two rejections are load, not an incident");
    let queued = h.ask(request(&matrix(300.0), None));
    assert!(queued.is_empty(), "admitted behind the busy worker");
    h.reject();
    h.reject();
    assert_eq!(dumps(&dir), 0, "an admit resets the streak");
    match h.answer(request(&cached, None)) {
        PlanResponse::Ok(ok) => assert_eq!(ok.cache, CacheDisposition::Hit),
        other => panic!("expected an inline hit, got {other:?}"),
    }
    h.reject();
    h.reject();
    assert_eq!(dumps(&dir), 0, "an inline hit resets the streak");
    h.reject();
    assert_eq!(dumps(&dir), 1, "the third consecutive rejection dumps");
    for _ in 0..4 {
        h.reject();
    }
    assert_eq!(
        dumps(&dir),
        1,
        "a streak dumps once, not at every rejection after it"
    );

    adaptcomm_obs::flight().set_auto_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
}
