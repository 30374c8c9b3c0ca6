//! The plan server's TCP shell around the decision core
//! ([`crate::service::Service`]), which it keeps behind one lock.
//!
//! One accept thread hands connections to handler threads. A handler
//! parses frames with the property-tested [`crate::proto::FrameReader`],
//! calls the core, and carries out the actions it returns once the lock
//! is released: an exact hit is answered by that one call on its own
//! thread, anything else goes to a worker while the handler waits on a
//! reply channel. Each worker blocks on its own job channel and runs
//! [`Job::compute`] under `catch_unwind`, so a solve that panics costs
//! one `Error` reply, never a worker. The shell owns the only clock:
//! one epoch taken at bind becomes every `now_ms`, and measured
//! `service_ms` is stamped into replies here. Shutdown drains: the
//! control frame stops the accept loop, handlers finish their in-flight
//! requests against a still-running pool, and only then does the core
//! close and the pool join (`tests/lifecycle.rs` pins this ordering).

use crate::cache::CacheStats;
use crate::proto::{self, PlanRequest, PlanResponse, ProtocolError, Request};
use crate::service::{contained, error, Action, Job, Service};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`PlanServer`].
#[derive(Debug, Clone)]
pub struct PlanServerConfig {
    /// Worker-pool size draining the admission queue.
    pub workers: usize,
    /// Plan-cache capacity (entries, FIFO eviction).
    pub cache_capacity: usize,
    /// Near-hit confirmation tolerance (max relative deviation).
    pub near_tolerance: f64,
    /// Service-time prior for an `(algorithm, P)` pair never seen.
    pub default_est_ms: f64,
    /// Artificial per-solve service time: workers sleep this long on
    /// every cold or warm solve (replays are exempt). The determinism
    /// knob for QoS tests and the CI smoke run; `None` in production.
    pub pace: Option<Duration>,
    /// LAP solver threads per solve (see
    /// [`adaptcomm_core::algorithms::MatchingScheduler::with_threads`]) —
    /// bit-identical results at any value, so this is purely a latency
    /// knob.
    pub threads: usize,
}

impl Default for PlanServerConfig {
    fn default() -> Self {
        PlanServerConfig {
            workers: 2,
            cache_capacity: 256,
            near_tolerance: 0.10,
            default_est_ms: 10.0,
            pace: None,
            threads: 1,
        }
    }
}

/// A reply token: the handler waiting for the answer.
type ReplyTo = mpsc::Sender<PlanResponse>;

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The shared service state behind the listener: the decision core
/// behind its one lock, the workers' job channels and the clock.
pub struct PlanService {
    core: Mutex<Service<ReplyTo>>,
    /// One job channel per worker; `None` tells the worker to exit.
    workers: Vec<mpsc::Sender<Option<Box<Job<ReplyTo>>>>>,
    /// What every `now_ms` handed to the core counts from.
    epoch: Instant,
}

impl PlanService {
    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.core().cache_stats()
    }

    /// Every tenant served so far with its current epoch, in name order.
    pub fn tenant_epochs(&self) -> Vec<(String, u64)> {
        self.core().tenant_epochs()
    }

    /// The core, locked. Callers read `now_ms` under the lock, so the
    /// times the core sees never run backwards.
    fn core(&self) -> MutexGuard<'_, Service<ReplyTo>> {
        self.core.lock().expect("plan service core poisoned")
    }

    /// Carries out one of the core's actions, with the lock released.
    fn act(&self, action: Action<ReplyTo>) {
        // A dropped receiver means the connection died mid-request; the
        // work is still done (and cached), so just move on.
        let _ = match action {
            Action::Reply(to, response) => to.send(response).is_ok(),
            Action::Solve(worker, job) => self.workers[worker].send(Some(job)).is_ok(),
        };
    }

    /// Serves one plan request on its connection thread.
    fn serve(&self, request: PlanRequest) -> PlanResponse {
        let t0 = Instant::now();
        let (reply_to, replied) = mpsc::channel();
        let actions = {
            let mut core = self.core();
            core.on_request(reply_to, request, elapsed_ms(self.epoch))
        };
        for action in actions {
            // A reply from here is to this request, and never comes with
            // a solve: the answer, which took the time since `t0`.
            if let Action::Reply(_, mut response) = action {
                if let PlanResponse::Ok(ok) = &mut response {
                    ok.stats.service_ms = elapsed_ms(t0);
                }
                return response;
            }
            self.act(action);
        }
        let lost = |_| error("worker pool shut down mid-request");
        replied.recv().unwrap_or_else(lost)
    }

    fn worker_loop(&self, worker: usize, jobs: mpsc::Receiver<Option<Box<Job<ReplyTo>>>>) {
        while let Ok(Some(job)) = jobs.recv() {
            let t0 = Instant::now();
            let mut result = contained(|| job.compute());
            if let Ok(done) = &mut result {
                done.plan.stats.service_ms = elapsed_ms(t0);
            }
            let actions = {
                let mut core = self.core();
                core.on_solved(worker, *job, result, elapsed_ms(self.epoch))
            };
            actions.into_iter().for_each(|action| self.act(action));
        }
    }
}

/// The listening plan server. Bind with [`PlanServer::bind`], stop
/// with [`PlanServer::shutdown`] (or a client's shutdown frame
/// followed by [`PlanServer::join`]).
pub struct PlanServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    service: Arc<PlanService>,
}

impl PlanServer {
    /// Binds (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the accept loop and worker pool.
    pub fn bind(addr: &str, config: PlanServerConfig) -> std::io::Result<PlanServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..config.workers.max(1)).map(|_| mpsc::channel()).unzip();
        let service = Arc::new(PlanService {
            core: Mutex::new(Service::new(config)),
            workers: senders,
            epoch: Instant::now(),
        });

        let mut workers = Vec::with_capacity(receivers.len());
        for (i, jobs) in receivers.into_iter().enumerate() {
            let service = Arc::clone(&service);
            let worker = std::thread::Builder::new().name(format!("plansrv-worker-{i}"));
            workers.push(worker.spawn(move || service.worker_loop(i, jobs))?);
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("plansrv-accept".into())
                .spawn(move || accept_loop(listener, addr, stop, service, workers))?
        };

        Ok(PlanServer {
            addr,
            stop,
            accept: Some(accept),
            service,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (cache stats, tenant epochs) — primarily
    /// for tests and benches.
    pub fn service(&self) -> &Arc<PlanService> {
        &self.service
    }

    /// Waits for the server to stop (a client's shutdown frame, or a
    /// concurrent [`PlanServer::shutdown`]).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops the server: no new connections, in-flight requests
    /// complete, workers drain, everything joins.
    pub fn shutdown(self) {
        trigger_stop(&self.stop, self.addr);
        self.join();
    }
}

/// Sets the stop flag and pokes the accept loop awake.
fn trigger_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    // A throwaway connection unblocks the blocking accept().
    let _ = TcpStream::connect(addr);
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<PlanService>,
    workers: Vec<JoinHandle<()>>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Responses are header + payload writes; without NODELAY the
        // payload waits out the client's delayed ACK (~40 ms each).
        let _ = stream.set_nodelay(true);
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        if let Ok(h) = std::thread::Builder::new()
            .name("plansrv-conn".into())
            .spawn(move || handle_connection(stream, addr, stop, service))
        {
            handlers.push(h);
        }
        // Opportunistically reap finished handlers so a long-lived
        // server doesn't accumulate joined-but-unreaped threads.
        handlers.retain(|h| !h.is_finished());
    }
    // Graceful drain: handlers finish their in-flight requests against
    // a still-running worker pool, *then* the core closes and the pool
    // joins.
    for h in handlers {
        let _ = h.join();
    }
    let backlog = service.core().close();
    backlog.into_iter().for_each(|action| service.act(action));
    for jobs in &service.workers {
        let _ = jobs.send(None);
    }
    for w in workers {
        let _ = w.join();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<PlanService>,
) {
    // Short read timeouts let an idle connection notice the stop flag;
    // the FrameReader makes partially-read frames safe to resume.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = proto::FrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let request = match reader.next_frame() {
            Ok(Some(payload)) => proto::parse_request(&payload),
            Ok(None) => {
                match stream.read(&mut buf) {
                    Ok(0) => return, // client closed
                    Ok(n) => reader.push(&buf[..n]),
                    Err(e) if idle(&e) && !stop.load(Ordering::SeqCst) => {}
                    Err(_) => return,
                }
                continue;
            }
            Err(e) => return respond(&mut stream, &error(e.to_string())),
        };
        match request {
            Ok(Request::Plan(plan)) => respond(&mut stream, &service.serve(plan)),
            Ok(Request::Shutdown) => {
                respond(&mut stream, &PlanResponse::Bye);
                return trigger_stop(&stop, addr);
            }
            Err(e) => {
                respond(&mut stream, &error(e.to_string()));
                // A malformed payload leaves the framing intact: keep
                // the connection. Anything else closes it.
                if !matches!(e, ProtocolError::Malformed { .. }) {
                    return;
                }
            }
        }
    }
}

/// A read that timed out rather than failed.
fn idle(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn respond(stream: &mut TcpStream, response: &PlanResponse) {
    let payload = proto::encode_response(response);
    let _ = adaptcomm_runtime::tcp::write_frame(stream, proto::PROTO_VERSION, &payload);
}
