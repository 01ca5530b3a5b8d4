//! `serve_loopback` — an in-process `Server` on 127.0.0.1, closed loop
//! (each caller waits for its reply before sending the next request), two
//! `Client` connections.
//!
//! A run is a sequence of rounds. Each round's *cold pass* sends 16 distinct
//! first-seen requests (an advisor / whatif / run-small mix: every one
//! computes); its *warm pass* revisits 48 already-seen keys in seeded
//! shuffled order (every one is a cache hit).
//!
//! Why: the only workload with real sockets and the connection loop. Warm
//! isolates parse → canonicalise → BLAKE2s → cache → socket write; cold adds
//! compute and reply encoding. The socket path is reported as found: the
//! benchmark sets no socket option and changes nothing in the server.
//!
//! An open-loop rate sweep is left out on purpose: with generator and server
//! sharing two cores, the generator's lateness would be the measurement.

use std::time::Instant;

use greenness_serve::json::{write_canonical_object, Json};
use greenness_serve::protocol::parse_request;
use greenness_serve::{Client, ResultCache, Server, Service, ServiceConfig};
use greenness_trace::hash::Blake2s256;

use super::{digest_of, keep_going, Checks, Ctx, Iter, Untraced, Workload};
use crate::gen::{serve_request, Rng};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile};

/// Keys the warm pass draws from: the most recent ones, so the working set
/// stays bounded however many rounds a run completes.
const WORKING_SET: usize = 256;
/// Warm-up keys live far above any key a timed round reaches.
const WARMUP_KEY0: u64 = 1 << 40;

fn config() -> ServiceConfig {
    ServiceConfig {
        jobs: 1,
        // Room for every key a run can reach: warm revisits must all hit.
        cache_bytes: 256 << 20,
        ..ServiceConfig::default()
    }
}

/// One request's trip: when it left, when its reply was complete, the reply.
struct Trip {
    sent: Instant,
    done: Instant,
    reply: String,
}

#[derive(Default)]
pub struct ServeLoopback {
    server: Option<Server>,
    clients: Vec<Client>,
    /// In-process twin of the server: every TCP reply must equal its line.
    reference: Option<Service>,
    rng: Option<Rng>,
    salt: u64,
    next_key: u64,
    seen: Vec<String>,
    cold_n: usize,
    warm_n: usize,
}

/// Send `lines` over the connections, connection `c` taking every
/// `clients.len()`-th line, each connection a closed loop on its own
/// thread. Returns the pass's host seconds and the trips in line order.
fn pass(clients: &mut [Client], lines: &[String]) -> (f64, Vec<Trip>) {
    let conns = clients.len();
    let started = Instant::now();
    let mut per_conn: Vec<Vec<Trip>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    lines
                        .iter()
                        .skip(c)
                        .step_by(conns)
                        .map(|line| {
                            let sent = Instant::now();
                            let reply = client
                                .roundtrip(line)
                                .unwrap_or_else(|e| format!("transport error: {e}"));
                            Trip {
                                sent,
                                done: Instant::now(),
                                reply,
                            }
                        })
                        .collect::<Vec<Trip>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread ran to its end"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    // Back into line order: line i went to connection i % conns.
    let mut iters: Vec<_> = per_conn.iter_mut().map(|v| v.drain(..)).collect();
    let trips = (0..lines.len())
        .map(|i| iters[i % conns].next().expect("one trip per line"))
        .collect();
    (seconds, trips)
}

/// What one round measured.
struct Round {
    cold_s: f64,
    warm_s: f64,
    cold: Vec<Trip>,
    warm: Vec<Trip>,
}

impl ServeLoopback {
    fn verify(&self, lines: &[String], trips: &[Trip], checks: &mut Checks) {
        let reference = self.reference.as_ref().expect("set up");
        for (line, trip) in lines.iter().zip(trips) {
            checks.check(trip.reply.contains("\"ok\":true"), || {
                format!("reply is not ok: {}", trip.reply)
            });
            let expected = reference.handle_line(line).line();
            checks.check(trip.reply == expected, || {
                format!(
                    "TCP reply differs from the in-process line for {line}: {} vs {expected}",
                    trip.reply
                )
            });
        }
    }

    fn round(&mut self, checks: &mut Checks) -> Round {
        let cold_lines: Vec<String> = (0..self.cold_n as u64)
            .map(|i| serve_request(self.next_key + i, self.salt))
            .collect();
        self.next_key += self.cold_n as u64;
        let (cold_s, cold) = pass(&mut self.clients, &cold_lines);
        self.verify(&cold_lines, &cold, checks);

        self.seen.extend(cold_lines);
        let excess = self.seen.len().saturating_sub(WORKING_SET);
        self.seen.drain(..excess);
        let rng = self.rng.as_mut().expect("set up");
        let warm_lines: Vec<String> = (0..self.warm_n)
            .map(|_| self.seen[rng.below(self.seen.len() as u64) as usize].clone())
            .collect();
        let (warm_s, warm) = pass(&mut self.clients, &warm_lines);
        self.verify(&warm_lines, &warm, checks);
        Round {
            cold_s,
            warm_s,
            cold,
            warm,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.server
            .as_ref()
            .expect("set up")
            .service()
            .metrics_clone()
            .counter(name)
    }
}

impl Workload for ServeLoopback {
    fn setup(&mut self, ctx: &Ctx) {
        let server = Server::start("127.0.0.1:0", config()).expect("loopback bind");
        let addr = server.addr().to_string();
        // At most one connection per core, and never more than two.
        let conns = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        self.clients = (0..conns)
            .map(|_| Client::connect(&addr).expect("loopback connect"))
            .collect();
        self.server = Some(server);
        self.reference = Some(Service::new(config()));
        let mut rng = Rng::new(ctx.seed);
        self.salt = rng.next_u64();
        self.rng = Some(rng);
        self.next_key = 0;
        self.seen.clear();
        (self.cold_n, self.warm_n) = if ctx.smoke { (2, 4) } else { (16, 48) };
        // Warm-up: a few round trips per connection, on keys of their own.
        let warm: Vec<String> = (0..4 * conns as u64)
            .map(|i| serve_request(WARMUP_KEY0 + i, self.salt))
            .collect();
        std::hint::black_box(pass(&mut self.clients, &warm));
    }

    fn teardown(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }

    fn iterate(&mut self, checks: &mut Checks) -> Iter {
        let round = self.round(checks);
        let replies: Vec<&[u8]> = round
            .cold
            .iter()
            .chain(&round.warm)
            .map(|t| t.reply.as_bytes())
            .collect();
        Iter {
            wall_s: round.cold_s,
            items: round.warm.len() as u64,
            items_s: round.warm_s,
            digest: digest_of(&replies),
            note: format!(
                "first round: cold pass of {} in {:.3} s, warm pass of {} in {:.3} s",
                round.cold.len(),
                round.cold_s,
                round.warm.len(),
                round.warm_s
            ),
        }
    }

    /// Every round asks for keys no earlier round has seen, so digests
    /// differ between rounds by design; the first round's is a pure
    /// function of the seed.
    fn digest_repeats(&self) -> bool {
        false
    }

    fn traced(
        &mut self,
        ctx: &Ctx,
        baseline: &Untraced,
        rec: &mut Recorder,
        checks: &mut Checks,
        out: &mut Values,
    ) {
        // The very same rounds, one span per request.
        let started = Instant::now();
        let hits_before = self.counter("serve.cache.hits");
        let (mut cold_ms, mut warm_ms, mut reply_bytes) = (Vec::new(), Vec::new(), Vec::new());
        let (mut warm_n, mut warm_s) = (0u64, 0.0f64);
        let mut rounds = 0usize;
        while keep_going(started, rounds, 2, ctx.seconds * 2.0 / 3.0) {
            let it = rec.enter("iteration");
            let round = self.round(checks);
            for t in &round.cold {
                rec.record("serve.roundtrip.cold", t.sent, t.done);
                cold_ms.push((t.done - t.sent).as_secs_f64() * 1e3);
            }
            for t in &round.warm {
                rec.record("serve.roundtrip.warm", t.sent, t.done);
                warm_ms.push((t.done - t.sent).as_secs_f64() * 1e3);
                reply_bytes.push(t.reply.len() as f64 + 1.0);
            }
            rec.exit(it);
            warm_n += round.warm.len() as u64;
            warm_s += round.warm_s;
            rounds += 1;
        }
        let traced_rps = warm_n as f64 / warm_s.max(1e-12);
        out.set(
            "bench.trace_overhead_share",
            1.0 - traced_rps / baseline.req_per_s,
        );
        let rtt_p50_ms = median(&warm_ms);
        out.set("serve.rtt_p50_ms", rtt_p50_ms);
        out.set("serve.rtt_p90_ms", percentile(&warm_ms, 0.90));
        out.set("serve.rtt_p99_ms", percentile(&warm_ms, 0.99));
        out.set("serve.cold_rtt_p50_ms", median(&cold_ms));
        out.set("serve.reply_bytes", mean(&reply_bytes));
        let warm_hits = self.counter("serve.cache.hits") - hits_before;
        out.set(
            "serve.warm_hit_ratio",
            warm_hits as f64 / warm_n.max(1) as f64,
        );
        checks.check(warm_hits == warm_n, || {
            format!("{warm_hits} cache hits for {warm_n} warm requests")
        });
        let shed: u64 = [
            "serve.shed.overloaded",
            "serve.shed.deadline",
            "serve.shed.shutting_down",
        ]
        .iter()
        .map(|name| self.counter(name))
        .sum();
        out.set("serve.shed", shed as f64);
        println!(
            "serve_loopback: {rounds} traced round(s): {} warm and {} cold round trips sampled",
            warm_ms.len(),
            cold_ms.len()
        );

        // Connection set-up: connect, then hang up.
        let addr = self.server.as_ref().expect("set up").addr().to_string();
        let connects: Vec<f64> = (0..8)
            .map(|_| {
                let t = Instant::now();
                let client = Client::connect(&addr).expect("loopback connect");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                drop(client);
                ms
            })
            .collect();
        out.set("serve.conn_setup_ms", median(&connects));

        // The same request mix through `Service::handle_line`, no socket.
        let service = Service::new(config());
        let lines: Vec<String> = (0..256)
            .map(|k| serve_request(WARMUP_KEY0 * 2 + k, self.salt))
            .collect();
        let t = Instant::now();
        for line in &lines {
            std::hint::black_box(service.handle_line(line));
        }
        out.set(
            "serve.handle_cold_ms",
            t.elapsed().as_secs_f64() * 1e3 / lines.len() as f64,
        );
        const WARM_PASSES: usize = 40;
        let t = Instant::now();
        for _ in 0..WARM_PASSES {
            for line in &lines {
                std::hint::black_box(service.handle_line(line));
            }
        }
        let calls = (WARM_PASSES * lines.len()) as f64;
        let handle_warm_us = t.elapsed().as_secs_f64() * 1e6 / calls;
        out.set("serve.handle_warm_us", handle_warm_us);
        out.set("serve.wire_us", rtt_p50_ms * 1e3 - handle_warm_us);
        out.set(
            "serve.wire_share",
            (rtt_p50_ms * 1e3 - handle_warm_us) / (rtt_p50_ms * 1e3),
        );

        let t = Instant::now();
        for _ in 0..WARM_PASSES {
            for line in &lines {
                std::hint::black_box(parse_request(line).expect("generated requests parse"));
            }
        }
        out.set("serve.parse_us", t.elapsed().as_secs_f64() * 1e6 / calls);

        // Canonicalise + hash alone, on already-parsed documents.
        let docs: Vec<Json> = lines
            .iter()
            .map(|l| Json::parse(l).expect("generated requests parse"))
            .collect();
        let t = Instant::now();
        for _ in 0..WARM_PASSES {
            for doc in &docs {
                let Json::Obj(members) = doc else {
                    unreachable!("requests are objects")
                };
                let semantic: Vec<&(String, Json)> = members
                    .iter()
                    .filter(|(k, _)| k != "id" && k != "deadline_ms")
                    .collect();
                let mut hasher = Blake2s256::default();
                let _ = write_canonical_object(&semantic, &mut hasher);
                std::hint::black_box(hasher.finalize());
            }
        }
        out.set(
            "serve.canonical_hash_us",
            t.elapsed().as_secs_f64() * 1e6 / calls,
        );

        let mut cache = ResultCache::new(config().cache_bytes);
        let keys: Vec<[u8; 32]> = lines
            .iter()
            .map(|l| parse_request(l).expect("parses").cache_key)
            .collect();
        for key in &keys {
            cache.insert(*key, vec![b'x'; 512]);
        }
        const GET_PASSES: usize = 400;
        let t = Instant::now();
        for _ in 0..GET_PASSES {
            for key in &keys {
                std::hint::black_box(cache.get(key));
            }
        }
        out.set(
            "serve.cache_get_ns",
            t.elapsed().as_nanos() as f64 / (GET_PASSES * keys.len()) as f64,
        );
    }
}
