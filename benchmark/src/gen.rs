//! Seeded input generators. Everything a workload feeds the program is a
//! pure function of `--seed`; the program itself never sees the seed.

use greenness_core::steering::Adjustment;
use greenness_serve::SCHEMA;
use greenness_steer::AttachSpec;
use greenness_viz::Colormap;

/// splitmix64 — small, seedable, and good enough for shuffles and draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The `k`-th distinct serve request of a seed's stream: an
/// advisor / whatif / run-small mix like `fleet_workload`'s, except that
/// every `k` has its own cache key, so the first send always computes.
/// `salt` (drawn from the seed) shifts the parameter values.
pub fn serve_request(k: u64, salt: u64) -> String {
    let v = salt % 1000 + k + 1;
    let body = match k % 4 {
        0 => format!(
            r#""op":"advisor","params":{{"pass_bytes":{},"passes":2,"pattern":"random"}}"#,
            v * 1_048_576
        ),
        1 => format!(
            r#""op":"advisor","params":{{"pattern":"sequential","passes":{},"pass_bytes":{},"min_keep_fraction":0.5}}"#,
            k % 20 + 1,
            v * 65_536
        ),
        2 => format!(r#""op":"whatif","params":{{"bytes":{}}}"#, v * 1_048_576),
        // `tag` is ignored by the handler but is part of the content
        // address, so each tagged run is a first-seen key that really runs
        // the small in-situ pipeline.
        _ => format!(
            r#""op":"run","params":{{"pipeline":"insitu","case":{},"tag":{v}}}"#,
            k % 3 + 1
        ),
    };
    format!("{{\"schema\":\"{SCHEMA}\",\"id\":{k},{body}}}")
}

/// One step of the scripted steering session, kept structured so the same
/// script can be sent as protocol lines or applied to a `SessionEngine`
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub enum SteerOp {
    Attach(AttachSpec),
    Render { seq: u64, steps: u64 },
    Adjust { seq: u64, adj: Adjustment },
    Detach { seq: u64 },
}

/// The CLI's scripted session (`greenness steer`): attach, three
/// adjust/render rounds, a mid-session re-attach, a final render, detach.
pub fn steer_script() -> Vec<SteerOp> {
    let spec = AttachSpec {
        interval: 2,
        timesteps: 12,
    };
    vec![
        SteerOp::Attach(spec.clone()),
        SteerOp::Render { seq: 1, steps: 3 },
        SteerOp::Adjust {
            seq: 2,
            adj: Adjustment::IoInterval(3),
        },
        SteerOp::Render { seq: 3, steps: 3 },
        SteerOp::Adjust {
            seq: 4,
            adj: Adjustment::Resolution {
                width: 96,
                height: 96,
            },
        },
        SteerOp::Render { seq: 5, steps: 2 },
        SteerOp::Adjust {
            seq: 6,
            adj: Adjustment::Camera {
                colormap: Colormap::Viridis,
                range: Some((0.0, 0.3)),
            },
        },
        SteerOp::Attach(spec),
        SteerOp::Render { seq: 7, steps: 4 },
        SteerOp::Detach { seq: 8 },
    ]
}

impl SteerOp {
    /// The `greenness-serve/v1` request line for this op.
    pub fn line(&self, session: &str, id: u64) -> String {
        let body = match self {
            SteerOp::Attach(spec) => format!(
                r#""op":"steer.attach","params":{{"session":"{session}","interval":{},"timesteps":{}}}"#,
                spec.interval, spec.timesteps
            ),
            SteerOp::Render { seq, steps } => format!(
                r#""op":"steer.render","params":{{"session":"{session}","seq":{seq},"steps":{steps}}}"#
            ),
            SteerOp::Adjust { seq, adj } => {
                let detail = match adj {
                    Adjustment::IoInterval(n) => {
                        format!(r#""kind":"io_interval","io_interval":{n}"#)
                    }
                    Adjustment::Resolution { width, height } => {
                        format!(r#""kind":"resolution","width":{width},"height":{height}"#)
                    }
                    Adjustment::Camera { colormap, range } => {
                        let name = match colormap {
                            Colormap::Viridis => "viridis",
                            Colormap::Hot => "hot",
                            Colormap::CoolWarm => "coolwarm",
                            Colormap::Gray => "gray",
                        };
                        match range {
                            Some((lo, hi)) => format!(
                                r#""kind":"camera","colormap":"{name}","range":[{lo:?},{hi:?}]"#
                            ),
                            None => format!(r#""kind":"camera","colormap":"{name}""#),
                        }
                    }
                };
                format!(
                    r#""op":"steer.adjust","params":{{"session":"{session}","seq":{seq},{detail}}}"#
                )
            }
            SteerOp::Detach { seq } => {
                format!(r#""op":"steer.detach","params":{{"session":"{session}","seq":{seq}}}"#)
            }
        };
        format!("{{\"schema\":\"{SCHEMA}\",\"id\":{id},{body}}}")
    }
}

/// The interleaved steering workload: for each script phase, every session
/// in a seeded shuffled order. Returns `(session index, phase)` pairs.
pub fn steer_interleave(sessions: usize, phases: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed ^ 0x5735_3535);
    let mut order: Vec<usize> = (0..sessions).collect();
    let mut out = Vec::with_capacity(sessions * phases);
    for phase in 0..phases {
        rng.shuffle(&mut order);
        out.extend(order.iter().map(|&s| (s, phase)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_serve::protocol::parse_request;

    #[test]
    fn rng_and_shuffle_are_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut v: Vec<u32> = (0..32).collect();
            r.shuffle(&mut v);
            (r.next_u64(), v)
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let (_, v) = draw(7);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<u32>>(), "a permutation");
        assert_ne!(v, sorted, "actually shuffled");
    }

    #[test]
    fn serve_requests_parse_and_have_distinct_keys() {
        let mut keys = std::collections::BTreeSet::new();
        for k in 0..64 {
            let line = serve_request(k, 42);
            assert_eq!(line, serve_request(k, 42));
            let req = parse_request(&line).expect("well-formed request");
            assert!(keys.insert(req.cache_key), "request {k} repeats a key");
        }
        assert_ne!(serve_request(3, 42), serve_request(3, 43));
    }

    #[test]
    fn steer_lines_match_the_cli_script() {
        let script = steer_script();
        assert_eq!(script.len(), 10);
        assert_eq!(
            script[6].line("s1", 7),
            r#"{"schema":"greenness-serve/v1","id":7,"op":"steer.adjust","params":{"session":"s1","seq":6,"kind":"camera","colormap":"viridis","range":[0.0,0.3]}}"#
        );
        assert_eq!(
            script[0].line("s1", 1),
            r#"{"schema":"greenness-serve/v1","id":1,"op":"steer.attach","params":{"session":"s1","interval":2,"timesteps":12}}"#
        );
        for (i, op) in script.iter().enumerate() {
            parse_request(&op.line("s9", i as u64)).expect("parses");
        }
    }

    #[test]
    fn interleave_visits_every_session_once_per_phase() {
        let a = steer_interleave(8, 3, 42);
        assert_eq!(a, steer_interleave(8, 3, 42));
        assert_ne!(a, steer_interleave(8, 3, 43));
        assert_eq!(a.len(), 24);
        for phase in 0..3 {
            let mut seen: Vec<usize> = a[phase * 8..(phase + 1) * 8]
                .iter()
                .map(|&(s, p)| {
                    assert_eq!(p, phase);
                    s
                })
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..8).collect::<Vec<usize>>());
        }
    }
}
