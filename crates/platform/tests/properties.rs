//! Property-based tests for the platform substrate.

use greenness_platform::power::EnergyBreakdown;
use greenness_platform::{
    AccessPattern, Activity, HardwareSpec, Node, Phase, PowerDraw, Segment, SimDuration, SimTime,
    Timeline,
};
use proptest::prelude::*;

fn arb_draw() -> impl Strategy<Value = PowerDraw> {
    (
        0.0..200.0f64,
        0.0..50.0f64,
        0.0..20.0f64,
        0.0..5.0f64,
        0.0..80.0f64,
    )
        .prop_map(|(package_w, dram_w, disk_w, net_w, board_w)| PowerDraw {
            package_w,
            dram_w,
            disk_w,
            net_w,
            board_w,
        })
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    prop::sample::select(Phase::ALL.to_vec())
}

fn arb_spans() -> impl Strategy<Value = Vec<(u64, PowerDraw, Phase)>> {
    prop::collection::vec((1u64..5_000_000_000, arb_draw(), arb_phase()), 1..40)
}

/// Contiguous segments for `spans`, the first one starting at `start`.
fn timeline_from(start: SimTime, spans: Vec<(u64, PowerDraw, Phase)>) -> Timeline {
    let mut tl = Timeline::new();
    let mut t = start;
    for (ns, draw, phase) in spans {
        let duration = SimDuration::from_nanos(ns);
        tl.push(Segment {
            start: t,
            duration,
            draw,
            phase,
        });
        t += duration;
    }
    tl
}

fn arb_timeline() -> impl Strategy<Value = Timeline> {
    arb_spans().prop_map(|spans| timeline_from(SimTime::ZERO, spans))
}

/// A timeline that may begin mid-run, plus query instants for it: anywhere
/// from zero to 20 % past `end()`, about half of them snapped onto a segment
/// boundary or one nanosecond either side of it. In generated order they go
/// forwards, backwards and repeat.
fn arb_timeline_and_instants() -> impl Strategy<Value = (Timeline, Vec<SimTime>)> {
    (
        prop_oneof![Just(0u64), 1u64..3_000_000_000],
        arb_spans(),
        prop::collection::vec((0.0..1.2f64, 0u64..6), 2..40),
    )
        .prop_map(|(start, spans, picks)| {
            let tl = timeline_from(SimTime::from_nanos(start), spans);
            let end = tl.end().as_nanos();
            let instants = picks
                .into_iter()
                .map(|(frac, snap)| {
                    let free = (end as f64 * frac) as u64;
                    let ns = if snap < 3 {
                        let segs = tl.segments();
                        let near = segs[(frac * segs.len() as f64) as usize % segs.len()].end();
                        (near.as_nanos() + snap).saturating_sub(1)
                    } else {
                        free
                    };
                    SimTime::from_nanos(ns)
                })
                .collect();
            (tl, instants)
        })
}

/// `Timeline::energy_between` as it was before it bisected: every segment
/// from the first, in order. The oracle for the bisecting version, which must
/// reproduce its `f64`s bit for bit.
fn energy_between_from_scratch(tl: &Timeline, from: SimTime, to: SimTime) -> EnergyBreakdown {
    let mut e = EnergyBreakdown::ZERO;
    if to <= from {
        return e;
    }
    for seg in tl.segments() {
        if seg.end() <= from {
            continue;
        }
        if seg.start >= to {
            break;
        }
        let lo = seg.start.max(from);
        let hi = seg.end().min(to);
        e.accumulate(seg.draw, hi.duration_since(lo).as_secs_f64());
    }
    e
}

fn bits(e: EnergyBreakdown) -> [u64; 5] {
    [e.package_j, e.dram_j, e.disk_j, e.net_j, e.board_j].map(f64::to_bits)
}

#[test]
fn an_empty_timeline_has_no_energy_anywhere() {
    let tl = Timeline::new();
    for ns in [0, 1, 1_000_000_000, u64::MAX] {
        let e = tl.energy_between(SimTime::ZERO, SimTime::from_nanos(ns));
        assert_eq!(bits(e), bits(EnergyBreakdown::ZERO));
    }
}

proptest! {
    /// Total energy equals the closed-form sum of segment power × duration.
    #[test]
    fn energy_integration_is_exact(tl in arb_timeline()) {
        let expected: f64 = tl
            .segments()
            .iter()
            .map(|s| s.draw.system_w() * s.duration.as_secs_f64())
            .sum();
        prop_assert!((tl.total_energy_j() - expected).abs() <= 1e-9 * expected.max(1.0));
    }

    /// Energy over the full window equals total energy; windows partition.
    #[test]
    fn energy_between_partitions(tl in arb_timeline(), cut_frac in 0.0..1.0f64) {
        let end = tl.end();
        let cut = SimTime::from_nanos((end.as_nanos() as f64 * cut_frac) as u64);
        let a = tl.energy_between(SimTime::ZERO, cut).system_j();
        let b = tl.energy_between(cut, end).system_j();
        let total = tl.total_energy_j();
        prop_assert!((a + b - total).abs() <= 1e-6 * total.max(1.0), "{a} + {b} != {total}");
    }

    /// Bisecting to the first overlapping segment changes no bit of any
    /// window's energy: forwards, backwards (empty) and degenerate windows,
    /// `from` before the first segment, `to` past `end()`.
    #[test]
    fn energy_between_is_bit_equal_to_the_from_scratch_fold(
        (tl, instants) in arb_timeline_and_instants(),
    ) {
        for pair in instants.windows(2) {
            for (from, to) in [(pair[0], pair[1]), (pair[1], pair[0]), (pair[0], pair[0])] {
                prop_assert_eq!(
                    bits(tl.energy_between(from, to)),
                    bits(energy_between_from_scratch(&tl, from, to)),
                    "window {}..{}", from, to
                );
            }
        }
    }

    /// Phase durations sum to the full run length, and phase energies to the
    /// total energy.
    #[test]
    fn phase_accounting_partitions(tl in arb_timeline()) {
        let dur_sum: SimDuration = Phase::ALL.iter().map(|&p| tl.phase_duration(p)).sum();
        prop_assert_eq!(dur_sum.as_nanos(), tl.end().as_nanos());
        let e_sum: f64 = Phase::ALL.iter().map(|&p| tl.phase_energy(p).system_j()).sum();
        let total = tl.total_energy_j();
        prop_assert!((e_sum - total).abs() <= 1e-6 * total.max(1.0));
    }

    /// Average power is always between the min and max segment power.
    #[test]
    fn average_power_is_bounded_by_extremes(tl in arb_timeline()) {
        let avg = tl.average_power_w();
        let lo = tl.segments().iter().map(|s| s.draw.system_w()).fold(f64::INFINITY, f64::min);
        let hi = tl.peak_power_w();
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "{lo} <= {avg} <= {hi}");
    }

    /// draw_at agrees with the owning segment for every sampled instant.
    #[test]
    fn draw_at_matches_segments(tl in arb_timeline(), frac in 0.0..1.0f64) {
        let t = SimTime::from_nanos((tl.end().as_nanos() as f64 * frac) as u64);
        if t < tl.end() {
            let seg = tl
                .segments()
                .iter()
                .find(|s| s.start <= t && t < s.end())
                .expect("contiguous timeline must contain t");
            prop_assert_eq!(tl.draw_at(t), seg.draw);
        }
    }

    /// Disk transfer time is monotone non-decreasing in bytes for every
    /// pattern, and positive power only when time is positive.
    #[test]
    fn disk_time_monotone_in_bytes(
        a in 1u64..1_000_000_000,
        b in 1u64..1_000_000_000,
        pat_sel in 0u8..3,
        op in 512u64..1_048_576,
        qd in 1u32..64,
    ) {
        use greenness_platform::disk::{DiskModel, IoDir};
        let d = DiskModel::seagate_7200rpm_500gb();
        let pattern = match pat_sel {
            0 => AccessPattern::Sequential,
            1 => AccessPattern::Chunked { op_bytes: op },
            _ => AccessPattern::Random { op_bytes: op, queue_depth: qd },
        };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for dir in [IoDir::Read, IoDir::Write] {
            let c_lo = d.transfer(lo, dir, pattern);
            let c_hi = d.transfer(hi, dir, pattern);
            prop_assert!(c_hi.seconds >= c_lo.seconds,
                "bytes {lo}->{hi} gave {} -> {}", c_lo.seconds, c_hi.seconds);
            prop_assert!(c_lo.dyn_w >= 0.0 && c_lo.dyn_w.is_finite());
        }
    }

    /// Node execution always produces physical draws and a contiguous clock.
    #[test]
    fn node_execution_is_physical(
        acts in prop::collection::vec(0u8..6, 1..20),
        bytes in 1u64..50_000_000,
        flops in 1.0..1e12f64,
    ) {
        let mut node = Node::new(HardwareSpec::table1());
        for a in acts {
            let activity = match a {
                0 => Activity::compute(flops, 16),
                1 => Activity::DiskWrite { bytes, pattern: AccessPattern::Sequential, buffered: true },
                2 => Activity::DiskRead { bytes, pattern: AccessPattern::Sequential, buffered: true },
                3 => Activity::DiskRead {
                    bytes,
                    pattern: AccessPattern::Random { op_bytes: 4096, queue_depth: 32 },
                    buffered: false,
                },
                4 => Activity::idle_secs(0.5),
                _ => Activity::MemTraffic { bytes },
            };
            let e = node.execute(activity, Phase::Other);
            prop_assert!(e.draw.is_physical());
            // Every draw is at least the static floor.
            prop_assert!(e.draw.system_w() >= node.spec().static_w() - 1e-9);
        }
        prop_assert_eq!(node.timeline().end(), node.now());
    }
}

/// An arbitrary unit of node work covering every `Activity` variant.
fn arb_activity() -> impl Strategy<Value = Activity> {
    prop_oneof![
        (1.0..1e11f64, 1u32..32, 0u64..100_000_000).prop_map(|(flops, cores, dram_bytes)| {
            Activity::Compute {
                flops,
                cores,
                intensity: 0.8,
                dram_bytes,
            }
        }),
        (1u64..50_000_000, any::<bool>()).prop_map(|(bytes, buffered)| Activity::DiskRead {
            bytes,
            pattern: AccessPattern::Sequential,
            buffered,
        }),
        (1u64..50_000_000, any::<bool>()).prop_map(|(bytes, buffered)| Activity::DiskWrite {
            bytes,
            pattern: AccessPattern::Chunked { op_bytes: 1 << 20 },
            buffered,
        }),
        (1u32..16).prop_map(|seeks| Activity::DiskBarrier { seeks }),
        (1u64..50_000_000).prop_map(|bytes| Activity::MemTraffic { bytes }),
        (0u64..50_000_000, 0u32..64)
            .prop_map(|(bytes, messages)| Activity::NetTransfer { bytes, messages }),
        (0.01..2.0f64).prop_map(Activity::idle_secs),
    ]
}

/// Independent model of the byte counters the tracer must keep: exactly the
/// accounting the energy model applies (buffered disk I/O moves `bytes * 2`
/// through DRAM — device + user copy; network transfers charge DRAM only
/// when they take virtual time).
#[derive(Debug, Default, PartialEq, Eq)]
struct ByteModel {
    reads: u64,
    writes: u64,
    barriers: u64,
    seeks: u64,
    bytes_read: u64,
    bytes_written: u64,
    dram_bytes: u64,
    net_bytes: u64,
    net_messages: u64,
}

impl ByteModel {
    fn apply(&mut self, node: &Node, activity: &Activity) {
        match *activity {
            Activity::Compute { dram_bytes, .. } => self.dram_bytes += dram_bytes,
            Activity::DiskRead {
                bytes, buffered, ..
            } => {
                self.reads += 1;
                self.bytes_read += bytes;
                if buffered {
                    self.dram_bytes += bytes * 2;
                }
            }
            Activity::DiskWrite {
                bytes, buffered, ..
            } => {
                self.writes += 1;
                self.bytes_written += bytes;
                if buffered {
                    self.dram_bytes += bytes * 2;
                }
            }
            Activity::DiskBarrier { seeks } => {
                self.barriers += 1;
                self.seeks += u64::from(seeks);
            }
            Activity::MemTraffic { bytes } => self.dram_bytes += bytes,
            Activity::NetTransfer { bytes, messages } => {
                self.net_bytes += bytes;
                self.net_messages += u64::from(messages);
                if node.cost_of(*activity).0 > 0.0 {
                    self.dram_bytes += bytes;
                }
            }
            Activity::Idle { .. } => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The metrics registry's byte counters match the energy model's own
    /// accounting for arbitrary activity sequences.
    #[test]
    fn byte_counters_mirror_the_energy_model(
        ops in prop::collection::vec(arb_activity(), 1..40),
    ) {
        let mut node = Node::new(HardwareSpec::table1());
        let tracer = greenness_trace::Tracer::jsonl();
        node.set_tracer(tracer);
        let mut model = ByteModel::default();
        for activity in &ops {
            model.apply(&node, activity);
            node.execute(*activity, Phase::Other);
        }
        let t = node.tracer();
        prop_assert_eq!(t.counter("activity.count"), ops.len() as u64);
        prop_assert_eq!(t.counter("disk.reads"), model.reads);
        prop_assert_eq!(t.counter("disk.writes"), model.writes);
        prop_assert_eq!(t.counter("disk.barriers"), model.barriers);
        prop_assert_eq!(t.counter("disk.seeks"), model.seeks);
        prop_assert_eq!(t.counter("disk.bytes_read"), model.bytes_read);
        prop_assert_eq!(t.counter("disk.bytes_written"), model.bytes_written);
        prop_assert_eq!(t.counter("dram.bytes"), model.dram_bytes);
        prop_assert_eq!(t.counter("net.bytes"), model.net_bytes);
        prop_assert_eq!(t.counter("net.messages"), model.net_messages);
    }

    /// Any traced activity sequence yields a journal the summarizer audits
    /// clean: spans balance innermost-first and timestamps never go back.
    #[test]
    fn traced_journals_are_well_formed(
        ops in prop::collection::vec((arb_activity(), 0usize..Phase::ALL.len()), 1..40),
    ) {
        let mut node = Node::new(HardwareSpec::table1());
        node.set_tracer(greenness_trace::Tracer::jsonl());
        node.tracer().begin(0, "run", Vec::new());
        for (activity, phase) in &ops {
            node.execute(*activity, Phase::ALL[*phase]);
        }
        node.finish_trace();
        let end = node.now().as_nanos();
        node.tracer().end(end, "run", Vec::new());
        let out = node.tracer().drain().expect("tracer is on");
        let journal = format!("{}{}", greenness_trace::journal_header(), out.journal);
        let summary = greenness_trace::summarize::summarize(&journal).expect("parseable journal");
        prop_assert!(summary.audit_ok(), "audit errors: {:?}", summary.audit_errors);
        prop_assert!(summary.spans_checked >= 1);
        prop_assert!(summary.events >= ops.len());
    }
}
