//! The node under test: executes activities, advances the virtual clock, and
//! records the power timeline.

use greenness_trace::{Tracer, Value};

use crate::activity::Activity;
use crate::disk::{DiskOpCost, IoDir};
use crate::phase::Phase;
use crate::power::PowerDraw;
use crate::spec::HardwareSpec;
use crate::time::{SimDuration, SimTime};
use crate::timeline::{Segment, Timeline};

/// Result of executing one activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Executed {
    /// When the activity started.
    pub start: SimTime,
    /// How long it took.
    pub duration: SimDuration,
    /// The power drawn while it ran.
    pub draw: PowerDraw,
}

impl Executed {
    /// The instant the activity finished.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Full-system energy the activity consumed, joules.
    pub fn energy_j(&self) -> f64 {
        self.draw.system_w() * self.duration.as_secs_f64()
    }

    /// Disk power above idle during the activity — the paper's Table III
    /// "disk dynamic power" metric. The caller supplies the device idle power.
    pub fn disk_dyn_w(&self, disk_idle_w: f64) -> f64 {
        (self.draw.disk_w - disk_idle_w).max(0.0)
    }
}

/// A simulated HPC node: hardware models + virtual clock + power history.
#[derive(Debug, Clone)]
pub struct Node {
    spec: HardwareSpec,
    now: SimTime,
    timeline: Timeline,
    /// Extra package power while energy monitoring is attached. The paper
    /// measured +0.2 W for 1 Hz RAPL polling (§IV-B).
    monitoring_overhead_w: f64,
    /// Observability handle; `Tracer::off()` costs one branch per activity.
    tracer: Tracer,
    /// Phase whose journal span is currently open.
    open_phase: Option<Phase>,
    /// Disk activity state ("idle"/"read"/"write"/"barrier") for
    /// state-transition events.
    disk_state: &'static str,
}

impl Node {
    /// A fresh node at `t = 0` with the given hardware.
    pub fn new(spec: HardwareSpec) -> Self {
        Node {
            spec,
            now: SimTime::ZERO,
            timeline: Timeline::new(),
            monitoring_overhead_w: 0.0,
            tracer: Tracer::off(),
            open_phase: None,
            disk_state: "idle",
        }
    }

    /// Attach a tracer: subsequent activities emit journal events and bump
    /// metrics counters through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer (off by default). Cloning it is cheap — clones
    /// share the same journal and registry.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Close the open phase span (if any) and take a final per-phase metrics
    /// snapshot. Call once when the run is over, before reading the journal.
    pub fn finish_trace(&mut self) {
        if let Some(phase) = self.open_phase.take() {
            let t = self.now.as_nanos();
            self.tracer
                .end(t, "phase", vec![("phase", Value::label(phase.label()))]);
            self.tracer.snapshot(&format!("phase:{}", phase.label()));
        }
    }

    /// The node's hardware description.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The power history recorded so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Consume the node, returning its timeline.
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }

    /// Attach (or detach, with `0.0`) an energy monitor drawing
    /// `overhead_w` extra package power from now on.
    pub fn set_monitoring_overhead_w(&mut self, overhead_w: f64) {
        self.monitoring_overhead_w = overhead_w.max(0.0);
    }

    /// The baseline draw with every subsystem idle.
    pub fn idle_draw(&self) -> PowerDraw {
        PowerDraw {
            package_w: self.spec.cpu.idle_w() + self.monitoring_overhead_w,
            dram_w: self.spec.dram.background_w,
            disk_w: self.spec.disk.idle_w,
            net_w: 0.0,
            board_w: self.spec.board_w,
        }
    }

    /// Execute `activity` under `phase`: advance the clock and append a power
    /// segment. Returns what was recorded.
    pub fn execute(&mut self, activity: Activity, phase: Phase) -> Executed {
        let (secs, draw) = self.cost_of(activity);
        self.record(Some(&activity), secs, draw, phase)
    }

    /// Record an explicit `(seconds, draw)` span — for callers that costed
    /// an activity against a *different* hardware configuration (e.g. a
    /// DVFS-scaled CPU) and replay it here. The draw must be physical.
    pub fn execute_raw(&mut self, secs: f64, draw: PowerDraw, phase: Phase) -> Executed {
        self.record(None, secs, draw, phase)
    }

    /// Trace `activity` (`None` for a raw span), push its segment and
    /// advance the clock.
    fn record(
        &mut self,
        activity: Option<&Activity>,
        secs: f64,
        draw: PowerDraw,
        phase: Phase,
    ) -> Executed {
        if self.tracer.is_on() {
            self.trace_activity(activity, phase, secs, &draw);
        }
        let duration = SimDuration::from_secs_f64(secs);
        let start = self.now;
        self.timeline.push(Segment {
            start,
            duration,
            draw,
            phase,
        });
        self.now += duration;
        Executed {
            start,
            duration,
            draw,
        }
    }

    /// Journal + metrics for one activity (tracing is already known to be
    /// on). Phase transitions open/close spans and snapshot the registry;
    /// byte counters mirror the energy model's accounting exactly: buffered
    /// disk I/O moves `bytes * 2` through DRAM (device + user copy), network
    /// transfers charge DRAM only when they take time.
    fn trace_activity(
        &mut self,
        activity: Option<&Activity>,
        phase: Phase,
        secs: f64,
        draw: &PowerDraw,
    ) {
        let t = self.now.as_nanos();
        if self.open_phase != Some(phase) {
            if let Some(prev) = self.open_phase {
                self.tracer
                    .end(t, "phase", vec![("phase", Value::label(prev.label()))]);
                self.tracer.snapshot(&format!("phase:{}", prev.label()));
            }
            self.tracer
                .begin(t, "phase", vec![("phase", Value::label(phase.label()))]);
            self.open_phase = Some(phase);
        }
        let (kind, disk_state) = match activity {
            Some(Activity::Compute { .. }) => ("compute", "idle"),
            Some(Activity::DiskRead { .. }) => ("disk_read", "read"),
            Some(Activity::DiskWrite { .. }) => ("disk_write", "write"),
            Some(Activity::DiskBarrier { .. }) => ("disk_barrier", "barrier"),
            Some(Activity::MemTraffic { .. }) => ("mem_traffic", "idle"),
            Some(Activity::NetTransfer { .. }) => ("net_transfer", "idle"),
            Some(Activity::Idle { .. }) => ("idle", "idle"),
            None => ("raw", "idle"),
        };
        if disk_state != self.disk_state {
            self.tracer.instant(
                t,
                "disk.state",
                vec![
                    ("from", Value::label(self.disk_state)),
                    ("to", Value::label(disk_state)),
                ],
            );
            self.tracer.count("disk.state_transitions", 1);
            self.disk_state = disk_state;
        }
        let mut bytes = 0u64;
        match activity {
            Some(&Activity::Compute { dram_bytes, .. }) => {
                self.tracer.count("dram.bytes", dram_bytes);
            }
            Some(&Activity::DiskRead {
                bytes: b, buffered, ..
            }) => {
                bytes = b;
                self.tracer.count("disk.reads", 1);
                self.tracer.count("disk.bytes_read", b);
                if buffered {
                    self.tracer.count("dram.bytes", b * 2);
                }
            }
            Some(&Activity::DiskWrite {
                bytes: b, buffered, ..
            }) => {
                bytes = b;
                self.tracer.count("disk.writes", 1);
                self.tracer.count("disk.bytes_written", b);
                if buffered {
                    self.tracer.count("dram.bytes", b * 2);
                }
            }
            Some(&Activity::DiskBarrier { seeks }) => {
                self.tracer.count("disk.barriers", 1);
                self.tracer.count("disk.seeks", u64::from(seeks));
            }
            Some(&Activity::MemTraffic { bytes: b }) => {
                bytes = b;
                self.tracer.count("dram.bytes", b);
            }
            Some(&Activity::NetTransfer { bytes: b, messages }) => {
                bytes = b;
                self.tracer.count("net.bytes", b);
                self.tracer.count("net.messages", u64::from(messages));
                if secs > 0.0 {
                    self.tracer.count("dram.bytes", b);
                }
            }
            Some(&Activity::Idle { .. }) | None => {}
        }
        self.tracer.count("activity.count", 1);
        self.tracer.instant(
            t,
            "activity",
            vec![
                ("phase", Value::label(phase.label())),
                ("kind", Value::label(kind)),
                ("secs", Value::from(secs)),
                ("bytes", Value::from(bytes)),
                ("package_w", Value::from(draw.package_w)),
                ("dram_w", Value::from(draw.dram_w)),
                ("disk_w", Value::from(draw.disk_w)),
                ("net_w", Value::from(draw.net_w)),
                ("board_w", Value::from(draw.board_w)),
            ],
        );
    }

    /// Compute the `(seconds, draw)` an activity would cost without executing
    /// it — used by planners such as the pipeline advisor.
    pub fn cost_of(&self, activity: Activity) -> (f64, PowerDraw) {
        let spec = &self.spec;
        let mut draw = self.idle_draw();
        let secs = match activity {
            Activity::Compute {
                flops,
                cores,
                intensity,
                dram_bytes,
            } => {
                let secs = spec.cpu.compute_seconds(flops, cores);
                draw.package_w = spec.cpu.busy_w(cores, intensity) + self.monitoring_overhead_w;
                draw.dram_w += spec.dram.dynamic_w(dram_bytes, secs);
                secs
            }
            Activity::DiskRead {
                bytes,
                pattern,
                buffered,
            } => {
                let cost = spec.disk.transfer(bytes, IoDir::Read, pattern);
                draw = self.disk_draw(cost, 0.0, buffered.then_some((IoDir::Read, bytes)));
                cost.seconds
            }
            Activity::DiskWrite {
                bytes,
                pattern,
                buffered,
            } => {
                let cost = spec.disk.transfer(bytes, IoDir::Write, pattern);
                draw = self.disk_draw(cost, 0.0, buffered.then_some((IoDir::Write, bytes)));
                cost.seconds
            }
            Activity::DiskBarrier { seeks } => {
                // Journal commits keep the kernel busy alongside the disk.
                let cost = spec.disk.barrier(seeks);
                draw = self.disk_draw(cost, 0.0, (seeks > 0).then_some((IoDir::Write, 0)));
                cost.seconds
            }
            Activity::MemTraffic { bytes } => {
                let secs = spec.dram.transfer_seconds(bytes);
                draw.package_w = spec.cpu.io_busy_w(false) + self.monitoring_overhead_w;
                draw.dram_w += spec.dram.dynamic_w(bytes, secs);
                secs
            }
            Activity::NetTransfer { bytes, messages } => {
                let secs = spec.net.transfer_seconds(bytes, messages);
                draw.net_w += spec.net.active_w;
                draw.package_w = spec.cpu.io_busy_w(false) + self.monitoring_overhead_w;
                if secs > 0.0 {
                    draw.dram_w += spec.dram.dynamic_w(bytes, secs);
                }
                secs
            }
            Activity::Idle { duration } => duration.as_secs_f64(),
        };
        (secs, draw)
    }

    /// The draw of one disk operation costing `cost`, with `extra_idle_w` of
    /// further idle devices (a tiered store's upper tiers) on the disk
    /// channel. `busy` is the kernel driving a transfer of that direction
    /// and size, each byte crossing DRAM twice (device and user copy);
    /// `None` leaves the package and DRAM idle. The one place a disk
    /// operation is priced: [`Self::cost_of`] and the tiered store both
    /// come here.
    pub fn disk_draw(
        &self,
        cost: DiskOpCost,
        extra_idle_w: f64,
        busy: Option<(IoDir, u64)>,
    ) -> PowerDraw {
        let mut draw = self.idle_draw();
        draw.disk_w = (draw.disk_w + extra_idle_w) + cost.dyn_w;
        if let Some((dir, bytes)) = busy {
            draw.package_w =
                self.spec.cpu.io_busy_w(dir == IoDir::Read) + self.monitoring_overhead_w;
            draw.dram_w += self.spec.dram.dynamic_w(bytes * 2, cost.seconds);
        }
        draw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::AccessPattern;
    use crate::units::{GIB, KIB};

    fn node() -> Node {
        Node::new(HardwareSpec::table1())
    }

    #[test]
    fn idle_draw_is_static_power() {
        let n = node();
        assert!((n.idle_draw().system_w() - n.spec().static_w()).abs() < 1e-9);
    }

    #[test]
    fn simulation_phase_power_matches_fig5() {
        // Full-tilt 16-core compute at the calibrated DRAM traffic rate draws
        // ≈143 W full-system (the Figure 5 simulation-phase level).
        let mut n = node();
        let flops = 1.57 / n.spec().cpu.compute_seconds(1.0, 16); // 1.57 s of work
        let e = n.execute(
            Activity::Compute {
                flops,
                cores: 16,
                intensity: 1.0,
                dram_bytes: 19_800_000_000,
            },
            Phase::Simulation,
        );
        assert!((e.duration.as_secs_f64() - 1.57).abs() < 0.01);
        let sys = e.draw.system_w();
        assert!((sys - 143.0).abs() < 0.5, "got {sys}");
        // Processor trace ≈71.8 W, DRAM trace ≈16.3 W (Fig. 5 levels).
        assert!((e.draw.package_w - 71.8).abs() < 0.1);
        assert!((e.draw.dram_w - 16.3).abs() < 0.2);
    }

    #[test]
    fn fio_sequential_read_power_matches_table3() {
        let mut n = node();
        let e = n.execute(
            Activity::DiskRead {
                bytes: 4 * GIB,
                pattern: AccessPattern::Sequential,
                buffered: false,
            },
            Phase::IoBench,
        );
        // Paper: 35.9 s at 118 W full-system, disk dynamic 13.5 W.
        assert!((e.duration.as_secs_f64() - 35.9).abs() < 0.1);
        assert!(
            (e.draw.system_w() - 118.0).abs() < 0.6,
            "got {}",
            e.draw.system_w()
        );
        assert!((e.disk_dyn_w(n.spec().disk.idle_w) - 13.5).abs() < 0.1);
    }

    #[test]
    fn fio_random_read_power_matches_table3() {
        let mut n = node();
        let e = n.execute(
            Activity::DiskRead {
                bytes: 4 * GIB,
                pattern: AccessPattern::Random {
                    op_bytes: 4 * KIB,
                    queue_depth: 32,
                },
                buffered: false,
            },
            Phase::IoBench,
        );
        assert!((e.duration.as_secs_f64() - 2230.0).abs() < 50.0);
        assert!(
            (e.draw.system_w() - 107.0).abs() < 0.6,
            "got {}",
            e.draw.system_w()
        );
    }

    #[test]
    fn buffered_io_charges_cpu_assist() {
        let mut n = node();
        let direct = n.cost_of(Activity::DiskRead {
            bytes: GIB,
            pattern: AccessPattern::Sequential,
            buffered: false,
        });
        let buffered = n.cost_of(Activity::DiskRead {
            bytes: GIB,
            pattern: AccessPattern::Sequential,
            buffered: true,
        });
        assert!(buffered.1.package_w > direct.1.package_w + 5.0);
        // Same device time either way.
        assert!((buffered.0 - direct.0).abs() < 1e-12);
        let _ = n.execute(Activity::idle_secs(1.0), Phase::Idle);
    }

    #[test]
    fn clock_advances_and_timeline_is_contiguous() {
        let mut n = node();
        n.execute(Activity::idle_secs(2.0), Phase::Idle);
        n.execute(Activity::compute(1e9, 16), Phase::Simulation);
        n.execute(
            Activity::DiskWrite {
                bytes: 128 * KIB,
                pattern: AccessPattern::Sequential,
                buffered: true,
            },
            Phase::Write,
        );
        assert_eq!(n.timeline().end(), n.now());
        assert!(n.now().as_secs_f64() > 2.0);
    }

    #[test]
    fn monitoring_overhead_raises_package_power() {
        let mut n = node();
        let before = n.idle_draw().package_w;
        n.set_monitoring_overhead_w(0.2);
        assert!((n.idle_draw().package_w - before - 0.2).abs() < 1e-12);
        // Negative overheads are clamped.
        n.set_monitoring_overhead_w(-5.0);
        assert_eq!(n.idle_draw().package_w, before);
    }

    #[test]
    fn idle_energy_is_static_power_times_time() {
        let mut n = node();
        n.execute(Activity::idle_secs(10.0), Phase::Idle);
        let e = n.timeline().total_energy_j();
        assert!((e - n.spec().static_w() * 10.0).abs() < 1e-6);
    }

    #[test]
    fn cost_of_does_not_advance_clock() {
        let n = node();
        let (secs, _) = n.cost_of(Activity::compute(1e12, 16));
        assert!(secs > 0.0);
        assert_eq!(n.now(), SimTime::ZERO);
        assert!(n.timeline().is_empty());
    }
}
