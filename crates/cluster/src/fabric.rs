//! The cluster interconnect and clock coordination.
//!
//! Every node carries its own virtual clock; cross-node interactions must
//! keep them causally consistent. The two primitives here are all the
//! higher layers need: [`sync_to`] (idle a node forward to an instant —
//! waiting is *real static energy*, never free) and [`Fabric::transfer`]
//! (occupy both endpoints' NICs for the duration of a message).

use std::cell::RefCell;

use greenness_faults::FaultInjector;
use greenness_platform::{Activity, NetModel, Node, Phase, SimTime};
use greenness_trace::Value;

use crate::error::ClusterError;

/// Idle `node` forward to instant `t` (no-op if already past it). The idle
/// span is charged at static power under the given phase — a node waiting at
/// a barrier or for a remote service burns real energy.
pub fn sync_to(node: &mut Node, t: SimTime, phase: Phase) {
    if t > node.now() {
        let wait = t.duration_since(node.now());
        node.execute(Activity::Idle { duration: wait }, phase);
    }
}

/// Advance every node to the latest clock among them (a barrier).
pub fn barrier(nodes: &mut [Node], phase: Phase) {
    let t = nodes.iter().map(Node::now).max().unwrap_or(SimTime::ZERO);
    for n in nodes {
        sync_to(n, t, phase);
    }
}

/// Record an injected fault on `node`'s tracer (counter + instant); a no-op
/// when tracing is off.
fn trace_fault(node: &Node, site: &'static str, mode: &'static str, attempt: u32, backoff_s: f64) {
    let tracer = node.tracer();
    let counter = match site {
        "staging.send" => "faults.staging.send",
        _ => "faults.fabric.transfer",
    };
    tracer.count(counter, 1);
    tracer.instant(
        node.now().as_nanos(),
        "fault.injected",
        vec![
            ("site", Value::label(site)),
            ("mode", Value::label(mode)),
            ("attempt", Value::from(attempt)),
            ("backoff_s", Value::from(backoff_s)),
        ],
    );
}

/// Per-fabric fault bookkeeping: the schedule plus what it has done so far.
#[derive(Debug, Clone)]
struct FaultState {
    inj: FaultInjector,
    drops: u64,
    delays: u64,
    retries: u64,
}

/// The interconnect between nodes.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// Link model (bandwidth, per-message latency, NIC power).
    pub net: NetModel,
    /// Seeded transfer-fault schedule; `None` is the fault-free fast path.
    /// Interior mutability because transfers take `&self` while both
    /// endpoint nodes are borrowed mutably (runs are single-threaded per
    /// fabric, so a `RefCell` suffices).
    faults: Option<RefCell<FaultState>>,
}

impl Fabric {
    /// A fabric over an arbitrary link model.
    pub fn new(net: NetModel) -> Fabric {
        Fabric { net, faults: None }
    }

    /// Install (or clear) a seeded transfer-fault schedule. Each
    /// [`Self::transfer_reliable`] attempt consumes one slot; a firing slot
    /// drops the payload in flight (entropy even) or delivers it late
    /// (entropy odd).
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector.map(|inj| {
            RefCell::new(FaultState {
                inj,
                drops: 0,
                delays: 0,
                retries: 0,
            })
        });
    }

    /// Injected-fault counters so far: `(drops, delays, retries)`.
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        match &self.faults {
            Some(cell) => {
                let s = cell.borrow();
                (s.drops, s.delays, s.retries)
            }
            None => (0, 0, 0),
        }
    }

    /// [`Self::transfer`] hardened against the fault schedule: a dropped
    /// payload is retransmitted after exponential backoff (both endpoints
    /// idle — real static energy), a delayed one stalls both endpoints
    /// before delivery. Fails only when the retry budget is exhausted. With
    /// no schedule installed this is exactly one plain transfer.
    pub fn transfer_reliable(
        &self,
        src: &mut Node,
        dst: &mut Node,
        bytes: u64,
        messages: u32,
        phase: Phase,
    ) -> Result<SimTime, ClusterError> {
        self.deliver_reliable(src, Some(dst), bytes, messages, phase)
    }

    /// One-sided staged send: only the *sender's* NIC is occupied, and the
    /// payload's arrival instant (the sender's clock after transmission) is
    /// returned without touching the receiver. This is what lets a staging
    /// node drain transfers at its own clock while compute advances — the
    /// receiver later calls [`Self::recv`] once it has idled to the arrival.
    ///
    /// Hardened against the same fault schedule as
    /// [`Self::transfer_reliable`]: a drop retransmits from the still-live
    /// send buffer after backoff (sender-only idle — the receiver never
    /// learns the attempt happened), a delay stalls the sender before the
    /// wire. Fails only when the retry budget is exhausted.
    pub fn send_reliable(
        &self,
        src: &mut Node,
        bytes: u64,
        messages: u32,
        phase: Phase,
    ) -> Result<SimTime, ClusterError> {
        self.deliver_reliable(src, None, bytes, messages, phase)
    }

    /// The one fault loop behind both reliable primitives; each attempt
    /// consumes one schedule slot. With a receiver an attempt is a two-sided
    /// [`Self::transfer`] and a stall idles both endpoints; without one it
    /// is a one-sided [`Self::send`] and only the sender stalls.
    fn deliver_reliable(
        &self,
        src: &mut Node,
        mut dst: Option<&mut Node>,
        bytes: u64,
        messages: u32,
        phase: Phase,
    ) -> Result<SimTime, ClusterError> {
        let deliver = |src: &mut Node, dst: Option<&mut Node>| match dst {
            Some(dst) => self.transfer(src, dst, bytes, messages, phase),
            None => self.send(src, bytes, messages, phase),
        };
        let Some(cell) = &self.faults else {
            return Ok(deliver(src, dst));
        };
        let (site, retries) = match dst {
            Some(_) => ("fabric.transfer", "retries.fabric.transfer"),
            None => ("staging.send", "retries.staging.send"),
        };
        let stall = |src: &mut Node, dst: Option<&mut Node>, pause: f64| {
            src.execute(Activity::idle_secs(pause), phase);
            if let Some(dst) = dst {
                dst.execute(Activity::idle_secs(pause), phase);
            }
        };
        let mut attempt = 0u32;
        loop {
            // Scoped borrow: the injector decision must not be held across
            // the node mutations below.
            let (fault, plan) = {
                let mut s = cell.borrow_mut();
                let f = s.inj.next();
                (f, *s.inj.plan())
            };
            match fault {
                None => return Ok(deliver(src, dst)),
                Some(entropy) if entropy & 1 == 1 => {
                    // Delayed delivery: congestion stalls the endpoints,
                    // then the payload lands intact.
                    cell.borrow_mut().delays += 1;
                    let pause = plan.backoff_s(0);
                    trace_fault(src, site, "delay", attempt, pause);
                    stall(src, dst.as_deref_mut(), pause);
                    return Ok(deliver(src, dst));
                }
                Some(_) => {
                    // Dropped in flight: the transmission was paid for but
                    // the payload is gone (the send buffer is still live);
                    // back off and retransmit.
                    cell.borrow_mut().drops += 1;
                    deliver(src, dst.as_deref_mut());
                    if attempt >= plan.max_retries {
                        // The terminal drop is still an injected fault: trace
                        // it before giving up so the journal's fault.injected
                        // instants stay in lockstep with the drop counter
                        // (no retry is scheduled, hence backoff 0).
                        trace_fault(src, site, "drop", attempt, 0.0);
                        return Err(ClusterError::FabricExhausted {
                            bytes,
                            attempts: attempt + 1,
                        });
                    }
                    let pause = plan.backoff_s(attempt);
                    trace_fault(src, site, "drop", attempt, pause);
                    stall(src, dst.as_deref_mut(), pause);
                    cell.borrow_mut().retries += 1;
                    src.tracer().count(retries, 1);
                    attempt += 1;
                }
            }
        }
    }

    /// The sender half of a staged transfer: occupy `src`'s NIC for the
    /// message and return the arrival instant (= the sender's clock when the
    /// last byte leaves; wire latency is part of the NIC activity).
    fn send(&self, src: &mut Node, bytes: u64, messages: u32, phase: Phase) -> SimTime {
        let a = src.execute(Activity::NetTransfer { bytes, messages }, phase);
        a.end()
    }

    /// The receiver half of a staged transfer: occupy `dst`'s NIC for the
    /// message at its current clock. Callers [`sync_to`] the arrival instant
    /// first; the split keeps the receive charge honest without coupling the
    /// two endpoints' clocks. Returns the receive-completion instant.
    pub fn recv(&self, dst: &mut Node, bytes: u64, messages: u32, phase: Phase) -> SimTime {
        let a = dst.execute(Activity::NetTransfer { bytes, messages }, phase);
        a.end()
    }

    /// Move `bytes` from `src` to `dst` as `messages` messages. The transfer
    /// starts when both endpoints are ready (the earlier one idles) and
    /// occupies both NICs until it completes. Returns the completion instant.
    pub fn transfer(
        &self,
        src: &mut Node,
        dst: &mut Node,
        bytes: u64,
        messages: u32,
        phase: Phase,
    ) -> SimTime {
        let start = src.now().max(dst.now());
        sync_to(src, start, phase);
        sync_to(dst, start, phase);
        let a = src.execute(Activity::NetTransfer { bytes, messages }, phase);
        dst.execute(Activity::NetTransfer { bytes, messages }, phase);
        a.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::HardwareSpec;

    fn node() -> Node {
        Node::new(HardwareSpec::table1())
    }

    #[test]
    fn sync_to_idles_forward_only() {
        let mut n = node();
        sync_to(&mut n, SimTime::from_secs_f64(2.0), Phase::Idle);
        assert_eq!(n.now(), SimTime::from_secs_f64(2.0));
        // Syncing backwards is a no-op.
        sync_to(&mut n, SimTime::from_secs_f64(1.0), Phase::Idle);
        assert_eq!(n.now(), SimTime::from_secs_f64(2.0));
        // The wait was charged at static power.
        let e = n.timeline().total_energy_j();
        assert!((e - n.spec().static_w() * 2.0).abs() < 1e-6);
    }

    #[test]
    fn barrier_aligns_all_clocks() {
        let mut nodes = vec![node(), node(), node()];
        nodes[0].execute(Activity::idle_secs(1.0), Phase::Idle);
        nodes[2].execute(Activity::idle_secs(3.0), Phase::Idle);
        barrier(&mut nodes, Phase::Idle);
        for n in &nodes {
            assert_eq!(n.now(), SimTime::from_secs_f64(3.0));
        }
    }

    #[test]
    fn transfer_occupies_both_endpoints() {
        let fabric = Fabric::new(NetModel::ten_gbe());
        let mut a = node();
        let mut b = node();
        b.execute(Activity::idle_secs(1.0), Phase::Idle); // receiver is "behind"
        let end = fabric.transfer(&mut a, &mut b, 100_000_000, 1, Phase::Network);
        // Start was at b's clock (1.0 s); 100 MB over 1 GB/s = 0.1 s.
        assert!((end.as_secs_f64() - 1.1).abs() < 1e-3, "end {end}");
        assert_eq!(a.now(), b.now());
        // Both NICs drew power.
        assert!(a.timeline().segments().iter().any(|s| s.draw.net_w > 0.0));
        assert!(b.timeline().segments().iter().any(|s| s.draw.net_w > 0.0));
    }

    #[test]
    fn empty_barrier_is_harmless() {
        barrier(&mut [], Phase::Idle);
    }
}
