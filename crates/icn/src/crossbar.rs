//! The on-chip crossbar between cores and the shared LLC.

use pard_sim::{audit, fault, Component, ComponentId, Ctx, Time};

use crate::clock::cpu_cycles;
use crate::event::PardEvent;
use crate::link::Link;

/// Configuration of the [`Crossbar`].
#[derive(Debug, Clone)]
pub struct CrossbarConfig {
    /// Traversal latency per packet (the NoC hop the paper's Figure 1
    /// draws between the cores and the LLC).
    pub latency: Time,
    /// Per-source-port bandwidth in bytes per nanosecond. The default of
    /// 128 B/ns (one 64 B line per 2 GHz cycle) makes the port wire
    /// effectively non-blocking for cache-line traffic, matching the
    /// paper's platform where the crossbar is never the bottleneck.
    pub port_bytes_per_ns: f64,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig {
            latency: cpu_cycles(4),
            port_bytes_per_ns: 128.0,
        }
    }
}

/// The request crossbar: cores' memory requests traverse it to reach the
/// LLC, serialised per source port by a [`Link`].
///
/// Responses return on the dedicated response network (the LLC answers
/// the requester directly), as in the OpenSPARC T1's separate forward and
/// return crossbars — so this component only sees request traffic.
///
/// Source ports are identified by the request's `reply_to` (the
/// requesting component); a port's link is created on first use, in a
/// table indexed by that component's id.
pub struct Crossbar {
    cfg: CrossbarConfig,
    dst: ComponentId,
    ports: Vec<Option<Link>>,
    forwarded: u64,
}

impl Crossbar {
    /// Creates a crossbar forwarding to `dst` (the LLC).
    pub fn new(cfg: CrossbarConfig, dst: ComponentId) -> Self {
        Crossbar {
            cfg,
            dst,
            ports: Vec::new(),
            forwarded: 0,
        }
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl Component<PardEvent> for Crossbar {
    fn name(&self) -> &str {
        "crossbar"
    }

    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        match ev {
            PardEvent::MemReq(pkt) => {
                if audit::enabled() {
                    // The crossbar is the injection point of the core →
                    // LLC conservation domain; the LLC retires the entry.
                    audit::packet_inject(
                        audit::Domain::Xbar,
                        pkt.reply_to.raw(),
                        pkt.id.0,
                        pkt.ds.raw(),
                        ctx.now(),
                    );
                }
                let latency = self.cfg.latency;
                let bw = self.cfg.port_bytes_per_ns;
                // Component ids are dense kernel indices, so the table
                // stays as small as the machine; the placeholder id is not.
                assert!(
                    !pkt.reply_to.is_unwired(),
                    "crossbar request from an unwired source"
                );
                let src = pkt.reply_to.raw() as usize;
                if src >= self.ports.len() {
                    self.ports.resize_with(src + 1, || None);
                }
                let port = self.ports[src].get_or_insert_with(|| Link::new(latency, bw));
                let mut deliver_at = port.delivery_time(ctx.now(), pkt.size);
                if fault::enabled(fault::FaultClass::Xbar) {
                    // Injected port backpressure: the packet is delivered
                    // late, never dropped — the xbar conservation domain
                    // sees the same inject/retire pair.
                    deliver_at += fault::xbar_extra_delay(pkt.reply_to.raw(), ctx.now());
                }
                self.forwarded += 1;
                ctx.send_at(self.dst, deliver_at, PardEvent::MemReq(pkt));
            }
            other => audit::unexpected_event(
                "crossbar",
                other.kind_label(),
                ctx.now(),
                other.ds().map_or(u16::MAX, crate::ds::DsId::raw),
            ),
        }
    }

    pard_sim::impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LAddr;
    use crate::ds::DsId;
    use crate::packet::{MemKind, MemPacket, PacketId};
    use pard_sim::Simulation;

    struct Sink {
        arrivals: Vec<(u64, Time)>,
    }

    impl Component<PardEvent> for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
            if let PardEvent::MemReq(pkt) = ev {
                self.arrivals.push((pkt.id.0, ctx.now()));
            }
        }
        pard_sim::impl_as_any!();
    }

    fn pkt(id: u64, from: ComponentId) -> PardEvent {
        PardEvent::MemReq(MemPacket {
            id: PacketId(id),
            ds: DsId::new(1),
            addr: LAddr::new(0x40),
            kind: MemKind::Read,
            size: 64,
            reply_to: from,
            issued_at: Time::ZERO,
            dma: false,
        })
    }

    #[test]
    fn adds_the_configured_hop_latency() {
        let mut sim: Simulation<PardEvent> = Simulation::new();
        let sink = sim.add_component(Box::new(Sink { arrivals: vec![] }));
        let xbar = sim.add_component(Box::new(Crossbar::new(CrossbarConfig::default(), sink)));
        let core = ComponentId::from_raw(99);
        sim.post(xbar, Time::ZERO, pkt(1, core));
        sim.run_until(Time::from_us(1));
        sim.with_component::<Sink, _, _>(sink, |s| {
            // 64 B at 128 B/ns = 0.5 ns wire + 2 ns latency.
            assert_eq!(s.arrivals, vec![(1, Time::from_units(10))]);
        });
    }

    #[test]
    fn ports_serialise_independently() {
        let cfg = CrossbarConfig {
            latency: Time::ZERO,
            port_bytes_per_ns: 64.0, // 1 ns per line
        };
        let mut sim: Simulation<PardEvent> = Simulation::new();
        let sink = sim.add_component(Box::new(Sink { arrivals: vec![] }));
        let xbar = sim.add_component(Box::new(Crossbar::new(cfg, sink)));
        let (a, b) = (ComponentId::from_raw(10), ComponentId::from_raw(11));
        // Two back-to-back packets from port A, one from port B.
        sim.post(xbar, Time::ZERO, pkt(1, a));
        sim.post(xbar, Time::ZERO, pkt(2, a));
        sim.post(xbar, Time::ZERO, pkt(3, b));
        sim.run_until(Time::from_us(1));
        sim.with_component::<Sink, _, _>(sink, |s| {
            let t = |id: u64| s.arrivals.iter().find(|&&(i, _)| i == id).unwrap().1;
            assert_eq!(t(1), Time::from_ns(1));
            assert_eq!(t(2), Time::from_ns(2), "same port serialises");
            assert_eq!(t(3), Time::from_ns(1), "other port unaffected");
        });
        sim.with_component::<Crossbar, _, _>(xbar, |x| assert_eq!(x.forwarded(), 3));
    }
}
