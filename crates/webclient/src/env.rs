//! The per-vantage fault/topology view a session runs against.

use dnssim::DnsFaults;
use dnswire::DomainName;
use httpsim::Origin;
use model::{FaultSet, SimTime};
use tcpsim::{PathQuality, ServerBehavior};
use std::net::Ipv4Addr;

/// Everything a client (or proxy) vantage point needs to know about the
/// world at an instant. Implementations are built per-client by the
/// experiment's ground-truth fault model, so methods take no client
/// parameter; pair-specific conditions (e.g. the paper's near-permanent
/// client-server blocks) are folded into [`Self::server_behavior`].
///
/// `DnsFaults` is a supertrait: the same view answers the resolver's
/// questions.
///
/// Both ground-truth fault sets are simulation-only observability:
/// implementations read them from materialized fault timelines, and any
/// draw behind a behaviour is a stateless hash, never a random stream or
/// mutable state, so stamping leaves the RNG draw order bit-identical.
pub trait AccessEnvironment: DnsFaults {
    /// Ground-truth condition of the path/server toward `replica` from this
    /// vantage at `t`, together with the fault set it was read from. The
    /// set names exactly the conditions the connection met; the flight
    /// recorder stamps it as the connect phase's truth. Environments that
    /// model no faults return [`FaultSet::EMPTY`].
    fn server_behavior(&self, replica: Ipv4Addr, t: SimTime) -> (ServerBehavior, FaultSet);

    /// Path quality (loss, RTT) toward `replica` at `t`.
    fn path_quality(&self, replica: Ipv4Addr, t: SimTime) -> PathQuality;

    /// HTTP behaviour of the origin serving `host`, if the host is known.
    fn origin(&self, host: &DomainName) -> Option<&Origin>;

    /// Ground-truth faults affecting *name resolution* of `host` from this
    /// vantage at `t` — the flight recorder's DNS-phase probe, called only
    /// while an observer is on. The default (no faults known) keeps simple
    /// test environments working.
    fn true_dns_faults(&self, _host: &DomainName, _t: SimTime) -> FaultSet {
        FaultSet::EMPTY
    }
}

/// A fully healthy, single-origin environment for tests and examples.
#[derive(Clone, Debug)]
pub struct HealthyEnv {
    pub origin: Origin,
    pub path: PathQuality,
}

impl HealthyEnv {
    pub fn new(origin: Origin) -> Self {
        HealthyEnv {
            origin,
            path: PathQuality::default(),
        }
    }
}

impl DnsFaults for HealthyEnv {}

impl AccessEnvironment for HealthyEnv {
    fn server_behavior(&self, _replica: Ipv4Addr, _t: SimTime) -> (ServerBehavior, FaultSet) {
        (ServerBehavior::Healthy, FaultSet::EMPTY)
    }

    fn path_quality(&self, _replica: Ipv4Addr, _t: SimTime) -> PathQuality {
        self.path
    }

    fn origin(&self, host: &DomainName) -> Option<&Origin> {
        // One known origin; a redirect chain's hosts all belong to it.
        self.origin
            .hosts()
            .any(|h| h == host)
            .then_some(&self.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn healthy_env_answers() {
        let env = HealthyEnv::new(Origin::simple(name("www.example.com"), 1000));
        let t = SimTime::ZERO;
        let a = Ipv4Addr::new(10, 0, 0, 1);
        assert_eq!(
            env.server_behavior(a, t),
            (ServerBehavior::Healthy, FaultSet::EMPTY)
        );
        assert!(env.origin(&name("www.example.com")).is_some());
        assert!(env.origin(&name("WWW.EXAMPLE.COM")).is_some());
        assert!(env.origin(&name("other.example")).is_none());
        assert!(env.client_link_up(t));
    }

    #[test]
    fn redirect_hosts_are_known() {
        let env = HealthyEnv::new(
            Origin::simple(name("www.example.com"), 1000).with_redirects(vec![name("example.com")]),
        );
        assert!(env.origin(&name("example.com")).is_some());
    }
}
