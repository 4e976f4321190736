//! The simulated zone hierarchy.
//!
//! A [`ZoneTree`] holds the authority structure the iterative resolution
//! walks: the root zone, TLD zones, and one authoritative zone per website
//! (or hosting provider). Zones carry NS records with glue, in-zone A and
//! CNAME records, and delegations to child zones.

use dnswire::{DomainName, RData};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One zone of authority.
#[derive(Clone, Debug)]
pub struct Zone {
    /// Zone apex (e.g. `example.com`).
    pub apex: DomainName,
    /// Name servers for this zone with their (glue) addresses.
    pub ns: Vec<(DomainName, Ipv4Addr)>,
    /// In-zone records: owner name → RDATA list (A and CNAME here).
    pub records: HashMap<DomainName, Vec<RData>>,
    /// Default TTL for answers from this zone.
    pub ttl: u32,
}

impl Zone {
    /// Create an empty zone with the given apex and name servers.
    pub fn new(apex: DomainName, ns: Vec<(DomainName, Ipv4Addr)>, ttl: u32) -> Self {
        Zone {
            apex,
            ns,
            records: HashMap::new(),
            ttl,
        }
    }

    /// Add an A record.
    pub fn add_a(&mut self, name: DomainName, addr: Ipv4Addr) {
        self.records.entry(name).or_default().push(RData::A(addr));
    }

    /// Add a CNAME record.
    pub fn add_cname(&mut self, name: DomainName, target: DomainName) {
        self.records
            .entry(name)
            .or_default()
            .push(RData::Cname(target));
    }

    /// Look up a name inside this zone; `None` when it does not exist.
    pub fn lookup(&self, name: &DomainName) -> Option<&[RData]> {
        self.records.get(name).map(|v| v.as_slice())
    }

    /// The zone's answer to an A query for `qname`, name by name: each name
    /// on `qname`'s in-zone CNAME chain with its records, at most eight
    /// names. The chain moves on to a name's first CNAME target while the
    /// name holds no A record and the target lies in the zone, so the
    /// answer's addresses are its last name's A records. Empty when the
    /// zone does not hold `qname` (NXDOMAIN); no addresses when the chain
    /// ends in a CNAME out of zone or runs out of names. The written answer
    /// ([`crate::server::write_authoritative_answer`]) and the codec-free
    /// resolution both read this one chain.
    pub fn answer_chain<'z>(
        &'z self,
        qname: &'z DomainName,
    ) -> impl Iterator<Item = (&'z DomainName, &'z [RData])> + 'z {
        let mut next = Some(qname);
        std::iter::from_fn(move || {
            let owner = next.take()?;
            let records = self.lookup(owner)?;
            if !records.iter().any(|r| matches!(r, RData::A(_))) {
                next = records
                    .iter()
                    .find_map(|r| match r {
                        RData::Cname(target) => Some(target),
                        _ => None,
                    })
                    .filter(|target| target.is_subdomain_of(&self.apex));
            }
            Some((owner, records))
        })
        .take(8)
    }

    /// Append to `out` the addresses of the zone's answer for `qname`: the
    /// A records its [`Self::answer_chain`] ends in.
    pub fn answer_addresses(&self, qname: &DomainName, out: &mut Vec<Ipv4Addr>) {
        out.extend(
            self.answer_chain(qname)
                .flat_map(|(_, records)| records)
                .filter_map(|r| match r {
                    RData::A(a) => Some(*a),
                    _ => None,
                }),
        );
    }
}

/// The full hierarchy, keyed by zone apex.
#[derive(Clone, Debug, Default)]
pub struct ZoneTree {
    zones: HashMap<DomainName, Zone>,
}

impl ZoneTree {
    pub fn new() -> Self {
        ZoneTree::default()
    }

    /// Insert (or replace) a zone.
    pub fn insert(&mut self, zone: Zone) {
        self.zones.insert(zone.apex.clone(), zone);
    }

    pub fn zone(&self, apex: &DomainName) -> Option<&Zone> {
        self.zones.get(apex)
    }

    pub fn zone_mut(&mut self, apex: &DomainName) -> Option<&mut Zone> {
        self.zones.get_mut(apex)
    }

    pub fn len(&self) -> usize {
        self.zones.len()
    }

    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// The most-specific zone whose apex is an ancestor of (or equal to)
    /// `name` — the zone an authoritative answer for `name` comes from.
    pub fn authoritative_zone(&self, name: &DomainName) -> Option<&Zone> {
        name.suffixes().find_map(|apex| self.zones.get(apex))
    }

    /// The delegation chain from the root down to the authoritative zone of
    /// `name`, e.g. `.`, `com`, `example.com` — exactly the zones an
    /// iterative resolution visits, in visiting order. Nothing is
    /// collected: each step probes the map with the next longer borrowed
    /// suffix, found again by a short walk over the name's few labels.
    pub fn delegation_chain<'a>(&'a self, name: &'a DomainName) -> impl Iterator<Item = &'a Zone> {
        let labels = name.suffixes().count() - 1;
        (0..=labels).rev().filter_map(move |k| {
            let apex = name
                .suffixes()
                .nth(k)
                .expect("k counts the name's suffixes");
            self.zones.get(apex)
        })
    }

    /// Iterate all zones (apex order unspecified).
    pub fn zones(&self) -> impl Iterator<Item = &Zone> {
        self.zones.values()
    }

    /// Convenience builder: a root zone plus TLD zones for every distinct
    /// TLD among `hostnames`, plus one authoritative zone per registrable
    /// domain with an A record for the full hostname. Returns the tree.
    ///
    /// The "registrable domain" here is the last two labels (e.g.
    /// `example.com` for `www.example.com`) or the last three when the
    /// second-level label is a well-known registry suffix (`ac`, `co`,
    /// `com`, `gov`, `edu`, `org`, `net` under a ccTLD), matching how the
    /// paper's site list is structured (e.g. `iitb.ac.in`, `bbc.co.uk`).
    pub fn build_for_hosts(hosts: &[(DomainName, Vec<Ipv4Addr>)]) -> ZoneTree {
        let mut tree = ZoneTree::new();
        let root_ns: Vec<(DomainName, Ipv4Addr)> = (b'a'..=b'd')
            .map(|c| {
                let name: DomainName = format!("{}.root-servers.example", c as char)
                    .parse()
                    .expect("static name");
                (name, Ipv4Addr::new(192, 0, 32, (c - b'a') + 1))
            })
            .collect();
        tree.insert(Zone::new(DomainName::root(), root_ns, 86_400));

        let mut next_ns_octet: u16 = 1;
        for (host, addrs) in hosts {
            let auth_apex = host
                .ancestor(registrable_domain(host))
                .expect("a suffix of the host");
            // TLD zone.
            let tld = auth_apex
                .hierarchy()
                .get(1)
                .cloned()
                .unwrap_or_else(DomainName::root);
            if !tld.is_root() && tree.zone(&tld).is_none() {
                let ns_name = tld.child("tld-ns").expect("valid label");
                let ns_addr = Ipv4Addr::new(192, 5, (next_ns_octet % 200) as u8 + 1, 30);
                next_ns_octet += 1;
                tree.insert(Zone::new(tld.clone(), vec![(ns_name, ns_addr)], 43_200));
            }
            // Authoritative zone.
            if tree.zone(&auth_apex).is_none() {
                let ns1 = auth_apex.child("ns1").expect("valid label");
                let ns2 = auth_apex.child("ns2").expect("valid label");
                let base = Ipv4Addr::new(198, 18, (next_ns_octet % 250) as u8, 53);
                let base2 = Ipv4Addr::new(198, 19, (next_ns_octet % 250) as u8, 53);
                next_ns_octet += 1;
                tree.insert(Zone::new(
                    auth_apex.clone(),
                    vec![(ns1, base), (ns2, base2)],
                    7_200,
                ));
            }
            let zone = tree.zone_mut(&auth_apex).expect("just inserted");
            for addr in addrs {
                zone.add_a(host.clone(), *addr);
            }
        }
        tree
    }
}

/// The registrable domain of a hostname (see [`ZoneTree::build_for_hosts`]):
/// the host's own wire suffix, borrowed, so fault maps keyed by zone apex
/// are probed without building the apex.
pub fn registrable_domain(host: &DomainName) -> &[u8] {
    const REGISTRY_SECOND_LEVEL: [&[u8]; 7] = [b"ac", b"co", b"com", b"gov", b"edu", b"org", b"net"];
    fn first_label(suffix: &[u8]) -> &[u8] {
        &suffix[1..=usize::from(suffix[0])]
    }
    // The suffixes of one, two and three labels: the last three before the
    // root octet.
    let (mut one, mut two, mut three) = (None, None, None);
    for suffix in host.suffixes().take_while(|s| s[0] != 0) {
        (three, two, one) = (two, one, Some(suffix));
    }
    let (Some(tld), Some(second), Some(three)) = (one, two, three) else {
        return host.as_wire(); // two labels or fewer
    };
    // The TLD is the last label; under a two-letter ccTLD a registry
    // second-level label (`ac.in`, `co.uk`) takes one more.
    if first_label(tld).len() == 2 && REGISTRY_SECOND_LEVEL.contains(&first_label(second)) {
        three
    } else {
        second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn registrable_domain_rules() {
        for (host, apex) in [
            ("www.example.com", "example.com"),
            ("example.com", "example.com"),
            ("com", "com"),
            (".", "."),
            ("www.iitb.ac.in", "iitb.ac.in"),
            ("www.bbc.co.uk", "bbc.co.uk"),
            ("bbc.co.uk", "bbc.co.uk"),
            ("cs.technion.ac.il", "technion.ac.il"),
            ("espn.go.com", "go.com"),
            ("games.yahoo.com", "yahoo.com"),
            ("a.b.example.org", "example.org"),
            ("www.site.xx.uk", "xx.uk"),
        ] {
            let host = name(host);
            assert_eq!(registrable_domain(&host), name(apex).as_wire(), "{host}");
            assert_eq!(host.ancestor(registrable_domain(&host)), Some(name(apex)));
        }
    }

    #[test]
    fn zone_lookup() {
        let mut z = Zone::new(name("example.com"), vec![], 300);
        z.add_a(name("www.example.com"), Ipv4Addr::new(10, 0, 0, 1));
        z.add_cname(name("web.example.com"), name("www.example.com"));
        assert_eq!(
            z.lookup(&name("www.example.com")),
            Some(&[RData::A(Ipv4Addr::new(10, 0, 0, 1))][..])
        );
        assert!(z.lookup(&name("nosuch.example.com")).is_none());
    }

    #[test]
    fn answer_chain_follows_in_zone_cnames_to_the_addresses() {
        let mut z = Zone::new(name("example.com"), vec![], 300);
        let a = Ipv4Addr::new(10, 0, 0, 1);
        z.add_a(name("www.example.com"), a);
        z.add_cname(name("web.example.com"), name("www.example.com"));
        z.add_cname(name("w3.example.com"), name("web.example.com"));
        z.add_cname(name("out.example.com"), name("www.other.org"));
        z.add_cname(name("ping.example.com"), name("pong.example.com"));
        z.add_cname(name("pong.example.com"), name("ping.example.com"));
        let owners = |q: &str| -> Vec<String> {
            z.answer_chain(&name(q))
                .map(|(owner, _)| owner.to_string())
                .collect()
        };
        let addresses = |q: &str| {
            let mut out = Vec::new();
            z.answer_addresses(&name(q), &mut out);
            out
        };
        assert_eq!(
            owners("w3.example.com"),
            ["w3.example.com", "web.example.com", "www.example.com"]
        );
        assert_eq!(addresses("w3.example.com"), [a]);
        assert_eq!(owners("out.example.com"), ["out.example.com"]);
        assert!(addresses("out.example.com").is_empty());
        assert_eq!(
            owners("ping.example.com").len(),
            8,
            "a loop stops at eight names"
        );
        assert!(addresses("ping.example.com").is_empty());
        assert!(owners("nosuch.example.com").is_empty());
    }

    #[test]
    fn authoritative_zone_longest_match() {
        let mut tree = ZoneTree::new();
        tree.insert(Zone::new(DomainName::root(), vec![], 300));
        tree.insert(Zone::new(name("com"), vec![], 300));
        tree.insert(Zone::new(name("example.com"), vec![], 300));
        let z = tree.authoritative_zone(&name("www.example.com")).unwrap();
        assert_eq!(z.apex, name("example.com"));
        let z = tree.authoritative_zone(&name("other.org")).unwrap();
        assert!(z.apex.is_root());
    }

    #[test]
    fn delegation_chain_order() {
        let tree = ZoneTree::build_for_hosts(&[(
            name("www.example.com"),
            vec![Ipv4Addr::new(10, 0, 0, 1)],
        )]);
        let host = name("www.example.com");
        let apexes: Vec<String> = tree.delegation_chain(&host).map(|z| z.apex.to_string()).collect();
        assert_eq!(apexes, vec![".", "com", "example.com"]);
        let root = DomainName::root();
        let apexes: Vec<String> = tree.delegation_chain(&root).map(|z| z.apex.to_string()).collect();
        assert_eq!(apexes, vec!["."]);
    }

    #[test]
    fn build_for_hosts_structure() {
        let hosts = vec![
            (name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]),
            (name("www.example.org"), vec![Ipv4Addr::new(10, 0, 1, 1)]),
            (
                name("www.iitb.ac.in"),
                vec![
                    Ipv4Addr::new(10, 0, 2, 1),
                    Ipv4Addr::new(10, 0, 2, 2),
                    Ipv4Addr::new(10, 0, 2, 3),
                ],
            ),
        ];
        let tree = ZoneTree::build_for_hosts(&hosts);
        // root + 3 TLDs (com, org, in) + 3 auth zones
        assert_eq!(tree.len(), 7);
        let auth = tree.authoritative_zone(&name("www.iitb.ac.in")).unwrap();
        assert_eq!(auth.apex, name("iitb.ac.in"));
        assert_eq!(auth.lookup(&name("www.iitb.ac.in")).unwrap().len(), 3);
        // every zone has at least one NS with glue
        for z in tree.zones() {
            assert!(!z.ns.is_empty(), "zone {} has no NS", z.apex);
        }
    }

    #[test]
    fn shared_registrable_domain_shares_zone() {
        let hosts = vec![
            (name("games.yahoo.com"), vec![Ipv4Addr::new(10, 1, 0, 1)]),
            (name("weather.yahoo.com"), vec![Ipv4Addr::new(10, 1, 0, 2)]),
        ];
        let tree = ZoneTree::build_for_hosts(&hosts);
        // root + com + yahoo.com
        assert_eq!(tree.len(), 3);
        let z = tree.authoritative_zone(&name("games.yahoo.com")).unwrap();
        assert!(z.lookup(&name("games.yahoo.com")).is_some());
        assert!(z.lookup(&name("weather.yahoo.com")).is_some());
    }
}
