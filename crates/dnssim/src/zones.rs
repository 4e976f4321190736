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
    /// `name`, e.g. `[".", "com", "example.com"]` — exactly the zones an
    /// iterative resolution visits.
    pub fn delegation_chain(&self, name: &DomainName) -> Vec<&Zone> {
        let mut chain: Vec<&Zone> = name
            .suffixes()
            .filter_map(|apex| self.zones.get(apex))
            .collect();
        chain.reverse();
        chain
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
            let auth_apex = registrable_domain(host);
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

/// The registrable domain of a hostname (see [`ZoneTree::build_for_hosts`]).
pub fn registrable_domain(host: &DomainName) -> DomainName {
    let labels: Vec<&[u8]> = host.labels().collect();
    let n = labels.len();
    if n <= 2 {
        return host.clone();
    }
    const REGISTRY_SECOND_LEVEL: [&[u8]; 7] = [b"ac", b"co", b"com", b"gov", b"edu", b"org", b"net"];
    // TLD is labels[n-1]; check labels[n-2] for registry suffixes under a
    // two-letter ccTLD.
    let cc_tld = labels[n - 1].len() == 2;
    let take = if cc_tld && REGISTRY_SECOND_LEVEL.contains(&labels[n - 2]) {
        3
    } else {
        2
    };
    let take = take.min(n);
    DomainName::from_labels(labels[n - take..].iter().copied()).expect("sub-name of valid name")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn registrable_domain_rules() {
        assert_eq!(registrable_domain(&name("www.example.com")), name("example.com"));
        assert_eq!(registrable_domain(&name("example.com")), name("example.com"));
        assert_eq!(registrable_domain(&name("com")), name("com"));
        assert_eq!(registrable_domain(&name("www.iitb.ac.in")), name("iitb.ac.in"));
        assert_eq!(registrable_domain(&name("www.bbc.co.uk")), name("bbc.co.uk"));
        assert_eq!(registrable_domain(&name("cs.technion.ac.il")), name("technion.ac.il"));
        assert_eq!(registrable_domain(&name("espn.go.com")), name("go.com"));
        assert_eq!(registrable_domain(&name("games.yahoo.com")), name("yahoo.com"));
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
        let chain = tree.delegation_chain(&name("www.example.com"));
        let apexes: Vec<String> = chain.iter().map(|z| z.apex.to_string()).collect();
        assert_eq!(apexes, vec![".", "com", "example.com"]);
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
