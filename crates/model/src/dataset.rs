//! The assembled measurement dataset.
//!
//! [`Dataset`] is what a full experiment run produces and what the analysis
//! framework consumes: client/site metadata, every performance and connection
//! record, the announced-prefix table, and the cleaned hourly BGP series.

use crate::bgp::BgpHourlySeries;
use crate::ids::{ClientCategory, ClientId, PrefixId, ProxyId, SiteCategory, SiteId};
use crate::net::Ipv4Prefix;
use crate::records::{ConnectionRecord, PerformanceRecord};
use std::net::Ipv4Addr;

/// Static description of one measurement client.
#[derive(Clone, Debug, Hash)]
pub struct ClientMeta {
    pub id: ClientId,
    /// Human-readable host name (e.g. `planetlab1.cs.example.edu`).
    pub name: String,
    pub category: ClientCategory,
    /// Co-location group: clients sharing a campus/subnet carry the same
    /// group id (used by the Section 4.4.6 similarity analysis).
    pub colocation: Option<u16>,
    /// The caching proxy this client's accesses are forced through, if any.
    pub proxy: Option<ProxyId>,
    /// The announced prefix(es) covering this client's address (1 or 2; the
    /// paper considers both when a more-specific might be filtered).
    pub prefixes: Vec<PrefixId>,
    /// The client's own address.
    pub addr: Ipv4Addr,
}

/// Static description of one target website.
#[derive(Clone, Debug, Hash)]
pub struct SiteMeta {
    pub id: SiteId,
    /// Hostname as listed in Table 2 (without scheme).
    pub hostname: String,
    pub category: SiteCategory,
    /// Ground-truth server IPs (the analysis re-derives *qualified* replicas
    /// from the connection records, per Section 4.5; this field is the
    /// simulated truth, kept for validation).
    pub addrs: Vec<Ipv4Addr>,
    /// Prefixes covering each replica address (parallel to flattened addr
    /// list; an address may map to up to 2 prefixes).
    pub replica_prefixes: Vec<(Ipv4Addr, Vec<PrefixId>)>,
}

/// A complete experiment dataset.
#[derive(Clone, Debug, Default, Hash)]
pub struct Dataset {
    /// Number of 1-hour episodes the experiment spans (744 for the paper's
    /// month).
    pub hours: u32,
    pub clients: Vec<ClientMeta>,
    pub sites: Vec<SiteMeta>,
    pub records: Vec<PerformanceRecord>,
    pub connections: Vec<ConnectionRecord>,
    /// The announced-prefix table, indexed by [`PrefixId`].
    pub prefixes: Vec<Ipv4Prefix>,
    /// Cleaned hourly BGP activity per prefix.
    pub bgp: BgpHourlySeries,
}

impl Default for ClientMeta {
    fn default() -> Self {
        ClientMeta {
            id: ClientId(0),
            name: String::new(),
            category: ClientCategory::PlanetLab,
            colocation: None,
            proxy: None,
            prefixes: Vec::new(),
            addr: Ipv4Addr::UNSPECIFIED,
        }
    }
}

impl Dataset {
    /// Metadata for `client`. Panics on unknown id (ids are dense).
    pub fn client(&self, id: ClientId) -> &ClientMeta {
        &self.clients[id.0 as usize]
    }

    /// Metadata for `site`. Panics on unknown id (ids are dense).
    pub fn site(&self, id: SiteId) -> &SiteMeta {
        &self.sites[id.0 as usize]
    }

    /// The prefix for a [`PrefixId`].
    pub fn prefix(&self, id: PrefixId) -> Ipv4Prefix {
        self.prefixes[id.0 as usize]
    }

    /// All prefixes covering `addr` (longest first; ties keep prefix-table
    /// order).
    pub fn prefixes_covering(&self, addr: Ipv4Addr) -> Vec<PrefixId> {
        let mut out: Vec<PrefixId> = self
            .prefixes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.contains(addr))
            .map(|(i, _)| PrefixId(i as u32))
            .collect();
        out.sort_by_key(|id| std::cmp::Reverse(self.prefix(*id).len()));
        out
    }

    /// Clients in a given category.
    pub fn clients_in(&self, cat: ClientCategory) -> impl Iterator<Item = &ClientMeta> {
        self.clients.iter().filter(move |c| c.category == cat)
    }

    /// Overall transaction failure rate (0.0 when there are no records).
    pub fn overall_failure_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let failed = self.records.iter().filter(|r| r.failed()).count();
        failed as f64 / self.records.len() as f64
    }

    /// Pairs of distinct clients sharing a co-location group.
    pub fn colocated_pairs(&self) -> Vec<(ClientId, ClientId)> {
        let mut pairs = Vec::new();
        for (i, a) in self.clients.iter().enumerate() {
            let Some(ga) = a.colocation else { continue };
            for b in &self.clients[i + 1..] {
                if b.colocation == Some(ga) {
                    pairs.push((a.id, b.id));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u16, group: Option<u16>) -> ClientMeta {
        ClientMeta {
            id: ClientId(id),
            name: format!("client{id}"),
            colocation: group,
            ..ClientMeta::default()
        }
    }

    #[test]
    fn colocated_pairs_enumeration() {
        let ds = Dataset {
            clients: vec![
                meta(0, Some(1)),
                meta(1, Some(1)),
                meta(2, Some(1)),
                meta(3, Some(2)),
                meta(4, None),
                meta(5, Some(2)),
            ],
            ..Dataset::default()
        };
        let pairs = ds.colocated_pairs();
        // group 1 has 3 clients → 3 pairs; group 2 has 2 clients → 1 pair.
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&(ClientId(0), ClientId(2))));
        assert!(pairs.contains(&(ClientId(3), ClientId(5))));
    }

    #[test]
    fn prefix_cover_longest_first() {
        let ds = Dataset {
            prefixes: vec![
                "10.0.0.0/8".parse().unwrap(),
                "10.1.0.0/16".parse().unwrap(),
                "192.0.2.0/24".parse().unwrap(),
            ],
            ..Dataset::default()
        };
        let covering = ds.prefixes_covering(Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(covering, vec![PrefixId(1), PrefixId(0)]);
        assert!(ds.prefixes_covering(Ipv4Addr::new(8, 8, 8, 8)).is_empty());
    }

    #[test]
    fn empty_dataset_rates() {
        let ds = Dataset::default();
        assert_eq!(ds.overall_failure_rate(), 0.0);
    }
}
