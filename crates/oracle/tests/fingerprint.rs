//! Property test: `model::fingerprint` sees every field.
//!
//! For many generated worlds (the oracle's property generator), changing
//! any one field of one record, connection, client, site or BGP cell must
//! change the dataset fingerprint, and changing one stamp of a provenance
//! log must change the log's. The manifest, `detcheck` and `explain` prove
//! two runs equal by this value, so a field it skipped would let two
//! different months pass as one.

use model::{
    fingerprint, BgpHourly, ClientCategory, ClientId, Dataset, DigOutcome, FailureClass, FaultSet,
    PrefixId, ProvenanceLog, ProvenanceRecord, ProxyId, SimDuration, SimTime, SiteCategory, SiteId,
    TcpFailureKind, TransactionOutcome,
};
use std::net::Ipv4Addr;

const SEEDS: u64 = 32;

fn next_addr(a: Ipv4Addr) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(a).wrapping_add(1))
}

fn later(t: SimTime) -> SimTime {
    SimTime::from_micros(t.as_micros() + 1)
}

fn longer(d: SimDuration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() + 1)
}

fn toggle<T>(value: Option<T>, some: T) -> Option<T> {
    match value {
        Some(_) => None,
        None => Some(some),
    }
}

fn bgp_cell(d: &mut Dataset, p: PrefixId, h: u32) -> &mut BgpHourly {
    d.bgp.get_mut(p, h).expect("cell is in range")
}

/// Apply `mutate` to a copy of `ds` and require a different fingerprint.
fn assert_changes(seed: u64, ds: &Dataset, what: &str, mutate: impl FnOnce(&mut Dataset)) {
    let mut changed = ds.clone();
    mutate(&mut changed);
    assert_ne!(
        fingerprint(&changed),
        fingerprint(ds),
        "seed {seed}: changing {what} left the fingerprint unchanged"
    );
}

#[test]
fn changing_any_one_field_changes_the_fingerprint() {
    // Worlds that had a record, a connection and a BGP cell to change.
    let mut exercised = [0u32; 3];
    for seed in 0..SEEDS {
        let ds = oracle::gen::property_dataset(seed);
        let check =
            |what: &str, mutate: &dyn Fn(&mut Dataset)| assert_changes(seed, &ds, what, mutate);
        check("hours", &|d| d.hours += 1);
        check("the prefix table", &|d| d.prefixes.push(d.prefixes[0]));

        if !ds.records.is_empty() {
            exercised[0] += 1;
            let i = seed as usize % ds.records.len();
            check("record client", &|d| d.records[i].client.0 ^= 1);
            check("record site", &|d| d.records[i].site.0 ^= 1);
            check("record replica", &|d| {
                let r = &mut d.records[i];
                r.replica = toggle(r.replica, Ipv4Addr::LOCALHOST);
            });
            check("record start", &|d| {
                d.records[i].start = later(d.records[i].start)
            });
            check("record dns", &|d| {
                let r = &mut d.records[i];
                r.dns = match r.dns {
                    Ok(t) => Ok(longer(t)),
                    Err(_) => Ok(SimDuration::ZERO),
                };
            });
            check("record outcome", &|d| {
                let r = &mut d.records[i];
                r.outcome = match r.outcome {
                    TransactionOutcome::Success => {
                        TransactionOutcome::Failure(FailureClass::Http(500))
                    }
                    TransactionOutcome::Failure(_) => TransactionOutcome::Success,
                };
            });
            check("record download_time", &|d| {
                let r = &mut d.records[i];
                r.download_time = toggle(r.download_time, SimDuration::ZERO);
            });
            check("record bytes_received", &|d| {
                d.records[i].bytes_received ^= 1
            });
            check("record connections_attempted", &|d| {
                d.records[i].connections_attempted ^= 1
            });
            check("record retransmissions", &|d| {
                let r = &mut d.records[i];
                r.retransmissions = toggle(r.retransmissions, 0);
            });
            check("record dig", &|d| {
                let r = &mut d.records[i];
                r.dig = match r.dig {
                    DigOutcome::Resolved => DigOutcome::NotRun,
                    _ => DigOutcome::Resolved,
                };
            });
            check("record proxy", &|d| {
                let r = &mut d.records[i];
                r.proxy = toggle(r.proxy, ProxyId(0));
            });
        }

        if !ds.connections.is_empty() {
            exercised[1] += 1;
            let i = seed as usize % ds.connections.len();
            check("connection client", &|d| d.connections[i].client.0 ^= 1);
            check("connection site", &|d| d.connections[i].site.0 ^= 1);
            check("connection replica", &|d| {
                d.connections[i].replica = next_addr(d.connections[i].replica)
            });
            check("connection start", &|d| {
                d.connections[i].start = later(d.connections[i].start)
            });
            check("connection outcome", &|d| {
                let c = &mut d.connections[i];
                c.outcome = match c.outcome {
                    Ok(()) => Err(TcpFailureKind::NoConnection),
                    Err(_) => Ok(()),
                };
            });
            check("connection syn_retransmissions", &|d| {
                d.connections[i].syn_retransmissions ^= 1
            });
            check("connection retransmissions", &|d| {
                let c = &mut d.connections[i];
                c.retransmissions = toggle(c.retransmissions, 0);
            });
        }

        let i = seed as usize % ds.clients.len();
        check("client id", &|d| {
            d.clients[i].id = ClientId(d.clients[i].id.0 ^ 1)
        });
        check("client name", &|d| d.clients[i].name.push('x'));
        check("client category", &|d| {
            let c = &mut d.clients[i];
            c.category = match c.category {
                ClientCategory::PlanetLab => ClientCategory::Broadband,
                _ => ClientCategory::PlanetLab,
            };
        });
        check("client colocation", &|d| {
            let c = &mut d.clients[i];
            c.colocation = toggle(c.colocation, 0);
        });
        check("client proxy", &|d| {
            let c = &mut d.clients[i];
            c.proxy = toggle(c.proxy, ProxyId(0));
        });
        check("client prefixes", &|d| {
            d.clients[i].prefixes.push(PrefixId(0))
        });
        check("client addr", &|d| {
            d.clients[i].addr = next_addr(d.clients[i].addr)
        });

        let i = seed as usize % ds.sites.len();
        check("site id", &|d| d.sites[i].id = SiteId(d.sites[i].id.0 ^ 1));
        check("site hostname", &|d| d.sites[i].hostname.push('x'));
        check("site category", &|d| {
            let s = &mut d.sites[i];
            s.category = match s.category {
                SiteCategory::UsEdu => SiteCategory::IntlMisc,
                _ => SiteCategory::UsEdu,
            };
        });
        check("site addrs", &|d| {
            d.sites[i].addrs.push(Ipv4Addr::LOCALHOST)
        });
        check("site replica_prefixes", &|d| {
            d.sites[i]
                .replica_prefixes
                .push((Ipv4Addr::LOCALHOST, vec![PrefixId(0)]))
        });

        if ds.bgp.prefix_count() > 0 && ds.bgp.hours() > 0 {
            exercised[2] += 1;
            let p = PrefixId((seed % ds.bgp.prefix_count() as u64) as u32);
            let h = seed as u32 % ds.bgp.hours();
            check("bgp announcements", &|d| {
                bgp_cell(d, p, h).announcements ^= 1
            });
            check("bgp withdrawals", &|d| bgp_cell(d, p, h).withdrawals ^= 1);
            check("bgp neighbors_announcing", &|d| {
                bgp_cell(d, p, h).neighbors_announcing ^= 1
            });
            check("bgp neighbors_withdrawing", &|d| {
                bgp_cell(d, p, h).neighbors_withdrawing ^= 1
            });
        }
    }
    assert!(
        exercised.iter().all(|&n| n > SEEDS as u32 / 2),
        "too few worlds exercised a record family: {exercised:?}"
    );
}

#[test]
fn changing_one_stamp_changes_the_log_fingerprint() {
    for seed in 0..SEEDS {
        let ds = oracle::gen::property_dataset(seed);
        let log = ProvenanceLog {
            records: vec![ProvenanceRecord::default(); ds.records.len()],
            ..ProvenanceLog::default()
        };
        if ds.records.is_empty() {
            continue;
        }
        let i = seed as usize % ds.records.len();
        for stamp in [
            ProvenanceRecord {
                dns: FaultSet::LDNS_DOWN,
                ..ProvenanceRecord::default()
            },
            ProvenanceRecord {
                connect: FaultSet::REPLICA_DOWN,
                ..ProvenanceRecord::default()
            },
        ] {
            let mut changed = log.clone();
            changed.records[i] = stamp;
            assert_ne!(
                fingerprint(&changed),
                fingerprint(&log),
                "seed {seed}: stamping record {i} {stamp:?} left the fingerprint unchanged"
            );
        }
    }
}
