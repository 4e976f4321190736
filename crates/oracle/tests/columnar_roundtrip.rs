//! Property test: the columnar layout is a *lossless* re-encoding of the row
//! layout. For many generated worlds (the oracle's property generator, which
//! deliberately hits the sentinel edge cases: silent pairs, single samples,
//! proxied clients with `replica: None`, traceless records with
//! `retransmissions: None`), `ColumnarDataset::from_dataset` followed by
//! `to_dataset` must reproduce every record, connection, and metadata field
//! exactly, and with them the dataset's `model::fingerprint`.
//!
//! Every field in the data model is integer-typed (times are integer
//! microseconds, BGP activity is packet/neighbor counts), so `==` *is* the
//! bit-exact comparison. If an f64 field is ever added, compare it here via
//! `to_bits()` so NaNs and signed zeros round-trip too.

use model::{ColumnarDataset, Dataset};

/// Field-for-field equality of two datasets, with a per-field panic message
/// so a regression names the column that lost information.
fn assert_datasets_equal(seed: u64, a: &Dataset, b: &Dataset) {
    assert_eq!(a.hours, b.hours, "seed {seed}: hours");

    assert_eq!(a.clients.len(), b.clients.len(), "seed {seed}: client count");
    for (i, (x, y)) in a.clients.iter().zip(&b.clients).enumerate() {
        assert_eq!(x.id, y.id, "seed {seed}: client {i} id");
        assert_eq!(x.name, y.name, "seed {seed}: client {i} name");
        assert_eq!(x.category, y.category, "seed {seed}: client {i} category");
        assert_eq!(x.colocation, y.colocation, "seed {seed}: client {i} colocation");
        assert_eq!(x.proxy, y.proxy, "seed {seed}: client {i} proxy");
        assert_eq!(x.prefixes, y.prefixes, "seed {seed}: client {i} prefixes");
        assert_eq!(x.addr, y.addr, "seed {seed}: client {i} addr");
    }

    assert_eq!(a.sites.len(), b.sites.len(), "seed {seed}: site count");
    for (i, (x, y)) in a.sites.iter().zip(&b.sites).enumerate() {
        assert_eq!(x.id, y.id, "seed {seed}: site {i} id");
        assert_eq!(x.hostname, y.hostname, "seed {seed}: site {i} hostname");
        assert_eq!(x.category, y.category, "seed {seed}: site {i} category");
        assert_eq!(x.addrs, y.addrs, "seed {seed}: site {i} addrs");
        assert_eq!(
            x.replica_prefixes, y.replica_prefixes,
            "seed {seed}: site {i} replica_prefixes"
        );
    }

    assert_eq!(a.records.len(), b.records.len(), "seed {seed}: record count");
    for (i, (x, y)) in a.records.iter().zip(&b.records).enumerate() {
        assert_eq!(x.client, y.client, "seed {seed}: record {i} client");
        assert_eq!(x.site, y.site, "seed {seed}: record {i} site");
        assert_eq!(x.replica, y.replica, "seed {seed}: record {i} replica");
        assert_eq!(x.start, y.start, "seed {seed}: record {i} start");
        assert_eq!(x.dns, y.dns, "seed {seed}: record {i} dns");
        assert_eq!(x.outcome, y.outcome, "seed {seed}: record {i} outcome");
        assert_eq!(x.download_time, y.download_time, "seed {seed}: record {i} download_time");
        assert_eq!(x.bytes_received, y.bytes_received, "seed {seed}: record {i} bytes_received");
        assert_eq!(
            x.connections_attempted, y.connections_attempted,
            "seed {seed}: record {i} connections_attempted"
        );
        assert_eq!(
            x.retransmissions, y.retransmissions,
            "seed {seed}: record {i} retransmissions"
        );
        assert_eq!(x.dig, y.dig, "seed {seed}: record {i} dig");
        assert_eq!(x.proxy, y.proxy, "seed {seed}: record {i} proxy");
    }

    assert_eq!(a.connections.len(), b.connections.len(), "seed {seed}: connection count");
    for (i, (x, y)) in a.connections.iter().zip(&b.connections).enumerate() {
        assert_eq!(x.client, y.client, "seed {seed}: connection {i} client");
        assert_eq!(x.site, y.site, "seed {seed}: connection {i} site");
        assert_eq!(x.replica, y.replica, "seed {seed}: connection {i} replica");
        assert_eq!(x.start, y.start, "seed {seed}: connection {i} start");
        assert_eq!(x.outcome, y.outcome, "seed {seed}: connection {i} outcome");
        assert_eq!(
            x.syn_retransmissions, y.syn_retransmissions,
            "seed {seed}: connection {i} syn_retransmissions"
        );
        assert_eq!(
            x.retransmissions, y.retransmissions,
            "seed {seed}: connection {i} retransmissions"
        );
    }

    assert_eq!(a.prefixes, b.prefixes, "seed {seed}: prefix table");
    assert_eq!(a.bgp.hours(), b.bgp.hours(), "seed {seed}: bgp hours");
    assert_eq!(a.bgp.prefix_count(), b.bgp.prefix_count(), "seed {seed}: bgp prefix count");
    for p in 0..a.bgp.prefix_count() {
        let p = model::PrefixId(p as u32);
        assert_eq!(
            a.bgp.prefix_series(p),
            b.bgp.prefix_series(p),
            "seed {seed}: bgp series for prefix {p:?}"
        );
    }
}

#[test]
fn columnar_round_trip_is_lossless_on_property_worlds() {
    for seed in 0..64u64 {
        let ds = oracle::gen::property_dataset(seed);
        let cds = ColumnarDataset::from_dataset(&ds);
        let back = cds.to_dataset();
        assert_datasets_equal(seed, &ds, &back);
        assert_eq!(
            model::fingerprint(&back),
            model::fingerprint(&ds),
            "seed {seed}: fingerprint"
        );
    }
}

/// The derived per-index accessors (the ones the sharded scans read) must
/// agree with the row record's own derived views, not just the full
/// reconstruction: this pins the hour/offset split and the failure-class
/// sentinel encodings directly.
#[test]
fn columnar_accessors_match_row_views() {
    for seed in 0..64u64 {
        let ds = oracle::gen::property_dataset(seed);
        let cds = ColumnarDataset::from_dataset(&ds);
        assert_eq!(cds.txn_len(), ds.records.len(), "seed {seed}");
        assert_eq!(cds.conn_len(), ds.connections.len(), "seed {seed}");
        for (i, r) in ds.records.iter().enumerate() {
            assert_eq!(cds.txn_hour(i), r.hour(), "seed {seed}: txn {i} hour");
            assert_eq!(cds.txn_start(i), r.start, "seed {seed}: txn {i} start");
            assert_eq!(cds.txn_failed(i), r.failed(), "seed {seed}: txn {i} failed");
            assert_eq!(cds.txn_failure(i), r.failure(), "seed {seed}: txn {i} failure");
            assert_eq!(cds.txn_outcome(i), r.outcome, "seed {seed}: txn {i} outcome");
            assert_eq!(
                cds.txn_proxied(i),
                r.proxy.is_some(),
                "seed {seed}: txn {i} proxied"
            );
        }
        for (i, c) in ds.connections.iter().enumerate() {
            assert_eq!(cds.conn_hour(i), c.hour(), "seed {seed}: conn {i} hour");
            assert_eq!(cds.conn_failed(i), c.failed(), "seed {seed}: conn {i} failed");
            assert_eq!(cds.conn_failure(i), c.failure(), "seed {seed}: conn {i} failure");
        }
    }
}
