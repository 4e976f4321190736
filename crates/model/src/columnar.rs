//! Structure-of-arrays dataset core.
//!
//! [`ColumnarDataset`] holds the exact information of a [`Dataset`] in dense
//! per-field columns: one narrow `Vec` per record field instead of one wide
//! struct per record. The row layout spends ~88 bytes per transaction and
//! ~32 per connection (enum tags, `Option` discriminants, and alignment
//! padding dominate); the columns spend 36 and 18 — and a shard-wise scan
//! that only needs `(client, site, hour, failed)` touches 9 bytes per
//! record instead of dragging whole cache lines of unused fields through L1.
//!
//! # Sentinel encodings
//!
//! `Option`/`Result` fields are niche-packed into the value range of a
//! narrow integer column instead of carrying a discriminant byte plus
//! padding:
//!
//! * `u16` columns reserve [`NONE_U16`] for `None` and [`SPILL_U16`] for
//!   values too wide for the column;
//! * `u32` columns reserve [`NONE_U32`] / [`SPILL_U32`] the same way;
//! * spilled values live in a sorted side table ([`Spill`]), looked up by
//!   record index only when the sentinel is seen.
//!
//! Spill tables are empty for every world the simulator produces today (a
//! month is ~2.7e9 µs and the fleet has hundreds of replicas, not 65 534),
//! but they make the encoding *lossless by construction*: the
//! columnar↔row round-trip property test feeds adversarial values through
//! them rather than trusting the narrow ranges.
//!
//! Timestamps split into an hour column and a sub-hour offset column
//! (`start = hour * 3_600_000_000 + offset`): the hour is what every
//! episode-grid scan needs, pre-divided, and the offset always fits `u32`
//! because an hour is 3.6e9 µs.
//!
//! Replica addresses and transaction outcomes are interned: the column
//! stores a `u16` index into a small first-appearance-ordered side table.
//! Interning order is a pure function of record order, which is itself
//! thread-invariant, so the columnar form is bit-deterministic.
//!
//! # Fingerprint contract
//!
//! Conversion is exact in both directions: `from_dataset` followed by
//! [`ColumnarDataset::to_dataset`] reproduces every field bit-for-bit, and
//! the per-record accessors ([`ColumnarDataset::record`],
//! [`ColumnarDataset::connection`]) reconstruct individual rows on demand.
//! Analysis stages that scan columns therefore see exactly the values the
//! row scan saw, and report fingerprints are byte-identical — the oracle
//! crate's differential checker holds this at thread counts 1/2/7.

use crate::bgp::BgpHourlySeries;
use crate::dataset::{ClientMeta, Dataset, SiteMeta};
use crate::failure::{DnsErrorCode, DnsFailureKind, FailureClass, TcpFailureKind};
use crate::ids::{ClientId, ProxyId, SiteId};
use crate::net::Ipv4Prefix;
use crate::records::{ConnectionRecord, DigOutcome, PerformanceRecord, TransactionOutcome};
use crate::time::{SimDuration, SimTime, MICROS_PER_HOUR};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// `None` sentinel of a `u16` column.
pub const NONE_U16: u16 = u16::MAX;
/// Spill sentinel of a `u16` column (value in the spill table).
pub const SPILL_U16: u16 = u16::MAX - 1;
/// `None` sentinel of a `u32` column.
pub const NONE_U32: u32 = u32::MAX;
/// Spill sentinel of a `u32` column that also needs `None` (value in the
/// spill table).
pub const SPILL_U32: u32 = u32::MAX - 1;
/// Spill sentinel of a `u32` column with no `None` case.
pub const SPILL_ONLY_U32: u32 = u32::MAX;

/// Connect-phase duration (µs) below which an all-attempts-refused
/// transaction reads as an access-policy reset instead of an outage
/// (Section 4.4.2). Immediate RSTs finish a full retry ladder in a few
/// seconds; one genuine SYN timeout alone takes ≥ 45 s.
pub const RESET_FAST_MICROS: u64 = 20_000_000;

/// Per-transaction blame reading of a failed (or successful) transaction,
/// computed straight off the columns without reconstructing the row.
///
/// Encodes the paper's Section 4.2 DNS-blame rules plus the Section 4.4.2
/// access-policy reading:
///
/// * an LDNS timeout means the client could not reach its own resolver —
///   the client side is at fault ([`TxnBlameHint::ClientDns`]);
/// * a DNS error response (NXDOMAIN/SERVFAIL/REFUSED) came from the
///   authoritative chain — the server side is at fault
///   ([`TxnBlameHint::AuthDns`]);
/// * a non-LDNS timeout can be the wide-area path or the zone's servers —
///   ambiguous, resolved by episode grids ([`TxnBlameHint::Ambiguous`]);
/// * a connect phase that fails with `Tcp(NoConnection)` *fast* (every
///   attempt refused immediately, no SYN timeouts) is the signature of an
///   access policy — a middlebox or server resetting the connection — not
///   of an outage ([`TxnBlameHint::PolicyReset`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnBlameHint {
    /// The transaction succeeded.
    Success,
    /// DNS failed at the client's own resolver (LDNS timeout).
    ClientDns,
    /// DNS failed with an error response from the authoritative chain.
    AuthDns,
    /// Every connection attempt was refused fast — access policy, not
    /// outage.
    PolicyReset,
    /// Failure attributable to either side (non-LDNS DNS timeout, TCP
    /// timeout, HTTP error); episode grids decide.
    Ambiguous,
}

/// Sparse (record index → wide value) side table for column values that do
/// not fit the narrow encoding. Pushed in index order during construction,
/// so reads are a binary search; empty for every realistic world.
#[derive(Clone, Debug, Default)]
pub struct Spill<T> {
    entries: Vec<(u32, T)>,
}

impl<T: Copy> Spill<T> {
    fn push(&mut self, index: usize, value: T) {
        debug_assert!(self
            .entries
            .last()
            .is_none_or(|&(i, _)| (i as usize) < index));
        self.entries.push((index as u32, value));
    }

    /// The spilled value for `index`. Panics if the index never spilled —
    /// callers only get here after seeing the spill sentinel in the column.
    pub fn get(&self, index: usize) -> T {
        let at = self
            .entries
            .binary_search_by_key(&(index as u32), |&(i, _)| i)
            .expect("spill sentinel without spill entry");
        self.entries[at].1
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u32, T)>()
    }
}

/// Dense per-field columns of the transaction records, all of equal length.
#[derive(Clone, Debug, Default)]
pub struct TxnColumns {
    pub client: Vec<u16>,
    pub site: Vec<u16>,
    /// Hour bin of the start time ([`SPILL_ONLY_U32`] → `start_spill`).
    pub hour: Vec<u32>,
    /// Microseconds into the hour (always `< 3.6e9`; valid unless spilled).
    pub start_off: Vec<u32>,
    pub start_spill: Spill<u64>,
    /// Interned replica index ([`NONE_U16`]/[`SPILL_U16`]).
    pub replica: Vec<u16>,
    pub replica_spill: Spill<u32>,
    /// DNS result tag: 0 = Ok (latency in `dns_micros`), else the failure
    /// kind via [`decode_dns_kind`].
    pub dns_kind: Vec<u8>,
    /// DNS latency in µs when `dns_kind == 0` ([`SPILL_ONLY_U32`]); 0
    /// otherwise.
    pub dns_micros: Vec<u32>,
    pub dns_spill: Spill<u64>,
    /// Interned outcome tag ([`SPILL_U16`] → `outcome_spill`).
    pub outcome: Vec<u16>,
    pub outcome_spill: Spill<u32>,
    /// Download time in µs ([`NONE_U32`]/[`SPILL_U32`]).
    pub download: Vec<u32>,
    pub download_spill: Spill<u64>,
    /// Bytes received ([`SPILL_ONLY_U32`]).
    pub bytes: Vec<u32>,
    pub bytes_spill: Spill<u64>,
    pub conns_attempted: Vec<u16>,
    /// Trace-visible retransmissions ([`NONE_U16`]/[`SPILL_U16`]).
    pub retx: Vec<u16>,
    pub retx_spill: Spill<u32>,
    /// Dig outcome via [`decode_dig`].
    pub dig: Vec<u8>,
    /// Proxy id ([`NONE_U16`]/[`SPILL_U16`]).
    pub proxy: Vec<u16>,
    pub proxy_spill: Spill<u16>,
}

/// Dense per-field columns of the connection records.
#[derive(Clone, Debug, Default)]
pub struct ConnColumns {
    pub client: Vec<u16>,
    pub site: Vec<u16>,
    /// Hour bin ([`SPILL_ONLY_U32`] → `start_spill`).
    pub hour: Vec<u32>,
    pub start_off: Vec<u32>,
    pub start_spill: Spill<u64>,
    /// Interned replica index ([`SPILL_U16`]; connections always have one).
    pub replica: Vec<u16>,
    pub replica_spill: Spill<u32>,
    /// 0 = Ok, else the TCP failure kind via [`decode_tcp_kind`].
    pub outcome: Vec<u8>,
    pub syn_retx: Vec<u8>,
    /// Trace-visible retransmissions ([`NONE_U16`]/[`SPILL_U16`]).
    pub retx: Vec<u16>,
    pub retx_spill: Spill<u32>,
}

/// Memory accounting of one dataset in both layouts, from column/`Vec`
/// capacities (a peak-working-set estimate, not an allocator census).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryFootprint {
    /// Heap bytes of the columnar record columns + spill and side tables.
    pub columnar_bytes: usize,
    /// Heap bytes the same records occupy as `Vec<PerformanceRecord>` /
    /// `Vec<ConnectionRecord>` (len × struct size; the rows have no
    /// per-record heap fields).
    pub row_bytes: usize,
}

impl MemoryFootprint {
    /// Row bytes over columnar bytes (≥ 1 means the columns are smaller).
    pub fn reduction(&self) -> f64 {
        self.row_bytes as f64 / self.columnar_bytes.max(1) as f64
    }
}

/// The structure-of-arrays form of a [`Dataset`].
#[derive(Clone, Debug, Default)]
pub struct ColumnarDataset {
    pub hours: u32,
    pub txn: TxnColumns,
    pub conn: ConnColumns,
    /// Unique replica addresses in first-appearance order (shared by the
    /// transaction and connection replica columns).
    pub replica_addrs: Vec<Ipv4Addr>,
    /// Unique transaction outcomes in first-appearance order.
    pub outcomes: Vec<TransactionOutcome>,
    /// Interned tag of `TransactionOutcome::Success` (`NONE_U32` if the
    /// dataset has no successes).
    success_tag: u32,
    /// Client and site metadata, as the row dataset holds it (a few KB).
    pub clients: Vec<ClientMeta>,
    pub sites: Vec<SiteMeta>,
    pub prefixes: Vec<Ipv4Prefix>,
    pub bgp: BgpHourlySeries,
}

fn encode_dns_kind(kind: DnsFailureKind) -> u8 {
    match kind {
        DnsFailureKind::LdnsTimeout => 1,
        DnsFailureKind::NonLdnsTimeout => 2,
        DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain) => 3,
        DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail) => 4,
        DnsFailureKind::ErrorResponse(DnsErrorCode::Refused) => 5,
    }
}

/// Inverse of the DNS failure-kind tag (tags 1..=5; 0 means no failure).
pub fn decode_dns_kind(tag: u8) -> DnsFailureKind {
    match tag {
        1 => DnsFailureKind::LdnsTimeout,
        2 => DnsFailureKind::NonLdnsTimeout,
        3 => DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain),
        4 => DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail),
        5 => DnsFailureKind::ErrorResponse(DnsErrorCode::Refused),
        _ => unreachable!("invalid dns kind tag {tag}"),
    }
}

fn encode_dig(dig: DigOutcome) -> u8 {
    match dig {
        DigOutcome::Resolved => 0,
        DigOutcome::Failed(kind) => encode_dns_kind(kind),
        DigOutcome::NotRun => 6,
    }
}

/// Inverse of the dig tag (0 = resolved, 1..=5 = failed kind, 6 = not run).
pub fn decode_dig(tag: u8) -> DigOutcome {
    match tag {
        0 => DigOutcome::Resolved,
        6 => DigOutcome::NotRun,
        k => DigOutcome::Failed(decode_dns_kind(k)),
    }
}

fn encode_tcp_kind(kind: TcpFailureKind) -> u8 {
    match kind {
        TcpFailureKind::NoConnection => 1,
        TcpFailureKind::NoResponse => 2,
        TcpFailureKind::PartialResponse => 3,
        TcpFailureKind::NoOrPartialResponse => 4,
    }
}

/// Inverse of the TCP failure-kind tag (tags 1..=4; 0 means success).
pub fn decode_tcp_kind(tag: u8) -> TcpFailureKind {
    match tag {
        1 => TcpFailureKind::NoConnection,
        2 => TcpFailureKind::NoResponse,
        3 => TcpFailureKind::PartialResponse,
        4 => TcpFailureKind::NoOrPartialResponse,
        _ => unreachable!("invalid tcp kind tag {tag}"),
    }
}

/// Split a timestamp into (hour column value, offset column value), spilling
/// the full microsecond count when the hour quotient exceeds the column.
fn push_start(
    start: SimTime,
    index: usize,
    hour_col: &mut Vec<u32>,
    off_col: &mut Vec<u32>,
    spill: &mut Spill<u64>,
) {
    let micros = start.as_micros();
    let quot = micros / MICROS_PER_HOUR;
    if quot >= u64::from(SPILL_ONLY_U32) {
        hour_col.push(SPILL_ONLY_U32);
        off_col.push(0);
        spill.push(index, micros);
    } else {
        hour_col.push(quot as u32);
        off_col.push((micros % MICROS_PER_HOUR) as u32);
    }
}

fn read_start(index: usize, hour_col: &[u32], off_col: &[u32], spill: &Spill<u64>) -> SimTime {
    let h = hour_col[index];
    if h == SPILL_ONLY_U32 {
        SimTime::from_micros(spill.get(index))
    } else {
        SimTime::from_micros(u64::from(h) * MICROS_PER_HOUR + u64::from(off_col[index]))
    }
}

/// Hour bin as the row path computes it (`SimTime::hour_bin` truncates, so
/// a spilled start truncates the same way).
fn read_hour(index: usize, hour_col: &[u32], spill: &Spill<u64>) -> u32 {
    let h = hour_col[index];
    if h == SPILL_ONLY_U32 {
        SimTime::from_micros(spill.get(index)).hour_bin()
    } else {
        h
    }
}

/// Push an optional small integer into a `u16` column with NONE/SPILL
/// niches.
fn push_opt_u16(value: Option<u16>, index: usize, col: &mut Vec<u16>, spill: &mut Spill<u16>) {
    match value {
        None => col.push(NONE_U16),
        Some(v) if v >= SPILL_U16 => {
            col.push(SPILL_U16);
            spill.push(index, v);
        }
        Some(v) => col.push(v),
    }
}

fn read_opt_u16(index: usize, col: &[u16], spill: &Spill<u16>) -> Option<u16> {
    match col[index] {
        NONE_U16 => None,
        SPILL_U16 => Some(spill.get(index)),
        v => Some(v),
    }
}

/// Push an optional `u32` into a `u16` column with NONE/SPILL niches.
fn push_opt_u32_narrow(
    value: Option<u32>,
    index: usize,
    col: &mut Vec<u16>,
    spill: &mut Spill<u32>,
) {
    match value {
        None => col.push(NONE_U16),
        Some(v) if v >= u32::from(SPILL_U16) => {
            col.push(SPILL_U16);
            spill.push(index, v);
        }
        Some(v) => col.push(v as u16),
    }
}

fn read_opt_u32_narrow(index: usize, col: &[u16], spill: &Spill<u32>) -> Option<u32> {
    match col[index] {
        NONE_U16 => None,
        SPILL_U16 => Some(spill.get(index)),
        v => Some(u32::from(v)),
    }
}

/// Push a `u64` into a `u32` column with a lone spill niche (no `None`).
fn push_u64(value: u64, index: usize, col: &mut Vec<u32>, spill: &mut Spill<u64>) {
    if value >= u64::from(SPILL_ONLY_U32) {
        col.push(SPILL_ONLY_U32);
        spill.push(index, value);
    } else {
        col.push(value as u32);
    }
}

fn read_u64(index: usize, col: &[u32], spill: &Spill<u64>) -> u64 {
    match col[index] {
        SPILL_ONLY_U32 => spill.get(index),
        v => u64::from(v),
    }
}

/// Push an interned index into a `u16` column, spilling wide indices.
fn push_index(index_value: u32, record: usize, col: &mut Vec<u16>, spill: &mut Spill<u32>) {
    if index_value >= u32::from(SPILL_U16) {
        col.push(SPILL_U16);
        spill.push(record, index_value);
    } else {
        col.push(index_value as u16);
    }
}

fn read_index(record: usize, col: &[u16], spill: &Spill<u32>) -> u32 {
    match col[record] {
        SPILL_U16 => spill.get(record),
        v => u32::from(v),
    }
}

/// First-appearance interner over a small value universe without `Hash`
/// requirements beyond `Eq` — a memo of the last hit makes the common
/// "same outcome as the previous record" case O(1).
struct Interner<T: Copy + Eq + std::hash::Hash> {
    values: Vec<T>,
    index: HashMap<T, u32>,
}

impl<T: Copy + Eq + std::hash::Hash> Interner<T> {
    fn new() -> Self {
        Interner {
            values: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn intern(&mut self, value: T) -> u32 {
        if let Some(&i) = self.index.get(&value) {
            return i;
        }
        let i = self.values.len() as u32;
        self.values.push(value);
        self.index.insert(value, i);
        i
    }
}

fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

impl ColumnarDataset {
    /// Convert a row dataset to columns. Exact: `to_dataset` inverts it
    /// field-for-field.
    pub fn from_dataset(ds: &Dataset) -> ColumnarDataset {
        let mut replicas: Interner<Ipv4Addr> = Interner::new();
        let mut outcomes: Interner<TransactionOutcome> = Interner::new();

        let n = ds.records.len();
        let mut txn = TxnColumns {
            client: Vec::with_capacity(n),
            site: Vec::with_capacity(n),
            hour: Vec::with_capacity(n),
            start_off: Vec::with_capacity(n),
            replica: Vec::with_capacity(n),
            dns_kind: Vec::with_capacity(n),
            dns_micros: Vec::with_capacity(n),
            outcome: Vec::with_capacity(n),
            download: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            conns_attempted: Vec::with_capacity(n),
            retx: Vec::with_capacity(n),
            dig: Vec::with_capacity(n),
            proxy: Vec::with_capacity(n),
            ..TxnColumns::default()
        };
        for (i, r) in ds.records.iter().enumerate() {
            txn.client.push(r.client.0);
            txn.site.push(r.site.0);
            push_start(r.start, i, &mut txn.hour, &mut txn.start_off, &mut txn.start_spill);
            match r.replica {
                None => txn.replica.push(NONE_U16),
                Some(addr) => {
                    let idx = replicas.intern(addr);
                    push_index(idx, i, &mut txn.replica, &mut txn.replica_spill);
                }
            }
            match r.dns {
                Ok(lat) => {
                    txn.dns_kind.push(0);
                    push_u64(lat.as_micros(), i, &mut txn.dns_micros, &mut txn.dns_spill);
                }
                Err(kind) => {
                    txn.dns_kind.push(encode_dns_kind(kind));
                    txn.dns_micros.push(0);
                }
            }
            let tag = outcomes.intern(r.outcome);
            push_index(tag, i, &mut txn.outcome, &mut txn.outcome_spill);
            match r.download_time {
                None => txn.download.push(NONE_U32),
                Some(d) => {
                    let us = d.as_micros();
                    if us >= u64::from(SPILL_U32) {
                        txn.download.push(SPILL_U32);
                        txn.download_spill.push(i, us);
                    } else {
                        txn.download.push(us as u32);
                    }
                }
            }
            push_u64(r.bytes_received, i, &mut txn.bytes, &mut txn.bytes_spill);
            txn.conns_attempted.push(r.connections_attempted);
            push_opt_u32_narrow(r.retransmissions, i, &mut txn.retx, &mut txn.retx_spill);
            txn.dig.push(encode_dig(r.dig));
            push_opt_u16(r.proxy.map(|p| p.0), i, &mut txn.proxy, &mut txn.proxy_spill);
        }

        let m = ds.connections.len();
        let mut conn = ConnColumns {
            client: Vec::with_capacity(m),
            site: Vec::with_capacity(m),
            hour: Vec::with_capacity(m),
            start_off: Vec::with_capacity(m),
            replica: Vec::with_capacity(m),
            outcome: Vec::with_capacity(m),
            syn_retx: Vec::with_capacity(m),
            retx: Vec::with_capacity(m),
            ..ConnColumns::default()
        };
        for (i, c) in ds.connections.iter().enumerate() {
            conn.client.push(c.client.0);
            conn.site.push(c.site.0);
            push_start(c.start, i, &mut conn.hour, &mut conn.start_off, &mut conn.start_spill);
            let idx = replicas.intern(c.replica);
            push_index(idx, i, &mut conn.replica, &mut conn.replica_spill);
            conn.outcome.push(match c.outcome {
                Ok(()) => 0,
                Err(kind) => encode_tcp_kind(kind),
            });
            conn.syn_retx.push(c.syn_retransmissions);
            push_opt_u32_narrow(c.retransmissions, i, &mut conn.retx, &mut conn.retx_spill);
        }

        let success_tag = outcomes
            .index
            .get(&TransactionOutcome::Success)
            .copied()
            .unwrap_or(NONE_U32);

        ColumnarDataset {
            hours: ds.hours,
            txn,
            conn,
            replica_addrs: replicas.values,
            outcomes: outcomes.values,
            success_tag,
            clients: ds.clients.clone(),
            sites: ds.sites.clone(),
            prefixes: ds.prefixes.clone(),
            bgp: ds.bgp.clone(),
        }
    }

    pub fn txn_len(&self) -> usize {
        self.txn.client.len()
    }

    pub fn conn_len(&self) -> usize {
        self.conn.client.len()
    }

    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Interned outcome tag of transaction `i`.
    pub fn txn_outcome_tag(&self, i: usize) -> u32 {
        read_index(i, &self.txn.outcome, &self.txn.outcome_spill)
    }

    /// Did transaction `i` fail? (One `u16` load plus a compare in the
    /// non-spill case.)
    #[inline]
    pub fn txn_failed(&self, i: usize) -> bool {
        let t = self.txn.outcome[i];
        if t == SPILL_U16 {
            self.txn_outcome_tag(i) != self.success_tag
        } else {
            u32::from(t) != self.success_tag
        }
    }

    pub fn txn_outcome(&self, i: usize) -> TransactionOutcome {
        self.outcomes[self.txn_outcome_tag(i) as usize]
    }

    /// Failure class of transaction `i`, if it failed.
    pub fn txn_failure(&self, i: usize) -> Option<FailureClass> {
        self.txn_outcome(i).failure()
    }

    /// Hour bin of transaction `i` — equals `record(i).hour()`.
    #[inline]
    pub fn txn_hour(&self, i: usize) -> u32 {
        read_hour(i, &self.txn.hour, &self.txn.start_spill)
    }

    pub fn txn_start(&self, i: usize) -> SimTime {
        read_start(i, &self.txn.hour, &self.txn.start_off, &self.txn.start_spill)
    }

    /// Is transaction `i` proxied?
    #[inline]
    pub fn txn_proxied(&self, i: usize) -> bool {
        self.txn.proxy[i] != NONE_U16
    }

    /// Download/connect-phase duration of transaction `i` in µs, if the
    /// record carries one — equals `record(i).download_time`.
    #[inline]
    pub fn txn_download_micros(&self, i: usize) -> Option<u64> {
        match self.txn.download[i] {
            NONE_U32 => None,
            SPILL_U32 => Some(self.txn.download_spill.get(i)),
            us => Some(u64::from(us)),
        }
    }

    /// The [`TxnBlameHint`] of transaction `i`, reading only the `dns_kind`,
    /// `outcome`, and `download` columns; a policy reset is a
    /// `Tcp(NoConnection)` failure under [`RESET_FAST_MICROS`].
    pub fn txn_blame_hint(&self, i: usize) -> TxnBlameHint {
        match self.txn.dns_kind[i] {
            0 => {}
            1 => return TxnBlameHint::ClientDns, // LDNS timeout
            2 => return TxnBlameHint::Ambiguous, // non-LDNS timeout
            _ => return TxnBlameHint::AuthDns,   // error response
        }
        if !self.txn_failed(i) {
            return TxnBlameHint::Success;
        }
        if self.txn_failure(i) == Some(FailureClass::Tcp(TcpFailureKind::NoConnection))
            && self
                .txn_download_micros(i)
                .is_some_and(|us| us < RESET_FAST_MICROS)
        {
            return TxnBlameHint::PolicyReset;
        }
        TxnBlameHint::Ambiguous
    }

    /// Hour bin of connection `i` — equals `connection(i).hour()`.
    #[inline]
    pub fn conn_hour(&self, i: usize) -> u32 {
        read_hour(i, &self.conn.hour, &self.conn.start_spill)
    }

    /// Did connection `i` fail?
    #[inline]
    pub fn conn_failed(&self, i: usize) -> bool {
        self.conn.outcome[i] != 0
    }

    pub fn conn_failure(&self, i: usize) -> Option<TcpFailureKind> {
        match self.conn.outcome[i] {
            0 => None,
            k => Some(decode_tcp_kind(k)),
        }
    }

    /// Interned replica index of connection `i`.
    #[inline]
    pub fn conn_replica_index(&self, i: usize) -> u32 {
        read_index(i, &self.conn.replica, &self.conn.replica_spill)
    }

    /// Reconstruct transaction record `i` exactly.
    pub fn record(&self, i: usize) -> PerformanceRecord {
        let t = &self.txn;
        PerformanceRecord {
            client: ClientId(t.client[i]),
            site: SiteId(t.site[i]),
            replica: match t.replica[i] {
                NONE_U16 => None,
                _ => Some(self.replica_addrs[read_index(i, &t.replica, &t.replica_spill) as usize]),
            },
            start: self.txn_start(i),
            dns: match t.dns_kind[i] {
                0 => Ok(SimDuration::from_micros(read_u64(
                    i,
                    &t.dns_micros,
                    &t.dns_spill,
                ))),
                k => Err(decode_dns_kind(k)),
            },
            outcome: self.txn_outcome(i),
            download_time: match t.download[i] {
                NONE_U32 => None,
                SPILL_U32 => Some(SimDuration::from_micros(t.download_spill.get(i))),
                us => Some(SimDuration::from_micros(u64::from(us))),
            },
            bytes_received: read_u64(i, &t.bytes, &t.bytes_spill),
            connections_attempted: t.conns_attempted[i],
            retransmissions: read_opt_u32_narrow(i, &t.retx, &t.retx_spill),
            dig: decode_dig(t.dig[i]),
            proxy: read_opt_u16(i, &t.proxy, &t.proxy_spill).map(ProxyId),
        }
    }

    /// Reconstruct connection record `i` exactly.
    pub fn connection(&self, i: usize) -> ConnectionRecord {
        let c = &self.conn;
        ConnectionRecord {
            client: ClientId(c.client[i]),
            site: SiteId(c.site[i]),
            replica: self.replica_addrs[self.conn_replica_index(i) as usize],
            start: read_start(i, &c.hour, &c.start_off, &c.start_spill),
            outcome: match c.outcome[i] {
                0 => Ok(()),
                k => Err(decode_tcp_kind(k)),
            },
            syn_retransmissions: c.syn_retx[i],
            retransmissions: read_opt_u32_narrow(i, &c.retx, &c.retx_spill),
        }
    }

    /// Convert back to the row layout (the round-trip inverse of
    /// `from_dataset`).
    pub fn to_dataset(&self) -> Dataset {
        Dataset {
            hours: self.hours,
            clients: self.clients.clone(),
            sites: self.sites.clone(),
            records: (0..self.txn_len()).map(|i| self.record(i)).collect(),
            connections: (0..self.conn_len()).map(|i| self.connection(i)).collect(),
            prefixes: self.prefixes.clone(),
            bgp: self.bgp.clone(),
        }
    }

    /// Memory footprint of the record data in both layouts, from column
    /// lengths. The client and site metadata, the BGP series and the prefix
    /// table are identical in both and excluded.
    pub fn memory(&self) -> MemoryFootprint {
        let t = &self.txn;
        let c = &self.conn;
        let columnar_bytes = vec_bytes(&t.client)
            + vec_bytes(&t.site)
            + vec_bytes(&t.hour)
            + vec_bytes(&t.start_off)
            + t.start_spill.heap_bytes()
            + vec_bytes(&t.replica)
            + t.replica_spill.heap_bytes()
            + vec_bytes(&t.dns_kind)
            + vec_bytes(&t.dns_micros)
            + t.dns_spill.heap_bytes()
            + vec_bytes(&t.outcome)
            + t.outcome_spill.heap_bytes()
            + vec_bytes(&t.download)
            + t.download_spill.heap_bytes()
            + vec_bytes(&t.bytes)
            + t.bytes_spill.heap_bytes()
            + vec_bytes(&t.conns_attempted)
            + vec_bytes(&t.retx)
            + t.retx_spill.heap_bytes()
            + vec_bytes(&t.dig)
            + vec_bytes(&t.proxy)
            + t.proxy_spill.heap_bytes()
            + vec_bytes(&c.client)
            + vec_bytes(&c.site)
            + vec_bytes(&c.hour)
            + vec_bytes(&c.start_off)
            + c.start_spill.heap_bytes()
            + vec_bytes(&c.replica)
            + c.replica_spill.heap_bytes()
            + vec_bytes(&c.outcome)
            + vec_bytes(&c.syn_retx)
            + vec_bytes(&c.retx)
            + c.retx_spill.heap_bytes()
            + vec_bytes(&self.replica_addrs)
            + vec_bytes(&self.outcomes);
        let row_bytes = self.txn_len() * std::mem::size_of::<PerformanceRecord>()
            + self.conn_len() * std::mem::size_of::<ConnectionRecord>();
        MemoryFootprint {
            columnar_bytes,
            row_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientCategory, PrefixId, SiteCategory};

    #[test]
    fn blame_hints_read_dns_outcome_and_timing() {
        let mk = |dns: Result<SimDuration, DnsFailureKind>,
                  outcome: TransactionOutcome,
                  download: Option<SimDuration>| PerformanceRecord {
            client: ClientId(0),
            site: SiteId(0),
            replica: None,
            start: SimTime::ZERO,
            dns,
            outcome,
            download_time: download,
            bytes_received: 0,
            connections_attempted: 1,
            retransmissions: None,
            dig: DigOutcome::NotRun,
            proxy: None,
        };
        let reset = FailureClass::Tcp(TcpFailureKind::NoConnection);
        let records = vec![
            mk(Ok(SimDuration::from_millis(40)), TransactionOutcome::Success, Some(SimDuration::from_millis(900))),
            mk(Err(DnsFailureKind::LdnsTimeout), TransactionOutcome::Failure(FailureClass::Dns(DnsFailureKind::LdnsTimeout)), None),
            mk(Err(DnsFailureKind::NonLdnsTimeout), TransactionOutcome::Failure(FailureClass::Dns(DnsFailureKind::NonLdnsTimeout)), None),
            mk(Err(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)), TransactionOutcome::Failure(FailureClass::Dns(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail))), None),
            // Fast all-refused connect phase: policy reset.
            mk(Ok(SimDuration::from_millis(40)), TransactionOutcome::Failure(reset), Some(SimDuration::from_secs(4))),
            // Same failure class but slow (a real SYN timeout): ambiguous.
            mk(Ok(SimDuration::from_millis(40)), TransactionOutcome::Failure(reset), Some(SimDuration::from_secs(45))),
            // Same failure class with no recorded duration: ambiguous.
            mk(Ok(SimDuration::from_millis(40)), TransactionOutcome::Failure(reset), None),
            // Fast HTTP error is not a reset.
            mk(Ok(SimDuration::from_millis(40)), TransactionOutcome::Failure(FailureClass::Http(503)), Some(SimDuration::from_secs(1))),
        ];
        let n = records.len();
        let ds = Dataset {
            hours: 1,
            clients: vec![],
            sites: vec![],
            records,
            connections: vec![],
            prefixes: vec![],
            bgp: BgpHourlySeries::default(),
        };
        let cds = ColumnarDataset::from_dataset(&ds);
        let hints: Vec<TxnBlameHint> = (0..n).map(|i| cds.txn_blame_hint(i)).collect();
        assert_eq!(
            hints,
            vec![
                TxnBlameHint::Success,
                TxnBlameHint::ClientDns,
                TxnBlameHint::Ambiguous,
                TxnBlameHint::AuthDns,
                TxnBlameHint::PolicyReset,
                TxnBlameHint::Ambiguous,
                TxnBlameHint::Ambiguous,
                TxnBlameHint::Ambiguous,
            ]
        );
        assert_eq!(cds.txn_download_micros(0), Some(900_000));
        assert_eq!(cds.txn_download_micros(1), None);
    }

    fn assert_records_equal(a: &PerformanceRecord, b: &PerformanceRecord) {
        assert_eq!(a.client, b.client);
        assert_eq!(a.site, b.site);
        assert_eq!(a.replica, b.replica);
        assert_eq!(a.start, b.start);
        assert_eq!(a.dns, b.dns);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.download_time, b.download_time);
        assert_eq!(a.bytes_received, b.bytes_received);
        assert_eq!(a.connections_attempted, b.connections_attempted);
        assert_eq!(a.retransmissions, b.retransmissions);
        assert_eq!(a.dig, b.dig);
        assert_eq!(a.proxy, b.proxy);
    }

    fn extreme_dataset() -> Dataset {
        // Values chosen to force every spill table and sentinel niche.
        let records = vec![
            // Plain success, everything in-range.
            PerformanceRecord {
                client: ClientId(3),
                site: SiteId(14),
                replica: Some(Ipv4Addr::new(203, 0, 113, 7)),
                start: SimTime::from_hours(5) + SimDuration::from_secs(120),
                dns: Ok(SimDuration::from_millis(40)),
                outcome: TransactionOutcome::Success,
                download_time: Some(SimDuration::from_millis(900)),
                bytes_received: 24_000,
                connections_attempted: 1,
                retransmissions: Some(0),
                dig: DigOutcome::Resolved,
                proxy: None,
            },
            // Every optional absent.
            PerformanceRecord {
                client: ClientId(0),
                site: SiteId(0),
                replica: None,
                start: SimTime::ZERO,
                dns: Err(DnsFailureKind::ErrorResponse(DnsErrorCode::Refused)),
                outcome: TransactionOutcome::Failure(FailureClass::Dns(
                    DnsFailureKind::ErrorResponse(DnsErrorCode::Refused),
                )),
                download_time: None,
                bytes_received: 0,
                connections_attempted: 0,
                retransmissions: None,
                dig: DigOutcome::Failed(DnsFailureKind::NonLdnsTimeout),
                proxy: None,
            },
            // Everything past the narrow ranges: hour beyond u32, DNS
            // latency and download beyond u32 µs, bytes beyond u32, retx
            // beyond the u16 niche, proxy id on the sentinel values.
            PerformanceRecord {
                client: ClientId(u16::MAX),
                site: SiteId(u16::MAX),
                replica: Some(Ipv4Addr::new(8, 8, 8, 8)),
                start: SimTime::from_micros(u64::MAX - 17),
                dns: Ok(SimDuration::from_micros(u64::MAX / 3)),
                outcome: TransactionOutcome::Failure(FailureClass::Http(65_535)),
                download_time: Some(SimDuration::from_micros(u64::from(u32::MAX) + 99)),
                bytes_received: u64::MAX,
                connections_attempted: u16::MAX,
                retransmissions: Some(u32::MAX),
                dig: DigOutcome::NotRun,
                proxy: Some(ProxyId(u16::MAX)),
            },
            PerformanceRecord {
                client: ClientId(7),
                site: SiteId(9),
                replica: None,
                start: SimTime::from_micros(u64::from(u32::MAX) * MICROS_PER_HOUR),
                dns: Err(DnsFailureKind::LdnsTimeout),
                outcome: TransactionOutcome::Failure(FailureClass::Tcp(
                    TcpFailureKind::PartialResponse,
                )),
                download_time: Some(SimDuration::ZERO),
                bytes_received: u64::from(u32::MAX),
                connections_attempted: 9,
                retransmissions: Some(u32::from(SPILL_U16)),
                dig: DigOutcome::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain)),
                proxy: Some(ProxyId(SPILL_U16)),
            },
        ];
        let connections = vec![
            ConnectionRecord {
                client: ClientId(3),
                site: SiteId(14),
                replica: Ipv4Addr::new(203, 0, 113, 7),
                start: SimTime::from_hours(5),
                outcome: Ok(()),
                syn_retransmissions: 0,
                retransmissions: Some(2),
            },
            ConnectionRecord {
                client: ClientId(1),
                site: SiteId(2),
                replica: Ipv4Addr::new(198, 51, 100, 1),
                start: SimTime::from_micros(u64::MAX),
                outcome: Err(TcpFailureKind::NoOrPartialResponse),
                syn_retransmissions: u8::MAX,
                retransmissions: Some(u32::MAX - 1),
            },
        ];
        let clients = vec![
            ClientMeta {
                id: ClientId(0),
                name: "alpha.example.edu".to_string(),
                category: ClientCategory::PlanetLab,
                colocation: Some(u16::MAX),
                proxy: Some(ProxyId(0)),
                prefixes: vec![PrefixId(0), PrefixId(1)],
                addr: Ipv4Addr::new(10, 0, 0, 1),
            },
            ClientMeta {
                id: ClientId(1),
                name: String::new(),
                category: ClientCategory::CorpNet,
                colocation: None,
                proxy: None,
                prefixes: Vec::new(),
                addr: Ipv4Addr::UNSPECIFIED,
            },
        ];
        let sites = vec![SiteMeta {
            id: SiteId(0),
            hostname: "www.example.com".to_string(),
            category: SiteCategory::ALL[0],
            addrs: vec![Ipv4Addr::new(203, 0, 113, 7), Ipv4Addr::new(203, 0, 113, 8)],
            replica_prefixes: vec![
                (Ipv4Addr::new(203, 0, 113, 7), vec![PrefixId(1)]),
                (Ipv4Addr::new(203, 0, 113, 8), Vec::new()),
            ],
        }];
        Dataset {
            hours: 744,
            clients,
            sites,
            records,
            connections,
            prefixes: vec!["10.0.0.0/8".parse().unwrap(), "203.0.113.0/24".parse().unwrap()],
            bgp: BgpHourlySeries::default(),
        }
    }

    #[test]
    fn extreme_values_round_trip_through_spill_tables() {
        let ds = extreme_dataset();
        let cds = ColumnarDataset::from_dataset(&ds);
        // The adversarial rows really did exercise the spill paths.
        assert!(!cds.txn.start_spill.is_empty());
        assert!(!cds.txn.dns_spill.is_empty());
        assert!(!cds.txn.download_spill.is_empty());
        assert!(!cds.txn.bytes_spill.is_empty());
        assert!(!cds.txn.retx_spill.is_empty());
        assert!(!cds.txn.proxy_spill.is_empty());
        assert!(!cds.conn.start_spill.is_empty());
        assert!(!cds.conn.retx_spill.is_empty());
        let back = cds.to_dataset();
        assert_eq!(back.hours, ds.hours);
        assert_eq!(back.records.len(), ds.records.len());
        for (a, b) in ds.records.iter().zip(&back.records) {
            assert_records_equal(a, b);
        }
        for (a, b) in ds.connections.iter().zip(&back.connections) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        for (a, b) in ds.clients.iter().zip(&back.clients) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        for (a, b) in ds.sites.iter().zip(&back.sites) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(ds.prefixes, back.prefixes);
    }

    #[test]
    fn scan_accessors_agree_with_reconstructed_rows() {
        let ds = extreme_dataset();
        let cds = ColumnarDataset::from_dataset(&ds);
        for (i, r) in ds.records.iter().enumerate() {
            assert_eq!(cds.txn_hour(i), r.hour(), "record {i} hour");
            assert_eq!(cds.txn_failed(i), r.failed(), "record {i} failed");
            assert_eq!(cds.txn_failure(i), r.failure(), "record {i} class");
            assert_eq!(cds.txn_proxied(i), r.proxy.is_some(), "record {i} proxy");
            assert_eq!(cds.txn_start(i), r.start, "record {i} start");
        }
        for (i, c) in ds.connections.iter().enumerate() {
            assert_eq!(cds.conn_hour(i), c.hour(), "conn {i} hour");
            assert_eq!(cds.conn_failed(i), c.failed(), "conn {i} failed");
            assert_eq!(cds.conn_failure(i), c.failure(), "conn {i} kind");
            assert_eq!(
                cds.replica_addrs[cds.conn_replica_index(i) as usize],
                c.replica
            );
        }
    }

    #[test]
    fn interned_side_tables_stay_small_and_ordered() {
        let ds = extreme_dataset();
        let cds = ColumnarDataset::from_dataset(&ds);
        // First appearance order: txn replicas first, then conn replicas.
        assert_eq!(cds.replica_addrs[0], Ipv4Addr::new(203, 0, 113, 7));
        assert!(cds.replica_addrs.len() <= 3);
        assert!(cds.outcomes.len() <= 4);
        // Success interned → txn_failed is a tag compare.
        assert!(cds.outcomes.contains(&TransactionOutcome::Success));
    }

    #[test]
    fn memory_footprint_counts_both_layouts() {
        let ds = extreme_dataset();
        let cds = ColumnarDataset::from_dataset(&ds);
        let mem = cds.memory();
        assert!(mem.columnar_bytes > 0);
        assert_eq!(
            mem.row_bytes,
            ds.records.len() * std::mem::size_of::<PerformanceRecord>()
                + ds.connections.len() * std::mem::size_of::<ConnectionRecord>()
        );
        assert!(mem.reduction() > 0.0);
    }

    #[test]
    fn per_transaction_column_bytes_beat_rows_at_scale() {
        // The ≥2× reduction is measured on a simulated day in
        // tests/end_to_end.rs; this pins the static layout arithmetic it
        // follows from: 36 B/txn + 18 B/conn columns vs the struct sizes.
        let txn_row = std::mem::size_of::<PerformanceRecord>();
        let conn_row = std::mem::size_of::<ConnectionRecord>();
        assert!(txn_row >= 72, "PerformanceRecord shrank to {txn_row}B?");
        assert!(conn_row >= 24, "ConnectionRecord shrank to {conn_row}B?");
        let txn_cols = 2 + 2 + 4 + 4 + 2 + 1 + 4 + 2 + 4 + 4 + 2 + 2 + 1 + 2;
        let conn_cols = 2 + 2 + 4 + 4 + 2 + 1 + 1 + 2;
        assert_eq!(txn_cols, 36);
        assert_eq!(conn_cols, 18);
        // With the repro world's conn/txn ratio (~1.14) the reduction is
        // ((88 + 1.14·32) / (36 + 1.14·18)) ≈ 2.2 ≥ 2.
        let ratio = (txn_row as f64 + 1.14 * conn_row as f64)
            / (txn_cols as f64 + 1.14 * conn_cols as f64);
        assert!(ratio >= 2.0, "layout reduction only {ratio:.2}×");
    }

    #[test]
    fn empty_dataset_converts_cleanly() {
        let cds = ColumnarDataset::from_dataset(&Dataset::default());
        assert_eq!(cds.txn_len(), 0);
        assert_eq!(cds.conn_len(), 0);
        let back = cds.to_dataset();
        assert!(back.records.is_empty());
        assert_eq!(cds.memory().columnar_bytes, 0);
    }
}
