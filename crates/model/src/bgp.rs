//! Hourly BGP activity summaries.
//!
//! Section 3.6 reduces a month of Routeviews MRT updates to, per prefix and
//! per 1-hour period: the number of announcements, the number of withdrawals,
//! and how many of the 73 peering sessions participated in each. These types
//! are the interchange format between `bgpsim` (which generates and cleans
//! the update stream) and the analysis crate (which correlates the series
//! with end-to-end failures).

use crate::ids::PrefixId;

/// BGP activity for one prefix in one 1-hour period (already cleaned of
/// collector-reset artifacts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Hash)]
pub struct BgpHourly {
    /// Route announcements heard for this prefix.
    pub announcements: u32,
    /// Route withdrawals heard for this prefix.
    pub withdrawals: u32,
    /// Distinct peering sessions that announced the prefix.
    pub neighbors_announcing: u16,
    /// Distinct peering sessions that withdrew the prefix.
    pub neighbors_withdrawing: u16,
}

impl BgpHourly {
    /// No activity at all in this period.
    pub fn is_quiet(&self) -> bool {
        self.announcements == 0 && self.withdrawals == 0
    }
}

/// A dense (prefix × hour) grid of hourly BGP activity.
#[derive(Clone, Debug, Default, Hash)]
pub struct BgpHourlySeries {
    hours: u32,
    /// `per_prefix[p][h]` is the activity for prefix `p` in hour `h`.
    per_prefix: Vec<Vec<BgpHourly>>,
}

impl BgpHourlySeries {
    /// Create an all-quiet series covering `prefixes` prefixes × `hours`
    /// hourly bins.
    pub fn new(prefixes: usize, hours: u32) -> Self {
        BgpHourlySeries {
            hours,
            per_prefix: vec![vec![BgpHourly::default(); hours as usize]; prefixes],
        }
    }

    /// Number of hourly bins.
    pub fn hours(&self) -> u32 {
        self.hours
    }

    /// Number of prefixes covered.
    pub fn prefix_count(&self) -> usize {
        self.per_prefix.len()
    }

    /// Activity for `prefix` in hour `hour`; quiet default if out of range.
    pub fn get(&self, prefix: PrefixId, hour: u32) -> BgpHourly {
        self.per_prefix
            .get(prefix.0 as usize)
            .and_then(|row| row.get(hour as usize))
            .copied()
            .unwrap_or_default()
    }

    /// Mutable access for the generator/cleaner.
    pub fn get_mut(&mut self, prefix: PrefixId, hour: u32) -> Option<&mut BgpHourly> {
        self.per_prefix
            .get_mut(prefix.0 as usize)
            .and_then(|row| row.get_mut(hour as usize))
    }

    /// Full hourly row for one prefix (empty slice if unknown prefix).
    pub fn prefix_series(&self, prefix: PrefixId) -> &[BgpHourly] {
        self.per_prefix
            .get(prefix.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate `(PrefixId, hour, activity)` over all non-quiet cells.
    pub fn active_cells(&self) -> impl Iterator<Item = (PrefixId, u32, BgpHourly)> + '_ {
        self.per_prefix.iter().enumerate().flat_map(|(p, row)| {
            row.iter().enumerate().filter_map(move |(h, cell)| {
                if cell.is_quiet() {
                    None
                } else {
                    Some((PrefixId(p as u32), h as u32, *cell))
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_by_default() {
        let s = BgpHourlySeries::new(3, 10);
        assert_eq!(s.hours(), 10);
        assert_eq!(s.prefix_count(), 3);
        assert!(s.get(PrefixId(1), 5).is_quiet());
        assert_eq!(s.active_cells().count(), 0);
    }

    #[test]
    fn set_and_read_back() {
        let mut s = BgpHourlySeries::new(2, 4);
        *s.get_mut(PrefixId(1), 2).unwrap() = BgpHourly {
            announcements: 5,
            withdrawals: 80,
            neighbors_announcing: 3,
            neighbors_withdrawing: 71,
        };
        let cell = s.get(PrefixId(1), 2);
        assert_eq!(cell.withdrawals, 80);
        assert_eq!(cell.neighbors_withdrawing, 71);
        let active: Vec<_> = s.active_cells().collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].0, PrefixId(1));
        assert_eq!(active[0].1, 2);
    }

    #[test]
    fn out_of_range_is_quiet() {
        let s = BgpHourlySeries::new(1, 1);
        assert!(s.get(PrefixId(9), 0).is_quiet());
        assert!(s.get(PrefixId(0), 9).is_quiet());
        assert!(s.prefix_series(PrefixId(9)).is_empty());
    }
}
