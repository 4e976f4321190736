//! Simulated time.
//!
//! The simulation clock counts microseconds from the start of the experiment
//! (the paper's experiment ran Jan 1 – Feb 1 2005; we only ever need offsets,
//! never wall-clock dates). A month is ~2.7e12 µs, comfortably inside `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in microseconds since experiment start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

pub const MICROS_PER_MILLI: u64 = 1_000;
pub const MICROS_PER_SEC: u64 = 1_000_000;
pub const SECS_PER_HOUR: u64 = 3_600;
pub const MICROS_PER_HOUR: u64 = MICROS_PER_SEC * SECS_PER_HOUR;

impl SimTime {
    /// The experiment start.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * MICROS_PER_HOUR)
    }

    /// Raw microseconds since experiment start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since experiment start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// The index of the 1-hour episode bin this instant falls in.
    ///
    /// The paper aggregates all failure-rate computations over 1-hour
    /// episodes (Section 4.4.3); this is the canonical binning used
    /// throughout the analysis crate.
    pub const fn hour_bin(self) -> u32 {
        (self.0 / MICROS_PER_HOUR) as u32
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MICROS_PER_HOUR)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MILLI
    }

    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round().max(0.0) as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_micros(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

fn format_micros(us: u64) -> String {
    if us == 0 {
        return "0s".to_string();
    }
    if us < MICROS_PER_MILLI {
        return format!("{us}us");
    }
    if us < MICROS_PER_SEC {
        return format!("{:.3}ms", us as f64 / MICROS_PER_MILLI as f64);
    }
    if us < MICROS_PER_HOUR {
        return format!("{:.3}s", us as f64 / MICROS_PER_SEC as f64);
    }
    format!("{:.2}h", us as f64 / MICROS_PER_HOUR as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_bin_boundaries() {
        assert_eq!(SimTime::ZERO.hour_bin(), 0);
        assert_eq!(SimTime::from_micros(MICROS_PER_HOUR - 1).hour_bin(), 0);
        assert_eq!(SimTime::from_micros(MICROS_PER_HOUR).hour_bin(), 1);
        assert_eq!(SimTime::from_hours(743).hour_bin(), 743);
    }

    #[test]
    fn month_fits_in_u64() {
        let month = SimTime::from_hours(31 * 24);
        assert_eq!(month.hour_bin(), 744);
        assert!(month.as_micros() < u64::MAX / 1000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        let t2 = t + d;
        assert_eq!(t2.as_micros(), 11_500_000);
        assert_eq!(t2 - t, d);
        assert_eq!(t2.since(t), d);
        // saturating behavior in the other direction
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2);
        assert_eq!((d * 3u64).as_secs(), 6);
        assert_eq!((d * 0.5f64).as_millis(), 1000);
        assert_eq!((d / 4).as_millis(), 500);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_secs(61).to_string(), "61.000s");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.00h");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }
}
