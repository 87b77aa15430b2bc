//! Fixed-point decimal arithmetic.
//!
//! TPC-H money, discount and tax columns are exact decimals with two digits
//! after the point. The paper's C# code uses `System.Decimal`; the generated
//! C code uses scaled integers. We follow the C route everywhere: a
//! [`Decimal`] is an `i64` count of hundredths, which keeps the value type
//! `Copy`, 8 bytes wide and friendly to flat row layouts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of sub-unit digits carried by [`Decimal`].
pub const DECIMAL_SCALE: u32 = 2;
/// `10^DECIMAL_SCALE`.
pub const DECIMAL_ONE: i64 = 100;

/// A fixed-point decimal with two fractional digits, stored as scaled `i64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Decimal(i64);

impl Decimal {
    /// The zero value.
    pub const ZERO: Decimal = Decimal(0);
    /// The value `1.00`.
    pub const ONE: Decimal = Decimal(DECIMAL_ONE);

    /// Builds a decimal from a raw scaled representation (hundredths).
    #[inline]
    pub const fn from_raw(raw: i64) -> Self {
        Decimal(raw)
    }

    /// Builds a decimal from a whole number of units.
    #[inline]
    pub const fn from_int(units: i64) -> Self {
        Decimal(units * DECIMAL_ONE)
    }

    /// Builds a decimal from units and hundredths, e.g. `(12, 34)` → `12.34`.
    #[inline]
    pub const fn new(units: i64, cents: i64) -> Self {
        Decimal(units * DECIMAL_ONE + cents)
    }

    /// Returns the raw scaled representation (hundredths).
    #[inline]
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Converts to a binary float. Used for averages and reporting only.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / DECIMAL_ONE as f64
    }

    /// Builds the decimal closest to the given float.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        Decimal((v * DECIMAL_ONE as f64).round() as i64)
    }

    /// Multiplies two decimals, rounding half away from zero.
    ///
    /// Both operands carry two fractional digits so the exact product has
    /// four; the result is rounded back to two, matching how the paper's
    /// generated C code (and most row-store engines) evaluate
    /// `extendedprice * (1 - discount)`.
    #[inline]
    pub fn checked_mul(self, rhs: Decimal) -> Option<Decimal> {
        // Fast path: the exact product and its rounding fit in an `i64`
        // (always the case for TPC-H magnitudes); same result as below.
        if let Some(wide) = self.0.checked_mul(rhs.0) {
            let half = DECIMAL_ONE / 2;
            let rounded = if wide >= 0 {
                wide.checked_add(half)
            } else {
                wide.checked_sub(half)
            };
            if let Some(rounded) = rounded {
                return Some(Decimal(rounded / DECIMAL_ONE));
            }
        }
        let wide = (self.0 as i128) * (rhs.0 as i128);
        let half = (DECIMAL_ONE as i128) / 2;
        let rounded = if wide >= 0 {
            (wide + half) / DECIMAL_ONE as i128
        } else {
            (wide - half) / DECIMAL_ONE as i128
        };
        i64::try_from(rounded).ok().map(Decimal)
    }

    /// Divides by an integer count, rounding half away from zero. Used for
    /// averages over decimal columns.
    #[inline]
    pub fn div_count(self, count: i64) -> Decimal {
        debug_assert!(count != 0, "division by zero count");
        let half = count / 2;
        let adjusted = if (self.0 >= 0) == (count > 0) {
            self.0 + half
        } else {
            self.0 - half
        };
        Decimal(adjusted / count)
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Decimal {
        Decimal(self.0.abs())
    }

    /// Parses a decimal literal such as `"123"`, `"123.4"` or `"-0.07"`.
    pub fn parse(text: &str) -> Option<Decimal> {
        let text = text.trim();
        let (neg, body) = match text.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, text.strip_prefix('+').unwrap_or(text)),
        };
        if body.is_empty() {
            return None;
        }
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if frac_part.len() > DECIMAL_SCALE as usize {
            // Extra digits are not representable; reject rather than silently
            // truncate so tests catch precision bugs.
            return None;
        }
        let int_val: i64 = if int_part.is_empty() {
            0
        } else {
            int_part.parse().ok()?
        };
        let mut frac_val: i64 = 0;
        for (i, ch) in frac_part.chars().enumerate() {
            let d = ch.to_digit(10)? as i64;
            frac_val += d * 10_i64.pow(DECIMAL_SCALE - 1 - i as u32);
        }
        let raw = int_val.checked_mul(DECIMAL_ONE)?.checked_add(frac_val)?;
        Some(Decimal(if neg { -raw } else { raw }))
    }
}

impl Add for Decimal {
    type Output = Decimal;
    #[inline]
    fn add(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 + rhs.0)
    }
}

impl AddAssign for Decimal {
    #[inline]
    fn add_assign(&mut self, rhs: Decimal) {
        self.0 += rhs.0;
    }
}

impl Sub for Decimal {
    type Output = Decimal;
    #[inline]
    fn sub(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 - rhs.0)
    }
}

impl SubAssign for Decimal {
    #[inline]
    fn sub_assign(&mut self, rhs: Decimal) {
        self.0 -= rhs.0;
    }
}

impl Mul for Decimal {
    type Output = Decimal;
    #[inline]
    fn mul(self, rhs: Decimal) -> Decimal {
        self.checked_mul(rhs)
            .expect("decimal multiplication overflowed")
    }
}

impl Div<i64> for Decimal {
    type Output = Decimal;
    #[inline]
    fn div(self, rhs: i64) -> Decimal {
        self.div_count(rhs)
    }
}

impl Neg for Decimal {
    type Output = Decimal;
    #[inline]
    fn neg(self) -> Decimal {
        Decimal(-self.0)
    }
}

impl Sum for Decimal {
    fn sum<I: Iterator<Item = Decimal>>(iter: I) -> Decimal {
        iter.fold(Decimal::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Decimal({})", self)
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{}{}.{:02}", sign, abs / 100, abs % 100)
    }
}

impl From<i64> for Decimal {
    fn from(units: i64) -> Self {
        Decimal::from_int(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_raw_round_trip() {
        assert_eq!(Decimal::from_int(5).raw(), 500);
        assert_eq!(Decimal::new(12, 34).raw(), 1234);
        assert_eq!(Decimal::from_raw(789).raw(), 789);
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Decimal::new(10, 50);
        let b = Decimal::new(2, 75);
        assert_eq!((a + b).to_string(), "13.25");
        assert_eq!((a - b).to_string(), "7.75");
    }

    #[test]
    fn multiplication_rounds_half_away_from_zero() {
        // 0.05 * 0.05 = 0.0025 -> rounds to 0.00? Half-away: 0.0025 has last
        // two digits 25 < 50 so rounds down to 0.00.
        assert_eq!(
            Decimal::parse("0.05").unwrap() * Decimal::parse("0.05").unwrap(),
            Decimal::ZERO
        );
        // 1.25 * 0.10 = 0.125 -> 0.13
        assert_eq!(
            (Decimal::parse("1.25").unwrap() * Decimal::parse("0.10").unwrap()).to_string(),
            "0.13"
        );
        // Negative operand.
        assert_eq!(
            (Decimal::parse("-1.25").unwrap() * Decimal::parse("0.10").unwrap()).to_string(),
            "-0.13"
        );
    }

    #[test]
    fn tpch_price_formula_matches_manual_computation() {
        // extendedprice * (1 - discount) * (1 + tax)
        let price = Decimal::parse("901.00").unwrap();
        let disc = Decimal::parse("0.05").unwrap();
        let tax = Decimal::parse("0.02").unwrap();
        let disc_price = price * (Decimal::ONE - disc);
        assert_eq!(disc_price.to_string(), "855.95");
        let charged = disc_price * (Decimal::ONE + tax);
        assert_eq!(charged.to_string(), "873.07");
    }

    #[test]
    fn division_by_count_for_averages() {
        let total = Decimal::parse("10.00").unwrap();
        assert_eq!(total.div_count(4).to_string(), "2.50");
        assert_eq!(total.div_count(3).to_string(), "3.33");
        assert_eq!((-total).div_count(3).to_string(), "-3.33");
    }

    #[test]
    fn parse_accepts_valid_and_rejects_invalid() {
        assert_eq!(Decimal::parse("123").unwrap().raw(), 12300);
        assert_eq!(Decimal::parse("123.4").unwrap().raw(), 12340);
        assert_eq!(Decimal::parse("-0.07").unwrap().raw(), -7);
        assert_eq!(Decimal::parse("+3.50").unwrap().raw(), 350);
        assert!(Decimal::parse("").is_none());
        assert!(Decimal::parse("abc").is_none());
        assert!(Decimal::parse("1.234").is_none());
        assert!(Decimal::parse("-").is_none());
    }

    #[test]
    fn display_formats_two_digits() {
        assert_eq!(Decimal::from_raw(5).to_string(), "0.05");
        assert_eq!(Decimal::from_raw(-5).to_string(), "-0.05");
        assert_eq!(Decimal::from_raw(100).to_string(), "1.00");
    }

    #[test]
    fn float_round_trip_is_close() {
        let d = Decimal::parse("12345.67").unwrap();
        assert_eq!(Decimal::from_f64(d.to_f64()), d);
    }

    #[test]
    fn sum_iterator() {
        let total: Decimal = (1..=4).map(Decimal::from_int).sum();
        assert_eq!(total, Decimal::from_int(10));
    }
}
