//! Packed vectors of four-valued logic.

use std::error::Error;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Deref, DerefMut, Not};
use std::slice;
use std::str::FromStr;

use crate::{Logic, Word};

const LIMB_BITS: usize = 64;

/// One bit plane of a [`LogicVec`]: its single limb inline up to 64 bits,
/// its limbs on the heap above. Which variant a plane uses is a function
/// of the vector's width alone, so the derived `Eq` and `Hash` stay
/// canonical.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Plane {
    Inline(u64),
    Heap(Vec<u64>),
}

impl Plane {
    fn zeros(width: usize) -> Plane {
        if width <= LIMB_BITS {
            Plane::Inline(0)
        } else {
            Plane::Heap(vec![0; width.div_ceil(LIMB_BITS)])
        }
    }
}

impl Default for Plane {
    fn default() -> Plane {
        Plane::Inline(0)
    }
}

impl Deref for Plane {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Plane::Inline(limb) => slice::from_ref(limb),
            Plane::Heap(limbs) => limbs,
        }
    }
}

impl DerefMut for Plane {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Plane::Inline(limb) => slice::from_mut(limb),
            Plane::Heap(limbs) => limbs,
        }
    }
}

/// The low `n` bits set, for `n <= 64`.
fn low_mask(n: usize) -> u64 {
    if n >= LIMB_BITS {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// The `n <= 64` bits of `limbs` starting at bit `at`, in the low bits.
fn read_bits(limbs: &[u64], at: usize, n: usize) -> u64 {
    let (limb, shift) = (at / LIMB_BITS, at % LIMB_BITS);
    let mut bits = limbs[limb] >> shift;
    if shift + n > LIMB_BITS {
        bits |= limbs[limb + 1] << (LIMB_BITS - shift);
    }
    bits & low_mask(n)
}

/// ORs `bits` (no garbage above their width) into `limbs` at bit `at`.
fn or_bits(limbs: &mut [u64], at: usize, bits: u64) {
    let (limb, shift) = (at / LIMB_BITS, at % LIMB_BITS);
    limbs[limb] |= bits << shift;
    if shift != 0 && bits >> (LIMB_BITS - shift) != 0 {
        limbs[limb + 1] |= bits >> (LIMB_BITS - shift);
    }
}

/// A fixed-width vector of [`Logic`] values, packed two bits per element.
///
/// `LogicVec` is the value carried by word-level connectors and netlist
/// ports. Bit `0` is the least-significant bit. The vector is stored as two
/// bit planes (`value`, `meta`) so the bitwise operators work a limb at a
/// time; a vector of up to 64 bits keeps both limbs inline and never
/// touches the heap.
///
/// # Examples
///
/// ```
/// use vcad_logic::{Logic, LogicVec};
///
/// let mut v = LogicVec::zeros(4);
/// v.set(1, Logic::One);
/// v.set(3, Logic::X);
/// assert_eq!(v.to_string(), "X010");
/// assert_eq!(v.get(1), Logic::One);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LogicVec {
    width: usize,
    value: Plane,
    meta: Plane,
}

impl LogicVec {
    /// Creates a vector of `width` zeros.
    ///
    /// ```
    /// use vcad_logic::LogicVec;
    /// assert_eq!(LogicVec::zeros(3).to_string(), "000");
    /// ```
    #[must_use]
    pub fn zeros(width: usize) -> LogicVec {
        LogicVec {
            width,
            value: Plane::zeros(width),
            meta: Plane::zeros(width),
        }
    }

    /// Creates a vector of `width` copies of `fill`.
    ///
    /// ```
    /// use vcad_logic::{Logic, LogicVec};
    /// assert_eq!(LogicVec::filled(3, Logic::X).to_string(), "XXX");
    /// ```
    #[must_use]
    pub fn filled(width: usize, fill: Logic) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        let (val, meta) = fill.planes();
        if val {
            v.value.fill(u64::MAX);
        }
        if meta {
            v.meta.fill(u64::MAX);
        }
        v.mask_top();
        v
    }

    /// A vector of `width` unknowns, the canonical power-up state.
    #[must_use]
    pub fn unknown(width: usize) -> LogicVec {
        LogicVec::filled(width, Logic::X)
    }

    /// Builds a vector from an iterator, LSB first.
    ///
    /// ```
    /// use vcad_logic::{Logic, LogicVec};
    /// let v = LogicVec::from_bits([Logic::One, Logic::Zero, Logic::X]);
    /// assert_eq!(v.to_string(), "X01");
    /// ```
    #[must_use]
    pub fn from_bits<I: IntoIterator<Item = Logic>>(bits: I) -> LogicVec {
        let bits = bits.into_iter();
        // Full limbs go to the heap only once a 65th bit arrives.
        let limbs = bits.size_hint().0.div_ceil(LIMB_BITS);
        let spill = if limbs > 1 { limbs } else { 0 };
        let (mut values, mut metas) = (Vec::with_capacity(spill), Vec::with_capacity(spill));
        let (mut value, mut meta, mut width) = (0u64, 0u64, 0usize);
        for bit in bits {
            let pos = width % LIMB_BITS;
            if pos == 0 && width > 0 {
                values.push(value);
                metas.push(meta);
                (value, meta) = (0, 0);
            }
            let (val, met) = bit.planes();
            value |= u64::from(val) << pos;
            meta |= u64::from(met) << pos;
            width += 1;
        }
        if values.is_empty() {
            return LogicVec {
                width,
                value: Plane::Inline(value),
                meta: Plane::Inline(meta),
            };
        }
        values.push(value);
        metas.push(meta);
        LogicVec {
            width,
            value: Plane::Heap(values),
            meta: Plane::Heap(metas),
        }
    }

    /// Builds a binary vector from the low `width` bits of `bits`.
    ///
    /// ```
    /// use vcad_logic::LogicVec;
    /// assert_eq!(LogicVec::from_u64(4, 0b0110).to_string(), "0110");
    /// ```
    #[must_use]
    pub fn from_u64(width: usize, bits: u64) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        v.value[0] = bits;
        v.mask_top();
        v
    }

    /// The number of elements in the vector.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns `true` for the zero-width vector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Reads element `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    #[must_use]
    #[inline]
    pub fn get(&self, index: usize) -> Logic {
        assert!(index < self.width, "bit index {index} out of range");
        let limb = index / LIMB_BITS;
        let bit = index % LIMB_BITS;
        Logic::from_planes(
            self.value[limb] >> bit & 1 == 1,
            self.meta[limb] >> bit & 1 == 1,
        )
    }

    /// Writes element `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set(&mut self, index: usize, bit: Logic) {
        assert!(index < self.width, "bit index {index} out of range");
        let limb = index / LIMB_BITS;
        let pos = index % LIMB_BITS;
        let (val, meta) = bit.planes();
        self.value[limb] = self.value[limb] & !(1 << pos) | (u64::from(val) << pos);
        self.meta[limb] = self.meta[limb] & !(1 << pos) | (u64::from(meta) << pos);
    }

    /// Returns `true` when every element is binary (`0` or `1`).
    #[must_use]
    pub fn is_binary(&self) -> bool {
        self.meta.iter().all(|&m| m == 0)
    }

    /// Converts a fully binary vector of width ≤ 128 to a [`Word`].
    ///
    /// Returns `None` if any bit is `X`/`Z` or the vector is too wide.
    ///
    /// ```
    /// use vcad_logic::{LogicVec, Word};
    /// let v = LogicVec::from_u64(8, 0xA5);
    /// assert_eq!(v.to_word(), Some(Word::new(8, 0xA5)));
    /// ```
    #[must_use]
    pub fn to_word(&self) -> Option<Word> {
        if !self.is_binary() || self.width > 128 {
            return None;
        }
        let lo = self.value.first().copied().unwrap_or(0) as u128;
        let hi = self.value.get(1).copied().unwrap_or(0) as u128;
        Some(Word::new(self.width, hi << 64 | lo))
    }

    /// Iterates over elements, LSB first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { vec: self, next: 0 }
    }

    /// Counts positions at which `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn distance(&self, other: &LogicVec) -> usize {
        assert_eq!(self.width, other.width, "width mismatch");
        let mut count = 0;
        for i in 0..self.value.len() {
            let diff = (self.value[i] ^ other.value[i]) | (self.meta[i] ^ other.meta[i]);
            count += diff.count_ones() as usize;
        }
        count
    }

    /// Concatenates `self` (low part) with `high`.
    ///
    /// ```
    /// use vcad_logic::LogicVec;
    /// let lo = LogicVec::from_u64(2, 0b01);
    /// let hi = LogicVec::from_u64(2, 0b10);
    /// assert_eq!(lo.concat(&hi).to_string(), "1001");
    /// ```
    #[must_use]
    pub fn concat(&self, high: &LogicVec) -> LogicVec {
        let mut v = LogicVec::zeros(self.width + high.width);
        for (part, at) in [(self, 0), (high, self.width)] {
            for i in 0..part.width.div_ceil(LIMB_BITS) {
                or_bits(&mut v.value, at + i * LIMB_BITS, part.value[i]);
                or_bits(&mut v.meta, at + i * LIMB_BITS, part.meta[i]);
            }
        }
        v
    }

    /// Extracts `width` bits starting at `lsb`.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds the vector.
    #[must_use]
    pub fn slice(&self, lsb: usize, width: usize) -> LogicVec {
        assert!(lsb + width <= self.width, "slice out of range");
        let mut v = LogicVec::zeros(width);
        for i in 0..width.div_ceil(LIMB_BITS) {
            let (at, n) = (lsb + i * LIMB_BITS, (width - i * LIMB_BITS).min(LIMB_BITS));
            v.value[i] = read_bits(&self.value, at, n);
            v.meta[i] = read_bits(&self.meta, at, n);
        }
        v
    }

    /// Clears any garbage above `width` in the top limb (all of the
    /// inline limb of an empty vector) so that `Eq` and `Hash` are
    /// canonical.
    fn mask_top(&mut self) {
        let rem = self.width % LIMB_BITS;
        if rem != 0 || self.width == 0 {
            let top = self.value.len() - 1;
            self.value[top] &= low_mask(rem);
            self.meta[top] &= low_mask(rem);
        }
    }

    fn zip_planes(&self, rhs: &LogicVec, f: impl Fn(Logic, Logic) -> Logic) -> LogicVec {
        assert_eq!(self.width, rhs.width, "width mismatch");
        LogicVec::from_bits(self.iter().zip(rhs.iter()).map(|(a, b)| f(a, b)))
    }
}

/// Iterator over the elements of a [`LogicVec`], LSB first.
#[derive(Debug)]
pub struct Iter<'a> {
    vec: &'a LogicVec,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = Logic;

    #[inline]
    fn next(&mut self) -> Option<Logic> {
        if self.next < self.vec.width {
            let bit = self.vec.get(self.next);
            self.next += 1;
            Some(bit)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.width - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a LogicVec {
    type Item = Logic;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<Logic> for LogicVec {
    fn from_iter<I: IntoIterator<Item = Logic>>(iter: I) -> LogicVec {
        LogicVec::from_bits(iter)
    }
}

impl BitAnd for &LogicVec {
    type Output = LogicVec;

    fn bitand(self, rhs: &LogicVec) -> LogicVec {
        self.zip_planes(rhs, |a, b| a & b)
    }
}

impl BitOr for &LogicVec {
    type Output = LogicVec;

    fn bitor(self, rhs: &LogicVec) -> LogicVec {
        self.zip_planes(rhs, |a, b| a | b)
    }
}

impl BitXor for &LogicVec {
    type Output = LogicVec;

    fn bitxor(self, rhs: &LogicVec) -> LogicVec {
        self.zip_planes(rhs, |a, b| a ^ b)
    }
}

impl Not for &LogicVec {
    type Output = LogicVec;

    fn not(self) -> LogicVec {
        LogicVec::from_bits(self.iter().map(|b| !b))
    }
}

impl fmt::Display for LogicVec {
    /// Formats MSB first, matching HDL literal conventions.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return f.write_str("<empty>");
        }
        for i in (0..self.width).rev() {
            write!(f, "{}", self.get(i))?;
        }
        Ok(())
    }
}

impl FromStr for LogicVec {
    type Err = ParseLogicVecError;

    /// Parses an MSB-first string of `0`, `1`, `X`, `Z` characters.
    ///
    /// ```
    /// use vcad_logic::LogicVec;
    /// let v: LogicVec = "1X0".parse().unwrap();
    /// assert_eq!(v.width(), 3);
    /// ```
    fn from_str(s: &str) -> Result<LogicVec, ParseLogicVecError> {
        let mut bits = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            let bit = Logic::from_char(c).map_err(|_| ParseLogicVecError {
                position: i,
                found: c,
            })?;
            bits.push(bit);
        }
        bits.reverse();
        Ok(LogicVec::from_bits(bits))
    }
}

impl From<Word> for LogicVec {
    fn from(w: Word) -> LogicVec {
        LogicVec::from_bits((0..w.width()).map(|i| Logic::from(w.bit(i))))
    }
}

/// Error returned when parsing a [`LogicVec`] from text fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLogicVecError {
    position: usize,
    found: char,
}

impl fmt::Display for ParseLogicVecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid logic character `{}` at position {}",
            self.found, self.position
        )
    }
}

impl Error for ParseLogicVecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planes_are_inline_up_to_one_limb_and_the_size_is_unchanged() {
        assert_eq!(std::mem::size_of::<LogicVec>(), 56);
        for width in [0, 1, 16, 64] {
            let v = LogicVec::filled(width, Logic::Z);
            assert!(matches!(v.value, Plane::Inline(_)), "width {width}");
            assert_eq!(v, LogicVec::from_bits(v.iter()), "width {width}");
        }
        assert!(matches!(LogicVec::zeros(65).meta, Plane::Heap(_)));
        // The empty vector's inline limbs stay zero whatever built it.
        assert_eq!(LogicVec::filled(0, Logic::Z), LogicVec::default());
        assert_eq!(LogicVec::from_u64(0, u64::MAX), LogicVec::default());
    }

    #[test]
    fn zeros_and_fill() {
        let z = LogicVec::zeros(70);
        assert_eq!(z.width(), 70);
        assert!(z.iter().all(|b| b == Logic::Zero));
        let x = LogicVec::unknown(70);
        assert!(x.iter().all(|b| b == Logic::X));
    }

    #[test]
    fn set_get_across_limbs() {
        let mut v = LogicVec::zeros(130);
        v.set(0, Logic::One);
        v.set(63, Logic::X);
        v.set(64, Logic::Z);
        v.set(129, Logic::One);
        assert_eq!(v.get(0), Logic::One);
        assert_eq!(v.get(63), Logic::X);
        assert_eq!(v.get(64), Logic::Z);
        assert_eq!(v.get(129), Logic::One);
        assert_eq!(v.get(1), Logic::Zero);
    }

    #[test]
    fn word_round_trip() {
        let w = Word::new(20, 0xBEEF);
        let v = LogicVec::from(w);
        assert_eq!(v.to_word(), Some(w));
    }

    #[test]
    fn non_binary_has_no_word() {
        let mut v = LogicVec::from_u64(4, 0b1010);
        assert!(v.to_word().is_some());
        v.set(2, Logic::X);
        assert_eq!(v.to_word(), None);
    }

    #[test]
    fn display_msb_first() {
        let mut v = LogicVec::zeros(4);
        v.set(0, Logic::One);
        v.set(3, Logic::Z);
        assert_eq!(v.to_string(), "Z001");
    }

    #[test]
    fn parse_round_trip() {
        let s = "1X0Z01";
        let v: LogicVec = s.parse().unwrap();
        assert_eq!(v.to_string(), s);
        assert!("10Q1".parse::<LogicVec>().is_err());
    }

    #[test]
    fn bitwise_ops_match_scalar() {
        let a: LogicVec = "01XZ01XZ".parse().unwrap();
        let b: LogicVec = "0000ZZZZ".parse().unwrap();
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        let not = !&a;
        for i in 0..a.width() {
            assert_eq!(and.get(i), a.get(i) & b.get(i));
            assert_eq!(or.get(i), a.get(i) | b.get(i));
            assert_eq!(xor.get(i), a.get(i) ^ b.get(i));
            assert_eq!(not.get(i), !a.get(i));
        }
    }

    #[test]
    fn distance_counts_differences() {
        let a: LogicVec = "1100".parse().unwrap();
        let b: LogicVec = "1010".parse().unwrap();
        assert_eq!(a.distance(&b), 2);
        assert_eq!(a.distance(&a), 0);
        let c: LogicVec = "11X0".parse().unwrap();
        assert_eq!(a.distance(&c), 1);
    }

    #[test]
    fn concat_and_slice() {
        let v: LogicVec = "110010".parse().unwrap();
        let low = v.slice(0, 3);
        let high = v.slice(3, 3);
        assert_eq!(low.concat(&high), v);
    }

    #[test]
    fn canonical_equality_after_fill() {
        // filled() must not leave garbage above the width.
        let a = LogicVec::filled(5, Logic::One);
        let b: LogicVec = "11111".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = LogicVec::zeros(3).get(3);
    }
}
