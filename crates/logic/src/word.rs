//! Binary RT-level words.

use std::fmt;

/// A two-valued word of up to 128 bits, used by behavioural RTL models.
///
/// All arithmetic wraps modulo `2^width`, which matches the semantics of a
/// fixed-width datapath. A `Word` always keeps its value masked to its
/// width, so equality and hashing are canonical.
///
/// # Examples
///
/// ```
/// use vcad_logic::Word;
///
/// let a = Word::new(8, 200);
/// let b = Word::new(8, 100);
/// assert_eq!(a.wrapping_add(b).value(), 44); // 300 mod 256
/// let p = a.widening_mul(b);
/// assert_eq!(p.width(), 16);
/// assert_eq!(p.value(), 20_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Word {
    width: usize,
    value: u128,
}

impl Word {
    /// Creates a word of the given `width`, masking `value` to fit.
    ///
    /// # Panics
    ///
    /// Panics if `width > 128`.
    ///
    /// ```
    /// use vcad_logic::Word;
    /// assert_eq!(Word::new(4, 0x1F).value(), 0xF);
    /// ```
    #[must_use]
    pub fn new(width: usize, value: u128) -> Word {
        assert!(width <= 128, "word width {width} exceeds 128 bits");
        Word {
            width,
            value: value & Self::mask(width),
        }
    }

    /// The all-zero word of the given width.
    #[must_use]
    pub fn zero(width: usize) -> Word {
        Word::new(width, 0)
    }

    /// The all-ones word of the given width.
    #[must_use]
    pub fn ones(width: usize) -> Word {
        Word::new(width, u128::MAX)
    }

    /// The word's width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The word's value as an unsigned integer.
    #[must_use]
    pub fn value(&self) -> u128 {
        self.value
    }

    /// Reads bit `index` (LSB is bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    #[must_use]
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.width, "bit index {index} out of range");
        self.value >> index & 1 == 1
    }

    /// Addition modulo `2^width`. The result keeps `self`'s width.
    #[must_use]
    pub fn wrapping_add(self, rhs: Word) -> Word {
        Word::new(self.width, self.value.wrapping_add(rhs.value))
    }

    /// Subtraction modulo `2^width`. The result keeps `self`'s width.
    #[must_use]
    pub fn wrapping_sub(self, rhs: Word) -> Word {
        Word::new(self.width, self.value.wrapping_sub(rhs.value))
    }

    /// Multiplication modulo `2^width`. The result keeps `self`'s width.
    #[must_use]
    pub fn wrapping_mul(self, rhs: Word) -> Word {
        Word::new(self.width, self.value.wrapping_mul(rhs.value))
    }

    /// Full-precision multiplication: the result is
    /// `self.width() + rhs.width()` bits wide, as a hardware multiplier
    /// produces.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 128 bits.
    #[must_use]
    pub fn widening_mul(self, rhs: Word) -> Word {
        let width = self.width + rhs.width;
        assert!(width <= 128, "product width {width} exceeds 128 bits");
        Word::new(width, self.value.wrapping_mul(rhs.value))
    }

    /// Bitwise AND; the result keeps `self`'s width.
    #[must_use]
    pub fn and(self, rhs: Word) -> Word {
        Word::new(self.width, self.value & rhs.value)
    }

    /// Bitwise OR; the result keeps `self`'s width.
    #[must_use]
    pub fn or(self, rhs: Word) -> Word {
        Word::new(self.width, self.value | rhs.value)
    }

    /// Bitwise XOR; the result keeps `self`'s width.
    #[must_use]
    pub fn xor(self, rhs: Word) -> Word {
        Word::new(self.width, self.value ^ rhs.value)
    }

    /// Hamming distance to `other`, the standard toggle-activity measure.
    #[must_use]
    pub fn hamming(&self, other: Word) -> u32 {
        (self.value ^ other.value).count_ones()
    }

    /// Zero-extends or truncates to `width` bits.
    #[must_use]
    pub fn resize(self, width: usize) -> Word {
        Word::new(width, self.value)
    }

    fn mask(width: usize) -> u128 {
        if width == 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        }
    }
}

impl std::ops::Not for Word {
    type Output = Word;

    /// Bitwise complement within the word's width.
    fn not(self) -> Word {
        Word::new(self.width, !self.value)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'d{}", self.width, self.value)
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.value, f)
    }
}

impl fmt::UpperHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.value, f)
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.value, f)
    }
}

impl fmt::Octal for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.value, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_on_construction() {
        assert_eq!(Word::new(4, 0xFF).value(), 0xF);
        assert_eq!(Word::new(128, u128::MAX).value(), u128::MAX);
        assert_eq!(Word::new(0, 5).value(), 0);
    }

    #[test]
    fn wrapping_arithmetic() {
        let a = Word::new(8, 0xF0);
        let b = Word::new(8, 0x20);
        assert_eq!(a.wrapping_add(b).value(), 0x10);
        assert_eq!(b.wrapping_sub(a).value(), 0x30);
        assert_eq!(a.wrapping_mul(b).value(), 0xF0 * 0x20 % 256);
    }

    #[test]
    fn widening_mul_is_exact() {
        let a = Word::new(16, 0xFFFF);
        let b = Word::new(16, 0xFFFF);
        let p = a.widening_mul(b);
        assert_eq!(p.width(), 32);
        assert_eq!(p.value(), 0xFFFF * 0xFFFF);
    }

    #[test]
    fn bit_access() {
        let w = Word::new(8, 0b1010_0001);
        assert!(w.bit(0));
        assert!(!w.bit(1));
        assert!(w.bit(7));
    }

    #[test]
    fn hamming_and_popcount() {
        let a = Word::new(8, 0b1111_0000);
        let b = Word::new(8, 0b0000_1111);
        // Hamming weight: the distance to zero.
        assert_eq!(a.hamming(Word::new(8, 0)), 4);
        assert_eq!(a.hamming(b), 8);
        assert_eq!(a.hamming(a), 0);
    }

    #[test]
    fn resize_truncates_and_extends() {
        let w = Word::new(8, 0xAB);
        assert_eq!(w.resize(4).value(), 0xB);
        assert_eq!(w.resize(16).value(), 0xAB);
    }

    #[test]
    fn formatting() {
        let w = Word::new(8, 0xA5);
        assert_eq!(w.to_string(), "8'd165");
        assert_eq!(format!("{w:x}"), "a5");
        assert_eq!(format!("{w:b}"), "10100101");
    }

    #[test]
    #[should_panic(expected = "exceeds 128")]
    fn oversized_width_panics() {
        let _ = Word::new(129, 0);
    }
}
