//! A packed bitset used for validity masks, delete vectors and selections.

/// A fixed-length bitmap. Bit `i` is stored in word `i / 64`, bit `i % 64`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of length `len`.
    pub fn zeros(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// All-ones bitmap of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.mask_tail();
        b
    }

    /// Builds from an iterator of booleans.
    pub fn from_iter_bool(iter: impl IntoIterator<Item = bool>) -> Self {
        let mut b = Bitmap::zeros(0);
        for v in iter {
            b.push(v);
        }
        b
    }

    /// Packs a boolean slice directly into words — the kernel-speed
    /// counterpart of [`Bitmap::from_iter_bool`], used by the vectorized
    /// expression kernels to move between boolean column data and
    /// bitmap-native three-valued logic.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (chunk, word) in bits.chunks(64).zip(words.iter_mut()) {
            let mut w = 0u64;
            for (bit, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << bit;
            }
            *word = w;
        }
        Bitmap { words, len: bits.len() }
    }

    /// Unpacks into one `bool` per bit (inverse of [`Bitmap::from_bools`]).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Appends the bits packed eight to a byte, least significant bit
    /// first: `len.div_ceil(8)` bytes, the unused high bits of the last one
    /// zero.
    pub(crate) fn write_packed(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.len.div_ceil(8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(end);
        if let (Some(last), tail @ 1..) = (out.last_mut(), self.len % 8) {
            *last &= (1u8 << tail) - 1;
        }
    }

    /// The first `len` bits of `bytes` packed as [`Bitmap::write_packed`]
    /// writes them; bits past `len` are ignored. `bytes` must hold at least
    /// `len.div_ceil(8)` bytes.
    pub(crate) fn from_packed(bytes: &[u8], len: usize) -> Self {
        let words = bytes[..len.div_ceil(8)]
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect();
        let mut b = Bitmap { words, len };
        b.mask_tail();
        b
    }

    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        if v {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Appends a bit.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if v {
            let i = self.len - 1;
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Appends `n` set bits, a word at a time.
    pub fn extend_ones(&mut self, n: usize) {
        let mut left = n;
        let tail = self.len % 64;
        if tail != 0 && left > 0 {
            let fill = left.min(64 - tail);
            let last = self.words.len() - 1;
            self.words[last] |= (u64::MAX >> (64 - fill)) << tail;
            self.len += fill;
            left -= fill;
        }
        self.words.extend(std::iter::repeat_n(u64::MAX, left / 64));
        self.len += left / 64 * 64;
        if !left.is_multiple_of(64) {
            self.words.push(u64::MAX >> (64 - left % 64));
            self.len += left % 64;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of unset bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Bitwise AND of equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect(),
            len: self.len,
        }
    }

    /// Bitwise OR of equal-length bitmaps.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect(),
            len: self.len,
        }
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bitmap {
        let mut b = Bitmap { words: self.words.iter().map(|w| !w).collect(), len: self.len };
        b.mask_tail();
        b
    }

    /// `self AND NOT other`.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & !b).collect(),
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        assert!(!z.any());

        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.all());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::zeros(130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn push_extends() {
        let mut b = Bitmap::zeros(0);
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn extend_ones_matches_pushes() {
        for start in [0usize, 1, 63, 64, 65, 130] {
            for n in [0usize, 1, 62, 63, 64, 65, 200] {
                let mut bulk = Bitmap::from_iter_bool((0..start).map(|i| i % 3 == 0));
                let mut one_by_one = bulk.clone();
                bulk.extend_ones(n);
                for _ in 0..n {
                    one_by_one.push(true);
                }
                assert_eq!(bulk, one_by_one, "start {start}, n {n}");
            }
        }
    }

    #[test]
    fn from_bools_roundtrips() {
        let bits: Vec<bool> = (0..130).map(|i| i % 5 == 0 || i % 7 == 3).collect();
        let b = Bitmap::from_bools(&bits);
        assert_eq!(b.len(), 130);
        assert_eq!(b.to_bools(), bits);
        assert_eq!(b, Bitmap::from_iter_bool(bits.iter().copied()));
        assert!(Bitmap::from_bools(&[]).is_empty());
    }

    #[test]
    fn iter_ones_matches_get() {
        let b = Bitmap::from_iter_bool((0..150).map(|i| i % 7 == 0));
        let ones: Vec<usize> = b.iter_ones().collect();
        let expected: Vec<usize> = (0..150).filter(|i| i % 7 == 0).collect();
        assert_eq!(ones, expected);
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitmap::from_iter_bool([true, true, false, false]);
        let b = Bitmap::from_iter_bool([true, false, true, false]);
        assert_eq!(a.and(&b), Bitmap::from_iter_bool([true, false, false, false]));
        assert_eq!(a.or(&b), Bitmap::from_iter_bool([true, true, true, false]));
        assert_eq!(a.not(), Bitmap::from_iter_bool([false, false, true, true]));
        assert_eq!(a.and_not(&b), Bitmap::from_iter_bool([false, true, false, false]));
    }

    #[test]
    fn not_masks_tail_bits() {
        // A NOT on a non-multiple-of-64 bitmap must not set phantom tail bits.
        let b = Bitmap::zeros(65).not();
        assert_eq!(b.count_ones(), 65);
        assert!(b.all());
    }

    #[test]
    fn count_zeros_complements() {
        let b = Bitmap::from_iter_bool((0..100).map(|i| i % 2 == 0));
        assert_eq!(b.count_ones() + b.count_zeros(), 100);
    }
}
