//! The one bounded little-endian reader for every binary record: cache
//! blob headers, parameter blobs, checkpoints and the `nf serve` wire
//! format. A short read is a typed [`ReadError::Truncated`], never a slice
//! panic, and [`Reader::finish`] rejects bytes past the last field. Shapes
//! share one record, `rank u64 | dims u64 × rank`, written by
//! [`write_shape`] and read by [`read_shape`] under the one rank bound,
//! [`MAX_RANK`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt;

/// Most dims a stored shape may have.
pub const MAX_RANK: usize = 8;

/// Most elements a stored shape may describe (4 TiB as f32): every real
/// tensor fits, and a garbage shape is an error before anything computes
/// a byte count from it.
const MAX_NUMEL: u64 = 1 << 40;

/// Why a [`Reader`] refused its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The bytes ended inside a field.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// Bytes remain after the last field.
    Trailing {
        /// What was being read.
        context: &'static str,
        /// Bytes the fields took.
        expected: usize,
        /// Bytes present.
        got: usize,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated { context } => write!(f, "truncated {context}"),
            ReadError::Trailing {
                context,
                expected,
                got,
            } => write!(
                f,
                "{context} carries {got} bytes, its fields end at {expected}"
            ),
        }
    }
}

/// The storage decoders report a cause string that each caller wraps in
/// its own [`crate::NfError`] variant.
impl From<ReadError> for String {
    fn from(e: ReadError) -> String {
        e.to_string()
    }
}

/// A cursor handing out little-endian fields from the front of a slice.
///
/// # Examples
///
/// ```
/// use neuroflux_core::reader::{ReadError, Reader};
///
/// let bytes = [7, 1, 0, 0, 0, 0, 0, 0, 0];
/// let mut r = Reader::new(&bytes, "record");
/// assert_eq!(r.u8(), Ok(7));
/// assert_eq!(r.u64(), Ok(1));
/// assert_eq!(r.finish(), Ok(()));
/// assert_eq!(r.u8(), Err(ReadError::Truncated { context: "record" }));
/// ```
#[derive(Debug)]
pub struct Reader<'b> {
    rest: &'b [u8],
    len: usize,
    context: &'static str,
}

impl<'b> Reader<'b> {
    /// A reader over `buf`; `context` names the record in errors.
    pub fn new(buf: &'b [u8], context: &'static str) -> Self {
        Reader {
            rest: buf,
            len: buf.len(),
            context,
        }
    }

    fn truncated(&self) -> ReadError {
        ReadError::Truncated {
            context: self.context,
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'b [u8], ReadError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(self.truncated())?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(self.truncated())?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f32`, bit for bit.
    pub fn f32(&mut self) -> Result<f32, ReadError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// A `u64` count of items that take at least `min_bytes` each: a count
    /// the remaining bytes cannot hold is truncation, so nothing is ever
    /// allocated from a garbage count.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, ReadError> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| {
                n.checked_mul(min_bytes)
                    .is_some_and(|b| b <= self.rest.len())
            })
            .ok_or(self.truncated())
    }

    /// Fills `out` with the next `out.len()` f32s.
    pub fn f32s_into(&mut self, out: &mut [f32]) -> Result<(), ReadError> {
        let n = out.len().checked_mul(4).ok_or(self.truncated())?;
        let (words, _) = self.take(n)?.as_chunks::<4>();
        for (dst, src) in out.iter_mut().zip(words) {
            *dst = f32::from_le_bytes(*src);
        }
        Ok(())
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Succeeds only if every byte was read.
    pub fn finish(&self) -> Result<(), ReadError> {
        if self.rest.is_empty() {
            return Ok(());
        }
        Err(ReadError::Trailing {
            context: self.context,
            expected: self.len - self.rest.len(),
            got: self.len,
        })
    }
}

/// Reads one shape record (`rank u64 | dims u64 × rank`). A rank over
/// [`MAX_RANK`], or dims whose product overflows or passes 2⁴⁰, is an
/// error naming the shape.
pub fn read_shape(r: &mut Reader<'_>) -> Result<Vec<usize>, String> {
    let rank = r.u64()?;
    if rank > MAX_RANK as u64 {
        return Err(format!("implausible shape rank {rank}"));
    }
    let dims = (0..rank)
        .map(|_| Ok(r.u64()? as usize))
        .collect::<Result<Vec<_>, ReadError>>()?;
    dims.iter()
        .try_fold(1u64, |n, &d| n.checked_mul(d as u64))
        .filter(|&n| n <= MAX_NUMEL)
        .ok_or_else(|| format!("implausible shape {dims:?}"))?;
    Ok(dims)
}

/// Appends the shape record [`read_shape`] reads.
pub fn write_shape(out: &mut Vec<u8>, shape: &[usize]) {
    out.extend_from_slice(&(shape.len() as u64).to_le_bytes());
    for &d in shape {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_round_trip_and_are_bounded() {
        for shape in [vec![], vec![3], vec![2, 3, 4, 5], vec![1; MAX_RANK]] {
            let mut bytes = Vec::new();
            write_shape(&mut bytes, &shape);
            let mut r = Reader::new(&bytes, "shape");
            assert_eq!(read_shape(&mut r).unwrap(), shape);
            r.finish().unwrap();
        }
        for (shape, err) in [
            (vec![1; MAX_RANK + 1], "rank 9"),
            (vec![1 << 21, 1 << 20], "shape ["),
        ] {
            let mut bytes = Vec::new();
            write_shape(&mut bytes, &shape);
            let msg = read_shape(&mut Reader::new(&bytes, "shape")).unwrap_err();
            assert!(msg.contains(err), "{msg}");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_bytes() {
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&bytes, "c").count(4), Ok(2));
        assert!(Reader::new(&bytes, "c").count(5).is_err());
        assert!(Reader::new(&u64::MAX.to_le_bytes(), "c").count(1).is_err());
        assert!(Reader::new(&[0; 7], "f").f32s_into(&mut [0.0; 2]).is_err());
    }
}
