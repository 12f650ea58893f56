//! Reduced-precision conversion kernels for the activation-cache codecs.
//!
//! The activation cache is the largest memory consumer in the NeuroFlux
//! system (the paper's §6.4 measures it at 1.5–5.3× the dataset size), so
//! `neuroflux-core` stores cached block outputs through pluggable codecs.
//! This module is the numeric substrate those codecs are built on: scalar
//! f32 ↔ IEEE 754 binary16 conversion with round-to-nearest-even, plus
//! slice-wise batch kernels written as straight-line loops over packed
//! slices (no bounds checks in the hot loop, no branches per element
//! beyond the rounding select) so the auto-vectorizer can do its job.
//!
//! Also here: the affine u8 quantization primitives (`minmax_slice`,
//! `quantize_u8_slice`, `dequantize_u8_slice`) the per-channel `Int8Affine`
//! codec composes. The first two run at vector speed and keep their serial
//! versions (`minmax_scalar`, `quantize_u8_scalar`) as the oracles they
//! are tested against, bit for bit. Quantization maps `x ∈ [min, max]`
//! onto `q ∈ 0..=255` with `x ≈ min + scale·q`, `scale = (max − min)/255`;
//! the reconstruction error is at most `scale/2` per element.
//!
//! # Examples
//!
//! ```
//! use nf_tensor::convert::{f16_bits_to_f32, f32_to_f16_bits};
//!
//! // 1.0 is exactly representable in binary16.
//! assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0)), 1.0);
//! // Half precision keeps ~11 bits of mantissa.
//! let x = 0.1f32;
//! let round_tripped = f16_bits_to_f32(f32_to_f16_bits(x));
//! assert!((round_tripped - x).abs() <= x * 2f32.powi(-11));
//! ```

use crate::kernels::simd_int8;

/// Converts one `f32` to IEEE 754 binary16 bits, rounding to nearest even.
///
/// Values above the binary16 range become ±infinity; values below the
/// smallest subnormal round to ±0. NaN payloads are truncated but NaN-ness
/// is preserved.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Infinity or NaN: keep a non-zero mantissa bit for NaN.
        let nan = if man != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflows binary16's exponent range: ±inf.
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        // Normal in binary16: 10-bit mantissa, round to nearest even. A
        // mantissa carry can overflow into the exponent; that is exactly
        // the correct rounding (up to the next power of two, or to inf).
        let mut out = ((unbiased + 15) as u32) << 10 | (man >> 13);
        let round = man & 0x1fff;
        if round > 0x1000 || (round == 0x1000 && (out & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    if unbiased < -25 {
        // Below half the smallest subnormal: rounds to signed zero.
        return sign;
    }
    // Subnormal in binary16: shift the (implicit-bit-restored) mantissa
    // right until the exponent hits −14, rounding to nearest even.
    let mant = man | 0x0080_0000;
    let shift = (13 + (-14 - unbiased)) as u32;
    let mut out = mant >> shift;
    let halfway = 1u32 << (shift - 1);
    let round = mant & ((1 << shift) - 1);
    if round > halfway || (round == halfway && (out & 1) == 1) {
        out += 1;
    }
    sign | out as u16
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact — every binary16
/// value is representable in binary32).
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) >> 15) << 31;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0x1f {
        // Infinity / NaN.
        return f32::from_bits(sign | (0xff << 23) | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal: value is man × 2⁻²⁴. `man` (≤ 1023) and the
        // power-of-two scale are both exact in f32, so this multiply is
        // exact.
        let mag = man as f32 * (1.0 / 16_777_216.0);
        return if sign != 0 { -mag } else { mag };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Converts `src` to packed little-endian binary16 bytes
/// (`dst.len() == 2 · src.len()`) — the cache codecs' encode kernel, so
/// the byte payload is produced in one slice-wise pass with no
/// intermediate `u16` buffer.
///
/// # Panics
///
/// Panics if `dst` is not exactly twice `src`'s length (codec-internal
/// invariant).
pub fn f16_encode_slice(src: &[f32], dst: &mut [u8]) {
    assert_eq!(src.len() * 2, dst.len(), "f32→f16 slice length mismatch");
    for (d, &s) in dst.chunks_exact_mut(2).zip(src) {
        d.copy_from_slice(&f32_to_f16_bits(s).to_le_bytes());
    }
}

/// Converts packed little-endian binary16 bytes back to `f32`
/// (`src.len() == 2 · dst.len()`) — the cache codecs' decode kernel.
///
/// # Panics
///
/// Panics if `src` is not exactly twice `dst`'s length (codec-internal
/// invariant).
pub fn f16_decode_slice(src: &[u8], dst: &mut [f32]) {
    assert_eq!(dst.len() * 2, src.len(), "f16→f32 slice length mismatch");
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
        *d = f16_bits_to_f32(u16::from_le_bytes([s[0], s[1]]));
    }
}

/// Minimum and maximum of a slice; `(0.0, 0.0)` for an empty slice.
/// Non-finite inputs are the caller's responsibility (training
/// activations are finite by construction; NaN would poison the min/max
/// like any other reduction).
///
/// The same bits as [`minmax_scalar`], the serial oracle, at vector
/// speed: 16 independent chains making the oracle's own
/// comparisons (a tie or a NaN keeps the running value), folded at the
/// end. Values that compare equal have equal bits except `±0.0`, whose
/// order the lanes lose, so a zero result is the slice's first zero, as
/// the oracle keeps it. A leading NaN (which the oracle keeps as both
/// bounds) and a result that is not finite are left to the oracle.
pub fn minmax_slice(src: &[f32]) -> (f32, f32) {
    if src.first().is_some_and(|x| x.is_nan()) {
        return minmax_scalar(src);
    }
    let (blocks, tail) = src.as_chunks::<MINMAX_LANES>();
    let mut lo = [f32::INFINITY; MINMAX_LANES];
    let mut hi = [f32::NEG_INFINITY; MINMAX_LANES];
    for block in blocks {
        for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(block) {
            *l = if x < *l { x } else { *l };
            *h = if x > *h { x } else { *h };
        }
    }
    let min = |l: f32, &x: &f32| if x < l { x } else { l };
    let max = |h: f32, &x: &f32| if x > h { x } else { h };
    let mut l = lo.iter().chain(tail).fold(f32::INFINITY, min);
    let mut h = hi.iter().chain(tail).fold(f32::NEG_INFINITY, max);
    if !(l.is_finite() && h.is_finite()) {
        return minmax_scalar(src);
    }
    let first_zero = || src.iter().copied().find(|&x| x == 0.0).unwrap_or(0.0);
    if l == 0.0 {
        l = first_zero();
    }
    if h == 0.0 {
        h = first_zero();
    }
    (l, h)
}

/// Independent min/max chains of [`minmax_slice`]: one zmm register, or
/// two ymm, of each.
const MINMAX_LANES: usize = 16;

/// [`minmax_slice`] as one serial chain: the oracle it is tested against,
/// and what it falls back to on non-finite results.
pub fn minmax_scalar(src: &[f32]) -> (f32, f32) {
    let mut it = src.iter();
    let first = match it.next() {
        Some(&x) => x,
        None => return (0.0, 0.0),
    };
    let mut lo = first;
    let mut hi = first;
    for &x in it {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

/// Quantizes `src` onto `q ∈ 0..=255` with `x ≈ min + scale·q`, rounding
/// to nearest, half away from zero. A `scale` of zero (constant slice)
/// writes all zeros.
///
/// The same bytes as [`quantize_u8_scalar`], the oracle, on the vector
/// loop of [`crate::kernels::simd_int8::quantize_u8`] where the host has
/// one, and through the oracle otherwise.
///
/// # Panics
///
/// Panics if the slices' lengths differ (codec-internal invariant).
pub fn quantize_u8_slice(src: &[f32], min: f32, scale: f32, dst: &mut [u8]) {
    if scale == 0.0 || !simd_int8::quantize_u8(src, min, 1.0 / scale, dst) {
        quantize_u8_scalar(src, min, scale, dst);
    }
}

/// [`quantize_u8_slice`] one element at a time: the portable fallback and
/// the oracle.
///
/// # Panics
///
/// Panics if the slices' lengths differ (codec-internal invariant).
pub fn quantize_u8_scalar(src: &[f32], min: f32, scale: f32, dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "quantize slice length mismatch");
    if scale == 0.0 {
        dst.fill(0);
        return;
    }
    let inv = 1.0 / scale;
    for (d, &s) in dst.iter_mut().zip(src) {
        // Clamp before the cast: float rounding at the range edges could
        // otherwise land at 256 or −1.
        let q = ((s - min) * inv).round().clamp(0.0, 255.0);
        *d = q as u8;
    }
}

/// Dequantizes `src` back to `f32` with `x = min + scale·q`.
///
/// # Panics
///
/// Panics if the slices' lengths differ (codec-internal invariant).
pub fn dequantize_u8_slice(src: &[u8], min: f32, scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequantize slice length mismatch");
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = min + scale * q as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_binary16_values_round_trip_exactly() {
        for x in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            2.0,
            0.5,
            0.25,
            1.5,
            -3.75,
            65504.0,        // max finite f16
            6.103_515_6e-5, // smallest normal f16
            5.960_464_5e-8, // smallest subnormal f16
        ] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {back}");
        }
    }

    #[test]
    fn f16_round_trip_error_is_bounded() {
        // 2⁻¹¹ relative error for normal-range values (10 mantissa bits +
        // round-to-nearest).
        let mut x = 1e-4f32;
        // Cap so the ×π probe below stays inside binary16's finite range.
        while x < 1.8e4 {
            for v in [x, -x, x * 1.0001, x * core::f32::consts::PI] {
                let back = f16_bits_to_f32(f32_to_f16_bits(v));
                let tol = v.abs() * 2f32.powi(-11) + 2f32.powi(-24);
                assert!((back - v).abs() <= tol, "{v} -> {back}");
            }
            x *= 1.7;
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 2049 lies exactly between 2048 and 2050 in binary16 (spacing 2
        // at this magnitude); RNE picks the even mantissa, 2048.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2049.0)), 2048.0);
        // 2051 is between 2050 and 2052: rounds to 2052 (even mantissa).
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2051.0)), 2052.0);
    }

    #[test]
    fn f16_saturates_and_preserves_specials() {
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00); // +inf
        assert_eq!(f32_to_f16_bits(-1e9), 0xfc00); // -inf
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)),
            f32::INFINITY
        );
        assert_eq!(f32_to_f16_bits(1e-9), 0); // underflow to +0
    }

    #[test]
    fn slice_kernels_match_scalar() {
        let src: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.37).collect();
        let mut bytes = vec![0u8; src.len() * 2];
        f16_encode_slice(&src, &mut bytes);
        let mut back = vec![0f32; src.len()];
        f16_decode_slice(&bytes, &mut back);
        for (i, (b, &s)) in bytes.chunks_exact(2).zip(&src).enumerate() {
            let bits = u16::from_le_bytes([b[0], b[1]]);
            assert_eq!(bits, f32_to_f16_bits(s), "elem {i}");
            assert_eq!(back[i], f16_bits_to_f32(bits), "elem {i}");
        }
    }

    #[test]
    fn quantize_error_is_at_most_half_scale() {
        let src: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.7173).sin() * 3.2).collect();
        let (min, max) = minmax_slice(&src);
        let scale = (max - min) / 255.0;
        let mut q = vec![0u8; src.len()];
        quantize_u8_slice(&src, min, scale, &mut q);
        let mut back = vec![0f32; src.len()];
        dequantize_u8_slice(&q, min, scale, &mut back);
        for (&b, &s) in back.iter().zip(&src) {
            assert!(
                (b - s).abs() <= scale / 2.0 * 1.0001 + 1e-7,
                "{s} -> {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn constant_slice_quantizes_exactly() {
        let src = vec![2.5f32; 16];
        let (min, max) = minmax_slice(&src);
        assert_eq!((min, max), (2.5, 2.5));
        let scale = (max - min) / 255.0;
        let mut q = vec![7u8; 16];
        quantize_u8_slice(&src, min, scale, &mut q);
        assert_eq!(q, vec![0u8; 16]);
        let mut back = vec![0f32; 16];
        dequantize_u8_slice(&q, min, scale, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn minmax_handles_empty_and_negatives() {
        assert_eq!(minmax_slice(&[]), (0.0, 0.0));
        assert_eq!(minmax_slice(&[-3.0, 2.0, -7.5]), (-7.5, 2.0));
    }

    /// `len` values from `seed` that the vector kernels could get wrong:
    /// both zeros, exact half-way points of the unit grid, the largest
    /// float below one half, and ordinary values — or one value repeated.
    fn awkward(len: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let constant = rng.gen_range(0..4) == 0;
        let c = rng.gen_range(-3.0f32..3.0);
        (0..len)
            .map(|_| match rng.gen_range(0..6) {
                _ if constant => c,
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-40..40) as f32 + 0.5,
                3 => 0.499_999_97,
                _ => rng.gen_range(-40.0f32..40.0),
            })
            .collect()
    }

    /// The vector kernels against their serial oracles, bit for bit.
    fn check_against_oracles(src: &[f32]) {
        let bits = |(l, h): (f32, f32)| (l.to_bits(), h.to_bits());
        let (lo, hi) = minmax_scalar(src);
        assert_eq!(bits(minmax_slice(src)), bits((lo, hi)), "{src:?}");
        for (min, scale) in [(0.0, 1.0), (-2.0, 1.0), (lo, (hi - lo) / 255.0), (lo, 0.0)] {
            let mut want = vec![0xAB; src.len()];
            quantize_u8_scalar(src, min, scale, &mut want);
            let mut got = vec![0xCD; src.len()];
            quantize_u8_slice(src, min, scale, &mut got);
            assert_eq!(got, want, "min {min} scale {scale} {src:?}");
            // The vector loop itself, where the host has it.
            if scale != 0.0 && simd_int8::quantize_u8(src, min, 1.0 / scale, &mut got) {
                assert_eq!(got, want, "min {min} scale {scale} {src:?}");
            }
        }
    }

    #[test]
    fn vector_kernels_are_their_oracles_at_every_length() {
        println!("int8 codec kernel: {}", simd_int8::quantize_kernel_name());
        for len in 0..=200 {
            for seed in 0..4 {
                check_against_oracles(&awkward(len, seed * 1000 + len as u64));
            }
        }
        // The ties the rounding must break away from zero, and the one
        // float below a half that adding 0.5 would round up.
        check_against_oracles(&[0.5, 1.5, 2.5, 254.5, 0.499_999_97, 255.0, 300.0, -1.0]);
        check_against_oracles(&[-0.0, 0.0, 1.0, -0.0]);
        check_against_oracles(&[0.0; 37]);
        check_against_oracles(&[-0.0; 37]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn prop_vector_kernels_are_their_oracles(len in 0usize..201, seed in 0u64..1 << 40) {
            check_against_oracles(&awkward(len, seed));
        }
    }
}
