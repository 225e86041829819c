//! The codebook (set of codewords) and the assignment list — two of the
//! three components of MVQ's compressed representation (the third is the
//! mask, [`crate::NmMask`]).

use mvq_tensor::{quantize_symmetric, Tensor};

use crate::error::MvqError;

/// A codebook of `k` codewords of length `d`, optionally quantized to a
/// symmetric integer grid (paper §4.5, Eq. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    centers: Tensor, // [k, d]
    scale: Option<f32>,
    bits: Option<u32>,
}

impl Codebook {
    /// Wraps a `[k, d]` centers matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] unless `centers` is a non-empty
    /// matrix.
    pub fn new(centers: Tensor) -> Result<Codebook, MvqError> {
        if centers.rank() != 2 || centers.numel() == 0 {
            return Err(MvqError::InvalidConfig(format!(
                "codebook must be a non-empty [k, d] matrix, got {:?}",
                centers.dims()
            )));
        }
        Ok(Codebook { centers, scale: None, bits: None })
    }

    /// Reassembles a codebook from stored parts, including the
    /// quantization metadata [`Codebook::quantize`] recorded — the decode
    /// path of the artifact codec, which must reproduce the original bit
    /// pattern without re-running the scale solver.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] for a malformed centers matrix,
    /// a scale/bits pair where only one side is present, a non-positive or
    /// non-finite scale, or bits outside `2..=16`.
    pub fn from_raw_parts(
        centers: Tensor,
        scale: Option<f32>,
        bits: Option<u32>,
    ) -> Result<Codebook, MvqError> {
        let mut cb = Codebook::new(centers)?;
        match (scale, bits) {
            (None, None) => {}
            (Some(s), Some(b)) => {
                if !(2..=16).contains(&b) {
                    return Err(MvqError::InvalidConfig(format!(
                        "codebook bits must be in 2..=16, got {b}"
                    )));
                }
                if !(s.is_finite() && s > 0.0) {
                    return Err(MvqError::InvalidConfig(format!(
                        "codebook scale must be finite and positive, got {s}"
                    )));
                }
                cb.scale = Some(s);
                cb.bits = Some(b);
            }
            _ => {
                return Err(MvqError::InvalidConfig(
                    "codebook quantization scale and bits must be stored together".into(),
                ))
            }
        }
        Ok(cb)
    }

    /// Number of codewords `k`.
    pub fn k(&self) -> usize {
        self.centers.dims()[0]
    }

    /// Codeword length `d`.
    pub fn d(&self) -> usize {
        self.centers.dims()[1]
    }

    /// The `[k, d]` centers matrix.
    pub fn centers(&self) -> &Tensor {
        &self.centers
    }

    /// Mutable centers (used by fine-tuning). Quantization metadata is
    /// preserved; call [`Codebook::requantize`] after editing if the
    /// codebook was quantized.
    pub fn centers_mut(&mut self) -> &mut Tensor {
        &mut self.centers
    }

    /// Codeword `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= k`; assignments are validated upstream.
    pub fn codeword(&self, i: usize) -> &[f32] {
        self.centers.row(i)
    }

    /// Quantization scale, if quantized.
    pub fn scale(&self) -> Option<f32> {
        self.scale
    }

    /// Quantization bit width, if quantized.
    pub fn bits(&self) -> Option<u32> {
        self.bits
    }

    /// Whether `other` is this codebook bit for bit: same dims, centers
    /// and quantization metadata. Model storage and codebook fine-tuning
    /// treat bit-identical codebooks as one shared codebook.
    pub(crate) fn bit_identical(&self, other: &Codebook) -> bool {
        self.bits == other.bits
            && self.scale.map(f32::to_bits) == other.scale.map(f32::to_bits)
            && self.centers.dims() == other.centers.dims()
            && self
                .centers
                .data()
                .iter()
                .zip(other.centers.data())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Bits needed to store one assignment index: `⌈log2 k⌉`.
    pub fn index_bits(&self) -> u32 {
        let k = self.k() as u64;
        if k <= 1 {
            0
        } else {
            64 - (k - 1).leading_zeros()
        }
    }

    /// Total codebook storage in bits (`b_c` of Eq. 7): `k × d × q_c`,
    /// where `q_c` is the quantized width or 32 for float codebooks.
    pub fn storage_bits(&self) -> u64 {
        let qc = self.bits.unwrap_or(32) as u64;
        (self.k() * self.d()) as u64 * qc
    }

    /// Quantizes the codebook to `bits` with an LSQ-style learned scale:
    /// the scale starts from the LSQ initialization `2·E|c| / √q_max` and
    /// is refined by alternating minimization (fix the integer codes, solve
    /// the optimal scale in closed form, repeat), which reaches the same
    /// fixed point LSQ's gradient descent on `s` does for this convex
    /// subproblem.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when `bits` is outside `2..=16`
    /// or the codebook is all-zero.
    pub fn quantize(&mut self, bits: u32) -> Result<(), MvqError> {
        if !(2..=16).contains(&bits) {
            return Err(MvqError::InvalidConfig(format!("bits must be in 2..=16, got {bits}")));
        }
        let qmax = ((1i64 << (bits - 1)) - 1) as f32;
        let mean_abs =
            self.centers.data().iter().map(|x| x.abs()).sum::<f32>() / self.centers.numel() as f32;
        if mean_abs == 0.0 {
            return Err(MvqError::InvalidConfig("cannot quantize an all-zero codebook".into()));
        }
        let mut s = 2.0 * mean_abs / qmax.sqrt();
        for _ in 0..30 {
            // fix codes q = clamp(round(c/s)), then optimal s = <c,q>/<q,q>
            let q = quantize_symmetric(&self.centers, s, bits)?;
            let num: f64 = self
                .centers
                .data()
                .iter()
                .zip(q.values())
                .map(|(&c, &qi)| c as f64 * qi as f64)
                .sum();
            let den: f64 = q.values().iter().map(|&qi| (qi as f64) * (qi as f64)).sum();
            if den == 0.0 {
                break;
            }
            let s_new = (num / den) as f32;
            if !(s_new.is_finite() && s_new > 0.0) || (s_new - s).abs() / s < 1e-6 {
                break;
            }
            s = s_new;
        }
        self.centers = quantize_symmetric(&self.centers, s, bits)?.dequantize();
        self.scale = Some(s);
        self.bits = Some(bits);
        Ok(())
    }

    /// Re-snaps the centers to the quantization grid after fine-tuning
    /// edits. No-op for unquantized codebooks.
    ///
    /// # Errors
    ///
    /// Propagates quantization errors.
    pub fn requantize(&mut self) -> Result<(), MvqError> {
        if let (Some(s), Some(b)) = (self.scale, self.bits) {
            self.centers = quantize_symmetric(&self.centers, s, b)?.dequantize();
        }
        Ok(())
    }
}

/// A per-subvector assignment list mapping each subvector to its codeword.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignments(Vec<u32>);

impl Assignments {
    /// Wraps raw indices, validating against a codebook size.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when any index is `>= k`.
    pub fn new(indices: Vec<u32>, k: usize) -> Result<Assignments, MvqError> {
        if let Some(&bad) = indices.iter().find(|&&i| i as usize >= k) {
            return Err(MvqError::InvalidConfig(format!(
                "assignment {bad} out of range for k = {k}"
            )));
        }
        Ok(Assignments(indices))
    }

    /// Number of subvectors.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw indices.
    pub fn indices(&self) -> &[u32] {
        &self.0
    }

    /// Assignment of subvector `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn of(&self, j: usize) -> usize {
        self.0[j] as usize
    }
}

impl FromIterator<u32> for Assignments {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Assignments(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cb(data: Vec<f32>, k: usize, d: usize) -> Codebook {
        Codebook::new(Tensor::from_vec(vec![k, d], data).unwrap()).unwrap()
    }

    #[test]
    fn accessors() {
        let c = cb(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(c.k(), 2);
        assert_eq!(c.d(), 2);
        assert_eq!(c.codeword(1), &[3.0, 4.0]);
        assert_eq!(c.index_bits(), 1);
        assert_eq!(c.storage_bits(), 2 * 2 * 32);
        assert!(c.scale().is_none());
    }

    #[test]
    fn index_bits_are_ceil_log2() {
        let mk = |k: usize| cb(vec![0.5; k * 2], k, 2).index_bits();
        assert_eq!(mk(1), 0);
        assert_eq!(mk(2), 1);
        assert_eq!(mk(3), 2);
        assert_eq!(mk(512), 9);
        assert_eq!(mk(513), 10);
    }

    #[test]
    fn validates_shape() {
        assert!(Codebook::new(Tensor::zeros(vec![4])).is_err());
        assert!(Codebook::new(Tensor::zeros(vec![0, 4])).is_err());
    }

    #[test]
    fn quantize_reduces_storage_and_bounds_error() {
        let mut c = cb(vec![0.11, -0.52, 0.93, 0.24, -0.75, 0.36, 0.87, -0.18], 2, 4);
        let orig = c.centers().clone();
        c.quantize(8).unwrap();
        assert_eq!(c.bits(), Some(8));
        assert_eq!(c.storage_bits(), 2 * 4 * 8);
        let s = c.scale().unwrap();
        // max error bounded by half a step
        for (a, b) in orig.data().iter().zip(c.centers().data()) {
            assert!((a - b).abs() <= s * 0.5 + 1e-6);
        }
    }

    #[test]
    fn quantize_validates() {
        let mut c = cb(vec![0.0; 4], 2, 2);
        assert!(c.quantize(8).is_err(), "all-zero codebook");
        let mut c = cb(vec![1.0; 4], 2, 2);
        assert!(c.quantize(1).is_err());
        assert!(c.quantize(20).is_err());
    }

    #[test]
    fn requantize_snaps_to_grid() {
        let mut c = cb(vec![0.5, -0.25, 1.0, 0.75], 2, 2);
        c.quantize(8).unwrap();
        let s = c.scale().unwrap();
        // nudge off-grid then requantize
        c.centers_mut().data_mut()[0] += s * 0.3;
        c.requantize().unwrap();
        for &v in c.centers().data() {
            let steps = v / s;
            assert!((steps - steps.round()).abs() < 1e-4, "{v} not on grid {s}");
        }
    }

    #[test]
    fn assignments_validate_range() {
        assert!(Assignments::new(vec![0, 1, 2], 3).is_ok());
        assert!(Assignments::new(vec![0, 3], 3).is_err());
        let a: Assignments = vec![1u32, 0].into_iter().collect();
        assert_eq!(a.len(), 2);
        assert_eq!(a.of(0), 1);
        assert!(!a.is_empty());
    }
}
