//! CM key specifications (single-attribute and composite, §6.1.3).

use crate::bucket::{BucketSpec, CmKey};
use cm_storage::Value;

/// One attribute of a CM key: which column it reads and how it buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct CmAttr {
    /// Column position in the table schema.
    pub col: usize,
    /// Bucketing applied to the column's values.
    pub bucket: BucketSpec,
}

impl CmAttr {
    /// Unbucketed attribute.
    pub fn raw(col: usize) -> Self {
        CmAttr { col, bucket: BucketSpec::None }
    }

    /// Attribute bucketed by truncation to `2^level`.
    pub fn pow2(col: usize, level: u32) -> Self {
        CmAttr { col, bucket: BucketSpec::pow2(level) }
    }
}

/// The (possibly composite) key definition of a CM.
///
/// Composite CMs matter when a *pair* of attributes determines the
/// clustered value far better than either alone — the paper's
/// `(longitude, latitude) → zipcode` and Experiment 5's
/// `(ra, dec) → objID`.
#[derive(Debug, Clone, PartialEq)]
pub struct CmSpec {
    attrs: Vec<CmAttr>,
}

impl CmSpec {
    /// A spec over the given attributes (at least one).
    pub fn new(attrs: Vec<CmAttr>) -> Self {
        assert!(!attrs.is_empty(), "a CM key needs at least one attribute");
        CmSpec { attrs }
    }

    /// Single-attribute unbucketed spec.
    pub fn single_raw(col: usize) -> Self {
        Self::new(vec![CmAttr::raw(col)])
    }

    /// Single-attribute spec with pow2 bucketing.
    pub fn single_pow2(col: usize, level: u32) -> Self {
        Self::new(vec![CmAttr::pow2(col, level)])
    }

    /// The key attributes in order.
    pub fn attrs(&self) -> &[CmAttr] {
        &self.attrs
    }

    /// Number of key attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Columns read by this spec, in key order.
    pub fn cols(&self) -> Vec<usize> {
        self.attrs.iter().map(|a| a.col).collect()
    }

    /// Compute the CM key of a row.
    pub fn key_of(&self, row: &[Value]) -> CmKey {
        self.attrs.iter().map(|a| a.bucket.key_part(&row[a.col])).collect()
    }

    /// Stored size of `key_of(row)`, summed without building the key.
    pub fn key_bytes(&self, row: &[Value]) -> usize {
        let part =
            |a: &CmAttr| a.bucket.bucket_of(&row[a.col]).map_or(row[a.col].size_bytes(), |_| 8);
        self.attrs.iter().map(part).sum()
    }

    /// Encode the spec as bytes — the opaque payload a
    /// [`cm_storage::LogPayload::DesignChange`] record carries, since
    /// the log layer sits *below* this crate in the dependency order.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.attrs.len() as u16).to_le_bytes());
        for a in &self.attrs {
            out.extend_from_slice(&(a.col as u32).to_le_bytes());
            match &a.bucket {
                BucketSpec::None => out.push(0),
                BucketSpec::EquiWidth { origin, width } => {
                    out.push(1);
                    out.extend_from_slice(&origin.to_le_bytes());
                    out.extend_from_slice(&width.to_le_bytes());
                }
                BucketSpec::EquiDepth { bounds } => {
                    out.push(2);
                    out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
                    for b in bounds.iter() {
                        out.extend_from_slice(&b.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Decode a spec previously produced by [`CmSpec::encode`]. Returns
    /// `None` on any structural mismatch (recovery treats that as a
    /// corrupt record).
    pub fn decode(bytes: &[u8]) -> Option<(CmSpec, usize)> {
        fn f64_at(bytes: &[u8], pos: &mut usize) -> Option<f64> {
            let s = bytes.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(f64::from_le_bytes(s.try_into().ok()?))
        }
        let mut pos = 0usize;
        let arity = u16::from_le_bytes(bytes.get(0..2)?.try_into().ok()?) as usize;
        pos += 2;
        if arity == 0 {
            return None;
        }
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            let col = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
            pos += 4;
            let tag = *bytes.get(pos)?;
            pos += 1;
            let bucket = match tag {
                0 => BucketSpec::None,
                1 => {
                    let origin = f64_at(bytes, &mut pos)?;
                    let width = f64_at(bytes, &mut pos)?;
                    BucketSpec::EquiWidth { origin, width }
                }
                2 => {
                    let n =
                        u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
                    pos += 4;
                    let mut bounds = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        bounds.push(f64_at(bytes, &mut pos)?);
                    }
                    BucketSpec::EquiDepth { bounds: bounds.into() }
                }
                _ => return None,
            };
            attrs.push(CmAttr { col, bucket });
        }
        Some((CmSpec { attrs }, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::CmKeyPart;

    #[test]
    fn key_projection_and_bucketing() {
        // row = (id, city, price)
        let row = vec![Value::Int(7), Value::str("boston"), Value::Int(5000)];
        let spec = CmSpec::new(vec![CmAttr::raw(1), CmAttr::pow2(2, 12)]);
        let key = spec.key_of(&row);
        assert_eq!(
            key.as_ref(),
            &[CmKeyPart::Raw(Value::str("boston")), CmKeyPart::Bucket(1)]
        );
        assert_eq!(spec.cols(), vec![1, 2]);
        assert_eq!(spec.arity(), 2);
    }

    #[test]
    fn equal_rows_make_equal_keys() {
        let spec = CmSpec::single_pow2(0, 4);
        let a = spec.key_of(&[Value::Int(17)]);
        let b = spec.key_of(&[Value::Int(31)]);
        assert_eq!(a, b, "17 and 31 share bucket 1 at width 16");
        let c = spec.key_of(&[Value::Int(32)]);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn empty_spec_rejected() {
        CmSpec::new(vec![]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let specs = vec![
            CmSpec::single_raw(3),
            CmSpec::single_pow2(1, 12),
            CmSpec::new(vec![
                CmAttr::raw(0),
                CmAttr { col: 2, bucket: BucketSpec::covering(0.0, 360.0, 64) },
                CmAttr {
                    col: 5,
                    bucket: BucketSpec::equi_depth_from_sample(&[1.0, 2.0, 5.0, 9.0], 3),
                },
            ]),
        ];
        for spec in specs {
            let bytes = spec.encode();
            let (back, used) = CmSpec::decode(&bytes).expect("decodes");
            assert_eq!(back, spec);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn truncated_or_garbage_specs_fail_to_decode() {
        let bytes = CmSpec::single_pow2(0, 4).encode();
        for cut in 0..bytes.len() {
            assert!(CmSpec::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        assert!(CmSpec::decode(&[0, 0]).is_none(), "zero-arity spec rejected");
    }
}
