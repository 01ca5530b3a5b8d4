//! Binary PPM (P6) encoding.
//!
//! The in-situ pipeline's only persistent output is rendered images; they are
//! written through the simulated filesystem in this format. PPM keeps the
//! codec dependency-free while remaining a real, openable image format.

use crate::raster::Framebuffer;

/// Encode an image as binary PPM (P6, maxval 255): a copy of
/// [`Framebuffer::ppm`], which already holds the encoded bytes.
pub fn encode_ppm(fb: &Framebuffer) -> Vec<u8> {
    fb.ppm().to_vec()
}

/// The P6 header of a `width × height` image.
pub(crate) fn ppm_header(width: usize, height: usize) -> String {
    format!("P6\n{width} {height}\n255\n")
}

/// Expected encoded size of a `width × height` PPM, bytes — pipelines use
/// this to budget I/O without encoding first.
pub fn ppm_size_bytes(width: usize, height: usize) -> u64 {
    (ppm_header(width, height).len() + width * height * 3) as u64
}

/// Decode a binary PPM produced by [`encode_ppm`] (P6, maxval 255, single
/// whitespace separators). Returns `None` on any malformation. No run
/// decodes a frame; the round-trip tests read theirs back with this.
#[cfg(any(test, feature = "reference"))]
pub fn decode_ppm(data: &[u8]) -> Option<Framebuffer> {
    let mut pos = 0usize;
    let mut token = || -> Option<&[u8]> {
        while pos < data.len() && data[pos].is_ascii_whitespace() {
            pos += 1;
        }
        let start = pos;
        while pos < data.len() && !data[pos].is_ascii_whitespace() {
            pos += 1;
        }
        (pos > start).then(|| &data[start..pos])
    };
    if token()? != b"P6" {
        return None;
    }
    let width: usize = std::str::from_utf8(token()?).ok()?.parse().ok()?;
    let height: usize = std::str::from_utf8(token()?).ok()?.parse().ok()?;
    let maxval: usize = std::str::from_utf8(token()?).ok()?.parse().ok()?;
    if maxval != 255 {
        return None;
    }
    // Exactly one whitespace byte after maxval, then raw pixels.
    Framebuffer::from_bytes(width, height, data.get(pos + 1..)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colormap::Colormap;
    use crate::raster::{render_field, RenderOptions};
    use greenness_heatsim::Grid;

    fn test_image() -> Framebuffer {
        let g = Grid::from_fn(16, 16, |x, y| x * y);
        render_field(
            &g,
            &RenderOptions {
                width: 20,
                height: 14,
                colormap: Colormap::Hot,
                range: Some((0.0, 1.0)),
            },
        )
    }

    #[test]
    fn round_trip() {
        let fb = test_image();
        let bytes = encode_ppm(&fb);
        let back = decode_ppm(&bytes).expect("decode");
        assert_eq!(back, fb);
    }

    #[test]
    fn size_prediction_is_exact() {
        let fb = test_image();
        assert_eq!(encode_ppm(&fb).len() as u64, ppm_size_bytes(20, 14));
        // The paper-scale frame: 512×512 ≈ 768 KiB.
        assert_eq!(ppm_size_bytes(512, 512), 15 + 512 * 512 * 3);
    }

    #[test]
    fn header_is_standard() {
        let fb = test_image();
        let bytes = encode_ppm(&fb);
        assert!(bytes.starts_with(b"P6\n20 14\n255\n"));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(decode_ppm(b"").is_none());
        assert!(decode_ppm(b"P5\n2 2\n255\n----").is_none());
        assert!(decode_ppm(b"P6\n2 2\n65535\n").is_none());
        assert!(decode_ppm(b"P6\n2 2\n255\nshort").is_none());
        // No separator after maxval: no body to read.
        assert!(decode_ppm(b"P6\n2 2\n255").is_none());
        let fb = test_image();
        let mut truncated = encode_ppm(&fb);
        truncated.pop();
        assert!(decode_ppm(&truncated).is_none());
    }
}
