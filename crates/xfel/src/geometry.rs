//! 3-D rotations: uniform random orientations for the simulated beam and
//! hinge rotations for conformational changes.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A 3×3 rotation matrix (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rotation(pub [[f64; 3]; 3]);

impl Rotation {
    /// The identity rotation.
    pub fn identity() -> Self {
        Rotation([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Rotation by `angle_rad` around the (normalized) `axis`
    /// (Rodrigues' formula).
    pub fn around_axis(axis: [f64; 3], angle_rad: f64) -> Self {
        let norm = (axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2]).sqrt();
        assert!(norm > 1e-12, "axis must be nonzero");
        let (x, y, z) = (axis[0] / norm, axis[1] / norm, axis[2] / norm);
        let (s, c) = angle_rad.sin_cos();
        let t = 1.0 - c;
        Rotation([
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ])
    }

    /// Build from a unit quaternion `(w, x, y, z)`.
    pub fn from_quaternion(w: f64, x: f64, y: f64, z: f64) -> Self {
        let n = (w * w + x * x + y * y + z * z).sqrt();
        let (w, x, y, z) = (w / n, x / n, y / n, z / n);
        Rotation([
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        ])
    }

    /// Apply to a point.
    #[inline]
    pub fn apply(&self, p: [f64; 3]) -> [f64; 3] {
        let m = &self.0;
        [
            m[0][0] * p[0] + m[0][1] * p[1] + m[0][2] * p[2],
            m[1][0] * p[0] + m[1][1] * p[1] + m[1][2] * p[2],
            m[2][0] * p[0] + m[2][1] * p[1] + m[2][2] * p[2],
        ]
    }

    /// Matrix determinant (≈ +1 for proper rotations).
    pub fn determinant(&self) -> f64 {
        let m = &self.0;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }
}

/// Sample a uniformly distributed random rotation (Shoemake's method:
/// uniform unit quaternions).
pub fn random_rotation<R: Rng + ?Sized>(rng: &mut R) -> Rotation {
    let u1: f64 = rng.gen_range(0.0..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let u3: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let a = (1.0 - u1).sqrt();
    let b = u1.sqrt();
    Rotation::from_quaternion(a * u2.sin(), a * u2.cos(), b * u3.sin(), b * u3.cos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn assert_orthonormal(r: &Rotation) {
        // RᵀR = I and det = +1.
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = (0..3).map(|k| r.0[k][i] * r.0[k][j]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10, "RtR[{i}][{j}] = {dot}");
            }
        }
        assert!((r.determinant() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn identity_applies_trivially() {
        let p = [1.0, 2.0, 3.0];
        assert_eq!(Rotation::identity().apply(p), p);
    }

    #[test]
    fn axis_rotation_quarter_turn() {
        let r = Rotation::around_axis([0.0, 0.0, 1.0], std::f64::consts::FRAC_PI_2);
        let p = r.apply([1.0, 0.0, 0.0]);
        assert!((p[0]).abs() < 1e-12 && (p[1] - 1.0).abs() < 1e-12 && p[2].abs() < 1e-12);
    }

    #[test]
    fn axis_rotation_preserves_axis() {
        let axis = [1.0, 2.0, -0.5];
        let r = Rotation::around_axis(axis, 1.234);
        let p = r.apply(axis);
        for i in 0..3 {
            assert!((p[i] - axis[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn random_rotations_are_orthonormal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..64 {
            assert_orthonormal(&random_rotation(&mut rng));
        }
    }

    #[test]
    fn rotations_preserve_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let p = [3.0, -4.0, 12.0];
        let len = |q: [f64; 3]| (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]).sqrt();
        for _ in 0..32 {
            let r = random_rotation(&mut rng);
            assert!((len(r.apply(p)) - len(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn random_rotation_axes_cover_the_sphere() {
        // The rotated z-axis should hit all octants over many samples.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut octants = [false; 8];
        for _ in 0..512 {
            let v = random_rotation(&mut rng).apply([0.0, 0.0, 1.0]);
            let idx = usize::from(v[0] > 0.0) << 2
                | usize::from(v[1] > 0.0) << 1
                | usize::from(v[2] > 0.0);
            octants[idx] = true;
        }
        assert!(octants.iter().all(|&b| b), "octant coverage {octants:?}");
    }
}
