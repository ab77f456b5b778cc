//! Mobility models for drive tests: fixed routes at city/highway speeds,
//! random-waypoint city driving, and static placement.
//!
//! The paper's Type-II campaigns drove city streets (<50 km/h) and highways
//! (90–120 km/h); every model here reduces to a position-at-time function so
//! the runner stays a simple fixed-step loop.

use mm_rng::{stream_rng, Rng};
use mmradio::geom::{Point, Route};

/// A mobility pattern: where is the UE at time `t`?
#[derive(Debug, Clone, PartialEq)]
pub enum Mobility {
    /// Stationary at a point.
    Static {
        /// The fixed position.
        pos: Point,
    },
    /// Follow a polyline at constant speed, stopping at the end.
    Drive {
        /// The route.
        route: Route,
        /// Speed in m/s.
        speed_mps: f64,
    },
}

/// City driving speed used in the paper's local tests (< 50 km/h).
pub const CITY_SPEED_MPS: f64 = 11.0; // ≈ 40 km/h
/// Highway driving speed (90–120 km/h).
pub const HIGHWAY_SPEED_MPS: f64 = 29.0; // ≈ 105 km/h

impl Mobility {
    /// Drive a straight west→east line of `length_m` meters at `speed_mps`,
    /// offset `y` from the origin.
    pub fn straight_line(y: f64, length_m: f64, speed_mps: f64) -> Self {
        Mobility::Drive {
            route: Route::line(Point::new(0.0, y), Point::new(length_m, y)),
            speed_mps,
        }
    }

    /// A random-waypoint city drive inside `[0, size_m]²` with `legs`
    /// segments, deterministic in `seed`.
    pub fn random_city_drive(size_m: f64, legs: usize, speed_mps: f64, seed: u64) -> Self {
        let mut rng = stream_rng(seed, 0x6d6f62); // "mob"
        let mut pts = Vec::with_capacity(legs + 1);
        for _ in 0..=legs.max(1) {
            pts.push(Point::new(
                rng.gen_range(0.0..size_m),
                rng.gen_range(0.0..size_m),
            ));
        }
        Mobility::Drive {
            route: Route::new(pts),
            speed_mps,
        }
    }

    /// Position at `t` seconds from the start.
    pub fn position(&self, t_s: f64) -> Point {
        match self {
            Mobility::Static { pos } => *pos,
            Mobility::Drive { route, speed_mps } => route.position_at(speed_mps * t_s),
        }
    }

    /// Current speed in m/s (0 once a drive reaches its end).
    pub fn speed_mps(&self, t_s: f64) -> f64 {
        match self {
            Mobility::Static { .. } => 0.0,
            Mobility::Drive { route, speed_mps } => {
                if speed_mps * t_s >= route.length() {
                    0.0
                } else {
                    *speed_mps
                }
            }
        }
    }

    /// Time to traverse the whole pattern, seconds (`None` for static).
    pub fn duration_s(&self) -> Option<f64> {
        match self {
            Mobility::Static { .. } => None,
            Mobility::Drive { route, speed_mps } => Some(route.length() / speed_mps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_never_moves() {
        let m = Mobility::Static {
            pos: Point::new(3.0, 4.0),
        };
        assert_eq!(m.position(0.0), m.position(1e4));
        assert_eq!(m.speed_mps(5.0), 0.0);
        assert!(m.duration_s().is_none());
    }

    #[test]
    fn drive_advances_at_speed() {
        let m = Mobility::straight_line(0.0, 1000.0, 10.0);
        assert_eq!(m.position(0.0), Point::new(0.0, 0.0));
        assert_eq!(m.position(50.0), Point::new(500.0, 0.0));
        // Clamps at the end.
        assert_eq!(m.position(1000.0), Point::new(1000.0, 0.0));
        assert_eq!(m.speed_mps(1000.0), 0.0);
        assert_eq!(m.duration_s(), Some(100.0));
    }

    #[test]
    fn random_city_drive_is_deterministic_and_bounded() {
        let a = Mobility::random_city_drive(5000.0, 10, CITY_SPEED_MPS, 42);
        let b = Mobility::random_city_drive(5000.0, 10, CITY_SPEED_MPS, 42);
        assert_eq!(a, b);
        let c = Mobility::random_city_drive(5000.0, 10, CITY_SPEED_MPS, 43);
        assert_ne!(a, c);
        for t in 0..200 {
            let p = a.position(f64::from(t));
            assert!((0.0..=5000.0).contains(&p.x) && (0.0..=5000.0).contains(&p.y));
        }
    }

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "the test pins the paper's published speed constants to their stated bands"
    )]
    fn paper_speed_constants_are_in_the_stated_bands() {
        assert!(CITY_SPEED_MPS * 3.6 < 50.0);
        let kmh = HIGHWAY_SPEED_MPS * 3.6;
        assert!((90.0..=120.0).contains(&kmh));
    }
}
