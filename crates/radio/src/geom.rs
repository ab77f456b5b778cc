//! Flat 2-D geometry: points, distances, and drive routes.
//!
//! The study's drive tests cover city streets (<50 km/h) and highways
//! (90–120 km/h); [`Route`] models a polyline a UE traverses at a given
//! speed, which is all the mobility the reproduction needs.

/// A position in meters on a local tangent plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate, meters.
    pub x: f64,
    /// North coordinate, meters.
    pub y: f64,
}

impl Point {
    /// Construct a point from east/north meters.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, meters.
    pub fn distance(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Linear interpolation toward `other` (`t` in `[0,1]`).
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// A polyline route traversed at constant speed.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    waypoints: Vec<Point>,
    /// Cumulative arc length at each waypoint, meters.
    cumlen: Vec<f64>,
}

impl Route {
    /// Build a route from at least two waypoints.
    ///
    /// # Panics
    /// Panics if fewer than two waypoints are given.
    pub fn new(waypoints: Vec<Point>) -> Self {
        assert!(waypoints.len() >= 2, "a route needs at least two waypoints");
        let mut cumlen = Vec::with_capacity(waypoints.len());
        let mut acc = 0.0;
        cumlen.push(0.0);
        for w in waypoints.windows(2) {
            acc += w[0].distance(w[1]);
            cumlen.push(acc);
        }
        Route { waypoints, cumlen }
    }

    /// A straight segment from `a` to `b`.
    pub fn line(a: Point, b: Point) -> Self {
        Route::new(vec![a, b])
    }

    /// Total length in meters.
    pub fn length(&self) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "Route::new rejects fewer than two waypoints"
        )]
        *self.cumlen.last().expect("non-empty")
    }

    /// The waypoints this route interpolates.
    pub fn waypoints(&self) -> &[Point] {
        &self.waypoints
    }

    /// Position after traveling `s` meters from the start (clamped to the
    /// ends).
    pub fn position_at(&self, s: f64) -> Point {
        let s = s.clamp(0.0, self.length());
        // cumlen is sorted; find the segment containing s.
        let idx = match self.cumlen.binary_search_by(|c| c.total_cmp(&s)) {
            Ok(i) => return self.waypoints[i],
            Err(i) => i - 1,
        };
        let seg_len = self.cumlen[idx + 1] - self.cumlen[idx];
        if seg_len <= 0.0 {
            return self.waypoints[idx];
        }
        let t = (s - self.cumlen[idx]) / seg_len;
        self.waypoints[idx].lerp(self.waypoints[idx + 1], t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 0.0));
    }

    #[test]
    fn route_length_sums_segments() {
        let r = Route::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(3.0, 14.0),
        ]);
        assert_eq!(r.length(), 15.0);
    }

    #[test]
    fn position_at_clamps_and_interpolates() {
        let r = Route::line(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        assert_eq!(r.position_at(-5.0), Point::new(0.0, 0.0));
        assert_eq!(r.position_at(40.0), Point::new(40.0, 0.0));
        assert_eq!(r.position_at(1000.0), Point::new(100.0, 0.0));
    }

    #[test]
    fn position_at_crosses_waypoints() {
        let r = Route::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        assert_eq!(r.position_at(10.0), Point::new(10.0, 0.0));
        assert_eq!(r.position_at(15.0), Point::new(10.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_route_panics() {
        let _ = Route::new(vec![Point::new(0.0, 0.0)]);
    }
}
