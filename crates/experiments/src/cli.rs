//! Flag parsing shared by `mmx`, `mmq` and `mmqd`: numbers, `--scale`,
//! `--duration-s` and the `--metrics[=FILE]` sink. Every bad value is an
//! [`MmError::Config`], so the binaries exit 2 with a hint naming the flag.

use mmcore::MmError;

/// The number following `flag`.
pub fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, MmError> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| MmError::Config(format!("{flag} expects a number")))
}

/// `--scale X|paper`: `paper` is the paper's full crawl (scale 1);
/// otherwise a finite number above zero.
pub fn parse_scale(value: Option<String>) -> Result<f64, MmError> {
    if value.as_deref() == Some("paper") {
        return Ok(1.0);
    }
    value
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| MmError::Config("--scale expects `paper` or a finite number above 0".into()))
}

/// `--duration-s N`, returned in milliseconds; a value whose milliseconds
/// do not fit in a `u64` is rejected rather than wrapped.
pub fn parse_duration_s(value: Option<String>) -> Result<u64, MmError> {
    let secs: u64 = parse_num("--duration-s", value)?;
    secs.checked_mul(1000).ok_or_else(|| {
        MmError::Config(format!(
            "--duration-s {secs} is too long (at most {} s)",
            u64::MAX / 1000
        ))
    })
}

/// Where a `--metrics` telemetry snapshot goes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum MetricsSink {
    /// No `--metrics` flag: nothing is written.
    #[default]
    Off,
    /// `--metrics`: one line on stderr.
    Stderr,
    /// `--metrics=FILE`: one line written to `FILE`.
    File(String),
}

impl MetricsSink {
    /// The sink a `--metrics` or `--metrics=FILE` argument selects, or
    /// `None` for any other argument.
    pub fn from_flag(arg: &str) -> Option<MetricsSink> {
        if arg == "--metrics" {
            return Some(MetricsSink::Stderr);
        }
        arg.strip_prefix("--metrics=")
            .map(|path| MetricsSink::File(path.to_string()))
    }

    /// Write `json` plus a newline to the sink; a no-op when off.
    pub fn emit(&self, json: &str) -> Result<(), MmError> {
        match self {
            MetricsSink::Off => {}
            MetricsSink::Stderr => eprintln!("{json}"),
            MetricsSink::File(path) => std::fs::write(path, format!("{json}\n"))?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_select_the_sink() {
        use MetricsSink::{File, Stderr};
        assert_eq!(MetricsSink::from_flag("--metrics"), Some(Stderr));
        assert_eq!(
            MetricsSink::from_flag("--metrics=m.json"),
            Some(File("m.json".into()))
        );
        assert_eq!(MetricsSink::from_flag("--metricsx"), None);
        assert_eq!(MetricsSink::from_flag("f5"), None);
    }

    #[test]
    fn scale_is_paper_or_finite_and_positive() {
        let scale = |v: &str| parse_scale(Some(v.to_string())).ok();
        assert_eq!(scale("paper"), Some(1.0));
        assert_eq!(scale("0.05"), Some(0.05));
        for bad in ["0", "-3", "nan", "inf", "x"] {
            assert_eq!(scale(bad), None, "{bad}");
        }
        assert!(parse_scale(None).is_err());
    }

    #[test]
    fn duration_is_checked_in_milliseconds() {
        let ms = |v: &str| parse_duration_s(Some(v.to_string())).ok();
        assert_eq!(ms("480"), Some(480_000));
        assert_eq!(ms("18446744073709551"), Some(18_446_744_073_709_551_000));
        assert_eq!(ms("18446744073709552"), None);
        assert_eq!(ms("-1"), None);
    }
}
