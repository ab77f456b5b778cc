//! The `--metrics[=FILE]` sink shared by `mmx` and `mmq`.

use mmcore::MmError;

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
}
