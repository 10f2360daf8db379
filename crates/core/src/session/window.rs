//! Sliding-window configuration for streaming sessions.
//!
//! Each per-(antenna, tag) snapshot stream keeps a bounded suffix of the
//! read history: at most `max_reports` snapshots, none older than
//! `max_age_s` seconds behind the session's newest report. Either bound can
//! be disabled; with both disabled the session buffers everything, which is
//! exactly the batch pipeline's behavior (and what the batch
//! `LocalizationServer::fix` and `estimate` use).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Time- and count-bounds of a session's per-tag snapshot buffers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Maximum snapshot age behind the session's newest report, seconds.
    /// `None` disables the time bound.
    pub max_age_s: Option<f64>,
    /// Maximum snapshots buffered per (antenna, tag) stream. `None`
    /// disables the count bound.
    pub max_reports: Option<usize>,
}

/// The default window is unbounded — streaming accumulates exactly what a
/// batch log would contain.
impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig::unbounded()
    }
}

impl WindowConfig {
    /// No eviction: buffer the full read history.
    pub fn unbounded() -> Self {
        WindowConfig {
            max_age_s: None,
            max_reports: None,
        }
    }

    /// Keep only the trailing `max_age_s` seconds of reads.
    pub fn last_seconds(max_age_s: f64) -> Self {
        WindowConfig {
            max_age_s: Some(max_age_s),
            max_reports: None,
        }
    }

    /// Keep only the newest `max_reports` reads per tag.
    pub fn last_reports(max_reports: usize) -> Self {
        WindowConfig {
            max_age_s: None,
            max_reports: Some(max_reports),
        }
    }

    /// Validate the bounds.
    ///
    /// # Errors
    ///
    /// Returns the first offending field.
    pub fn validate(&self) -> Result<(), WindowConfigError> {
        if let Some(age) = self.max_age_s {
            if !(age.is_finite() && age > 0.0) {
                return Err(WindowConfigError::BadMaxAge(age));
            }
        }
        if self.max_reports == Some(0) {
            return Err(WindowConfigError::ZeroMaxReports);
        }
        Ok(())
    }

    /// The eviction horizon for the time bound: snapshots strictly older
    /// than the returned time are out of the window. `None` when the time
    /// bound is disabled.
    pub(crate) fn horizon_s(&self, latest_t_s: f64) -> Option<f64> {
        self.max_age_s.map(|age| latest_t_s - age)
    }
}

/// An unusable [`WindowConfig`], reported by [`WindowConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowConfigError {
    /// The time bound is non-positive or non-finite.
    BadMaxAge(f64),
    /// A zero-length count bound would evict every read on arrival.
    ZeroMaxReports,
}

impl fmt::Display for WindowConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowConfigError::BadMaxAge(age) => {
                write!(f, "max_age_s {age} must be positive and finite")
            }
            WindowConfigError::ZeroMaxReports => write!(f, "max_reports must be at least 1"),
        }
    }
}

impl std::error::Error for WindowConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_default() {
        assert_eq!(WindowConfig::default(), WindowConfig::unbounded());
        assert_eq!(WindowConfig::last_seconds(2.0).max_age_s, Some(2.0));
        assert_eq!(WindowConfig::last_reports(64).max_reports, Some(64));
    }

    #[test]
    fn validation() {
        assert!(WindowConfig::unbounded().validate().is_ok());
        assert!(WindowConfig::last_seconds(1.5).validate().is_ok());
        assert!(WindowConfig::last_reports(1).validate().is_ok());
        assert_eq!(
            WindowConfig::last_seconds(0.0).validate(),
            Err(WindowConfigError::BadMaxAge(0.0))
        );
        assert!(WindowConfig::last_seconds(f64::NAN).validate().is_err());
        assert_eq!(
            WindowConfig::last_reports(0).validate(),
            Err(WindowConfigError::ZeroMaxReports)
        );
        assert!(!WindowConfigError::ZeroMaxReports.to_string().is_empty());
    }

    #[test]
    fn horizon_tracks_latest() {
        assert_eq!(WindowConfig::unbounded().horizon_s(10.0), None);
        assert_eq!(WindowConfig::last_seconds(2.0).horizon_s(10.0), Some(8.0));
    }
}
