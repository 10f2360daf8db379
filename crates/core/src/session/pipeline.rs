//! The single per-tag bearing pipeline shared by the batch server facade
//! and the streaming session.
//!
//! Buffer checks, the quality gate, calibration and the fresh peak search
//! are written once here, and [`FixPath`] names the one place the 2D, 3D
//! and aided fixes differ. The batch entry point
//! (`LocalizationServer::bearing_2d_peak`) feeds [`bearing`] sets extracted
//! by [`SnapshotSet::from_log`]; the streaming session feeds it its
//! windowed incremental buffers. Identical inputs take the identical code
//! path, which is what makes the streaming/batch equivalence guarantee hold
//! bit-for-bit.

use super::{Slot, Slots};
use crate::estimator::{
    Estimate2D, Estimate3D, EstimateAided, Estimator, MlReport, TagObservation,
};
use crate::locate::aided::AmbiguousBearing;
use crate::locate::plane::Bearing2D;
use crate::locate::space::Bearing3D;
use crate::obs::FixKind;
use crate::registry::RegisteredTag;
use crate::server::{PipelineConfig, ServerError};
use crate::snapshot::{SnapshotError, SnapshotSet};
use crate::spectrum::engine::SpectrumEngine;
use crate::spectrum::incremental::IncrementalState;
use std::borrow::Cow;

/// Enforce the minimum-snapshot floor and apply the tag's orientation
/// calibration when configured. Borrows the input set when no calibration
/// applies, so the streaming hot path does not clone its buffers.
///
/// # Errors
///
/// [`ServerError::TooFewSnapshots`] below the configured floor.
pub(crate) fn checked_calibrated<'a>(
    tag: &RegisteredTag,
    set: &'a SnapshotSet,
    config: &PipelineConfig,
) -> Result<Cow<'a, SnapshotSet>, ServerError> {
    if set.len() < config.min_snapshots {
        return Err(ServerError::TooFewSnapshots {
            epc: tag.epc,
            got: set.len(),
            need: config.min_snapshots,
        });
    }
    Ok(match (&tag.orientation, config.orientation_calibration) {
        (Some(cal), true) => Cow::Owned(cal.apply(set)),
        _ => Cow::Borrowed(set),
    })
}

/// The streaming counterpart of [`SnapshotSet::from_log`]'s error contract:
/// an invalid disk is reported before an empty buffer, exactly as the batch
/// extraction orders its checks.
///
/// # Errors
///
/// [`ServerError::Snapshot`] — `BadDisk` or `NoReads`.
pub(crate) fn check_buffer(tag: &RegisteredTag, set: &SnapshotSet) -> Result<(), ServerError> {
    tag.disk
        .validate()
        .map_err(|e| ServerError::Snapshot(SnapshotError::BadDisk(e)))?;
    if set.is_empty() {
        return Err(ServerError::Snapshot(SnapshotError::NoReads));
    }
    Ok(())
}

/// Apply the configured per-tag quality gate to a windowed buffer: a
/// capture failing the [`crate::session::quarantine::QualityGate`]
/// thresholds is withheld from fixes with a skippable
/// [`ServerError::QualityGated`] instead of producing a wild bearing.
///
/// # Errors
///
/// [`ServerError::QualityGated`] when the gate is enabled and fails.
pub(crate) fn gate(
    tag: &RegisteredTag,
    config: &PipelineConfig,
    set: &SnapshotSet,
) -> Result<(), ServerError> {
    if config
        .quality_gate
        .passes(set, tag.disk.radius, config.spectrum.sigma)
    {
        Ok(())
    } else {
        Err(ServerError::QualityGated { epc: tag.epc })
    }
}

/// What distinguishes the 2D, 3D and orientation-aided fixes. The paper
/// runs all three through one pipeline — per-tag spectrum peak, bearing,
/// intersection (§IV–V) — and so does the session: caching, gating,
/// incremental sync, skip accounting and estimator dispatch are written
/// once, generic over this trait, and each kind supplies only its types,
/// its slot on the tag stream, and the calls that differ.
pub(crate) trait FixPath {
    /// The event tag of this kind, which also keys its incremental grid.
    const KIND: FixKind;
    /// One tag's bearing.
    type Bearing: Clone;
    /// The multi-tag fix with confidence and backend provenance.
    type Estimate;

    /// This kind's cache and accumulator slot on a tag stream.
    fn slot(slots: &mut Slots) -> &mut Slot<Self::Bearing>;

    /// Fresh engine peak search over a calibrated window; `None` when the
    /// spectrum has no peak.
    fn fresh(
        engine: &SpectrumEngine,
        tag: &RegisteredTag,
        config: &PipelineConfig,
        set: &SnapshotSet,
    ) -> Option<Self::Bearing>;

    /// The bearing of an incremental state's reduced accumulators.
    fn reduce(state: &IncrementalState, tag: &RegisteredTag) -> Option<Self::Bearing>;

    /// Resolve the multi-tag fix through `estimator`.
    ///
    /// # Errors
    ///
    /// The estimator's [`ServerError::Locate`] on degenerate geometry.
    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[Self::Bearing],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Self::Estimate, ServerError>;

    /// The estimate's ML refinement report (`None` on the spectrum backend).
    fn ml(estimate: &Self::Estimate) -> Option<MlReport>;
}

/// The 2D fix: azimuth bearings intersected in the horizontal plane.
pub(crate) struct TwoD;

/// The 3D fix: horizontal-disk bearings with their ±z mirror.
pub(crate) struct ThreeD;

/// The ambiguity-resolving 3D fix from each disk's own orientation.
pub(crate) struct Aided;

impl FixPath for TwoD {
    const KIND: FixKind = FixKind::Fix2D;
    type Bearing = Bearing2D;
    type Estimate = Estimate2D;

    fn slot(slots: &mut Slots) -> &mut Slot<Bearing2D> {
        &mut slots.two_d
    }

    fn fresh(
        engine: &SpectrumEngine,
        tag: &RegisteredTag,
        config: &PipelineConfig,
        set: &SnapshotSet,
    ) -> Option<Bearing2D> {
        let peak = engine.peak_2d(
            set,
            tag.disk.radius,
            config.profile,
            &config.spectrum,
            &config.engine,
        )?;
        Some(Bearing2D::from_peak(tag.disk.center.xy(), &peak))
    }

    fn reduce(state: &IncrementalState, tag: &RegisteredTag) -> Option<Bearing2D> {
        let peak = state.peak_2d()?;
        Some(Bearing2D::from_peak(tag.disk.center.xy(), &peak))
    }

    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[Bearing2D],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate2D, ServerError> {
        estimator.estimate_2d(bearings, observations, config)
    }

    fn ml(estimate: &Estimate2D) -> Option<MlReport> {
        estimate.ml
    }
}

impl FixPath for ThreeD {
    const KIND: FixKind = FixKind::Fix3D;
    type Bearing = Bearing3D;
    type Estimate = Estimate3D;

    fn slot(slots: &mut Slots) -> &mut Slot<Bearing3D> {
        &mut slots.three_d
    }

    fn fresh(
        engine: &SpectrumEngine,
        tag: &RegisteredTag,
        config: &PipelineConfig,
        set: &SnapshotSet,
    ) -> Option<Bearing3D> {
        let (dir, power) = engine.peak_3d(
            set,
            tag.disk.radius,
            config.profile,
            &config.spectrum,
            &config.engine,
        )?;
        Some(Bearing3D::from_peak(tag.disk.center, dir, power))
    }

    fn reduce(state: &IncrementalState, tag: &RegisteredTag) -> Option<Bearing3D> {
        let (dir, power) = state.peak_3d()?;
        Some(Bearing3D::from_peak(tag.disk.center, dir, power))
    }

    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[Bearing3D],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate3D, ServerError> {
        estimator.estimate_3d(bearings, observations, config)
    }

    fn ml(estimate: &Estimate3D) -> Option<MlReport> {
        estimate.ml
    }
}

impl FixPath for Aided {
    const KIND: FixKind = FixKind::Fix3DAided;
    type Bearing = AmbiguousBearing;
    type Estimate = EstimateAided;

    fn slot(slots: &mut Slots) -> &mut Slot<AmbiguousBearing> {
        &mut slots.aided
    }

    fn fresh(
        engine: &SpectrumEngine,
        tag: &RegisteredTag,
        config: &PipelineConfig,
        set: &SnapshotSet,
    ) -> Option<AmbiguousBearing> {
        let disk = &tag.disk;
        let (dir, power) =
            engine.peak_3d_for_disk(set, disk, config.profile, &config.spectrum, &config.engine)?;
        Some(AmbiguousBearing::from_disk_peak(disk, dir, power))
    }

    fn reduce(state: &IncrementalState, tag: &RegisteredTag) -> Option<AmbiguousBearing> {
        let (dir, power) = state.peak_3d()?;
        Some(AmbiguousBearing::from_disk_peak(&tag.disk, dir, power))
    }

    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[AmbiguousBearing],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<EstimateAided, ServerError> {
        estimator.estimate_3d_aided(bearings, observations, config)
    }

    fn ml(estimate: &EstimateAided) -> Option<MlReport> {
        estimate.ml
    }
}

/// One tag's bearing of kind `K` from an already-extracted snapshot set:
/// calibrate, then run the fresh peak search.
///
/// # Errors
///
/// [`ServerError::TooFewSnapshots`] / [`ServerError::EmptySpectrum`].
pub(crate) fn bearing<K: FixPath>(
    engine: &SpectrumEngine,
    tag: &RegisteredTag,
    config: &PipelineConfig,
    set: &SnapshotSet,
) -> Result<K::Bearing, ServerError> {
    let set = checked_calibrated(tag, set, config)?;
    K::fresh(engine, tag, config, &set).ok_or(ServerError::EmptySpectrum { epc: tag.epc })
}

/// Whether a per-tag failure is degenerate-input noise the multi-tag fixes
/// skip (the tag contributes nothing) rather than a hard error: missing
/// reads, a buffer below the snapshot floor, an empty angle spectrum, or a
/// capture withheld by the quality gate.
pub(crate) fn skippable(e: &ServerError) -> bool {
    matches!(
        e,
        ServerError::Snapshot(SnapshotError::NoReads)
            | ServerError::TooFewSnapshots { .. }
            | ServerError::EmptySpectrum { .. }
            | ServerError::QualityGated { .. }
    )
}
