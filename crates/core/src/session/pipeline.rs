//! The single per-tag bearing pipeline shared by the batch server facade
//! and the streaming session.
//!
//! Buffer checks, the quality gate and calibration are written once here,
//! and [`FixPath`] names the one place the 2D, 3D and aided fixes differ.
//! The batch entry points (`LocalizationServer::fix::<K>`) run a one-shot
//! session fed the whole log, so identical inputs take the identical code
//! path, which is what makes the streaming/batch equivalence guarantee
//! hold bit-for-bit.

use crate::estimator::{Estimate, Estimator, TagObservation};
use crate::locate::aided::{AmbiguousBearing, ResolvedFix};
use crate::locate::plane::{Bearing2D, Fix2D};
use crate::locate::space::{Bearing3D, Fix3D};
use crate::obs::FixKind;
use crate::registry::RegisteredTag;
use crate::server::{PipelineConfig, ServerError};
use crate::snapshot::{SnapshotError, SnapshotSet};
use crate::spectrum::engine::SpectrumEngine;
use crate::spectrum::incremental::{fits_budget, IncrementalState, SyncOutcome};
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

/// The per-kind slots of one tag stream, one per [`FixPath`] kind.
///
/// `Slots` and [`Slot`] are `pub` only so the hidden items of the public
/// [`FixPath`] may name them; this module is private to the crate, so
/// neither is reachable outside it.
#[derive(Debug, Clone, Default)]
pub struct Slots {
    pub(super) two_d: Slot<Bearing2D>,
    pub(super) three_d: Slot<Bearing3D>,
    pub(super) aided: Slot<AmbiguousBearing>,
}

/// One fix kind's slot on a tag stream: the bearing cache plus the
/// incremental accumulators.
///
/// A `None` cache means *dirty*: the buffer changed (ingest or eviction)
/// since this kind was last computed, and the next fix recomputes it. A
/// `Some` cache holds the last result verbatim — including per-tag errors,
/// which are just as cacheable as bearings. `recomputes` counts the fresh
/// recomputes served so far (the engagement counter); `state` is the
/// accumulator state once engaged, boxed because it holds O(grid) sums.
#[derive(Debug, Clone)]
pub struct Slot<B> {
    pub(super) cached: Option<Result<B, ServerError>>,
    pub(super) recomputes: u32,
    pub(super) state: Option<Box<IncrementalState>>,
}

impl<B> Default for Slot<B> {
    fn default() -> Self {
        Slot {
            cached: None,
            recomputes: 0,
            state: None,
        }
    }
}

impl<B> Slot<B> {
    /// Decide whether this fresh recompute is served by the incremental
    /// accumulators, advancing the engagement counter either way. The
    /// caller only invokes this once the buffer, gate and snapshot-floor
    /// checks passed, so withheld and below-floor attempts never advance
    /// engagement.
    pub(super) fn engage(&mut self, kind: FixKind, config: &PipelineConfig) -> bool {
        let policy = &config.incremental;
        let engaged = policy.enabled
            && self.recomputes >= policy.engage_after_recomputes
            && fits_budget(kind, config.profile, &config.spectrum);
        self.recomputes = self.recomputes.saturating_add(1);
        engaged
    }

    /// Ensure the slot holds accumulator state matching the current
    /// configuration, sync it against the stream's calibrated window, and
    /// report what the sync did plus whether the reduction must fall back
    /// to the reference path (non-finite columns resident).
    pub(super) fn sync(
        &mut self,
        kind: FixKind,
        tag: &RegisteredTag,
        config: &PipelineConfig,
        set: &SnapshotSet,
        evicted: u64,
        ingested: u64,
    ) -> (SyncOutcome, bool) {
        if !matches!(&self.state, Some(s) if s.matches(config.profile, &config.spectrum, &tag.disk))
        {
            self.state = None;
        }
        let state = self.state.get_or_insert_with(|| {
            Box::new(IncrementalState::new(
                kind,
                config.profile,
                &config.spectrum,
                &tag.disk,
            ))
        });
        let outcome = state.sync(set, evicted, ingested, &config.incremental);
        (outcome, state.fallback_needed())
    }
}

mod sealed {
    /// Implemented by [`super::TwoD`], [`super::ThreeD`] and
    /// [`super::Aided`] only, so no other crate can add a fix kind.
    pub trait Sealed {}
}

/// A fix kind: the type parameter of every layer's `fix::<K>` and
/// `estimate::<K>` — [`TwoD`], [`ThreeD`] or [`Aided`].
///
/// The paper runs all three through one pipeline — per-tag spectrum peak,
/// bearing, intersection (§IV–V) — and so does the session: caching,
/// gating, incremental sync, skip accounting and estimator dispatch are
/// written once, generic over this trait, and each kind supplies only its
/// types, its slot on the tag stream, and the calls that differ. The trait
/// is sealed; its hidden items are the crate's own plumbing.
pub trait FixPath: sealed::Sealed {
    /// The event tag of this kind, which also keys its incremental grid.
    const KIND: FixKind;
    /// The multi-tag fix this kind serves; its estimate is
    /// [`Estimate<Self::Fix>`](Estimate).
    type Fix;

    /// One tag's bearing.
    #[doc(hidden)]
    type Bearing: Clone;

    /// This kind's cache and accumulator slot on a tag stream.
    #[doc(hidden)]
    fn slot(slots: &mut Slots) -> &mut Slot<Self::Bearing>;

    /// Fresh engine peak search over a calibrated window; `None` when the
    /// spectrum has no peak.
    #[doc(hidden)]
    fn fresh(
        engine: &SpectrumEngine,
        tag: &RegisteredTag,
        config: &PipelineConfig,
        set: &SnapshotSet,
    ) -> Option<Self::Bearing>;

    /// The bearing of a slot's reduced incremental accumulators; `None`
    /// when the slot holds no state or its spectrum has no peak.
    #[doc(hidden)]
    fn reduce(slot: &Slot<Self::Bearing>, tag: &RegisteredTag) -> Option<Self::Bearing>;

    /// Resolve the multi-tag fix through `estimator`.
    ///
    /// # Errors
    ///
    /// The estimator's [`ServerError::Locate`] on degenerate geometry.
    #[doc(hidden)]
    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[Self::Bearing],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate<Self::Fix>, ServerError>;
}

/// The 2D fix ([`Fix2D`]): azimuth bearings intersected in the horizontal
/// plane.
pub struct TwoD;

/// The 3D fix ([`Fix3D`]): horizontal-disk bearings with their ±z mirror.
pub struct ThreeD;

/// The ambiguity-resolving 3D fix ([`ResolvedFix`]) from each disk's own
/// orientation (the paper's future-work vertical-disk aid).
pub struct Aided;

impl sealed::Sealed for TwoD {}
impl sealed::Sealed for ThreeD {}
impl sealed::Sealed for Aided {}

impl FixPath for TwoD {
    const KIND: FixKind = FixKind::Fix2D;
    type Fix = Fix2D;
    type Bearing = Bearing2D;

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

    fn reduce(slot: &Slot<Bearing2D>, tag: &RegisteredTag) -> Option<Bearing2D> {
        let peak = slot.state.as_deref()?.peak_2d()?;
        Some(Bearing2D::from_peak(tag.disk.center.xy(), &peak))
    }

    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[Bearing2D],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate<Fix2D>, ServerError> {
        estimator.estimate_2d(bearings, observations, config)
    }
}

impl FixPath for ThreeD {
    const KIND: FixKind = FixKind::Fix3D;
    type Fix = Fix3D;
    type Bearing = Bearing3D;

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

    fn reduce(slot: &Slot<Bearing3D>, tag: &RegisteredTag) -> Option<Bearing3D> {
        let (dir, power) = slot.state.as_deref()?.peak_3d()?;
        Some(Bearing3D::from_peak(tag.disk.center, dir, power))
    }

    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[Bearing3D],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate<Fix3D>, ServerError> {
        estimator.estimate_3d(bearings, observations, config)
    }
}

impl FixPath for Aided {
    const KIND: FixKind = FixKind::Fix3DAided;
    type Fix = ResolvedFix;
    type Bearing = AmbiguousBearing;

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

    fn reduce(slot: &Slot<AmbiguousBearing>, tag: &RegisteredTag) -> Option<AmbiguousBearing> {
        let (dir, power) = slot.state.as_deref()?.peak_3d()?;
        Some(AmbiguousBearing::from_disk_peak(&tag.disk, dir, power))
    }

    fn estimate(
        estimator: &dyn Estimator,
        bearings: &[AmbiguousBearing],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate<ResolvedFix>, ServerError> {
        estimator.estimate_3d_aided(bearings, observations, config)
    }
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
