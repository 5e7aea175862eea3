//! The typed job model: what a farm can be asked to do ([`Request`]), what
//! it answers ([`Response`]), how it fails ([`FarmError`]), and the
//! content-addressed key that identifies a request for deduplication.

use ape_core::netest::NetlistEstimate;
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_core::ApeError;
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, NodeId, Technology};
use ape_oblx::{InitialPoint, OblxError, SynthesisOptions, SynthesisOutcome};

/// A unit of work submitted to a [`Farm`](crate::Farm).
///
/// Every variant is a pure function of the request payload plus the farm's
/// [`Technology`]: submitting the same request twice yields the same
/// response, which is what makes in-flight deduplication sound. The
/// estimation graph's bit-exact memo keys make every estimate a pure
/// function of its inputs, so results are identical whether a thread's
/// graph is cold or warm.
#[derive(Debug, Clone)]
pub enum Request {
    /// Size a two-stage op-amp with [`OpAmp::design`] (hierarchy levels
    /// 1–3 of the estimator).
    OpAmpDesign {
        /// Topology selections.
        topology: OpAmpTopology,
        /// Performance specification.
        spec: OpAmpSpec,
    },
    /// Estimate an arbitrary netlist with
    /// [`estimate_netlist`](ape_core::netest::estimate_netlist).
    NetlistEstimate {
        /// The circuit to analyse (boxed: circuits are large relative to
        /// the other variants).
        circuit: Box<Circuit>,
        /// Node whose AC response is observed.
        output: NodeId,
    },
    /// Run the full annealing synthesis with
    /// [`synthesize`](ape_oblx::synthesize).
    Synthesize {
        /// Topology selections.
        topology: OpAmpTopology,
        /// Performance specification.
        spec: OpAmpSpec,
        /// Search starting point.
        init: InitialPoint,
        /// Annealing options.
        opts: SynthesisOptions,
    },
    /// An arbitrary user job. The dedup key covers only `label` and
    /// `nonce` — callers must pick a distinct `nonce` per distinct
    /// computation (or a fresh one per call to opt out of deduplication).
    Custom {
        /// Human-readable label (also part of the dedup key).
        label: &'static str,
        /// Disambiguates distinct custom computations under one label.
        nonce: u64,
        /// The computation; receives the farm's technology.
        run: fn(&Technology) -> Result<Response, FarmError>,
    },
}

/// The result payload of a completed [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// From [`Request::OpAmpDesign`].
    OpAmp(Box<OpAmp>),
    /// From [`Request::NetlistEstimate`].
    Netlist(Box<NetlistEstimate>),
    /// From [`Request::Synthesize`].
    Synthesis(Box<SynthesisOutcome>),
    /// Free-form payload for [`Request::Custom`] jobs.
    Text(String),
}

impl Response {
    /// The op-amp payload, if this is an [`Response::OpAmp`].
    pub fn as_opamp(&self) -> Option<&OpAmp> {
        match self {
            Response::OpAmp(a) => Some(a),
            _ => None,
        }
    }

    /// The netlist estimate, if this is a [`Response::Netlist`].
    pub fn as_netlist(&self) -> Option<&NetlistEstimate> {
        match self {
            Response::Netlist(n) => Some(n),
            _ => None,
        }
    }

    /// The synthesis outcome, if this is a [`Response::Synthesis`].
    pub fn as_synthesis(&self) -> Option<&SynthesisOutcome> {
        match self {
            Response::Synthesis(s) => Some(s),
            _ => None,
        }
    }
}

/// How a farm job can fail.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FarmError {
    /// The estimator rejected or could not satisfy the request.
    Ape(ApeError),
    /// The synthesis engine failed.
    Oblx(OblxError),
    /// The job was cancelled (explicitly or by its deadline) before it
    /// produced a result.
    Cancelled,
    /// The job panicked; the worker survived and the panic payload (when
    /// it was a string) is preserved.
    Panicked(String),
    /// Fail-fast submission found the farm at its admission bound.
    QueueFull,
    /// The farm was shutting down when the job was submitted.
    ShuttingDown,
    /// The farm lost track of the job: its worker died outside the panic
    /// net, or the executor has no worker thread to run it on. Surfaced as
    /// an error instead of hanging or panicking the waiter.
    WorkerLost(String),
    /// A submission referenced a technology fingerprint that was never
    /// registered with [`Farm::register_technology`](crate::Farm::register_technology).
    /// The job is rejected before it is admitted or joins a flight.
    UnknownTechnology(u64),
    /// A submission referenced a calibration fingerprint that was never
    /// registered with [`Farm::register_calibration`](crate::Farm::register_calibration).
    /// The job is rejected before it is admitted or joins a flight.
    UnknownCalibration(u64),
    /// A registration would add a new technology or calibration table to
    /// a farm that already holds [`MAX_REGISTERED`](crate::pool::MAX_REGISTERED)
    /// of them. Nothing was stored; fingerprints already registered still
    /// work.
    RegistryFull,
    /// A submission paired a calibration with a technology other than the
    /// one the table was fitted for. Applying it would silently correct
    /// with the wrong anchors, so the job is rejected up front.
    CalibrationMismatch {
        /// The selected technology's fingerprint.
        expected: u64,
        /// The technology fingerprint the calibration table carries.
        got: u64,
    },
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Ape(e) => write!(f, "estimator error: {e}"),
            FarmError::Oblx(e) => write!(f, "synthesis error: {e}"),
            FarmError::Cancelled => write!(f, "job cancelled"),
            FarmError::Panicked(m) => write!(f, "job panicked: {m}"),
            FarmError::QueueFull => write!(f, "queue full"),
            FarmError::ShuttingDown => write!(f, "farm shutting down"),
            FarmError::WorkerLost(m) => write!(f, "farm lost the job: {m}"),
            FarmError::UnknownTechnology(fp) => {
                write!(f, "unknown technology fingerprint {fp:#018x}")
            }
            FarmError::UnknownCalibration(fp) => {
                write!(f, "unknown calibration fingerprint {fp:#018x}")
            }
            FarmError::RegistryFull => write!(
                f,
                "registry full: at most {} registrations of each kind",
                crate::pool::MAX_REGISTERED
            ),
            FarmError::CalibrationMismatch { expected, got } => write!(
                f,
                "calibration was fitted for technology {got:#018x}, job runs on {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for FarmError {}

impl From<ApeError> for FarmError {
    fn from(e: ApeError) -> Self {
        match e {
            ApeError::Cancelled => FarmError::Cancelled,
            other => FarmError::Ape(other),
        }
    }
}

impl From<OblxError> for FarmError {
    fn from(e: OblxError) -> Self {
        match e {
            OblxError::Cancelled => FarmError::Cancelled,
            other => FarmError::Oblx(other),
        }
    }
}

/// Content-addressed identity of `(technology, request)`.
///
/// Two requests with the same key are treated as the same computation by
/// the farm's in-flight deduplication. The key is built on the same bit-exact
/// [`Fingerprint`] helper the estimation graph uses for its memo keys
/// (topologies and specs fold through their `fold_fingerprint` methods),
/// so the farm and the graph agree on what "the same inputs" means.
/// The hash is stable within a process but is not a persistent format.
/// Circuits are hashed through their canonical SPICE deck; `InitialPoint`
/// and `SynthesisOptions` are hashed through their `Debug` rendering,
/// which is exact for this crate's field types.
pub fn canonical_key(tech: &Technology, req: &Request) -> u64 {
    let fp = Fingerprint::new().u64(tech.fingerprint());
    match req {
        Request::OpAmpDesign { topology, spec } => spec
            .fold_fingerprint(topology.fold_fingerprint(fp.u8(0)))
            .finish(),
        Request::NetlistEstimate { circuit, output } => fp
            .u8(1)
            .str(&circuit.to_spice_deck(tech))
            .u64(usize::from(*output) as u64)
            .finish(),
        Request::Synthesize {
            topology,
            spec,
            init,
            opts,
        } => spec
            .fold_fingerprint(topology.fold_fingerprint(fp.u8(2)))
            .str(&format!("{init:?}"))
            .str(&format!("{opts:?}"))
            .finish(),
        Request::Custom { label, nonce, .. } => fp.u8(3).str(label).u64(*nonce).finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_core::basic::MirrorTopology;

    fn spec() -> OpAmpSpec {
        OpAmpSpec {
            gain: 200.0,
            ugf_hz: 5e6,
            area_max_m2: 5000e-12,
            ibias: 10e-6,
            zout_ohm: None,
            cl: 10e-12,
        }
    }

    #[test]
    fn identical_requests_share_a_key() {
        let tech = Technology::default_1p2um();
        let t = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let a = Request::OpAmpDesign {
            topology: t,
            spec: spec(),
        };
        let b = Request::OpAmpDesign {
            topology: t,
            spec: spec(),
        };
        assert_eq!(canonical_key(&tech, &a), canonical_key(&tech, &b));
    }

    #[test]
    fn spec_and_topology_perturbations_change_the_key() {
        let tech = Technology::default_1p2um();
        let t = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let base = Request::OpAmpDesign {
            topology: t,
            spec: spec(),
        };
        let k0 = canonical_key(&tech, &base);

        let mut s = spec();
        s.gain += 1e-9;
        let k1 = canonical_key(
            &tech,
            &Request::OpAmpDesign {
                topology: t,
                spec: s,
            },
        );
        assert_ne!(k0, k1, "bit-level spec change must re-key");

        let k2 = canonical_key(
            &tech,
            &Request::OpAmpDesign {
                topology: OpAmpTopology::miller(MirrorTopology::Wilson, false),
                spec: spec(),
            },
        );
        assert_ne!(k0, k2);
    }

    #[test]
    fn canonical_key_matches_the_shared_fingerprint_helper() {
        // The farm's content-addressed key and the estimation graph's memo
        // keys are built from the same `ape_mos::fingerprint` helper and the
        // same `fold_fingerprint` methods, so a hand-built chain reproduces
        // the farm key exactly.
        let tech = Technology::default_1p2um();
        let t = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let req = Request::OpAmpDesign {
            topology: t,
            spec: spec(),
        };
        let expect = spec()
            .fold_fingerprint(t.fold_fingerprint(Fingerprint::new().u64(tech.fingerprint()).u8(0)))
            .finish();
        assert_eq!(canonical_key(&tech, &req), expect);
    }

    #[test]
    fn solver_choice_is_part_of_the_key() {
        // `SynthesisOptions` is hashed through its `Debug` rendering, so a
        // job resized by a different search engine must never join a
        // flight computed by another one.
        use ape_oblx::{InitialPoint, SolverChoice, SynthesisOptions};
        let tech = Technology::default_1p2um();
        let t = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let req_with = |solver: SolverChoice| Request::Synthesize {
            topology: t,
            spec: spec(),
            init: InitialPoint::Blind,
            opts: SynthesisOptions {
                solver,
                ..SynthesisOptions::default()
            },
        };
        let keys: Vec<u64> = [
            SolverChoice::Sa,
            SolverChoice::CmaEs,
            SolverChoice::ParticleSwarm,
            SolverChoice::NewtonPolish,
            SolverChoice::Portfolio,
        ]
        .into_iter()
        .map(|s| canonical_key(&tech, &req_with(s)))
        .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "solvers {i} and {j} collide");
            }
        }
        assert_eq!(
            canonical_key(&tech, &req_with(SolverChoice::Sa)),
            canonical_key(&tech, &req_with(SolverChoice::default())),
        );
    }

    #[test]
    fn technology_is_part_of_the_key() {
        let tech = Technology::default_1p2um();
        let mut tech2 = tech.clone();
        tech2.vdd += 0.1;
        let t = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let req = Request::OpAmpDesign {
            topology: t,
            spec: spec(),
        };
        assert_ne!(canonical_key(&tech, &req), canonical_key(&tech2, &req));
    }

    #[test]
    fn cancelled_errors_fold_into_the_cancelled_variant() {
        assert_eq!(FarmError::from(ApeError::Cancelled), FarmError::Cancelled);
        assert_eq!(FarmError::from(OblxError::Cancelled), FarmError::Cancelled);
    }
}
