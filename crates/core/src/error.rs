//! Error type for the estimator.

use ape_mos::MosError;
use ape_netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Errors produced while sizing or estimating a component.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ApeError {
    /// A specification value is non-physical or out of the supported range.
    BadSpec {
        /// Which parameter.
        param: &'static str,
        /// Explanation.
        message: String,
    },
    /// The specification is internally inconsistent or unreachable in this
    /// technology (e.g. gain requiring a subthreshold gm beyond `Id/(n·VT)`).
    Infeasible {
        /// Which component could not be sized.
        component: &'static str,
        /// Explanation.
        message: String,
    },
    /// A device-level sizing call failed.
    Device(MosError),
    /// Netlist emission failed (programming error in a topology template).
    Netlist(NetlistError),
    /// The technology lacks a required model card.
    MissingModel(&'static str),
    /// The work was abandoned because its cancellation token fired (batch
    /// shutdown or an expired per-job deadline) — see [`crate::cancel`].
    Cancelled,
    /// A composed performance figure came out NaN or infinite. The inputs
    /// passed their individual range checks but their combination collapsed
    /// (division by a vanishing conductance, sqrt of a negative gain
    /// budget, overflow) — reported instead of returning poisoned numbers.
    NonFinite {
        /// Which composition stage produced the non-finite value.
        stage: &'static str,
        /// Which figure went non-finite.
        what: &'static str,
    },
    /// A netlist's linearised system would exceed
    /// [`MAX_NETLIST_UNKNOWNS`](crate::netest::MAX_NETLIST_UNKNOWNS):
    /// rejected before any work, since the dense small-signal matrices grow
    /// with its square.
    Oversized {
        /// Unknowns (node voltages plus branch currents) the netlist needs.
        unknowns: usize,
        /// The cap it exceeds.
        limit: usize,
    },
}

impl fmt::Display for ApeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApeError::BadSpec { param, message } => write!(f, "bad spec `{param}`: {message}"),
            ApeError::Infeasible { component, message } => {
                write!(f, "infeasible spec for {component}: {message}")
            }
            ApeError::Device(e) => write!(f, "device sizing failed: {e}"),
            ApeError::Netlist(e) => write!(f, "netlist emission failed: {e}"),
            ApeError::MissingModel(kind) => write!(f, "technology lacks a {kind} model card"),
            ApeError::Cancelled => write!(f, "work cancelled (token fired or deadline expired)"),
            ApeError::NonFinite { stage, what } => {
                write!(f, "{stage} produced a non-finite {what}")
            }
            ApeError::Oversized { unknowns, limit } => write!(
                f,
                "netlist needs {unknowns} unknowns, over the estimator's limit of {limit}"
            ),
        }
    }
}

impl Error for ApeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ApeError::Device(e) => Some(e),
            ApeError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<MosError> for ApeError {
    fn from(e: MosError) -> Self {
        ApeError::Device(e)
    }
}

#[doc(hidden)]
impl From<NetlistError> for ApeError {
    fn from(e: NetlistError) -> Self {
        ApeError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traits_and_source() {
        fn assert_traits<T: Send + Sync + Error>() {}
        assert_traits::<ApeError>();
        let e = ApeError::Device(MosError::InvalidInput("x".into()));
        assert!(e.source().is_some());
    }
}
