//! APE — the Analog Performance Estimator (DATE 1999 reproduction).
//!
//! APE accepts the design parameters of an analog circuit and determines its
//! performance parameters along with anticipated sizes of all the circuit
//! elements (paper abstract). It is structured as the paper's Figure 2
//! hierarchy:
//!
//! | Level | Module | Contents |
//! |---|---|---|
//! | 1 | `ape-mos` (re-exported as [`level1`]) | CMOS transistor models and inverse sizing |
//! | 2 | [`basic`] | DC bias, current mirrors, gain stages, followers, differential pairs |
//! | 3 | [`opamp`] | operational amplifiers composed of level-2 blocks |
//! | 4 | [`module`] | analog library modules: amplifiers, filters, S&H, ADC, DAC |
//!
//! Beyond the hierarchy, [`netest`] implements the paper's §6 extension —
//! moment-based performance estimation for arbitrary user-level netlists —
//! and [`folded`] adds a second level-3 topology (folded-cascode OTA),
//! exercising the paper's "easily add new components" claim.
//!
//! All four levels evaluate through the [`graph`] — a memoized component
//! DAG keyed by bit-exact input fingerprints — so re-estimating after a
//! spec or design-variable delta (an annealing move, a sweep neighbor)
//! recomputes only the dirty subtrees and is bit-identical to a cold run.
//!
//! Every sized object carries a [`Performance`] attribute sheet and can emit
//! a SPICE-ready testbench [`Circuit`](ape_netlist::Circuit) for
//! verification with `ape-spice` — exactly the est-vs-sim methodology of the
//! paper's Tables 2, 3 and 5.
//!
//! # Example
//!
//! Size a mirror-loaded differential amplifier for a gain of 1000 at 1 µA
//! and inspect the estimate:
//!
//! ```
//! use ape_netlist::Technology;
//! use ape_core::basic::{DiffPair, DiffTopology};
//!
//! # fn main() -> Result<(), ape_core::ApeError> {
//! let tech = Technology::default_1p2um();
//! let pair = DiffPair::design(&tech, DiffTopology::MirrorLoad, 1000.0, 1e-6, 1e-12)?;
//! println!("{}", pair.perf); // gain, UGF, power, area, ...
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrs;
pub mod basic;
pub mod calibrate;
pub mod cancel;
mod error;
pub mod folded;
pub mod graph;
pub mod module;
pub mod netest;
pub mod opamp;

pub use attrs::{relative_error, Performance};
pub use error::ApeError;

/// Level 1 of the hierarchy: transistor models and sizing (re-export of
/// [`ape_mos`]).
pub mod level1 {
    pub use ape_mos::sizing::{
        size_for_gm_id, size_for_gm_id_at, size_for_id_vov, size_for_id_vov_at, threshold,
        vgs_for_id, SizedMos,
    };
    pub use ape_mos::{evaluate, BiasPoint, DeviceEval, Region};
}
