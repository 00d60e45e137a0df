//! # tdtm-thermal — lumped thermal-RC modeling at functional-block granularity
//!
//! This crate implements the thermal-modeling contribution of the paper
//! (Section 4): the duality between heat flow and electrical circuits, the
//! derivation of per-block thermal resistances and capacitances from silicon
//! material properties, and three models at different fidelities:
//!
//! * [`network::RcNetwork`] — a general lumped RC network (the "full model"
//!   of Figure 3B, with tangential inter-block resistances and explicit
//!   heatsink dynamics);
//! * [`block_model::BlockModel`] — the paper's simplified model (Figure 3C,
//!   Eq. 5): each block connects through its normal resistance to a
//!   constant-temperature heatsink node. This is the model the paper runs
//!   cycle-by-cycle inside the simulator;
//! * [`chipwide::ChipWideModel`] — the TEMPEST-style single-die-node model
//!   used by prior work, kept for the localized-vs-chip-wide comparison;
//! * [`boxcar::BoxcarProxy`] — the Brooks & Martonosi power-moving-average
//!   *proxy* for temperature, reproduced so Tables 9 and 10 (missed
//!   emergencies / false triggers) can be regenerated.
//!
//! # Examples
//!
//! The worked example from the paper's Section 4.1 (25 W through 2 K/W above
//! a 27 C ambient settles at 77 C):
//!
//! ```
//! use tdtm_thermal::network::RcNetwork;
//!
//! let mut net = RcNetwork::new(27.0);
//! let die = net.add_node(0.5, 27.0);      // small die capacitance
//! let sink = net.add_node(60.0, 27.0);    // 60 J/K heatsink
//! net.connect(die, sink, 1.0);            // die-to-case 1 K/W
//! net.connect_to_ambient(sink, 1.0);      // sink-to-ambient 1 K/W
//! net.set_power(die, 25.0);
//! net.run(5_000.0, 0.01);                 // let it settle
//! assert!((net.temperature(die) - 77.0).abs() < 0.1);
//! ```

pub mod block_model;
pub mod boxcar;
pub mod chipwide;
pub mod comparison;
pub mod duality;
pub mod floorplan;
pub mod multicore;
pub mod network;
pub mod silicon;

pub use block_model::{BlockModel, BlockParams};
pub use multicore::{CoupledChip, CouplingEdge, MulticoreFloorplan};
pub use boxcar::BoxcarProxy;
pub use chipwide::ChipWideModel;
pub use silicon::SiliconProperties;

/// Temperature in degrees Celsius.
///
/// The models work in Celsius throughout (differences are in kelvin, which
/// is the same unit size); absolute-zero correctness is not needed at
/// packaging temperatures.
pub type Celsius = f64;

/// Thermal watts.
pub type Watts = f64;
