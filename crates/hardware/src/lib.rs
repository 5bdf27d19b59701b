//! Neutral-atom hardware model for the Parallax compiler suite.
//!
//! Models the machine of the paper's Fig. 2: atoms held by a static SLM
//! grid and a mobile AOD (rows/columns of optical traps), with the hardware
//! constraints of Section I-A:
//!
//! * Rydberg interaction radius and the 2.5x blockade radius ([`geometry`]),
//! * the minimum atom separation distance,
//! * AOD rows/columns that cannot cross and move in tandem ([`array`](mod@array)),
//! * the discretized SLM site grid with the paper's pitch rule ([`grid`]),
//! * the Table II machine parameters for QuEra's 256-qubit and Atom
//!   Computing's 1,225-qubit systems ([`params`]).
//!
//! [`AtomArray`] is engineered for the compiler's movement-planning hot
//! path: a uniform-bucket **spatial occupancy index** (maintained through
//! every position change) lets the batch-move constraint check find
//! separation conflicts from a handful of nearby atoms instead of
//! sweeping the whole array — the check emits violations in the same
//! order as the naive sweep, so move plans (and therefore compiled
//! schedules) are bit-identical. Measured on the 128-qubit TFIM compile,
//! the indexed scan is a large share of the scheduler stage's 192 ms →
//! 53 ms drop (PR 4, 10-sample means). A monotone
//! [`AtomArray::positions_epoch`] counter supports the scheduler's
//! failed-move memoization: equal epochs prove an unchanged
//! configuration without comparing positions.
//!
//! Internally the array is packed SoA lanes, not `Vec<Option<..>>`: a
//! `u8` trap-tag lane, `u32` payload lanes,
//! and `u32` AOD line-owner lanes with a `u32::MAX` free sentinel, so the
//! move-scan loops stream flat memory (`docs/DATA_LAYOUT.md`). With the
//! CSR circuit/graph layouts this took the 1000-qubit Atom-1225 cold
//! post-placement compile from 21.9 ms to 12.2 ms (10-sample means, one
//! machine, `experiments scale`), and a synthetic 4096-site grid
//! ([`MachineSpec::synthetic_grid`]) compiles 4000 qubits in ~155 ms.
//!
//! # Example
//! ```
//! use parallax_hardware::{AtomArray, MachineSpec, AodMove};
//!
//! let mut array = AtomArray::new(MachineSpec::quera_aquila_256(), 2);
//! array.place_in_slm(0, (2, 2));
//! array.place_in_slm(1, (10, 10));
//! array.transfer_to_aod(0, 0, 0).unwrap();
//! array.apply_aod_moves(&[AodMove { q: 0, x: 66.0, y: 70.0 }]).unwrap();
//! assert!(array.distance(0, 1) < 5.0);
//! ```

pub mod array;
pub mod fingerprint;
pub mod geometry;
pub mod grid;
pub mod params;

pub use array::{AodMove, AtomArray, MoveBatch, Trap, Violation};
pub use fingerprint::StableHasher;
pub use geometry::{
    point_segment_distance, segment_distance, violates_separation, within_blockade,
    within_interaction, Point,
};
pub use grid::{CellGeometry, Site, SiteGrid};
pub use params::{HardwareParams, MachineSpec};
