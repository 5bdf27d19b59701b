//! Quantum circuit IR for the Parallax compiler suite.
//!
//! Everything downstream of the QASM front end works over this crate's
//! [`Circuit`] type: a flat, validated gate list in the neutral-atom
//! {U3, CZ} universal basis (the paper's Section I-A), with dependency
//! analysis ([`dag`]), ASAP layering, a basis-lowering pass playing the role
//! of the Qiskit transpiler ([`lower`]), a peephole optimizer ([`optimize`](mod@optimize)),
//! and a programmatic builder for the workload generators ([`builder`]).
//!
//! The structures the scheduler walks per layer are CSR, not nested
//! `Vec`s: [`dag::DependencyDag`] stores predecessor/successor lists as
//! offsets + flat `u32` lanes (four allocations total, any gate count),
//! and [`circuit::QubitGatesCsr`] does the same for the per-qubit gate
//! lists the frontier probes. Both are proven row-identical to their
//! retained nested oracles (`build_nested`, `qubit_gate_indices`) by
//! proptests here and in the umbrella differential suite; see
//! `docs/DATA_LAYOUT.md` for the layout and the oracle-retention
//! convention.
//!
//! # Example
//! ```
//! use parallax_circuit::{CircuitBuilder, optimize::optimize};
//!
//! let mut b = CircuitBuilder::new(3);
//! b.h(0).cx(0, 1).cx(1, 2).cx(1, 2); // the repeated CX cancels
//! let circuit = optimize(&b.build());
//! assert_eq!(circuit.cz_count(), 1);
//! ```

pub mod builder;
pub mod circuit;
pub mod dag;
pub mod gate;
pub mod lower;
pub mod optimize;
pub mod qelib;
pub mod slack;
pub mod template;
pub mod unitary;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, QubitGatesCsr};
pub use dag::{layers, DependencyDag};
pub use gate::Gate;
pub use lower::{apply_named, circuit_from_qasm_str, from_qasm, LowerError};
pub use optimize::optimize;
pub use slack::SlackTable;
pub use template::{circuit_bits_hash, structural_hash, BindError, CircuitTemplate, TemplateGate};
pub use unitary::{zyz_decompose, Mat2, C64};
