//! The `/slurm/v0` structured API: the dashboard's analog of `slurmrestd`.
//!
//! The paper's dashboard reaches Slurm through the command→text→parse
//! boundary (`squeue` renders reparsed by `crates/slurmcli`). The Palmetto
//! API work (PAPERS.md: "Building the Palmetto API") layers granular,
//! token-scoped permissions and caching on a Slurm REST API instead; this
//! crate reproduces that direction on top of the epoch-published
//! [`ClusterSnapshot`](hpcdash_slurm::snapshot::ClusterSnapshot):
//!
//! * [`scope`] — the permission vocabulary (`read-own-jobs`,
//!   `read-account:<acct>`, `read-partition:<part>`, `read-cluster`,
//!   `admin-act-as`) and the narrowing rule that makes a token's view
//!   provably a subset of the subject's widget-route view.
//! * [`token`] — mint/revoke/authenticate with deterministic secrets and
//!   `hpcdash_api_token_*` audit metrics.
//! * [`serialize`] — JSON bodies built straight from snapshot structs:
//!   zero text render, zero parse.
//! * [`view`] — scope → snapshot-index resolution.
//!
//! The crate deliberately knows nothing about HTTP or the dashboard
//! context; `crates/core`'s `api::slurmrest` wires these pieces into the
//! router with the usual trace/metrics/resilience envelopes.

pub mod scope;
pub mod serialize;
pub mod token;
pub mod view;

pub use scope::{Scope, ScopeSet};
pub use token::{AuthError, AuthedToken, MintedToken, TokenInfo, TokenStore};
pub use view::visible_job_positions;
