//! `hpcdash-push` — the real-time event fan-out hub.
//!
//! The legacy updates feed is a stateless poll: every `/api/updates` request
//! scans the whole `EventLog`, so N users cost N scans per refresh interval
//! — the same shape as the squeue storms the paper's caching exists to
//! prevent (§3.2). This crate inverts the data flow: `slurmctld` publishes each job
//! transition once into a [`Hub`], which fans it out to pre-filtered,
//! bounded per-subscriber queues. A long-poll route then parks a server
//! worker on the subscriber's condvar until events arrive or a deadline
//! passes; delivery cost no longer touches the daemons at all.
//!
//! Design points (see DESIGN.md §3):
//! - **Sharded registry** — subscribers are spread over shards so subscribe
//!   and fan-out contend on a fraction of the registry, not all of it.
//! - **Pre-filtered visibility** — the subscriber's account set comes from
//!   an [`AccountResolver`] (the dashboard's shared membership table) at
//!   subscribe time and is re-read on every `wait`, outside the fan-out
//!   path; the lookup set is rebuilt only when the resolver's `Arc` changes.
//!   Fan-out does an O(1) set-membership check per event, never a daemon
//!   query.
//! - **Coalesce-to-resync overflow** — a subscriber that stops draining is
//!   never allowed to block the publisher: when its bounded queue fills,
//!   the queue is dropped wholesale and the subscriber is marked
//!   `resync_required` (it refetches tables, like a truncated poll cursor).
//! - **Condvar wakeups** — `wait` parks until the queue is non-empty, a
//!   resync is pending, or the deadline passes, so a long-poll route holds
//!   a worker without burning CPU.

mod hub;

pub use hub::{AccountResolver, Delivery, Hub, HubConfig, SubscriberHandle};
